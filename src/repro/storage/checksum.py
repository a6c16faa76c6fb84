"""The page and SMA-body checksum: zlib CRC-32.

Every heap page and every SMA-file body carries one CRC-32 (polynomial
0x04C11DB7, ~2 µs per 4 KB page in the standard library).  Both meta
sidecars record the algorithm's name as ``checksum_algo``; a file that
records anything else is a format this code does not read.
"""

from __future__ import annotations

import zlib

#: The name both meta sidecars record as ``checksum_algo``.
ALGORITHM = "crc32"


def checksum(data: bytes) -> int:
    """CRC-32 of *data* as a 32-bit unsigned integer."""
    return zlib.crc32(data) & 0xFFFFFFFF
