"""Atomic replacement of small metadata files (sidecars and manifests)."""

from __future__ import annotations

import os


def write_atomic(path: str, data: bytes) -> None:
    """Replace *path* with *data*: readers see the old bytes or the new.

    The bytes go to ``<path>.tmp``, are fsynced, and the tmp file is
    renamed over *path*.  A crash mid-write leaves the old file intact.
    Only the file's own bytes are synced, not its directory.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
