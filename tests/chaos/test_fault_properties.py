"""Property tests: checksum codec laws and fault-schedule determinism.

Hypothesis drives random payloads and access sequences through the two
foundations the chaos layer rests on:

* the checksum must be deterministic and must detect every single-bit
  flip (a CRC-32 guarantee);
* a :class:`~repro.storage.faults.FaultInjector` must produce the exact
  same schedule for the same seed regardless of directory prefixes or
  payload identity — determinism is what makes differential testing
  reproducible.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sma_file import SmaFile
from repro.storage.buffer import BufferPool
from repro.storage.checksum import checksum
from repro.storage.faults import FaultInjector, FaultSpec
from repro.storage.stats import IoStats


class TestChecksumCodec:
    @given(data=st.binary(max_size=512))
    def test_deterministic(self, data):
        assert checksum(data) == checksum(data)
        assert 0 <= checksum(data) <= 0xFFFFFFFF

    @given(
        data=st.binary(min_size=1, max_size=256),
        position=st.integers(min_value=0),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_single_bit_flip_always_detected(self, data, position, bit):
        """CRC-32 catches every 1-bit error."""
        flipped = bytearray(data)
        flipped[position % len(data)] ^= 1 << bit
        assert checksum(bytes(flipped)) != checksum(data)


#: Deterministic access-sequence strategy: (basename, page) pairs.
_ACCESSES = st.lists(
    st.tuples(
        st.sampled_from(["a.heap", "b.heap", "x.sma"]),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=48,
)


def _replay(seed: int, accesses) -> list[dict]:
    """Drive one injector through *accesses*, collecting its firing log."""
    injector = FaultInjector(
        seed=seed,
        specs=(
            FaultSpec("bit_flip", path=".heap", probability=0.5),
            FaultSpec("short_read", path=".sma", probability=0.3, skip=1),
            FaultSpec("latency", probability=0.2, latency_s=0.0),
        ),
    )
    payload = bytes(range(64))
    for name, page in accesses:
        injector.before_read(os.path.join("/anywhere", name), page)
        injector.filter_read(os.path.join("/anywhere", name), page, payload)
    return injector.fired_events()


class TestInjectorDeterminism:
    @given(seed=st.integers(min_value=0, max_value=2**16), accesses=_ACCESSES)
    def test_same_seed_same_schedule(self, seed, accesses):
        assert _replay(seed, accesses) == _replay(seed, accesses)

    @given(seed=st.integers(min_value=0, max_value=2**16), accesses=_ACCESSES)
    def test_schedule_ignores_directory_prefix(self, seed, accesses):
        """Decisions key on basenames: temp dirs don't change schedules."""
        injector_a = FaultInjector(
            seed=seed, specs=(FaultSpec("bit_flip", probability=0.5),)
        )
        injector_b = FaultInjector(
            seed=seed, specs=(FaultSpec("bit_flip", probability=0.5),)
        )
        payload = b"\x5a" * 32
        for name, page in accesses:
            injector_a.filter_read(os.path.join("/tmp/one", name), page, payload)
            injector_b.filter_read(os.path.join("/var/two", name), page, payload)
        assert injector_a.fired_events() == injector_b.fired_events()

    @given(seed_a=st.integers(0, 2**16), seed_b=st.integers(0, 2**16))
    def test_bit_flip_payload_transform_is_pure(self, seed_a, seed_b):
        """The flipped payload depends only on (seed, file, page)."""
        payload = bytes(range(256))
        flips = []
        for seed in (seed_a, seed_b):
            injector = FaultInjector(
                seed=seed, specs=(FaultSpec("bit_flip"),)
            )
            flips.append(injector.filter_read("f.heap", 3, payload))
        if seed_a == seed_b:
            assert flips[0] == flips[1]
        for flipped in flips:
            # Always exactly one bit of damage.
            delta = [a ^ b for a, b in zip(flipped, payload)]
            assert sum(bin(d).count("1") for d in delta) == 1


class TestSmaRoundTrip:
    """Write/reopen/verify over random value arrays (satellite b)."""

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=-(2**31), max_value=2**31 - 1),
            min_size=1,
            max_size=64,
        ),
        with_validity=st.booleans(),
        flip_at=st.integers(min_value=0),
    )
    def test_build_reopen_then_bitflip_detected(
        self, values, with_validity, flip_at
    ):
        pool = BufferPool(capacity_pages=16, stats=IoStats())
        array = np.asarray(values, dtype=np.int64)
        valid = None
        if with_validity:
            valid = np.asarray(
                [i % 3 != 0 for i in range(len(values))], dtype=bool
            )
            if valid.all():  # builder semantics: all-valid drops the vector
                valid[0] = False
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "probe.sma")
            SmaFile.build(path, array, pool, valid=valid, page_size=256)

            clean = SmaFile.open(path, pool)
            assert not clean.is_corrupt
            assert np.array_equal(clean.values(charge=False), array)
            if valid is not None:
                assert np.array_equal(clean.valid_mask(), valid)

            size = os.path.getsize(path)
            offset = flip_at % size
            with open(path, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)
                handle.seek(offset)
                handle.write(bytes([byte[0] ^ 0x01]))

            damaged = SmaFile.open(path, pool)
            assert damaged.is_corrupt
            assert "checksum mismatch" in damaged.corrupt_reason
