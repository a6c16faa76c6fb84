"""The repo's benchmark: four workloads, end-to-end and per-layer metrics.

Self-contained: drives the engine under ``src/`` only through its public
surface and times calls into public functions from out here — nothing
under ``src/`` knows this package exists.  See ``perf/README.md``.
"""

import os
import sys

#: The checkout this package sits in; everything is read and written below it.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perf", "out")


def use_checkout_source() -> None:
    """Put this checkout's ``src/`` first on the import path.

    An editable install may point ``repro`` at another checkout; the
    numbers must come from the code next to this package, and worker
    processes (shard workers, spawned scan pools) must import the same.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perf: no engine source at {SRC}; nothing to measure")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    inherited = os.environ.get("PYTHONPATH", "")
    if SRC not in inherited.split(os.pathsep):
        os.environ["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
