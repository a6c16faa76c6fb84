"""Self-tests of the benchmark: ``python -m pytest perf/tests`` (not tier-1)."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

import perf  # noqa: E402

perf.use_checkout_source()
