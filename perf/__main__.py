"""``python3 -m perf`` — see :mod:`perf.cli`.

The ``__main__`` guard matters: the engine's process scan pool uses the
spawn start method, which re-imports this module in every worker.
"""

import sys

from perf.cli import main

if __name__ == "__main__":
    sys.exit(main())
