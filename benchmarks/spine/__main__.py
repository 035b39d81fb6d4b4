"""``PYTHONPATH=src python -m benchmarks.spine`` — see :mod:`.cli`."""

import sys

from benchmarks.spine.cli import main

if __name__ == "__main__":
    sys.exit(main())
