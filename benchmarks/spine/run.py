"""The ``BENCHMARK.json`` command: ``python3 benchmarks/spine/run.py …``.

Run as a script from a bare checkout (no ``PYTHONPATH``, not a git
repository), so it puts the checkout's root and ``src/`` on the import
path itself, then hands over to :func:`benchmarks.spine.cli.main`.  In a
directory that holds only the benchmark there is no ``src/repro`` and
the run exits non-zero without printing a result.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

if __name__ == "__main__":
    # Keep this directory's module names (stats, cli, …) from shadowing
    # top-level imports; everything here is imported as benchmarks.spine.*.
    sys.path[:] = [path for path in sys.path
                   if os.path.abspath(path or os.getcwd()) != HERE]
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        # Never fall back to a copy of the program installed elsewhere.
        print("error: the program (src/repro) is not in this checkout",
              file=sys.stderr)
        sys.exit(3)
    from benchmarks.spine.cli import main
    sys.exit(main())
