"""The measurement spine: one benchmark, four workloads, a layer ledger.

``PYTHONPATH=src python -m benchmarks.spine`` runs every workload and
prints every end-to-end metric; ``python3 benchmarks/spine/run.py
--workload W --seed N --seconds S --trace 0|1`` is the one-run form the
``BENCHMARK.json`` contract drives.  See ``README.md`` in this directory.
"""
