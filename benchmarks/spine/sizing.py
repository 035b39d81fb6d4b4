"""How big each workload is, and how the size follows ``--seconds``.

Op counts are *fixed* for a given ``--seconds`` — ``ops_per_second ×
seconds`` — so both sides of a comparison do identical work and every
count repeats exactly; the rates were calibrated on the 2-core reference
box at ``634221c`` so that the measured phase lasts about ``--seconds``
there.  A faster program finishes its fixed work sooner (higher
``ops_per_s``); it is never given more work, which would send it deeper
into a growing history and understate its gain.

The dataset sizes do not follow ``--seconds``; they are the shapes
ISSUE 11 fixes (K keys × V versions, T prior commits), with T retuned so
three timed set-ups, the measured phase and the lifecycle epilogue of one
run fit the driver's ≈ 37 s per run.
"""

from __future__ import annotations

import dataclasses

from benchmarks.spine.dataset import DatasetSpec


@dataclasses.dataclass(frozen=True)
class Sizing:
    dataset: DatasetSpec
    #: Ops issued per requested second of measurement (all clients).
    ops_per_second: float
    #: Lifecycle cycles in the epilogue, warm-up cycle included.
    cycles: int
    #: Timed set-ups per run (the median is ``setup_s``).
    setups: int = 3
    #: ``lifecycle`` only: cycles per requested second of measurement.
    cycles_per_second: float = 0.0

    def op_count(self, seconds: float) -> int:
        return max(40, round(self.ops_per_second * seconds))

    def cycle_count(self, seconds: float) -> int:
        return max(3, round(self.cycles_per_second * seconds))

    def smoke(self) -> "Sizing":
        """The same shapes at 1/50 size: one set-up, the fewest cycles."""
        return dataclasses.replace(
            self, dataset=self.dataset.scaled(1 / 50),
            ops_per_second=self.ops_per_second / 50,
            cycles=2, setups=1, cycles_per_second=0.0)


SIZES = {
    "served-oltp": Sizing(DatasetSpec(keys=256, versions=2, history=128),
                          ops_per_second=200.0, cycles=6),
    "embedded-history": Sizing(DatasetSpec(keys=64, versions=2,
                                           history=1000),
                               ops_per_second=330.0, cycles=8),
    "embedded-ingest": Sizing(DatasetSpec(keys=256, versions=1, history=64),
                              ops_per_second=300.0, cycles=9),
    "lifecycle": Sizing(DatasetSpec(keys=64, versions=1, history=2500),
                        ops_per_second=0.0, cycles=0,
                        cycles_per_second=1.2),
}
