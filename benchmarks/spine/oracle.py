"""The answer oracle: what every read must return, computed client-side.

Three instruments, all working on the wire form of a result (the dicts
:func:`repro.server.protocol.rows_from_wire` produces), so the served and
the in-process paths are checked by the same code:

- :func:`canonical` — an order-free, ``tt``-end-free rendering of a
  result.  Equal canonical forms = the same answer.  The end of a
  transaction period is left out on purpose: an ``as of`` answer keeps
  the rows it had forever, but a row that was still open when the answer
  was first computed gets its transaction end stamped by a later commit
  (§4.4 retains, not clips, transaction time) — data, valid time and
  transaction *start* are the immutable part.
- :class:`FacultyModel` — a model of acknowledged writes: per key, the
  salary as a step function of valid time.  A current read must tile
  the key's validity with rows that agree with the function.
- :func:`to_wire_rows` — any in-process result as wire rows.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.server import protocol

from benchmarks.spine.dataset import DatasetPlan

Row = Dict[str, Any]


def _edge(instant: Any) -> Optional[int]:
    return instant.chronon if instant.is_finite else None


def to_wire_rows(result: Any) -> List[Row]:
    """An in-process retrieve result in the client's decoded-row form."""
    return protocol.rows_from_wire(protocol.rows_to_wire(result)[1])


def canonical(rows: Iterable[Row]) -> Tuple[Tuple[Any, ...], ...]:
    """Sorted ``(values, valid start, valid end, tt start)`` tuples."""
    out = []
    for row in rows:
        valid = row.get("valid")
        transaction = row.get("transaction")
        out.append((
            tuple(sorted(row["values"].items())),
            _edge(valid.start) if valid is not None else None,
            _edge(valid.end) if valid is not None else None,
            _edge(transaction.start) if transaction is not None else None,
        ))
    return tuple(sorted(out, key=repr))


class FacultyModel:
    """Per key: salary as a step function of valid time, plus the rank.

    ``starts[name]`` are ascending valid-time breakpoints and
    ``salaries[name][i]`` holds on ``[starts[i], starts[i+1])`` (the
    last one to infinity).  Only acknowledged writes are applied; a
    write in flight is modelled by the caller holding a second model
    state for that key (:meth:`key_state` / :meth:`preview`).
    """

    def __init__(self, dataset_plan: DatasetPlan) -> None:
        self.starts: Dict[str, List[int]] = {}
        self.salaries: Dict[str, List[int]] = {}
        self.rank: Dict[str, str] = {}
        for name, rank, salary, start, _end in dataset_plan.load:
            self.starts.setdefault(name, []).append(start)
            self.salaries.setdefault(name, []).append(salary)
            self.rank[name] = rank
        for name, salary in dataset_plan.replaces:
            self.replace(name, salary)

    # -- writes ---------------------------------------------------------------

    @staticmethod
    def replaced(state: Tuple[List[int], List[int]], salary: int,
                  valid_from: Optional[int]) -> Tuple[List[int], List[int]]:
        starts, salaries = state
        if valid_from is None or valid_from <= starts[0]:
            return list(starts), [salary] * len(salaries)
        cut = bisect.bisect_right(starts, valid_from)
        new_starts = starts[:cut]
        new_salaries = salaries[:cut]
        if new_starts[-1] != valid_from:
            new_starts.append(valid_from)
            new_salaries.append(salary)
        else:
            new_salaries[-1] = salary
        for start in starts[cut:]:
            new_starts.append(start)
            new_salaries.append(salary)
        return new_starts, new_salaries

    def key_state(self, name: str) -> Tuple[List[int], List[int]]:
        return self.starts[name], self.salaries[name]

    def preview(self, name: str, salary: int, valid_from: Optional[int]
                ) -> Tuple[List[int], List[int]]:
        """The key's state if this write lands (does not apply it)."""
        return self.replaced(self.key_state(name), salary, valid_from)

    def replace(self, name: str, salary: int,
                valid_from: Optional[int] = None) -> None:
        self.starts[name], self.salaries[name] = self.preview(
            name, salary, valid_from)

    def names_with_rank(self, rank: str) -> List[str]:
        return sorted(name for name, value in self.rank.items()
                      if value == rank)

    def total_salary(self) -> int:
        """Sum of every key's latest-version salary (the ingest counter)."""
        return sum(values[-1] for values in self.salaries.values())

    # -- reads ----------------------------------------------------------------

    @staticmethod
    def value_at(state: Tuple[List[int], List[int]],
                 chronon: int) -> Optional[int]:
        starts, salaries = state
        position = bisect.bisect_right(starts, chronon) - 1
        return salaries[position] if position >= 0 else None

    @staticmethod
    def agrees(state: Tuple[List[int], List[int]], rows: List[Row]) -> bool:
        """Do *rows* (one key's current rows) tile the key's validity and
        carry the model's salary on every piece?"""
        starts, salaries = state
        pieces = sorted(((_edge(row["valid"].start), _edge(row["valid"].end),
                          row["values"].get("salary")) for row in rows),
                        key=lambda piece: piece[0])
        if not pieces or pieces[0][0] != starts[0]:
            return False
        for (lo, hi, salary), following in zip(pieces, pieces[1:] + [None]):
            if following is None:
                if hi is not None:
                    return False
            elif hi != following[0]:
                return False
            first = bisect.bisect_right(starts, lo) - 1
            last = (len(starts) if hi is None
                    else bisect.bisect_left(starts, hi))
            if any(value != salary for value in salaries[first:last]):
                return False
        return True
