"""Seeded op streams: what each workload asks the program to do.

Every stream is a pure function of ``(spec, pins, seed, op count)``.  The
shape counts are *exact* (largest-remainder rounding of the stated mix,
then a seeded shuffle), so two runs with different seeds do the same
amount of each kind of work and only the order, keys, pins and dates
differ — run-to-run spread is the program's and the machine's, not the
dice's.

An :class:`Op` carries the TQuel text (what a client would send) and the
parameters it was built from, so the same op can be sent over the wire,
executed in-process, replayed through the database API (the S0 shell of
the layer ledger) and checked by the oracle.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.time import Instant

from benchmarks.spine import dataset as ds

#: Days a ``through`` range extends past its ``as of`` pin.
THROUGH_DAYS = 256
#: ``as of`` point queries the served workload keeps hot.
HOT_SET = 32

WRITE_SHAPES = ("replace", "replace_valid", "rmw")


class Op(NamedTuple):
    """One request: its shape, its TQuel text and the parameters used."""

    shape: str
    text: str
    name: Optional[str] = None
    #: ``as of`` pin, as a day chronon.
    pin: Optional[int] = None
    #: Valid-time day (``when … overlap`` probe or ``valid from`` bound).
    valid_day: Optional[int] = None
    salary: Optional[int] = None
    #: Index into the hot set (served ``asof_point`` only).
    hot: Optional[int] = None

    @property
    def is_write(self) -> bool:
        return self.shape in WRITE_SHAPES


def fingerprint(ops: Sequence[Op]) -> bytes:
    """Canonical bytes of a stream (equal iff the streams are identical)."""
    return json.dumps([list(op) for op in ops],
                      separators=(",", ":")).encode("utf-8")


def exact_mix(total: int, shares: Dict[str, float],
              rng: random.Random) -> List[str]:
    """*total* shape names in exactly the stated proportions, shuffled."""
    scale = total / sum(shares.values())
    counts = {shape: int(share * scale) for shape, share in shares.items()}
    remainders = sorted(shares, key=lambda shape: (
        -(shares[shape] * scale - counts[shape]), shape))
    for shape in remainders[:total - sum(counts.values())]:
        counts[shape] += 1
    shapes = [shape for shape in sorted(counts)
              for _ in range(counts[shape])]
    rng.shuffle(shapes)
    return shapes


class _Builder:
    """Fills a shape's parameters from one RNG and renders its text.

    Keys and pins are *dealt*, not drawn: each shape has its own shuffled
    deck of all keys (all pins), refilled when it runs out.  Every key and
    every commit instant is still equally likely at every position, but a
    run of n ops covers them evenly instead of by luck — the cost of a
    stream depends on which pins its few expensive shapes land on, and two
    seeds should differ in order, not in total work.
    """

    targets = "retrieve (f.name, f.salary)"

    def __init__(self, spec: ds.DatasetSpec, pins: Sequence[Instant],
                 rng: random.Random) -> None:
        self.spec = spec
        self.pins = [pin.chronon for pin in pins]
        self.rng = rng
        #: Valid time the dataset's versions span, plus a margin of one.
        self.valid_span = (spec.versions + 1) * ds.VERSION_DAYS
        self._decks: Dict[str, List[int]] = {}
        self._shape = ""

    def _deal(self, kind: str, values: Sequence[int]) -> int:
        deck = self._decks.get(kind + self._shape)
        if not deck:
            deck = list(values)
            self.rng.shuffle(deck)
            self._decks[kind + self._shape] = deck
        return deck.pop()

    def name(self) -> str:
        return ds.key_name(self._deal("key:", range(self.spec.keys)))

    def pin(self) -> int:
        return self._deal("pin:", self.pins)

    def valid_day(self) -> int:
        return ds.VALID_START + 1 + self.rng.randrange(self.valid_span)

    def salary(self) -> int:
        return self.rng.randrange(30_000, 90_000)

    def build(self, shape: str) -> Op:
        t = self.targets
        self._shape = shape
        if shape == "current_point":
            name = self.name()
            return Op(shape, f'{t} where f.name = "{name}"', name=name)
        if shape == "asof_point":
            name, pin = self.name(), self.pin()
            return Op(shape, f'{t} where f.name = "{name}" '
                             f'as of "{ds.day(pin)}"', name=name, pin=pin)
        if shape == "when_point":
            name, day = self.name(), self.valid_day()
            return Op(shape, f'{t} where f.name = "{name}" '
                             f'when f overlap "{ds.day(day)}"',
                      name=name, valid_day=day)
        if shape == "rank_scan":
            return Op(shape, f'{t} where f.rank = "full"')
        if shape == "asof_full":
            pin = self.pin()
            return Op(shape, f'{t} as of "{ds.day(pin)}"', pin=pin)
        if shape == "asof_when":
            pin, day = self.pin(), self.valid_day()
            return Op(shape, f'{t} when f overlap "{ds.day(day)}" '
                             f'as of "{ds.day(pin)}"', pin=pin, valid_day=day)
        if shape == "asof_through":
            pin = self.pin()
            return Op(shape, f'{t} as of "{ds.day(pin)}" '
                             f'through "{ds.day(pin + THROUGH_DAYS)}"',
                      pin=pin)
        if shape == "replace":
            name, salary = self.name(), self.salary()
            return Op(shape, f'replace f (salary = {salary}) '
                             f'where f.name = "{name}"',
                      name=name, salary=salary)
        if shape == "replace_valid":
            name, salary, day = self.name(), self.salary(), self.valid_day()
            return Op(shape, f'replace f (salary = {salary}) '
                             f'where f.name = "{name}" '
                             f'valid from "{ds.day(day)}"',
                      name=name, salary=salary, valid_day=day)
        if shape == "rmw":
            name = self.name()
            return Op(shape, f'replace f (salary = f.salary + 1) '
                             f'where f.name = "{name}"', name=name)
        if shape == "read_only":
            pin = self.pin()
            return Op(shape, f'{t} as of "{ds.day(pin)}"', pin=pin)
        raise ValueError(f"unknown op shape {shape!r}")


def _stream(spec: ds.DatasetSpec, pins: Sequence[Instant], label: str,
            seed: int, total: int, shares: Dict[str, float]) -> List[Op]:
    rng = random.Random(f"{label}:{seed}")
    builder = _Builder(spec, pins, rng)
    return [builder.build(shape) for shape in exact_mix(total, shares, rng)]


#: ``served-oltp`` reads: shallow history, small results.
SERVED_READS = {"current_point": 55, "asof_point": 25, "when_point": 12,
                "rank_scan": 8}
#: ``served-oltp`` writes: three quarters plain, one quarter retroactive.
SERVED_WRITES = {"replace": 3, "replace_valid": 1}
#: Share of the read/write client's requests that are writes.
SERVED_WRITE_SHARE = 0.40

HISTORY_MIX = {"asof_full": 30, "asof_point": 30, "asof_when": 20,
               "asof_through": 15, "replace": 5}
INGEST_MIX = {"rmw": 75, "read_only": 25}
#: Reads against a freshly recovered database: ``embedded-history``'s read
#: mix.  (A mix of sub-millisecond point reads alone put ``read_p95_ms`` at
#: the mercy of the host's sub-millisecond stalls: 22 % spread over ten runs
#: on a busy host where the median's was 6 %.  Here the 95th percentile is a
#: ``through`` query of several milliseconds.)
LIFECYCLE_READS = {shape: share for shape, share in HISTORY_MIX.items()
                   if shape != "replace"}


def hot_set(spec: ds.DatasetSpec, pins: Sequence[Instant],
            seed: int) -> List[Op]:
    """The served workload's :data:`HOT_SET` point ``as of`` queries.

    Thirty-two distinct (pin, key) queries: with the current-point
    entries of 256 keys beside them they stay resident in the program's
    256-entry result cache, where ``embedded-history``'s ≈ 10⁴ (pin ×
    shape) combinations cannot.
    """
    rng = random.Random(f"hot:{seed}")
    builder = _Builder(spec, pins, rng)
    return [builder.build("asof_point")._replace(hot=index)
            for index in range(HOT_SET)]


def _served_client(spec: ds.DatasetSpec, pins: Sequence[Instant], seed: int,
                   label: str, total: int, write_share: float,
                   hot: List[Op]) -> List[Op]:
    """One connection's requests: exact write share, hot ``as of`` reads."""
    rng = random.Random(f"{label}-order:{seed}")
    writes = round(total * write_share)
    ops = (_stream(spec, pins, f"{label}-w", seed, writes, SERVED_WRITES)
           + _stream(spec, pins, f"{label}-r", seed, total - writes,
                     SERVED_READS))
    rng.shuffle(ops)
    return [hot[rng.randrange(len(hot))] if op.shape == "asof_point" else op
            for op in ops]


def served(spec: ds.DatasetSpec, pins: Sequence[Instant], seed: int,
           per_client: int, both_write: bool = False
           ) -> Tuple[List[Op], List[Op], List[Op]]:
    """``(read/write client, read-only client, hot set)`` for served-oltp.

    *both_write* gives the second client the first one's write share too
    (the two-writer race reproduction; never a gated run).
    """
    hot = hot_set(spec, pins, seed)
    return (_served_client(spec, pins, seed, "served-rw", per_client,
                           SERVED_WRITE_SHARE, hot),
            _served_client(spec, pins, seed, "served-ro", per_client,
                           SERVED_WRITE_SHARE if both_write else 0.0, hot),
            hot)


def history(spec: ds.DatasetSpec, pins: Sequence[Instant], seed: int,
            total: int) -> List[Op]:
    return _stream(spec, pins, "history", seed, total, HISTORY_MIX)


def ingest(spec: ds.DatasetSpec, pins: Sequence[Instant], seed: int,
           total: int) -> List[Op]:
    return _stream(spec, pins, "ingest", seed, total, INGEST_MIX)


def disjoint_rmw(spec: ds.DatasetSpec, seed: int, thread: int, threads: int,
                 total: int) -> List[Op]:
    """Read-modify-write ops on the keys only *thread* owns (contention
    phase: disjoint keys of one relation)."""
    rng = random.Random(f"contention:{seed}:{thread}")
    owned = [index for index in range(spec.keys)
             if index % threads == thread]
    ops = []
    for _ in range(total):
        name = ds.key_name(owned[rng.randrange(len(owned))])
        ops.append(Op("rmw", f'replace f (salary = f.salary + 1) '
                             f'where f.name = "{name}"', name=name))
    return ops


def tail_commits(spec: ds.DatasetSpec, seed: int, cycle: int,
                 total: int) -> List[Op]:
    """The plain ``replace`` commits one lifecycle cycle appends."""
    rng = random.Random(f"tail:{seed}:{cycle}")
    builder = _Builder(spec, [ds.BASE], rng)
    return [builder.build("replace") for _ in range(total)]


def cold_reads(spec: ds.DatasetSpec, pins: Sequence[Instant], seed: int,
               cycle: int, total: int) -> List[Op]:
    """Reads issued against a freshly recovered database (cold caches)."""
    return _stream(spec, pins, f"cold:{cycle}", seed, total, LIFECYCLE_READS)
