"""Crash the cross-shard commit protocol at every append boundary.

A cross-shard transfer journals, in order: one ``prepare`` record per
involved shard (``shard-NN/2pc.seg``), one ``decision`` record
(``decisions.seg`` — the commit point), then one journal record per
involved shard (``shard-NN/journal-*.seg``).  The matrix below kills the
process at each of those appends — lost and torn — and checks that
recovery always lands in an atomic state: the transfer happened
everywhere or nowhere, the recovered total is conserved, and recovering
again changes nothing.
"""

import pytest

from repro.core import StaticDatabase
from repro.errors import ConstraintViolation
from repro.relational import CheckConstraint, Domain, Schema, attr
from repro.sharding import (ShardedDatabase, ShardedDurabilityManager,
                            sharded_digest)
from repro.storage.faults import CrashPoint, FaultyIO, SimulatedCrash
from repro.storage.io import REAL_IO, StorageIO

SHARDS = 4


class _CountingIO(StorageIO):
    """Pass-through IO that counts appends (to size the crash sweep)."""

    def __init__(self):
        self.appends = 0

    def append(self, path, data, fsync=False):
        self.appends += 1
        REAL_IO.append(path, data, fsync=fsync)

    def write_atomic(self, path, data, fsync=False):
        REAL_IO.write_atomic(path, data, fsync=fsync)


class _CrashOnPath(StorageIO):
    """Die on the *at*-th append whose path contains *substring*."""

    def __init__(self, substring, at=1):
        self._substring = substring
        self._remaining = at
        self.fired = False

    def append(self, path, data, fsync=False):
        if not self.fired and self._substring in path:
            self._remaining -= 1
            if self._remaining <= 0:
                self.fired = True
                raise SimulatedCrash(f"crashed appending to {path}")
        REAL_IO.append(path, data, fsync=fsync)

    def write_atomic(self, path, data, fsync=False):
        REAL_IO.write_atomic(path, data, fsync=fsync)


def seed_store(directory, io=None):
    """A durable 4-shard store holding two rows on different shards."""
    manager = ShardedDurabilityManager(str(directory), shards=SHARDS,
                                       io=io if io is not None else REAL_IO)
    store, _ = manager.recover(StaticDatabase)
    if "accounts" not in store:
        store.define("accounts", Schema.of(key=["k"], k=Domain.STRING,
                                           v=Domain.INTEGER))
        for i in range(8):
            store.insert("accounts", {"k": f"k{i}", "v": 100})
    return manager, store


def pick_cross_shard_pair(store):
    placed = {}
    for i in range(8):
        key = f"k{i}"
        placed.setdefault(store.shard_of_key("accounts", {"k": key}), key)
    sids = sorted(placed)[:2]
    return placed[sids[0]], placed[sids[1]]


def transfer(store, key_a, key_b, amount=10):
    with store.begin() as txn:
        row_a = next(r for r in store.snapshot("accounts")
                     if r["k"] == key_a)
        row_b = next(r for r in store.snapshot("accounts")
                     if r["k"] == key_b)
        store.replace("accounts", {"k": key_a},
                      {"v": row_a["v"] + amount}, txn=txn)
        store.replace("accounts", {"k": key_b},
                      {"v": row_b["v"] - amount}, txn=txn)


def balances(store, key_a, key_b):
    rows = {r["k"]: r["v"] for r in store.snapshot("accounts")}
    return rows[key_a], rows[key_b]


def count_transfer_appends(tmp_path):
    """How many appends one cross-shard transfer performs."""
    counter = _CountingIO()
    seed_store(tmp_path / "count")
    manager = ShardedDurabilityManager(str(tmp_path / "count"), io=counter)
    store, _ = manager.recover(StaticDatabase)
    key_a, key_b = pick_cross_shard_pair(store)
    before = counter.appends
    transfer(store, key_a, key_b)
    return counter.appends - before


class TestCrashMatrix:
    """Every append of the protocol, lost and torn."""

    @pytest.mark.parametrize("crash", [CrashPoint.LOST_RECORD,
                                       CrashPoint.TORN_RECORD],
                             ids=lambda c: c.value)
    def test_transfer_is_atomic_at_every_crash_point(self, tmp_path, crash):
        total = count_transfer_appends(tmp_path)
        # 2 prepares + 1 decision + 2 shard journal records
        assert total == 5
        for at in range(1, total + 1):
            directory = tmp_path / f"{crash.value}-{at}"
            seed_store(directory)
            io = FaultyIO(crash, at=at)
            manager = ShardedDurabilityManager(str(directory), io=io)
            store, _ = manager.recover(StaticDatabase)
            key_a, key_b = pick_cross_shard_pair(store)
            with pytest.raises(SimulatedCrash):
                transfer(store, key_a, key_b)

            fresh = ShardedDurabilityManager(str(directory))
            recovered, report = fresh.recover(StaticDatabase)
            a, b = balances(recovered, key_a, key_b)
            assert (a, b) in ((100, 100), (110, 90)), \
                f"torn transfer at append {at}: ({a}, {b})"
            assert a + b == 200

            # decided ⇒ applied: the decision is the third append, and a
            # lost or torn decision is *no* decision.  Exact expectations
            # per boundary (the seed's broadcast ``define`` left its own
            # decided records behind, which recovery must skip, not
            # re-abort or re-apply):
            if at <= 3:  # died preparing or deciding: rolled back
                assert (a, b) == (100, 100)
                assert report.in_doubt_aborted == at - 1
                assert report.reapplied == 0
            else:  # died applying: recovery finishes the commit
                assert (a, b) == (110, 90)
                assert report.in_doubt_aborted == 0
                assert report.reapplied == 6 - at

            # recovery is idempotent
            again = ShardedDurabilityManager(str(directory))
            twice, report2 = again.recover(StaticDatabase)
            assert sharded_digest(twice) == sharded_digest(recovered)
            assert report2.reapplied == 0
            assert balances(twice, key_a, key_b) == (a, b)


class TestPrepareVote:
    """A participant votes yes only for a batch it can apply."""

    @pytest.mark.parametrize("durable", [False, True],
                             ids=["in-memory", "durable"])
    def test_a_constraint_violation_on_one_shard_commits_on_none(
            self, tmp_path, durable):
        # The rehearsal runs the constraint check: shard 0's part is
        # fine, shard 1's violates v >= 0, so the transaction aborts
        # before any 2PC record is written — not after shard 0 applied.
        counter = _CountingIO()
        if durable:
            manager = ShardedDurabilityManager(str(tmp_path), shards=2,
                                               io=counter)
            store, _ = manager.recover(StaticDatabase)
        else:
            store = ShardedDatabase(StaticDatabase, shards=2)
        store.define("c", Schema.of(key=["k"], k=Domain.STRING,
                                    v=Domain.INTEGER),
                     constraints=[CheckConstraint(attr("v") >= 0)])
        on_shard = {}
        for i in range(8):
            on_shard.setdefault(store.shard_of_key("c", {"k": f"k{i}"}),
                                f"k{i}")
        fine, doomed = on_shard[0], on_shard[1]
        for key in (fine, doomed):
            store.insert("c", {"k": key, "v": 1})
        before = sharded_digest(store)
        vector, appends = store.log.vector(), counter.appends

        with pytest.raises(ConstraintViolation):
            with store.begin() as txn:
                store.replace("c", {"k": fine}, {"v": 5}, txn=txn)
                store.replace("c", {"k": doomed}, {"v": -1}, txn=txn)

        assert {row["k"]: row["v"] for row in store.snapshot("c")} == {
            fine: 1, doomed: 1}
        assert sharded_digest(store) == before
        assert store.log.vector() == vector
        assert counter.appends == appends  # no prepare, decision or commit
        if durable:
            recovered, report = ShardedDurabilityManager(
                str(tmp_path)).recover(StaticDatabase)
            assert sharded_digest(recovered) == before
            assert (report.in_doubt_aborted, report.reapplied) == (0, 0)


class TestPhaseBoundaries:
    """Targeted kills at the named protocol boundaries."""

    def test_coordinator_dies_between_prepare_and_decision(self, tmp_path):
        """Satellite 3: durable prepares, no decision — recovery rolls
        the in-doubt transaction back on every shard."""
        seed_store(tmp_path)
        io = _CrashOnPath("decisions.seg")
        manager = ShardedDurabilityManager(str(tmp_path), io=io)
        store, _ = manager.recover(StaticDatabase)
        key_a, key_b = pick_cross_shard_pair(store)
        with pytest.raises(SimulatedCrash):
            transfer(store, key_a, key_b)
        assert io.fired

        fresh = ShardedDurabilityManager(str(tmp_path))
        recovered, report = fresh.recover(StaticDatabase)
        assert report.in_doubt_aborted == 2  # one prepare per shard
        assert report.reapplied == 0
        assert balances(recovered, key_a, key_b) == (100, 100)

    def test_coordinator_dies_between_decision_and_apply(self, tmp_path):
        """Decision durable, neither shard applied — recovery finishes
        the commit on both shards from the prepare records."""
        seed_store(tmp_path)
        io = _CrashOnPath("journal-")
        manager = ShardedDurabilityManager(str(tmp_path), io=io)
        store, _ = manager.recover(StaticDatabase)
        key_a, key_b = pick_cross_shard_pair(store)
        with pytest.raises(SimulatedCrash):
            transfer(store, key_a, key_b)

        fresh = ShardedDurabilityManager(str(tmp_path))
        recovered, report = fresh.recover(StaticDatabase)
        assert report.reapplied == 2
        assert report.in_doubt_aborted == 0
        assert balances(recovered, key_a, key_b) == (110, 90)

    def test_coordinator_dies_mid_apply(self, tmp_path):
        """One shard's commit record durable, the other's lost —
        recovery re-applies exactly the missing half, never the
        journaled one (the ``count > base`` rule)."""
        seed_store(tmp_path)
        io = _CrashOnPath("journal-", at=2)
        manager = ShardedDurabilityManager(str(tmp_path), io=io)
        store, _ = manager.recover(StaticDatabase)
        key_a, key_b = pick_cross_shard_pair(store)
        with pytest.raises(SimulatedCrash):
            transfer(store, key_a, key_b)

        fresh = ShardedDurabilityManager(str(tmp_path))
        recovered, report = fresh.recover(StaticDatabase)
        assert report.reapplied == 1
        assert balances(recovered, key_a, key_b) == (110, 90)

    def test_checkpoint_then_crash_keeps_decided_state(self, tmp_path):
        """A checkpoint compacts the 2PC logs; later crashes recover
        from the checkpoint without resurrecting old transactions."""
        manager, store = seed_store(tmp_path)
        key_a, key_b = pick_cross_shard_pair(store)
        transfer(store, key_a, key_b)
        manager.checkpoint()
        stats = manager.shard_stats()
        assert stats["decision_log_bytes"] == 0

        fresh = ShardedDurabilityManager(str(tmp_path))
        recovered, report = fresh.recover(StaticDatabase)
        assert report.decisions == 0
        assert report.reapplied == 0
        assert balances(recovered, key_a, key_b) == (110, 90)
