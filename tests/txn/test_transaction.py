"""Unit tests for transactions and operations."""

import pytest

from repro.errors import TransactionStateError
from repro.time import Instant
from repro.txn import Operation, Transaction, TxnStatus


def make_txn(commit_result=None, fail=False):
    def callback(txn):
        if fail:
            raise RuntimeError("applier exploded")
        return commit_result or Instant.parse("01/01/80")
    return Transaction(1, callback)


class TestOperation:
    def test_describe(self):
        op = Operation("insert", "faculty", {"values": {"name": "Tom"}})
        assert op.describe() == {"action": "insert", "relation": "faculty",
                                 "arguments": {"values": {"name": "Tom"}}}

    def test_equality(self):
        a = Operation("insert", "r", {"x": 1})
        b = Operation("insert", "r", {"x": 1})
        c = Operation("delete", "r", {"x": 1})
        assert a == b and a != c

    def test_arguments_kept_as_given(self):
        # The caller builds the dict for this operation and hands it over.
        arguments = {"x": 1}
        assert Operation("insert", "r", arguments).arguments is arguments


class TestLifecycle:
    def test_starts_active(self):
        txn = make_txn()
        assert txn.status is TxnStatus.ACTIVE and txn.is_active
        assert txn.commit_time is None

    def test_add_and_commit(self):
        txn = make_txn()
        txn.add(Operation("insert", "r", {}))
        when = txn.commit()
        assert txn.status is TxnStatus.COMMITTED
        assert txn.commit_time == when == Instant.parse("01/01/80")
        assert len(txn.operations) == 1

    def test_abort_discards(self):
        txn = make_txn()
        txn.add(Operation("insert", "r", {}))
        txn.abort()
        assert txn.status is TxnStatus.ABORTED
        assert txn.operations == ()

    def test_add_after_commit_raises(self):
        txn = make_txn()
        txn.commit()
        with pytest.raises(TransactionStateError, match="committed"):
            txn.add(Operation("insert", "r", {}))

    def test_double_commit_raises(self):
        txn = make_txn()
        txn.commit()
        with pytest.raises(TransactionStateError):
            txn.commit()

    def test_commit_after_abort_raises(self):
        txn = make_txn()
        txn.abort()
        with pytest.raises(TransactionStateError):
            txn.commit()

    def test_failed_commit_marks_aborted(self):
        txn = make_txn(fail=True)
        with pytest.raises(RuntimeError):
            txn.commit()
        assert txn.status is TxnStatus.ABORTED


class TestContextManager:
    def test_commits_on_clean_exit(self):
        txn = make_txn()
        with txn:
            txn.add(Operation("insert", "r", {}))
        assert txn.status is TxnStatus.COMMITTED

    def test_aborts_on_exception(self):
        txn = make_txn()
        with pytest.raises(ValueError):
            with txn:
                raise ValueError("boom")
        assert txn.status is TxnStatus.ABORTED

    def test_explicit_commit_inside_block(self):
        txn = make_txn()
        with txn:
            txn.commit()
        assert txn.status is TxnStatus.COMMITTED
