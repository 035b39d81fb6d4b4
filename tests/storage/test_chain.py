"""Unit tests for the commit hash chain (repro.storage.chain)."""

import pytest

from repro.errors import ChainError
from repro.storage import (GENESIS, ChainVerifier, chain_entry, content_hash,
                           entry_chain, head_of, link_hash)


def make_entries(n=5):
    """A toy commit-entry sequence, chained from GENESIS."""
    out = []
    prev = GENESIS
    for i in range(n):
        entry = chain_entry({"sequence": i, "commit_time": f"t{i}",
                             "operations": [{"action": "insert", "x": i}]},
                            prev)
        prev = entry["chain"]["commit"]
        out.append(entry)
    return out


class TestHashing:
    def test_content_hash_ignores_the_chain_fields(self):
        bare = {"sequence": 0, "operations": []}
        chained = chain_entry(dict(bare), GENESIS)
        assert content_hash(bare) == content_hash(chained)

    def test_content_hash_is_canonical_over_key_order(self):
        a = {"sequence": 0, "commit_time": "t0"}
        b = {"commit_time": "t0", "sequence": 0}
        assert content_hash(a) == content_hash(b)

    def test_content_hash_changes_with_any_payload_edit(self):
        entry = {"sequence": 0, "operations": [{"x": 1}]}
        edited = {"sequence": 0, "operations": [{"x": 2}]}
        assert content_hash(entry) != content_hash(edited)

    def test_chain_entry_fields_hash_together(self):
        entry = chain_entry({"sequence": 3}, GENESIS)
        chain = entry_chain(entry)
        assert chain is not None
        assert chain["prev"] == GENESIS
        assert chain["content"] == content_hash(entry)
        assert chain["commit"] == link_hash(chain["prev"], chain["content"])

    def test_chain_entry_does_not_mutate_the_input(self):
        entry = {"sequence": 0}
        chain_entry(entry, GENESIS)
        assert "chain" not in entry

    def test_entry_chain_rejects_malformed_fields(self):
        assert entry_chain({"sequence": 0}) is None
        assert entry_chain({"chain": "not-a-dict"}) is None
        assert entry_chain({"chain": {"prev": "x"}}) is None
        assert entry_chain({"chain": {"prev": 1, "content": 2,
                                      "commit": 3}}) is None


class TestVerifier:
    def test_clean_walk_adopts_every_head(self):
        entries = make_entries()
        verifier = ChainVerifier(GENESIS)
        for entry in entries:
            verifier.take(entry)
        assert verifier.verified == len(entries)
        assert verifier.head == entries[-1]["chain"]["commit"]
        assert head_of([dict(e) for e in entries]) == verifier.head

    def test_heads_are_content_derived_so_unchained_copies_converge(self):
        # A primary folds encode_commit() entries that carry no chain
        # key; the journal's r2 records do carry it.  Both walks must
        # land on the same head, or replication could never compare.
        entries = make_entries()
        bare = []
        for entry in entries:
            copy = dict(entry)
            copy.pop("chain")
            bare.append(copy)
        running = GENESIS
        for entry in bare:
            running = link_hash(running, content_hash(entry))
        assert running == entries[-1]["chain"]["commit"]

    def test_tampered_payload_is_chain_tamper(self):
        entries = make_entries()
        entries[2]["sequence"] = 999  # CRC-valid rewrite analogue
        verifier = ChainVerifier(GENESIS)
        verifier.take(entries[0])
        verifier.take(entries[1])
        with pytest.raises(ChainError) as excinfo:
            verifier.take(entries[2])
        assert excinfo.value.kind == "tamper"

    def test_edited_chain_field_is_detected(self):
        entries = make_entries()
        entries[2]["chain"]["prev"] = "f" * 64
        verifier = ChainVerifier(GENESIS)
        verifier.take(entries[0])
        verifier.take(entries[1])
        with pytest.raises(ChainError):
            verifier.take(entries[2])

    def test_removed_record_is_chain_break(self):
        entries = make_entries()
        verifier = ChainVerifier(GENESIS)
        verifier.take(entries[0])
        with pytest.raises(ChainError) as excinfo:
            verifier.take(entries[2])  # entry 1 went missing
        assert excinfo.value.kind == "break"

    def test_reordered_records_are_chain_break(self):
        entries = make_entries()
        verifier = ChainVerifier(GENESIS)
        verifier.take(entries[0])
        with pytest.raises(ChainError):
            verifier.take(entries[2])

    @pytest.mark.parametrize("chain", [
        None, "abc", {}, {"prev": GENESIS, "content": "c"},
        {"prev": GENESIS, "content": "c", "commit": 7}],
        ids=["dropped", "not-a-dict", "empty", "field-missing",
             "field-mistyped"])
    def test_missing_or_malformed_chain_fields_are_tamper(self, chain):
        # A record taken *out* of the chain must not make the verifier
        # forget its head and re-anchor: that is the downgrade attack.
        entries = make_entries()
        stripped = {"sequence": 99, "operations": []}
        if chain is not None:
            stripped["chain"] = chain
        verifier = ChainVerifier(GENESIS)
        verifier.take(entries[0])
        with pytest.raises(ChainError) as excinfo:
            verifier.take(stripped)
        assert excinfo.value.kind == "tamper"
        assert verifier.head == entries[0]["chain"]["commit"]  # kept
        with pytest.raises(ChainError):
            ChainVerifier(None).take(stripped)  # unknown head: same

    def test_forget_tolerates_a_known_hole(self):
        entries = make_entries()
        verifier = ChainVerifier(GENESIS)
        verifier.take(entries[0])
        verifier.forget()  # e.g. operator deleted a pruned segment
        verifier.take(entries[3])  # would be a break without forget()
        assert verifier.head == entries[3]["chain"]["commit"]

    def test_chain_error_is_a_journal_error(self):
        from repro.errors import JournalError
        assert issubclass(ChainError, JournalError)
