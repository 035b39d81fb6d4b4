"""The journal record's bytes: one canonical encode, and every older form.

A chained ``r2`` record's payload is the canonical JSON of the chained
entry — sorted keys, compact separators — which is the text its content
hash covers with the chain fields spliced in front (``chain`` sorts
first).  Writers before that framed the same entry with spaced
separators.  What must not move with the bytes: every content hash and
chain head, the state a journal replays to, the dumps, history files and
checkpoints (whose only journal-dependent field is ``sealed_journal``, the
hash of the segment bytes below them), and a spaced segment must still
recover, replay and audit clean.
"""

import hashlib
import json
import os

import pytest

from repro.core import (HistoricalDatabase, RollbackDatabase, StaticDatabase,
                        TemporalDatabase)
from repro.replication import state_digest
from repro.storage import (CHAINED_TAG, GENESIS, DurabilityManager, Journal,
                           audit_directory, chain_entry, dump_database,
                           frame_record, read_checkpoint_head)
from repro.storage.chain import CHAIN_KEY, chained_text

from tests.storage.probes import drive_faculty

KINDS = [StaticDatabase, RollbackDatabase, HistoricalDatabase,
         TemporalDatabase]

#: What a writer with spaced framing recorded for :func:`history` (the
#: checkpoint with its ``sealed_journal`` field left out).
EXPECTED = {
    "StaticDatabase": {
        "head": "c268d4d4f9829077", "contents": "172b4e3b8584e4a5",
        "dump": "32d7269dfef25777", "digest": "2c333952fd3a1f3c",
        "checkpoint": "9364e9631e090258", "history": {}},
    "RollbackDatabase": {
        "head": "c268d4d4f9829077", "contents": "172b4e3b8584e4a5",
        "dump": "cf9547e6fdfa661d", "digest": "bf832b4267be7a3e",
        "checkpoint": "751cc8521a0565d3",
        "history": {"history-00000008-f7066cfa5bf7b1e3.hist":
                    "f7066cfa5bf7b1e3"}},
    "HistoricalDatabase": {
        "head": "f6a7b04d927b3a1d", "contents": "2628b1b118f77309",
        "dump": "de2ab672f4adba2a", "digest": "ab8b38af740836ec",
        "checkpoint": "a6bb812c14f1907d", "history": {}},
    "TemporalDatabase": {
        "head": "f6a7b04d927b3a1d", "contents": "2628b1b118f77309",
        "dump": "f1c146e6c672018e", "digest": "cb16aa401b989bac",
        "checkpoint": "ff6ece961b874a7a",
        "history": {"history-00000008-2214441d896aff13.hist":
                    "2214441d896aff13"}},
}


def short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def history(database):
    """The faculty narrative, then one batch of five operations on one
    relation (an insert replaced and a key inserted then deleted in it)."""
    drive_faculty(database)
    valid = database.kind.supports_historical_queries

    def args(**period):
        return period if valid else {}

    database.manager.clock.source.set("03/01/84")
    with database.begin() as batch:
        database.insert("faculty", {"name": "Ann", "rank": "assistant"},
                        txn=batch, **args(valid_from="03/01/84"))
        database.replace("faculty", {"name": "Ann"}, {"rank": "associate"},
                         txn=batch, **args(valid_from="06/01/84"))
        database.insert("faculty", {"name": "Bob", "rank": "full"},
                        txn=batch, **args(valid_from="01/01/84",
                                          valid_to="01/01/90"))
        database.replace("faculty", {"name": "Tom"}, {"rank": "full"},
                         txn=batch, **args(valid_from="03/01/84"))
        database.delete("faculty", {"name": "Bob"}, txn=batch,
                        **args(valid_from="01/01/86"))


def fingerprint(directory, kind):
    """:func:`history`, checkpointed, plus one commit: its hashes and the
    bytes of everything but the journal segments."""
    manager = DurabilityManager(directory)
    database, _ = manager.recover(kind)
    history(database)
    checkpoint = manager.checkpoint()
    database.manager.clock.source.set("04/01/84")
    database.replace("faculty", {"name": "Merrie"}, {"rank": "associate"})
    head = read_checkpoint_head(checkpoint)
    head.pop("sealed_journal")
    contents = "".join(entry[CHAIN_KEY]["content"]
                       for _, path in manager.segments()
                       for entry in Journal(path).read())
    return {
        "head": manager.chain_head[:16],
        "contents": short(contents.encode()),
        "dump": short(json.dumps(dump_database(database),
                                 sort_keys=True).encode()),
        "digest": state_digest(database, cache=False)[:16],
        "checkpoint": short(json.dumps(head, sort_keys=True).encode()),
        "history": {name: short(open(os.path.join(directory, name),
                                     "rb").read())
                    for name in sorted(os.listdir(directory))
                    if name.endswith(".hist")}}


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.kind.value)
def test_a_fixed_history_keeps_its_hashes_and_bytes(tmp_path, kind):
    assert fingerprint(str(tmp_path / "dur"), kind) == EXPECTED[kind.__name__]


def test_the_payload_is_the_canonical_json_of_the_chained_entry(tmp_path):
    manager = DurabilityManager(str(tmp_path / "dur"))
    database, _ = manager.recover(TemporalDatabase)
    history(database)
    (_, path), = manager.segments()
    prev = GENESIS
    for line in open(path, encoding="utf-8").read().splitlines():
        payload = line.split(" ", 3)[3]
        entry = json.loads(payload)
        bare = {key: value for key, value in entry.items()
                if key != CHAIN_KEY}
        assert payload == json.dumps(chain_entry(bare, prev),
                                     ensure_ascii=False, sort_keys=True,
                                     separators=(",", ":"))
        assert chained_text(bare, prev) == (payload,
                                            entry[CHAIN_KEY]["commit"])
        prev = entry[CHAIN_KEY]["commit"]


def respace(path):
    """Re-frame every record of the segment at *path* the way a spaced
    writer did; returns whether that changed its bytes."""
    with open(path, "rb") as handle:
        before = handle.read()
    lines = [frame_record(entry, tag=CHAINED_TAG)
             for entry in Journal(path).read()]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))
    with open(path, "rb") as handle:
        return handle.read() != before


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.kind.value)
def test_a_spaced_segment_recovers_replays_and_audits_clean(tmp_path, kind):
    directory = str(tmp_path / "dur")
    manager = DurabilityManager(directory)
    live, _ = manager.recover(kind)
    history(live)
    (_, path), = manager.segments()
    assert respace(path)
    expected = state_digest(live, cache=False)

    recovered, report = DurabilityManager(directory).recover(kind)
    assert report.records_replayed == len(live.log)
    assert state_digest(recovered, cache=False) == expected
    replayed = Journal(path).replay(kind)
    assert state_digest(replayed, cache=False) == expected
    assert audit_directory(directory).clean

    # A compact record appended after the spaced ones chains onto them.
    recovered.manager.clock.source.set("04/01/84")
    recovered.replace("faculty", {"name": "Merrie"}, {"rank": "associate"})
    again, _ = DurabilityManager(directory).recover(kind)
    assert state_digest(again, cache=False) == state_digest(recovered,
                                                            cache=False)
    assert audit_directory(directory).clean

