"""Replay holds no parsed history: recovery applies records as it walks.

Transaction time is append-only, so the journal *is* the history and a
restart is its replay.  The segment walk (:mod:`repro.storage.walk`)
hands each verified entry to a consumer and keeps none; recovery's
consumer (:class:`repro.storage.journal.Replay`) applies them a few at a
time.  So what a replay holds beyond the database it builds is the bytes
of the segment being read — not a parsed copy of every record — and a
refused directory still raises exactly what it raised when the whole
journal was parsed before anything was applied
(docs/DURABILITY.md "The recovery algorithm").
"""

import gc
import hashlib
import os
import tracemalloc

import pytest

from repro.core import StaticDatabase, TemporalDatabase
from repro.errors import JournalError
from repro.storage import (DurabilityManager, audit_directory, flip_byte,
                           parse_journal_line)
from repro.storage.chain import CHAIN_KEY
from repro.storage.walk import JournalWalk, fold_segment

from tests.conftest import faculty_schema
from tests.storage.probes import assert_refused

KEYS = 16


def history(directory, commits, checkpoint_at=None, kind=TemporalDatabase):
    """A faculty store: KEYS inserts, then *commits* keyed replaces,
    checkpointed (and so rotated) after *checkpoint_at* of them."""
    manager = DurabilityManager(directory)
    database, _ = manager.recover(kind)
    database.manager.clock.source.set("01/01/81")
    database.define("faculty", faculty_schema())
    valid = ({"valid_from": "01/01/80"}
             if database.kind.supports_historical_queries else {})
    for key in range(KEYS):
        database.insert("faculty", {"name": f"n{key:02d}", "rank": "full"},
                        **valid)
    clock = database.manager.clock.source
    for step in range(commits):
        if step == checkpoint_at:
            manager.checkpoint()
        clock.set(clock.current() + 1)
        database.replace("faculty", {"name": f"n{step % KEYS:02d}"},
                         {"rank": ("assistant", "associate")[
                             step // KEYS % 2]}, **valid)
    return manager


def journal_bytes(directory):
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory) if name.endswith(".seg"))


def traced_overhead(run):
    """Traced bytes *run* allocated at its peak beyond what it keeps (what
    it returns is alive when the two are read)."""
    gc.collect()
    tracemalloc.start()
    try:
        kept_alive = run()  # noqa: F841 - measured while it lives
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - kept


def replay_overhead(directory):
    """Traced bytes a full replay allocated at its peak beyond what the
    recovered database keeps."""
    return traced_overhead(lambda: DurabilityManager(directory).recover(
        StaticDatabase, use_checkpoint=False))


def test_a_full_replay_holds_no_parsed_record(tmp_path):
    """From 500 to 4,000 records the peak grows by the journal's own
    bytes (the walk reads a segment whole) and no more: a parsed entry is
    several times its framed line, so a list of them all would add
    several times that.  (A static store replays fastest.)"""
    small, large = str(tmp_path / "small"), str(tmp_path / "large")
    history(small, 500 - KEYS - 1, kind=StaticDatabase)
    history(large, 4000 - KEYS - 1, kind=StaticDatabase)
    grown = replay_overhead(large) - replay_overhead(small)
    assert grown <= journal_bytes(large) - journal_bytes(small) + 256 * 1024


def test_a_restart_and_an_audit_hold_no_sealed_segment(tmp_path):
    """The segments below a checkpoint are read once, a line at a time,
    into the fold that vouches for them: from 500 to 4,000 records
    sealed, neither a restart (checkpoint + a 10-record tail) nor an
    audit peaks higher, where holding the sealed bytes would add them
    all (about 1.6 MB here)."""
    grown = {}
    for records in (500, 4000):
        directory = str(tmp_path / str(records))
        commits = records - KEYS - 1
        history(directory, commits, checkpoint_at=commits - 10,
                kind=StaticDatabase)
        grown[records] = (
            traced_overhead(lambda: DurabilityManager(directory).recover(
                StaticDatabase)),
            traced_overhead(lambda: audit_directory(directory)))
    assert journal_bytes(directory) > 1024 * 1024
    for small, large in zip(grown[500], grown[4000]):
        assert large - small <= 64 * 1024


def sealed_files(directory, files, per_file=200):
    """A temporal faculty store checkpointed *files* times, each time after
    *per_file* keyed replaces: one history file of closed rows each."""
    manager = history(directory, 0)
    database, clock = manager.database, manager.database.manager.clock.source
    for step in range(files * per_file):
        clock.set(clock.current() + 1)
        database.replace("faculty", {"name": f"n{step % KEYS:02d}"},
                         {"rank": ("assistant", "associate")[
                             step // KEYS % 2]},
                         valid_from="01/01/80")
        if (step + 1) % per_file == 0:
            manager.checkpoint()
    return manager


def test_an_audit_keeps_no_history_files_rows(tmp_path):
    """The manifest check needs each history file's hash and row counts,
    not its rows, and a checkpoint's open rows are dropped once they
    decode: from 2 to 8 history files (and checkpoints) the audit's peak
    grows only by the longer manifests (~40 KB), where keeping every
    file's decoded rows adds six files' worth (~0.7 MB here)."""
    peaks = {}
    for files in (2, 8):
        directory = str(tmp_path / str(files))
        sealed_files(directory, files)
        assert len([name for name in os.listdir(directory)
                    if name.endswith(".hist")]) == files
        assert audit_directory(directory).clean
        peaks[files] = traced_overhead(lambda: audit_directory(directory))
    assert peaks[8] - peaks[2] <= 128 * 1024


def test_a_walk_given_a_consumer_keeps_no_entry(tmp_path):
    directory = str(tmp_path / "dur")
    manager = history(directory, 40)
    seen = []
    walk = JournalWalk(manager.segments(), 0, consume=seen.append)
    assert walk.refusal is None and len(seen) == 40 + KEYS + 1
    handed = {id(entry) for entry in seen}
    pending, reached = [value for name, value in vars(walk).items()
                        if name != "_consume"], set()
    while pending:  # everything the walk can reach but its consumer
        item = pending.pop()
        if id(item) not in reached:
            reached.add(id(item))
            pending.extend(gc.get_referents(item))
    assert not handed & reached


def corrupt_line(directory, segment, line_number):
    """Flip a payload byte of one line: its checksum no longer matches."""
    path = os.path.join(directory, segment)
    lines = open(path, "rb").read().split(b"\n")
    offset = sum(len(line) + 1 for line in lines[:line_number - 1])
    flip_byte(path, offset + len(lines[line_number - 1]) // 2)
    return path, offset


@pytest.mark.parametrize("use_checkpoint,segment,offset,crcs", [
    (True, "journal-00000047.seg", 5643, ("f1dfc5e5", "3fecb42e")),
    (False, "journal-00000000.seg", 5619, ("87a82541", "6ef43730")),
], ids=["checkpoint-plus-tail", "full-replay"])
def test_a_corrupt_middle_record_is_refused_as_before(
        tmp_path, use_checkpoint, segment, offset, crcs):
    """Records before the damage are applied as the walk reaches them,
    yet the error is, word for word, the one recovery raised when it
    parsed the whole journal before applying any of it; the directory is
    untouched and nothing is attached."""
    directory = str(tmp_path / "dur")
    history(directory, 60, checkpoint_at=30)
    path, found = corrupt_line(directory, segment, 12)
    manager = DurabilityManager(directory)
    error = assert_refused(directory, JournalError, lambda d: manager.recover(
        TemporalDatabase, use_checkpoint=use_checkpoint))
    assert found == offset and str(error) == (
        f"corrupt journal record at line 12 (byte offset {offset}) in "
        f"{path}: checksum mismatch: frame says {crcs[0]}, payload hashes "
        f"to {crcs[1]} — so this is not a torn tail")
    assert manager.database is None


@pytest.mark.parametrize("use_checkpoint,replayed", [(True, 30), (False, 77)],
                         ids=["checkpoint-plus-tail", "full-replay"])
def test_the_report_counts_what_it_did(tmp_path, use_checkpoint, replayed):
    directory = str(tmp_path / "dur")
    history(directory, 60, checkpoint_at=30)
    database, report = DurabilityManager(directory).recover(
        TemporalDatabase, use_checkpoint=use_checkpoint)
    assert report.records_replayed == replayed
    assert report.records_total == report.chain_verified == 77
    assert len(database.log) == replayed


@pytest.mark.parametrize("padding", [False, True],
                         ids=["clean", "blank-lines"])
def test_a_vouched_segment_counts_as_the_walk_does(tmp_path, padding):
    """A sealed segment the fold vouches for is counted a line at a time
    without parsing its records; clean or padded with blank lines, it
    ends where walking it record by record ends, on the same head."""
    directory = str(tmp_path / "dur")
    manager = history(directory, 20, checkpoint_at=10)
    sealed = os.path.join(directory, "journal-00000000.seg")
    if padding:
        lines = open(sealed, "rb").read().split(b"\n")
        with open(sealed, "wb") as handle:
            handle.write(b"\n".join(lines[:5] + [b"", b" \t"] + lines[5:])
                         + b"\n")
    fold = hashlib.sha256()
    fold_segment(fold, sealed,
                 hashlib.sha256(open(sealed, "rb").read()).hexdigest())
    base = KEYS + 1 + 10
    vouched = JournalWalk(manager.segments(), base, sealed=fold.hexdigest())
    walked = JournalWalk(manager.segments(), base)
    assert vouched.findings == walked.findings == []
    assert (vouched.records, vouched.end, vouched.verifier.head) == (
        walked.records, walked.end, walked.verifier.head)
    assert vouched.verifier.verified == walked.verifier.verified == 37


@pytest.mark.parametrize("padding", [False, True],
                         ids=["clean", "blank-lines"])
def test_a_mark_inside_a_vouched_segment_is_checked_as_walked(tmp_path,
                                                              padding):
    """A checkpoint mark inside a sealed segment is checked against the
    record before it whether the fold vouches for the segment or it is
    walked: a recorded head that is the walked one passes, another is a
    chain break filed under that checkpoint, found alike."""
    directory = str(tmp_path / "dur")
    manager = history(directory, 20, checkpoint_at=10)
    sealed = os.path.join(directory, "journal-00000000.seg")
    lines = open(sealed, "rb").read().split(b"\n")
    if padding:
        with open(sealed, "wb") as handle:
            handle.write(b"\n".join(lines[:5] + [b"", b" \t"] + lines[5:])
                         + b"\n")
    fold = hashlib.sha256()
    fold_segment(fold, sealed,
                 hashlib.sha256(open(sealed, "rb").read()).hexdigest())
    commit = [parse_journal_line(line.decode("utf-8"))[CHAIN_KEY]["commit"]
              for line in lines if line]
    heads = {5: commit[4], 9: commit[9]}  # 9's is record 9's, not 8's
    base = KEYS + 1 + 10
    vouched = JournalWalk(manager.segments(), base, heads=heads,
                          sealed=fold.hexdigest())
    walked = JournalWalk(manager.segments(), base, heads=heads)
    assert vouched.findings == walked.findings
    assert [(finding.kind, finding.file) for finding in vouched.findings] == [
        ("chain-break", "checkpoint-00000009.ckpt")]
    assert vouched.refusal is walked.refusal is None


def test_a_mark_at_every_record_is_checked_as_walked(tmp_path):
    """The same across a sealed segment read in several batches: with a
    wrong head recorded at every record, the vouched segment files the
    same chain break under every mark as the walked one, those at the
    start of a batch included."""
    directory = str(tmp_path / "dur")
    commits = 600
    manager = history(directory, commits, checkpoint_at=commits - 10,
                      kind=StaticDatabase)
    base = KEYS + 1 + commits - 10
    sealed = os.path.join(directory, "journal-00000000.seg")
    assert os.path.getsize(sealed) > 2 * (1 << 16)  # three batches or more
    fold = hashlib.sha256()
    fold_segment(fold, sealed,
                 hashlib.sha256(open(sealed, "rb").read()).hexdigest())
    heads = dict.fromkeys(range(1, base), "0" * 64)
    vouched = JournalWalk(manager.segments(), base, heads=heads,
                          sealed=fold.hexdigest())
    walked = JournalWalk(manager.segments(), base, heads=heads)
    assert vouched.findings == walked.findings
    assert len(vouched.findings) == base - 1
