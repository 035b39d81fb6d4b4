"""The integrity scrubber: audit, quarantine, and repair durable state.

Recovery (:mod:`repro.storage.recovery`) verifies what it replays and
*stops* at damage.  The scrubber is the operational layer above that.
Its audit makes the segment walk recovery makes
(:mod:`repro.storage.walk`), then checks the checkpoints, history files
and 2PC side logs, never raising; it classifies each problem into a
:class:`Finding`, and can then take action:

- :meth:`Scrubber.quarantine` moves every damaged file (and every file
  whose content depends on the damage) into a ``quarantine/``
  subdirectory.  Nothing is deleted: quarantine preserves the evidence
  while getting it out of recovery's way.
- :meth:`Scrubber.repair` re-fetches the quarantined suffix from a
  healthy *source* (the primary, or another replica's directory): the
  verified prefix is recovered in place, then the missing records are
  re-applied and re-journaled one by one — or, when the source has
  compacted past what we need, a whole snapshot is adopted
  (:meth:`~repro.storage.recovery.DurabilityManager.adopt_snapshot`).
  Either way the node converges to a digest-equal copy of the source
  with **zero lost durable commits**: everything the damage destroyed
  is on the source, because replication shipped it before it was
  damaged at rest.

The damage taxonomy the audit classifies into (docs/INTEGRITY.md):

==============  ============================================================
kind            meaning
==============  ============================================================
``torn``        a short final record in the live segment — benign crash
                residue, repairable by truncation (the only finding in
                a segment that recovery tolerates, beside a ``gap``
                wholly below the checkpoint it loads)
``corrupt``     a frame whose bytes are present but wrong (bad CRC, bad
                header, undecodable payload, or a retired generation —
                an ``r1`` frame or bare JSON where only chained ``r2``
                records belong: the downgrade), or torn bytes
                *mid-file* where no crash can produce them
``chain-break``  a record linking to a parent that is not the walked
                head: records were removed, reordered or substituted
``chain-tamper``  a record rewritten in place — CRC valid, but the
                payload no longer matches the content hash the chain
                pinned (the attack a checksum alone cannot catch), or
                its chain fields were stripped (the downgrade); or
                sealed segments that no longer fold to the checkpoint
``gap``         records in no segment: a hole between segment files, a
                first segment starting above the newest checkpoint, or
                a checkpoint claiming more records than the journal holds
``checkpoint``  a checkpoint file that fails its frame or format, or
                whose own rows do not decode
``history``     a history file that fails its frame, or is not the
                content it is named for
``history-missing``  a checkpoint whose manifest names a history file
                that is not there
``manifest``    a checkpoint whose manifest disagrees with the history
                file it names (another hash, other row counts), or
                names a damaged one
``sidelog``     a damaged record in a 2PC prepare/decision log
==============  ============================================================

``repro audit`` prints the report; ``repro scrub`` quarantines and (with
``--repair-from``) repairs.  The chaos matrix in
``tests/storage/test_integrity_chaos.py`` drives every injector in
:mod:`repro.storage.faults` through detect → classify → repair.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import CheckpointError
from repro.obs import runtime as _obs
from repro.storage import chain as _chain
from repro.storage.checkpoint import (CheckpointStore, load_payload,
                                      manifest_mismatch, read_checkpoint_head,
                                      read_history)
from repro.storage.framing import (JOURNAL_TAG, FrameDamage, FrameError,
                                   frame_lines)
from repro.storage.io import REAL_IO, StorageIO, listing
from repro.storage.journal import apply_entries
from repro.storage.recovery import DurabilityManager
from repro.storage.serializer import dump_database, load_database
from repro.storage.walk import Finding, JournalWalk

#: Quarantine subdirectory name (inside the durability directory).
QUARANTINE_DIR = "quarantine"

#: 2PC side-log file names (audited when present).
_SIDELOGS = ("2pc.seg", "decisions.seg")


@dataclasses.dataclass(frozen=True)
class AuditReport:
    """What one audit pass over a durability directory saw."""

    directory: str
    #: Every classified problem, in walk order.
    findings: Tuple[Finding, ...]
    #: Journal records that parsed (frames intact), across all segments.
    records_total: int
    #: Chained records whose hash link verified against the walked head.
    chain_verified: int
    #: Records from index 0 provably intact (frames *and* chain) — a
    #: degraded node may keep serving reads from exactly this prefix.
    verified_prefix: int
    #: The walked chain head (``None`` when damage leaves it unknown).
    chain_head: Optional[str]
    segments_audited: int = 0
    checkpoints_audited: int = 0
    history_files_audited: int = 0
    sidelogs_audited: int = 0

    @property
    def clean(self) -> bool:
        """True when the audit found nothing wrong."""
        return not self.findings

    def describe(self) -> Dict[str, Any]:
        """A plain dict (what ``repro audit --json`` prints)."""
        data = dataclasses.asdict(self)
        data["findings"] = [finding.describe() for finding in self.findings]
        data["clean"] = self.clean
        return data


@dataclasses.dataclass(frozen=True)
class RepairReport:
    """What one :meth:`Scrubber.repair` run did."""

    #: Findings the pre-repair audit classified.
    findings: int
    #: Files moved into ``quarantine/`` (relative names).
    quarantined: Tuple[str, ...]
    #: Records re-fetched from the source and re-journaled.
    refetched_records: int
    #: True when the damaged suffix was replaced by a whole snapshot
    #: (the source had compacted past the verified prefix).
    used_snapshot: bool
    #: Durable records after repair.
    records_total: int
    #: Chain head after repair.
    chain_head: Optional[str]
    #: Post-repair state digest comparison against the source (``None``
    #: when the source offers no digest).
    digest_match: Optional[bool]

    def describe(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _audit_sidelog(path: str, name: str) -> List[Finding]:
    """Frame-check one 2PC side log (absent: nothing to find)."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as handle:
        data = handle.read()
    return [Finding(name, "sidelog", line_number, None,
                    ("torn final record (crash residue; recovery drops it): "
                     if error.damage is FrameDamage.TORN
                     else "damaged 2PC record: ") + str(error))
            for line_number, _, error in frame_lines(data, JOURNAL_TAG)
            if isinstance(error, FrameError)]


def audit_directory(directory: str,
                    io: Optional[StorageIO] = None) -> AuditReport:
    """Audit one :class:`DurabilityManager` directory; never raises.

    The segment walk of :mod:`repro.storage.walk` from the newest valid
    checkpoint, cross-checking every valid checkpoint's recorded chain
    head; then every history file (frame, content hash — each read once,
    however many checkpoints name it), every checkpoint (frame, format,
    its own rows decoding, each manifest entry against the file it names,
    its index against the journal's end), and any 2PC side log living in
    the directory.
    """
    obs = _obs.current()
    with obs.tracer.span("scrub.audit", directory=directory), \
            obs.metrics.histogram("scrub.audit_seconds").time():
        segments = DurabilityManager(directory, io=io).segments()
        store = CheckpointStore(directory, io=io)
        ckpt_indices = store.indices()
        heads: Dict[int, Any] = {}  # index -> its head, or why it has none
        for index in ckpt_indices:
            path = store.path_for(index)
            try:
                heads[index] = read_checkpoint_head(path)
                load_payload(path, heads[index].pop("database"))
            except CheckpointError as exc:
                heads[index] = exc
        valid = {index: head for index, head in heads.items()
                 if isinstance(head, dict)}
        newest_valid = max(valid, default=None)
        walk = JournalWalk(
            segments, newest_valid or 0,
            heads={index: head.get("chain_head")
                   for index, head in valid.items()},
            sealed=valid.get(newest_valid, {}).get("sealed_journal"))
        findings = list(walk.findings)
        if newest_valid is not None and newest_valid > walk.end:
            findings.append(Finding(
                os.path.basename(store.path_for(newest_valid)), "gap",
                None, walk.end,
                f"checkpoint incorporates {newest_valid} records but the "
                f"journal accounts for only {walk.end} — the journal "
                f"tail was truncated"))
        damaged_from = min((finding.index for finding in findings
                            if finding.index is not None), default=walk.end)
        # History files: each verified once, on its own.
        history_names = store.history_files()
        histories: Dict[str, Any] = {}  # name -> (sha256, counts) | None
        for name in history_names:
            try:
                histories[name] = read_history(
                    os.path.join(directory, name))[:2]
            except CheckpointError as exc:
                histories[name] = None
                findings.append(Finding(name, "history", None, None,
                                        str(exc)))
        # Checkpoints: damaged files, and valid ones whose manifest is not
        # met by the history files present.
        for index in ckpt_indices:
            name = os.path.basename(store.path_for(index))
            entry = heads[index]
            if isinstance(entry, CheckpointError):
                findings.append(Finding(name, "checkpoint", None, index,
                                        str(entry)))
                continue
            for item in entry["history"]:
                if item[0] not in histories:
                    kind, problem = "history-missing", (
                        f"manifest names {item[0]}, which is not there")
                elif histories[item[0]] is None:
                    kind, problem = "manifest", (
                        f"manifest names {item[0]}, which is damaged")
                else:
                    kind, problem = "manifest", manifest_mismatch(
                        item, *histories[item[0]])
                if problem is not None:
                    findings.append(Finding(name, kind, None, index,
                                            problem))
        sidelogs = [name for name in _SIDELOGS
                    if os.path.exists(os.path.join(directory, name))]
        for name in sidelogs:
            findings.extend(_audit_sidelog(os.path.join(directory, name),
                                           name))
        report = AuditReport(
            directory=directory,
            findings=tuple(findings),
            records_total=walk.records,
            chain_verified=walk.verifier.verified,
            verified_prefix=damaged_from,
            chain_head=(walk.verifier.head if not findings else None),
            segments_audited=len(segments),
            checkpoints_audited=len(ckpt_indices),
            history_files_audited=len(history_names),
            sidelogs_audited=len(sidelogs),
        )
        obs.metrics.counter("scrub.audits").inc()
        if report.findings:
            obs.metrics.counter("scrub.findings").inc(len(report.findings))
        for finding in report.findings:
            obs.events.emit("integrity.damage", file=finding.file,
                            damage=finding.kind, index=finding.index)
        obs.events.emit("integrity.audit", directory=directory,
                        findings=len(report.findings),
                        records=report.records_total)
    return report


def audit_sharded(directory: str,
                  io: Optional[StorageIO] = None) -> Dict[str, Any]:
    """Audit a :class:`ShardedDurabilityManager` directory.

    Returns ``{"per_shard": [AuditReport...], "decision_log": [Finding...],
    "combined_root": ...}`` — the combined root is the hash of the
    per-shard chain heads in shard order (the single value two sharded
    stores compare to prove identical history everywhere).
    """
    per_shard: List[AuditReport] = []
    shard_ids: List[int] = []
    for name in sorted(listing(directory)):
        path = os.path.join(directory, name)
        if name.startswith("shard-") and os.path.isdir(path):
            shard_ids.append(int(name.split("-", 1)[1]))
            per_shard.append(audit_directory(path, io=io))
    decision_findings = _audit_sidelog(
        os.path.join(directory, "decisions.seg"), "decisions.seg")
    heads = [report.chain_head for report in per_shard]
    combined = combined_root(heads)
    return {
        "directory": directory,
        "shards": shard_ids,
        "per_shard": per_shard,
        "decision_log": decision_findings,
        "combined_root": combined,
        "clean": (all(r.clean for r in per_shard)
                  and not decision_findings),
    }


def combined_root(heads: List[Optional[str]]) -> Optional[str]:
    """One hash over per-shard chain heads, in shard order.

    ``None`` when any shard's head is unknown — a combined root must
    never paper over an unverifiable shard."""
    if not heads or any(head is None for head in heads):
        return None
    running = _chain.GENESIS
    for head in heads:
        running = _chain.link_hash(running, head)
    return running


class DirectorySource:
    """A repair source backed by a healthy durability directory.

    Recovers the directory (read-only use) and serves the three things
    repair needs: the records floor, the records themselves, and a full
    snapshot with digest for the slow-path cross-check.  The replication
    primary offers the same surface over the wire
    (:mod:`repro.replication.primary`).
    """

    def __init__(self, directory: str, factory: Callable[..., Any],
                 io: Optional[StorageIO] = None) -> None:
        self._manager = DurabilityManager(directory, io=io)
        self._database, _ = self._manager.recover(factory)

    @property
    def record_count(self) -> int:
        return self._manager.record_count

    @property
    def chain_head(self) -> Optional[str]:
        return self._manager.chain_head

    def floor(self) -> int:
        """Earliest record index still present as journal records."""
        segments = self._manager.segments()
        return segments[0][0] if segments else self._manager.record_count

    def entries_from(self, seq: int) -> List[Dict[str, Any]]:
        """Every journal entry at or after *seq*, oldest first (the
        segment walk's; what recovery would refuse raises)."""
        entries: List[Dict[str, Any]] = []
        walk = JournalWalk(self._manager.segments(), seq,
                           consume=entries.append)
        if walk.refusal is not None:
            raise walk.refusal
        return entries

    def snapshot(self) -> Tuple[int, Dict[str, Any], Optional[str]]:
        """``(record_count, dumped_state, chain_head)`` of the source."""
        return (self._manager.record_count,
                dump_database(self._database),
                self._manager.chain_head)

    def digest(self) -> str:
        from repro.replication.digest import state_digest
        return state_digest(self._database)


class Scrubber:
    """Audit → quarantine → repair for one durability directory."""

    def __init__(self, directory: str, fsync: bool = False,
                 io: Optional[StorageIO] = None) -> None:
        self._directory = directory
        self._fsync = fsync
        self._io = io if io is not None else REAL_IO

    @property
    def directory(self) -> str:
        return self._directory

    def audit(self) -> AuditReport:
        """One non-destructive audit pass (see :func:`audit_directory`)."""
        return audit_directory(self._directory, io=self._io)

    def _quarantine_file(self, name: str, moved: List[str]) -> None:
        source = os.path.join(self._directory, name)
        if not os.path.exists(source):
            return
        qdir = os.path.join(self._directory, QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        target = os.path.join(qdir, name)
        suffix = 0
        while os.path.exists(target):
            suffix += 1
            target = os.path.join(qdir, f"{name}.{suffix}")
        os.replace(source, target)
        moved.append(name)
        obs = _obs.current()
        obs.metrics.counter("scrub.quarantined").inc()
        obs.events.emit("integrity.quarantine", file=name,
                        directory=self._directory)

    def quarantine(self,
                   report: Optional[AuditReport] = None) -> List[str]:
        """Move every untrusted file into ``quarantine/``; returns names.

        Untrusted means: any segment with a finding, every segment at or
        after the first damaged record (their content is fine but their
        place in history depends on the damaged range), any damaged
        history file and every checkpoint whose manifest names it, any
        other checkpoint with a finding, any checkpoint incorporating
        records at or beyond the first damage, and any damaged 2PC side
        log.  Nothing is deleted — the files keep their names under
        ``quarantine/``.
        """
        if report is None:
            report = self.audit()
        if report.clean:
            return []
        moved: List[str] = []
        manager = DurabilityManager(self._directory, io=self._io)
        segments = manager.segments()
        by_name = {os.path.basename(path): start
                   for start, path in segments}
        refetch_from = min((by_name[f.file] for f in report.findings
                            if f.file in by_name), default=None)
        sidelog_findings = {f.file for f in report.findings
                            if f.kind == "sidelog"}
        gap_at_tail = any(f.kind == "gap" and f.file.startswith("checkpoint")
                          for f in report.findings)
        if gap_at_tail and refetch_from is None:
            # The journal tail is missing (a checkpoint proves more
            # records existed): re-fetch from the last surviving segment.
            refetch_from = segments[-1][0] if segments else 0
        if refetch_from is not None:
            for start, path in segments:
                if start >= refetch_from:
                    self._quarantine_file(os.path.basename(path), moved)
        store = CheckpointStore(self._directory, io=self._io)
        damaged_ckpts = {f.file for f in report.findings
                         if f.file.startswith("checkpoint")}
        for index in store.indices():
            name = os.path.basename(store.path_for(index))
            if name in damaged_ckpts or (refetch_from is not None
                                         and index > refetch_from):
                self._quarantine_file(name, moved)
        for finding in report.findings:
            if finding.kind == "history":
                self._quarantine_file(finding.file, moved)
        for name in sidelog_findings:
            self._quarantine_file(name, moved)
        return moved

    def repair(self, source, factory: Callable[..., Any]) -> RepairReport:
        """Detect, quarantine, and re-fetch the damaged suffix.

        *source* implements the :class:`DirectorySource` surface
        (``floor()``, ``entries_from(seq)``, ``snapshot()``, optionally
        ``digest()``).  On a clean directory this is a no-op audit.
        After repair the directory recovers cleanly, its chain head
        matches the source's for the shared prefix, and — when the
        source exposes a digest — the states are digest-equal.
        """
        obs = _obs.current()
        report = self.audit()
        if report.clean:
            return RepairReport(
                findings=0, quarantined=(), refetched_records=0,
                used_snapshot=False, records_total=report.records_total,
                chain_head=report.chain_head, digest_match=None)
        moved = self.quarantine(report)
        manager = DurabilityManager(self._directory, fsync=self._fsync,
                                    io=self._io)
        database, recovered = manager.recover(factory)
        used_snapshot = source.floor() > manager.record_count
        if not used_snapshot:
            entries = source.entries_from(manager.record_count)
            # on_commit is attached, so each re-run journals (and
            # re-chains) its record exactly as a live commit would.
            apply_entries(database, database.manager.clock.source, entries)
            refetched = len(entries)
        else:
            count, state, head = source.snapshot()
            database = load_database(state)
            manager.adopt_snapshot(database, count, chain_head=head)
            refetched = count - recovered.records_total
        digest_match: Optional[bool] = None
        if hasattr(source, "digest"):
            from repro.replication.digest import state_digest
            digest_match = state_digest(database) == source.digest()
        obs.metrics.counter("scrub.repairs").inc()
        obs.metrics.counter("scrub.refetched_records").inc(max(refetched, 0))
        obs.events.emit("integrity.repair", directory=self._directory,
                        records=refetched, path=("snapshot" if used_snapshot
                                                 else "records"))
        return RepairReport(
            findings=len(report.findings),
            quarantined=tuple(moved),
            refetched_records=max(refetched, 0),
            used_snapshot=used_snapshot,
            records_total=manager.record_count,
            chain_head=manager.chain_head,
            digest_match=digest_match,
        )
