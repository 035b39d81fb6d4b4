"""Persistence: serialization, the durable journal, and recovery.

The layer is built bottom-up, and each module states the durability
obligation it carries:

- :mod:`~repro.storage.serializer` — JSON encoding of every value,
  schema, and relation kind in the system, plus whole-database
  dump/load.  Pure data transformation: no I/O, no durability claims.
- :mod:`~repro.storage.framing` — the on-disk record format: one line,
  length-prefixed and CRC32-checksummed, so a reader can tell a *torn*
  record (crash residue, recoverable at the tail) from a *corrupt* one
  (never recoverable).
- :mod:`~repro.storage.chain` — the commit hash chain: every journal
  record names its parent's commit hash, making history tamper-evident
  (a rewritten record with a recomputed CRC still breaks the chain) and
  prefix-comparable (equal heads ⇒ equal histories).
- :mod:`~repro.storage.scrub` — the integrity scrubber: offline audit
  of segments, checkpoints and 2PC side logs; quarantine of damaged
  files; repair by re-fetching the damaged suffix from a healthy
  source (``repro audit`` / ``repro scrub``).
- :mod:`~repro.storage.io` — the two primitives everything durable is
  built from: flushed append and atomic whole-file replace.  Also the
  seam the fault-injection harness (:mod:`~repro.storage.faults`)
  replaces to simulate crashes deterministically.
- :mod:`~repro.storage.journal` — framed commit records in an
  append-only file.  Because transaction time is append-only and
  system-assigned, replaying the journal reproduces the database
  exactly, commit times included — the paper's transaction-time
  semantics make the commit log a complete description of a rollback
  or temporal database.
- :mod:`~repro.storage.checkpoint` — atomic snapshots keyed by the
  journal records they incorporate: the open partition plus a manifest
  of sealed history files, each holding rows whose transaction time has
  closed, written once.  Pure optimization: a damaged or deleted
  checkpoint costs replay time, never data.
- :mod:`~repro.storage.walk` — the segment walk: the one reading of a
  journal's segments (frames, contiguity, chain links, the sealed fold,
  checkpoint heads) that recovery, the audit and a repair source share,
  so recovery refuses exactly what the audit finds.
- :mod:`~repro.storage.recovery` — :class:`DurabilityManager`, which
  ties segments and checkpoints into restart = *latest valid
  checkpoint + tail replay*, with torn-tail repair.

The crash-safety contract these modules jointly implement is documented
in ``docs/DURABILITY.md``.
"""

from repro.storage.serializer import (
    decode_value, dump_database, dumps_database, encode_value, load_database,
    loads_database, schema_from_dict, schema_to_dict,
)
from repro.storage.framing import (
    CHAINED_TAG, CHECKPOINT_TAG, HISTORY_TAG, JOURNAL_TAG, FrameDamage,
    FrameError,
    frame, frame_record, parse_frame, parse_journal_line,
)
from repro.storage.chain import (
    GENESIS, ChainVerifier, chain_entry, content_hash, entry_chain,
    head_of, link_hash,
)
from repro.storage.io import REAL_IO, StorageIO
from repro.storage.journal import Journal, apply_entries, encode_commit
from repro.storage.checkpoint import (
    CheckpointStore, checkpoint_bytes, read_checkpoint,
    read_checkpoint_head, read_history,
)
from repro.storage.recovery import DurabilityManager, RecoveryReport, detect_kind
from repro.storage.faults import (
    ALL_CRASH_POINTS, CrashPoint, FaultyIO, SimulatedCrash, flip_byte,
    tamper_chain_field, tamper_record, truncate_file,
)
from repro.storage.scrub import (
    AuditReport, Finding, RepairReport, Scrubber, audit_directory,
    audit_sharded,
)
from repro.storage.interchange import (
    export_csv, export_historical_csv, export_temporal_csv, import_csv,
    import_historical_csv, import_temporal_csv,
)

__all__ = [
    "Journal",
    "apply_entries",
    "encode_commit",
    "CheckpointStore",
    "checkpoint_bytes",
    "read_checkpoint",
    "read_checkpoint_head",
    "read_history",
    "DurabilityManager",
    "RecoveryReport",
    "detect_kind",
    "StorageIO",
    "REAL_IO",
    "CrashPoint",
    "ALL_CRASH_POINTS",
    "FaultyIO",
    "SimulatedCrash",
    "JOURNAL_TAG",
    "CHAINED_TAG",
    "CHECKPOINT_TAG",
    "HISTORY_TAG",
    "FrameDamage",
    "FrameError",
    "frame",
    "frame_record",
    "parse_frame",
    "parse_journal_line",
    "GENESIS",
    "ChainVerifier",
    "chain_entry",
    "content_hash",
    "entry_chain",
    "head_of",
    "link_hash",
    "flip_byte",
    "truncate_file",
    "tamper_record",
    "tamper_chain_field",
    "AuditReport",
    "Finding",
    "RepairReport",
    "Scrubber",
    "audit_directory",
    "audit_sharded",
    "export_csv",
    "export_historical_csv",
    "export_temporal_csv",
    "import_csv",
    "import_historical_csv",
    "import_temporal_csv",
    "decode_value",
    "dump_database",
    "dumps_database",
    "encode_value",
    "load_database",
    "loads_database",
    "schema_from_dict",
    "schema_to_dict",
]
