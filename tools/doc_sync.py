#!/usr/bin/env python
"""Regenerate (or verify) the machine-produced blocks in ``docs/``.

Markdown files under ``docs/`` may embed blocks bounded by::

    <!-- doc-sync:begin <name> -->
    ...generated content...
    <!-- doc-sync:end -->

Each ``<name>`` maps to a generator in this file that rebuilds the
content from the live code.  Every generator is deterministic by
construction — simulated clock, ``explain(..., timings=False)``, no
wall-clock anywhere — so the blocks are byte-stable across runs and
machines.

``--check`` (the CI mode) regenerates every block and exits non-zero
with a unified diff when a committed doc has drifted from the code;
``--write`` rewrites the files in place.  A marker naming an unknown
generator, or a ``begin`` without its ``end``, is an error in both
modes: silent marker rot is exactly what this tool exists to prevent.

Run:  PYTHONPATH=src python tools/doc_sync.py --check
      PYTHONPATH=src python tools/doc_sync.py --write
"""

from __future__ import annotations

import argparse
import difflib
import io
import os
import re
import sys
from typing import Callable, Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core import TemporalDatabase  # noqa: E402
from repro.time import SimulatedClock  # noqa: E402
from repro.tquel import Session  # noqa: E402
from repro.tquel.evaluator import KEY_ACCESS, KEY_HISTORY_ACCESS  # noqa: E402

DOCS_DIR = os.path.join(REPO_ROOT, "docs")

_BLOCK = re.compile(
    r"(<!-- doc-sync:begin (?P<name>[\w-]+) -->\n)"
    r"(?P<body>.*?)"
    r"(<!-- doc-sync:end -->)",
    re.DOTALL)
_BEGIN = re.compile(r"<!-- doc-sync:begin ([\w-]+) -->")


# -- fixtures ---------------------------------------------------------------------

#: The §4 faculty history (the quickstart / ``repro cache`` workload).
FACULTY_HISTORY = [
    ("08/25/77", 'append to faculty (name = "Merrie", rank = "associate") '
                 'valid from "09/01/77"'),
    ("12/01/82", 'append to faculty (name = "Tom", rank = "full") '
                 'valid from "12/05/82"'),
    ("12/07/82", 'replace f (rank = "associate") where f.name = "Tom" '
                 'valid from "12/05/82"'),
    ("12/15/82", 'replace f (rank = "full") where f.name = "Merrie" '
                 'valid from "12/01/82"'),
    ("01/10/83", 'append to faculty (name = "Mike", rank = "assistant") '
                 'valid from "01/01/83"'),
    ("02/25/84", 'delete f where f.name = "Mike" valid from "03/01/84"'),
]


def _faculty_session(plan: str = "auto") -> Session:
    """The paper's faculty database on a pinned simulated clock."""
    clock = SimulatedClock("01/01/77")
    session = Session(TemporalDatabase(clock=clock), plan=plan)
    session.execute("create faculty (name = string, rank = string) "
                    "key (name)")
    session.execute("range of f is faculty")
    for instant, statement in FACULTY_HISTORY:
        clock.set(instant)
        session.execute(statement)
    clock.set("03/01/84")
    return session


def _fenced(text: str) -> str:
    return "```\n" + text.rstrip("\n") + "\n```\n"


# -- generators -------------------------------------------------------------------

def _gen_explain_asof() -> str:
    """The worked as-of explain transcript QUERY_PLANNING.md annotates."""
    session = _faculty_session()
    query = ('retrieve (f.rank) where f.name = "Merrie" '
             'as of "12/10/82"')
    return (f"    .explain {query}\n\n"
            + _fenced(session.explain(query, timings=False)))


def _one_row_session(db_class, plan: str = "auto") -> Session:
    """One faculty row in a database of *db_class*, on a pinned clock."""
    clock = SimulatedClock("01/01/77")
    session = Session(db_class(clock=clock), plan=plan)
    session.execute("create faculty (name = string, rank = string) "
                    "key (name)")
    session.execute("range of f is faculty")
    clock.set("08/25/77")
    valid = (' valid from "09/01/77"'
             if session.database.kind.supports_historical_queries else "")
    session.execute('append to faculty (name = "Merrie", '
                    'rank = "associate")' + valid)
    clock.set("12/01/82")
    return session


def _gen_explain_rule() -> str:
    """What ``auto`` takes on each kind under each transaction-time
    clause (a statement no key probe answers), with the reason."""
    from repro.core import HistoricalDatabase, RollbackDatabase, StaticDatabase
    from repro.sharding import ShardedDatabase
    kinds = [("static", StaticDatabase),
             ("rollback", RollbackDatabase),
             ("historical", HistoricalDatabase),
             ("temporal", TemporalDatabase),
             ("rollback, 3 shards", lambda clock: ShardedDatabase(
                 RollbackDatabase, shards=3, clock=clock)),
             ("temporal, 3 shards", lambda clock: ShardedDatabase(
                 TemporalDatabase, shards=3, clock=clock))]
    clauses = [("current state", ""), ("as of", ' as of "12/01/82"'),
               ("as of … through",
                ' as of "01/01/80" through "12/01/82"')]
    rows = ["| kind | " + " | ".join(name for name, _ in clauses) + " |",
            "|---|" + "---|" * len(clauses)]
    for kind, db_class in kinds:
        session = _one_row_session(db_class)
        cells = []
        for _, clause in clauses:
            if clause and not session.database.supports_rollback:
                cells.append("refused (no transaction time)")
                continue
            info = session.explain_plan(
                'retrieve (f.rank) where f.rank = "associate"' + clause,
                timings=False)["variables"]["f"]
            cells.append(f"`{info['plan']}`")
        rows.append(f"| {kind} | " + " | ".join(cells) + " |")
    return "\n".join(rows) + "\n"


def _gen_explain_forced() -> str:
    """The same query under each forced plan mode (one line each),
    plus a forced `index` where no tree answers — on a kind without
    one, and on a rollback database's current state, which its snapshot
    serves; the degradation notice is part of the contract."""
    query = ('retrieve (f.rank) where f.name = "Merrie" '
             'as of "12/10/82"')
    lines = []
    for mode in ("naive", "index", "columnar"):
        session = _faculty_session(plan=mode)
        plan = session.explain_plan(query, timings=False)
        info = plan["variables"]["f"]
        lines.append(f"plan={mode:<8} (temporal)   -> {info['plan']:<8} "
                     f"({info['plan_reason']})")
    from repro.core import HistoricalDatabase, RollbackDatabase
    for kind, db_class in (("historical", HistoricalDatabase),
                           ("rollback", RollbackDatabase)):
        plan = _one_row_session(db_class, plan="index").explain_plan(
            'retrieve (f.rank) where f.name = "Merrie"', timings=False)
        info = plan["variables"]["f"]
        lines.append(f"plan=index    ({kind + ')':<11} -> "
                     f"{info['plan']:<8} ({info['plan_reason']})")
    return _fenced("\n".join(lines))


def _gen_explain_key() -> str:
    """The current-state point query: the by-key lookup, then the
    statements beside it — the same key under ``as of`` (… ``through``),
    and those that must scan instead (one line each)."""
    session = _faculty_session()
    query = 'retrieve (f.rank) where f.name = "Merrie"'
    lines = []
    for note, plan, text in (
            ("whole key bound", "auto", query),
            ("an as-of pin", "auto", query + ' as of "12/10/82"'),
            ("an as-of range", "auto",
             query + ' as of "12/10/82" through "12/20/82"'),
            ("key bound too late", "auto", 'retrieve (f.rank) where '
             'f.rank != "full" and f.name = "Merrie"'),
            ("wrong-domain constant", "auto",
             "retrieve (f.rank) where f.name = 5"),
            ("plan=naive (the oracle)", "naive", query)):
        info = _faculty_session(plan).explain_plan(
            text, timings=False)["variables"]["f"]
        via = {KEY_ACCESS: "one key probe",
               KEY_HISTORY_ACCESS: "one key's versions"}.get(
                   info["index"], "every visible row")
        lines.append(f"{note:<24} -> {info['candidates']} candidate(s): {via}")
    return (f"    .explain {query}\n\n"
            + _fenced(session.explain(query, timings=False))
            + "\n" + _fenced("\n".join(lines)))


def _report_text(data) -> str:
    """*data* as a ``repro`` verb prints it without ``--json``."""
    # The CLI's own renderer, so a transcript can never diverge from
    # what the verb actually prints.
    from repro.cli import _emit
    out = io.StringIO()
    _emit(data, out=out)
    return out.getvalue()


def _gen_cache_stats() -> str:
    """The ``repro cache`` transcript: the demo workload's cache stats."""
    from repro.cli import _cache_snapshot, _demo_workload

    def caches(plan: str) -> str:
        clock = SimulatedClock("01/01/77")
        session = Session(TemporalDatabase(clock=clock), plan=plan)
        _demo_workload(session, clock)
        return _fenced(_report_text(_cache_snapshot(session.database)))

    return ("    $ repro cache --kind temporal\n\n" + caches("auto")
            + "\nForcing the columnar path (`repro cache --plan columnar`)"
            " packs the\nchunk instead — and the result cache stays"
            " cold, because cached\nstreams serve `auto` sessions"
            " only:\n\n" + caches("columnar"))


def _gen_integrity_audit() -> str:
    """The ``repro audit`` transcripts INTEGRITY.md annotates: a clean
    pass over the faculty store, then the same store with record 4
    rewritten in place under a fresh CRC — the tamper only the chain
    can see.  Deterministic: simulated clock, canonical JSON hashing,
    and the temp directory name substituted out."""
    import tempfile

    from repro.storage import (DurabilityManager, audit_directory,
                               tamper_record)

    with tempfile.TemporaryDirectory() as scratch:
        directory = os.path.join(scratch, "store")
        manager = DurabilityManager(directory)
        database, _ = manager.recover(TemporalDatabase)
        clock = database.manager.clock.source
        clock.set("01/01/77")
        session = Session(database)
        session.execute("create faculty (name = string, rank = string) "
                        "key (name)")
        session.execute("range of f is faculty")
        for instant, statement in FACULTY_HISTORY:
            clock.set(instant)
            session.execute(statement)
        clean = _report_text(audit_directory(directory).describe())
        tamper_record(manager.segments()[0][1], 4)
        damaged = _report_text(audit_directory(directory).describe())
        clean = clean.replace(directory, "store")
        damaged = damaged.replace(directory, "store")
    return ("    $ repro audit --dir store\n\n" + _fenced(clean)
            + "\nNow rewrite record 4 in place **with a recomputed CRC**"
              " (the\n`tamper_record` injector) — every frame still"
              " verifies, and the same\naudit pins the rewrite anyway,"
              " because the chain fields commit to the\noriginal"
              " payload.  `clean` turns `false`, `findings` names the"
              "\nrecord (`kind: chain-tamper`, its `file` and"
              " `line_number`),\n`chain_verified` and `verified_prefix`"
              " drop, and `chain_head` is `null`\n(unknown):\n\n"
              "    $ repro audit --dir store    # exit status 2\n\n"
            + _fenced(damaged))


GENERATORS: Dict[str, Callable[[], str]] = {
    "planning-explain-rule": _gen_explain_rule,
    "planning-explain-asof": _gen_explain_asof,
    "planning-explain-forced": _gen_explain_forced,
    "planning-explain-key": _gen_explain_key,
    "planning-cache-stats": _gen_cache_stats,
    "integrity-audit": _gen_integrity_audit,
}


# -- sync engine ------------------------------------------------------------------

def sync_text(text: str, path: str) -> str:
    """Return *text* with every doc-sync block regenerated."""
    spans = []

    def _replace(match: "re.Match[str]") -> str:
        name = match.group("name")
        if name not in GENERATORS:
            raise SystemExit(f"{path}: unknown doc-sync generator {name!r} "
                             f"(known: {', '.join(sorted(GENERATORS))})")
        spans.append(name)
        return match.group(1) + GENERATORS[name]() + match.group(4)

    synced = _BLOCK.sub(_replace, text)
    unmatched = [name for name in _BEGIN.findall(text)
                 if name not in spans]
    if unmatched:
        raise SystemExit(f"{path}: doc-sync begin marker(s) without an "
                         f"end marker: {', '.join(unmatched)}")
    return synced


def run(write: bool) -> int:
    stale: List[str] = []
    for entry in sorted(os.listdir(DOCS_DIR)):
        if not entry.endswith(".md"):
            continue
        path = os.path.join(DOCS_DIR, entry)
        with open(path) as handle:
            text = handle.read()
        synced = sync_text(text, os.path.relpath(path, REPO_ROOT))
        if synced == text:
            continue
        rel = os.path.relpath(path, REPO_ROOT)
        if write:
            with open(path, "w") as handle:
                handle.write(synced)
            print(f"rewrote {rel}")
        else:
            stale.append(rel)
            sys.stdout.writelines(difflib.unified_diff(
                text.splitlines(keepends=True),
                synced.splitlines(keepends=True),
                fromfile=f"{rel} (committed)",
                tofile=f"{rel} (regenerated)"))
    if stale:
        print(f"STALE: {', '.join(stale)} — run "
              f"`PYTHONPATH=src python tools/doc_sync.py --write`")
        return 1
    if not write:
        print("doc-sync: all generated blocks are fresh")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", action="store_true",
                       help="fail (with a diff) if any block is stale")
    group.add_argument("--write", action="store_true",
                       help="rewrite stale blocks in place")
    args = parser.parse_args(argv)
    return run(write=args.write)


if __name__ == "__main__":
    sys.exit(main())
