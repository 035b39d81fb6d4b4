"""The ``tquel`` command-line shell.

An interactive REPL (or script runner) over any of the four database
kinds::

    tquel --kind temporal                 # interactive shell
    tquel --kind historical -f script.tq  # run a script
    tquel -c 'create r (x = string)'      # run one statement
    tquel --kind temporal --journal db.journal   # durable session

Inside the shell, TQuel statements run directly; lines starting with a
dot are shell commands:

    .help               this message
    .kind               show the database kind and its capabilities
    .relations          list relations
    .figure <relation>  render a relation in the paper's figure style
    .log                show the commit log
    .clock <instant>    advance the simulated clock (e.g. .clock 12/15/82)
    .save <path>        dump the database to JSON
    .migrate <kind>     migrate the session's database to another kind
                        (static|rollback|historical|temporal); append
                        " force" to allow a lossy downgrade
    .explain <query>    show how a retrieve would execute
    .plan [mode]        show or set the access-path mode
                        (auto|naive|index|columnar; see
                        docs/QUERY_PLANNING.md)
    .cache              show the columnar-chunk and as-of result caches
    .stats              show the instrumentation snapshot (see ``repro stats``)
    .quit               leave

A second console script, ``repro``, reports on the engine's built-in
instrumentation (see :mod:`repro.obs` and docs/OBSERVABILITY.md)::

    repro stats                  # run the demo workload, print metrics
    repro stats --json           # the same snapshot as JSON
    repro stats --openmetrics    # OpenMetrics text exposition
    repro stats -f script.tq     # instrument your own TQuel script
    repro trace --limit 20       # the last 20 spans as JSON lines
    repro trace --out spans.jsonl
    repro trace --txn txn-3 --input spans.jsonl   # one transaction's
                                 # causally-ordered lifecycle tree
    repro health                 # drive a mixed workload, judge it
                                 # against the SLO policy (exit 1 on
                                 # budget burn)
    repro bench-diff --baseline BENCH_X.json --fresh fresh.json
                                 # regression-gate two benchmark reports
    repro cache                  # run the demo workload, report the
                                 # columnar-chunk and as-of result
                                 # caches (see docs/QUERY_PLANNING.md)

Every ``repro`` verb but ``trace`` and ``serve`` prints one report:
under ``--json`` as indented JSON, otherwise one aligned ``key: value``
line per leaf (nested dicts and lists indented, list items keyed by
position), so the text names exactly the fields the JSON does.

``repro`` also operates durability directories (checkpoint + segmented
journal; see docs/DURABILITY.md)::

    repro recover --dir DIR            # recover, print the report
    repro recover --dir DIR --json     # the report as JSON
    repro recover --dir DIR --full     # ignore checkpoints (full replay)
    repro checkpoint --dir DIR         # recover, then publish a checkpoint
    repro checkpoint --dir DIR -f setup.tq   # run a script first

and drives the concurrent stress harness (see docs/CONCURRENCY.md)::

    repro stress                           # 8 sessions x 200 txns, audit
    repro stress --sessions 16 --ops 100   # heavier contention
    repro stress --faults torn-record      # chaos mode: crash + recovery
    repro stress --json                    # the full report as JSON
    repro stress --shards 4 --placement scattered --cross 0.3
                                           # the same harness over a
                                           # sharded store, 2PC mix

and the replication subsystem (see docs/REPLICATION.md)::

    repro replicate                        # replicated chaos run, audit
    repro replicate --replicas 3 --failover-at 40   # mid-run promotion
    repro digest --dir DIR                 # canonical state digest of a
                                           # durability directory
    repro promote --dir DIR                # durably bump the fencing
                                           # epoch of a directory

and the sharded store (see docs/SHARDING.md)::

    repro stress --shards 8 --faults lost-record --dir DIR
                                           # sharded chaos + recovery
    repro stats --shards 4                 # demo workload on a sharded
                                           # store: per-shard metrics

The database kind is read from the newest checkpoint when one exists;
``--kind`` decides it for journal-only or fresh directories.  Every verb
but ``checkpoint`` and ``serve`` refuses a ``--dir`` that is not an
existing directory (``error: no durability directory at DIR``, exit 1).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.core import (DATABASE_CLASSES, DatabaseKind, HistoricalDatabase,
                        RollbackDatabase, StaticDatabase, TemporalDatabase)
from repro.errors import ReproError
from repro.storage import Journal, dumps_database
from repro.time import SimulatedClock, SystemClock
from repro.tquel import Session
from repro.tquel.evaluator import PLAN_MODES

_KINDS = {
    "static": StaticDatabase,
    "rollback": RollbackDatabase,
    "historical": HistoricalDatabase,
    "temporal": TemporalDatabase,
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="tquel",
        description="A TQuel shell over the four database kinds of "
                    "Snodgrass & Ahn's taxonomy.")
    parser.add_argument("--kind", choices=sorted(_KINDS), default="temporal",
                        help="which kind of database to run (default: temporal)")
    parser.add_argument("--simulated-clock", metavar="INSTANT", default=None,
                        help="start from a simulated clock at INSTANT "
                             "(e.g. 01/01/80) instead of the system clock")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="journal every commit to PATH (JSON lines)")
    parser.add_argument("--replay", metavar="PATH", default=None,
                        help="rebuild the database from a journal first")
    parser.add_argument("-c", "--command", default=None,
                        help="run one statement and exit")
    parser.add_argument("-f", "--file", default=None,
                        help="run a script file and exit")
    return parser


def make_session(args) -> Session:
    """Construct the session an invocation asked for."""
    if args.replay is not None:
        database = Journal(args.replay).replay(_KINDS[args.kind])
    else:
        if args.simulated_clock is not None:
            clock = SimulatedClock(args.simulated_clock)
        else:
            clock = SystemClock()
        database = _KINDS[args.kind](clock=clock)
    if args.journal is not None:
        Journal(args.journal).bind(database)
    return Session(database)


def run_source(session: Session, source: str, out=None) -> int:
    """Run statements from *source*, printing results; returns an exit code."""
    out = out if out is not None else sys.stdout
    try:
        for result in session.execute_script(source):
            rendered = session.render(result)
            if rendered != "(no result)":
                print(rendered, file=out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _dot_command(session: Session, line: str, out) -> bool:
    """Handle a shell command; returns False to quit."""
    command, _, argument = line.partition(" ")
    argument = argument.strip()
    database = session.database
    if command in (".quit", ".exit"):
        return False
    if command == ".help":
        print(__doc__, file=out)
    elif command == ".kind":
        kind = database.kind
        print(f"{kind} database — rollback: "
              f"{'yes' if kind.supports_rollback else 'no'}, historical "
              f"queries: {'yes' if kind.supports_historical_queries else 'no'}",
              file=out)
    elif command == ".relations":
        for name in database.relation_names():
            event = "  (event)" if database.is_event_relation(name) else ""
            print(f"  {name}{event}", file=out)
    elif command == ".figure":
        # Only a store with valid time holds an event relation, and only
        # such a store's figure has an event style.
        event = database.is_event_relation(argument)
        style = {"event": True} if event else {}
        print(database.store(argument).pretty(argument, **style), file=out)
    elif command == ".log":
        for record in database.log:
            ops = ", ".join(f"{op.action} {op.relation}"
                            for op in record.operations)
            print(f"  #{record.sequence} at {record.commit_time}: {ops}",
                  file=out)
    elif command == ".clock":
        clock = database.manager.clock.source
        if isinstance(clock, SimulatedClock):
            clock.set(argument)
            print(f"clock at {clock.current()}", file=out)
        else:
            print("not running on a simulated clock", file=out)
    elif command == ".migrate":
        parts = argument.split()
        kind_name = parts[0] if parts else ""
        force = len(parts) > 1 and parts[1] == "force"
        if kind_name not in _KINDS:
            print(f"usage: .migrate <{('|'.join(sorted(_KINDS)))}> [force]",
                  file=out)
        else:
            session.migrate_database(_KINDS[kind_name], allow_loss=force)
            print(f"migrated to a {session.database.kind} database",
                  file=out)
    elif command == ".explain":
        print(session.explain(argument), file=out)
    elif command == ".plan":
        if argument:
            session.plan = argument
        print(f"plan mode: {session.plan}", file=out)
    elif command == ".cache":
        _emit(_cache_snapshot(database), out=out)
    elif command == ".stats":
        _emit(database.stats(), out=out)
    elif command == ".save":
        with open(argument, "w", encoding="utf-8") as handle:
            handle.write(dumps_database(session.database, indent=2))
        print(f"saved to {argument}", file=out)
    else:
        print(f"unknown command {command!r}; try .help", file=out)
    return True


def repl(session: Session, stdin=None, out=None) -> int:
    """The interactive loop."""
    stdin = stdin if stdin is not None else sys.stdin
    out = out if out is not None else sys.stdout
    print(f"tquel shell — {session.database.kind} database "
          f"(.help for commands)", file=out)
    while True:
        try:
            print("tquel> ", end="", file=out, flush=True)
            line = stdin.readline()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            print(file=out)
            return 0
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        # A failing statement or shell command reports and the shell
        # goes on (`.save` with no path is an OSError, `.plan x` a
        # ValueError).
        try:
            if not line.startswith("."):
                print(session.render(session.execute(line)), file=out)
            elif not _dot_command(session, line, out):
                return 0
        except (ReproError, OSError, ValueError) as error:
            print(f"error: {error}", file=out)


def main(argv: Optional[list] = None) -> int:
    """Entry point for the ``tquel`` console script."""
    args = build_parser().parse_args(argv)
    session = make_session(args)
    if args.command is not None:
        return run_source(session, args.command)
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            return run_source(session, handle.read())
    return repl(session)


# ---------------------------------------------------------------------------
# The ``repro`` observability CLI
# ---------------------------------------------------------------------------

def build_repro_parser() -> argparse.ArgumentParser:
    """The argument parser of the ``repro`` console script."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Observability over the taxonomy engine: run a workload "
                    "with instrumentation on and report what it recorded.")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--kind", choices=sorted(_KINDS), default="temporal",
                         help="which kind of database to drive "
                              "(default: temporal)")
        sub.add_argument("-f", "--file", default=None,
                         help="instrument a TQuel script instead of the "
                              "built-in faculty demo workload")

    stats = subparsers.add_parser(
        "stats", help="print the metrics/spans snapshot after a workload")
    add_common(stats)
    stats.add_argument("--json", action="store_true",
                       help="emit the snapshot as JSON instead of text")
    stats.add_argument("--openmetrics", action="store_true",
                       help="emit the metrics in OpenMetrics text "
                            "exposition format instead")
    stats.add_argument("--shards", type=int, default=None, metavar="N",
                       help="drive a sharded demo workload over N shards "
                            "instead (surfaces the shard.<i>.* metrics)")

    trace = subparsers.add_parser(
        "trace", help="dump the recorded spans as JSON lines, or "
                      "reconstruct one transaction's lifecycle tree")
    add_common(trace)
    trace.add_argument("--out", metavar="PATH", default=None,
                       help="write the spans to PATH instead of stdout")
    trace.add_argument("--limit", type=int, default=None, metavar="N",
                       help="only the last N spans")
    trace.add_argument("--txn", metavar="ID", default=None,
                       help="render transaction ID's spans as a causally-"
                            "ordered tree instead of JSON lines")
    trace.add_argument("--input", metavar="PATH", default=None,
                       help="read spans from a JSONL export (e.g. "
                            "stress --trace-out) instead of running "
                            "a workload")
    trace.add_argument("--events-input", metavar="PATH", default=None,
                       help="also list the transaction's lifecycle events "
                            "from an event-log JSONL export")

    health = subparsers.add_parser(
        "health", help="drive a mixed read/write/cross-shard workload and "
                       "judge it against the SLO policy")
    health.add_argument("--ops", type=int, default=25, metavar="N",
                        help="operations per class (default: 25)")
    health.add_argument("--read-ms", type=float, default=50.0, metavar="MS",
                        help="read latency objective (default: 50)")
    health.add_argument("--write-ms", type=float, default=250.0,
                        metavar="MS",
                        help="single-shard write objective (default: 250)")
    health.add_argument("--cross-ms", type=float, default=1000.0,
                        metavar="MS",
                        help="cross-shard write objective (default: 1000)")
    health.add_argument("--budget", type=float, default=0.10, metavar="P",
                        help="error budget: tolerated violation fraction "
                             "per class (default: 0.10)")
    health.add_argument("--json", action="store_true",
                        help="emit the health report as JSON")

    bench_diff = subparsers.add_parser(
        "bench-diff", help="compare a fresh benchmark report against a "
                           "committed baseline; exit 1 on regression")
    bench_diff.add_argument("--baseline", required=True, metavar="PATH",
                            help="the committed BENCH_*.json baseline")
    bench_diff.add_argument("--fresh", required=True, metavar="PATH",
                            help="the freshly produced report")
    bench_diff.add_argument("--tolerance", type=float, default=0.5,
                            metavar="P",
                            help="tolerated relative worsening before a "
                                 "metric counts as a regression "
                                 "(default: 0.5 = 50%%)")
    bench_diff.add_argument("--json", action="store_true",
                            help="emit the comparison as JSON")

    cache = subparsers.add_parser(
        "cache", help="run a workload and report the columnar-chunk and "
                      "as-of result caches (hits/misses/sizes)")
    add_common(cache)
    cache.add_argument("--plan", default="auto",
                       choices=PLAN_MODES,
                       help="the session's access-path mode "
                            "(default: auto; only auto uses the result "
                            "cache)")
    cache.add_argument("--json", action="store_true",
                       help="emit the snapshot as JSON instead of text")

    recover = subparsers.add_parser(
        "recover", help="recover a durability directory and report how")
    recover.add_argument("--dir", required=True, metavar="DIR",
                         help="the durability directory (checkpoints + "
                              "journal segments)")
    recover.add_argument("--kind", choices=sorted(_KINDS), default="temporal",
                         help="database kind when no checkpoint records it "
                              "(default: temporal)")
    recover.add_argument("--full", action="store_true",
                         help="ignore checkpoints and replay all of history")
    recover.add_argument("--json", action="store_true",
                         help="emit the recovery report as JSON")

    checkpoint = subparsers.add_parser(
        "checkpoint", help="recover a durability directory, then publish "
                           "a checkpoint of it")
    checkpoint.add_argument("--dir", required=True, metavar="DIR",
                            help="the durability directory")
    checkpoint.add_argument("--kind", choices=sorted(_KINDS),
                            default="temporal",
                            help="database kind when no checkpoint records "
                                 "it (default: temporal)")
    checkpoint.add_argument("-f", "--file", default=None,
                            help="run a TQuel script against the recovered "
                                 "database before checkpointing")

    stress = subparsers.add_parser(
        "stress", help="hammer a database from concurrent sessions and "
                       "audit the serializability invariants")
    stress.add_argument("--kind", choices=sorted(_KINDS), default="temporal",
                        help="which kind of database to hammer "
                             "(default: temporal)")
    stress.add_argument("--sessions", type=int, default=8, metavar="N",
                        help="concurrent worker threads (default: 8)")
    stress.add_argument("--ops", type=int, default=200, metavar="N",
                        help="transactions per session (default: 200)")
    stress.add_argument("--shards", type=int, default=None, metavar="N",
                        help="hammer a store sharded N ways instead of a "
                             "plain database (default: unsharded)")
    stress.add_argument("--keys", type=int, default=8, metavar="N",
                        help="counter rows: contended over by every "
                             "worker, or owned per worker, per "
                             "--placement (default: 8)")
    stress.add_argument("--placement",
                        choices=["shared", "scattered", "aligned"],
                        default="shared",
                        help="key placement: one pool shared by every "
                             "worker, or disjoint per-worker keys "
                             "scattered over all shards / aligned "
                             "worker-per-shard (default: shared)")
    stress.add_argument("--cross", type=float, default=0.0, metavar="P",
                        help="two-key transfer probability — cross-shard "
                             "when the keys hash apart (default: 0)")
    stress.add_argument("--seed", type=int, default=0,
                        help="workload and backoff-jitter seed (default: 0)")
    stress.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-transaction deadline in seconds "
                             "(default: none)")
    stress.add_argument("--max-active", type=int, default=None, metavar="N",
                        help="admission slots (default: the session count)")
    stress.add_argument("--max-queue", type=int, default=None, metavar="N",
                        help="admission wait-queue bound (default: 4x "
                             "sessions); excess is shed as Overloaded")
    stress.add_argument("--faults", default=None,
                        choices=[point.value for point in _append_points()],
                        help="chaos mode: kill journal/2PC I/O at this "
                             "crash point, then audit recovery")
    stress.add_argument("--fault-at", type=int, default=50, metavar="N",
                        help="which append dies in chaos mode — a journal "
                             "record, a prepare or the decision "
                             "(default: 50)")
    stress.add_argument("--dir", default=None, metavar="DIR",
                        help="durability directory: durable mode on its "
                             "own, chaos mode with --faults (chaos "
                             "default: a temporary one)")
    stress.add_argument("--replicas", type=int, default=0, metavar="N",
                        help="with --shards: stream every shard's commits "
                             "to N sharded replicas and audit their "
                             "convergence (default: 0)")
    stress.add_argument("--trace-out", default=None, metavar="PATH",
                        help="export the run's spans as JSONL (feeds "
                             "repro trace --txn)")
    stress.add_argument("--events-out", default=None, metavar="PATH",
                        help="export the run's lifecycle events as JSONL")
    stress.add_argument("--json", action="store_true",
                        help="emit the full report as JSON")

    digest = subparsers.add_parser(
        "digest", help="recover a durability directory and print its "
                       "canonical state digest")
    digest.add_argument("--dir", required=True, metavar="DIR",
                        help="the durability directory")
    digest.add_argument("--kind", choices=sorted(_KINDS), default="temporal",
                        help="database kind when no checkpoint records it "
                             "(default: temporal)")
    digest.add_argument("--full", action="store_true",
                        help="ignore checkpoints and replay all of history "
                             "(the digest must not change)")
    digest.add_argument("--json", action="store_true",
                        help="emit digest and record count as JSON")

    audit = subparsers.add_parser(
        "audit", help="walk a durability directory — frames, hash chain, "
                      "checkpoints, 2PC logs — and classify every problem "
                      "without touching anything")
    audit.add_argument("--dir", required=True, metavar="DIR",
                       help="the durability directory (or a sharded one "
                            "with --sharded)")
    audit.add_argument("--sharded", action="store_true",
                       help="audit a sharded directory: every shard plus "
                            "the decision log, with the combined root")
    audit.add_argument("--json", action="store_true",
                       help="emit the audit report as JSON")

    scrub = subparsers.add_parser(
        "scrub", help="audit a durability directory, quarantine damaged "
                      "files, and (with --repair-from) re-fetch the "
                      "damaged suffix from a healthy copy")
    scrub.add_argument("--dir", required=True, metavar="DIR",
                       help="the durability directory to scrub")
    scrub.add_argument("--kind", choices=sorted(_KINDS), default="temporal",
                       help="database kind when no checkpoint records it "
                            "(default: temporal)")
    scrub.add_argument("--repair-from", default=None, metavar="SRC",
                       help="healthy durability directory (a primary's, or "
                            "another replica's) to re-fetch the damaged "
                            "suffix from; without it scrub only "
                            "quarantines")
    scrub.add_argument("--json", action="store_true",
                       help="emit the scrub report as JSON")

    replicate = subparsers.add_parser(
        "replicate", help="run the replicated chaos harness: writers on a "
                          "primary, readers on replicas, faults on the wire")
    replicate.add_argument("--kind", choices=sorted(_KINDS),
                           default="temporal",
                           help="which kind of database to replicate "
                                "(default: temporal)")
    replicate.add_argument("--replicas", type=int, default=2, metavar="N",
                           help="replica count (default: 2)")
    replicate.add_argument("--writers", type=int, default=4, metavar="N",
                           help="writer threads on the primary (default: 4)")
    replicate.add_argument("--ops", type=int, default=40, metavar="N",
                           help="transactions per writer (default: 40)")
    replicate.add_argument("--keys", type=int, default=8, metavar="N",
                           help="counter rows contended over (default: 8)")
    replicate.add_argument("--seed", type=int, default=0,
                           help="workload and transport-fault seed "
                                "(default: 0)")
    replicate.add_argument("--drop", type=float, default=0.05,
                           metavar="P", help="per-message drop probability "
                                             "(default: 0.05)")
    replicate.add_argument("--duplicate", type=float, default=0.05,
                           metavar="P", help="duplicate probability "
                                             "(default: 0.05)")
    replicate.add_argument("--reorder", type=float, default=0.05,
                           metavar="P", help="reorder probability "
                                             "(default: 0.05)")
    replicate.add_argument("--delay", type=float, default=0.0, metavar="P",
                           help="delay probability (default: 0)")
    replicate.add_argument("--partition-at", type=int, default=None,
                           metavar="N",
                           help="partition the last replica after N "
                                "commits (default: never)")
    replicate.add_argument("--heal-at", type=int, default=None, metavar="N",
                           help="heal the partition after N commits "
                                "(default: at the end)")
    replicate.add_argument("--failover-at", type=int, default=None,
                           metavar="N",
                           help="promote the first replica after N commits "
                                "(default: never)")
    replicate.add_argument("--json", action="store_true",
                           help="emit the full report as JSON")

    promote = subparsers.add_parser(
        "promote", help="promote a durability directory: recover it, "
                        "durably bump its fencing epoch, print the digest")
    promote.add_argument("--dir", required=True, metavar="DIR",
                         help="the durability directory")
    promote.add_argument("--kind", choices=sorted(_KINDS), default="temporal",
                         help="database kind when no checkpoint records it "
                              "(default: temporal)")
    promote.add_argument("--json", action="store_true",
                         help="emit epoch, digest and record count as JSON")

    serve = subparsers.add_parser(
        "serve", help="serve a database over TCP with the s1 wire "
                      "protocol; SIGTERM drains gracefully")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7583,
                       help="bind port, 0 for ephemeral (default: 7583)")
    serve.add_argument("--kind", choices=sorted(_KINDS), default="temporal",
                       help="database kind for a fresh in-memory database "
                            "(default: temporal)")
    serve.add_argument("--dir", default=None, metavar="DIR",
                       help="recover and serve a durability directory "
                            "instead of a fresh database")
    serve.add_argument("--plan", default="auto",
                       choices=PLAN_MODES,
                       help="TQuel access-path mode (default: auto)")
    serve.add_argument("--max-active", type=int, default=8, metavar="N",
                       help="admission slots per tenant (default: 8)")
    serve.add_argument("--max-queue", type=int, default=16, metavar="N",
                       help="admission queue per tenant; excess is shed "
                            "with Overloaded (default: 16)")
    serve.add_argument("--chunk-rows", type=int, default=64, metavar="N",
                       help="rows per streamed reply chunk (default: 64)")
    serve.add_argument("--max-pipeline", type=int, default=8, metavar="N",
                       help="concurrent requests per connection "
                            "(default: 8)")
    serve.add_argument("--idle-timeout", type=float, default=30.0,
                       metavar="S",
                       help="close connections idle this long "
                            "(default: 30)")
    serve.add_argument("--write-stall", type=float, default=5.0,
                       metavar="S",
                       help="abort clients that stall reads this long "
                            "(default: 5)")
    serve.add_argument("--drain-grace", type=float, default=5.0,
                       metavar="S",
                       help="seconds in-flight work may finish after "
                            "SIGTERM before typed abort (default: 5)")
    serve.add_argument("--default-budget-ms", type=float, default=None,
                       metavar="MS",
                       help="deadline for requests that name none "
                            "(default: unbounded)")

    loadgen = subparsers.add_parser(
        "loadgen", help="drive the serving layer with concurrent "
                        "clients, optional wire chaos and failover; "
                        "audit zero lost acks and read-your-writes")
    loadgen.add_argument("--kind", choices=sorted(_KINDS),
                         default="temporal",
                         help="database kind behind the server "
                              "(default: temporal)")
    loadgen.add_argument("--clients", type=int, default=6, metavar="N",
                         help="concurrent client connections (default: 6)")
    loadgen.add_argument("--ops", type=int, default=20, metavar="N",
                         help="requests per client (default: 20)")
    loadgen.add_argument("--seed", type=int, default=0,
                         help="workload, backoff and chaos seed "
                              "(default: 0)")
    loadgen.add_argument("--write-ratio", type=float, default=0.5,
                         metavar="P",
                         help="fraction of requests that are writes "
                              "(default: 0.5)")
    loadgen.add_argument("--budget-ms", type=float, default=5000.0,
                         metavar="MS",
                         help="per-request deadline (default: 5000)")
    loadgen.add_argument("--tenants", type=int, default=1, metavar="N",
                         help="spread clients over N admission tenants "
                              "(default: 1)")
    loadgen.add_argument("--replicas", type=int, default=0, metavar="N",
                         help="stream commits to N replicas and route "
                              "replica/ryw reads (default: 0)")
    loadgen.add_argument("--failover-at", type=int, default=None,
                         metavar="N",
                         help="kill the primary server after N acked "
                              "writes and promote a replica "
                              "(needs --replicas >= 1)")
    loadgen.add_argument("--drop", type=float, default=0.0, metavar="P",
                         help="wire chaos: per-line drop probability")
    loadgen.add_argument("--delay", type=float, default=0.0, metavar="P",
                         help="wire chaos: per-line delay probability")
    loadgen.add_argument("--split", type=float, default=0.0, metavar="P",
                         help="wire chaos: partial-write probability")
    loadgen.add_argument("--corrupt", type=float, default=0.0, metavar="P",
                         help="wire chaos: byte-flip probability (the CRC "
                              "framing must catch every one)")
    loadgen.add_argument("--disconnect", type=float, default=0.0,
                         metavar="P",
                         help="wire chaos: mid-line disconnect probability")
    loadgen.add_argument("--json", action="store_true",
                         help="emit the full report as JSON")
    return parser


def _append_points():
    """The journal-append crash points ``repro stress --faults`` accepts."""
    from repro.storage.faults import CrashPoint
    return (CrashPoint.TORN_RECORD, CrashPoint.LOST_RECORD)


def _emit(data, as_json: bool = False, out=None) -> None:
    """Print a verb's report: the one output path of every ``repro`` verb.

    Under ``--json``: indented, key-sorted JSON.  Otherwise one
    ``key: value`` line per leaf, in the same key order, values aligned
    within each dict; a non-empty dict or list prints its key alone and
    its entries two spaces further in, a list's entries keyed by
    position.  Text and JSON therefore name the same fields."""
    out = out if out is not None else sys.stdout
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True, default=str),
              file=out)
        return

    def lines(node, indent: str):
        items = [(f"{key}:", value) for key, value in
                 (sorted(node.items()) if isinstance(node, dict)
                  else enumerate(node))]
        width = max((len(label) for label, _ in items), default=0)
        for label, value in items:
            if isinstance(value, (dict, list, tuple)) and value:
                yield indent + label
                yield from lines(value, indent + "  ")
            else:
                text = (value if isinstance(value, str)
                        else json.dumps(value, default=str))
                yield f"{indent}{label:<{width}} {text}"

    print("\n".join(lines(data, "")), file=out)


def _durable_class(args):
    """The database class ``args.dir`` holds: the kind its newest valid
    checkpoint records, else (a fresh or journal-only directory) the
    ``--kind`` flag's."""
    from repro.storage import detect_kind
    detected = detect_kind(args.dir)
    if detected is None:
        return _KINDS[args.kind]
    return DATABASE_CLASSES[DatabaseKind(detected)]


def _existing(directory: str) -> str:
    """*directory*, refused unless it is one: a mistyped ``--dir`` must
    fail the verb, not audit or recover an empty store."""
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no durability directory at {directory}")
    return directory


def _recover(args, create: bool = False, **options):
    """Open ``args.dir`` the one way: ``(manager, database, report)``.

    Refuses a missing directory unless *create*; *options* go to
    :meth:`~repro.storage.DurabilityManager.recover`."""
    from repro.storage import DurabilityManager
    manager = DurabilityManager(args.dir if create else _existing(args.dir))
    database, report = manager.recover(_durable_class(args), **options)
    return manager, database, report


def _repro_recover(args) -> int:
    """The ``repro recover`` verb: rebuild, then report what it took."""
    _, database, report = _recover(args, use_checkpoint=not args.full)
    data = report.describe()
    data["kind"] = str(database.kind)
    data["relations"] = sorted(database.relation_names())
    _emit(data, args.json)
    return 0


def _repro_checkpoint(args) -> int:
    """The ``repro checkpoint`` verb: recover (creating the directory),
    optionally run a script, publish a checkpoint."""
    manager, database, _ = _recover(args, create=True)
    if args.file is not None:
        session = Session(database)
        with open(args.file, encoding="utf-8") as handle:
            for _ in session.execute_script(handle.read()):
                pass
    path = manager.checkpoint()
    print(f"checkpointed the {database.kind} database at commit index "
          f"{manager.record_count}: {path}")
    return 0


def _repro_stress(args) -> int:
    """The ``repro stress`` verb: run the harness, print the audit."""
    import tempfile

    from repro.concurrency import AdmissionController
    from repro.storage.faults import CrashPoint
    from repro.workload.stress import run_stress

    admission = None
    if args.max_active is not None or args.max_queue is not None:
        admission = AdmissionController(
            max_active=args.max_active or max(2, args.sessions),
            max_queue=(args.max_queue if args.max_queue is not None
                       else 4 * args.sessions))
    faults = CrashPoint(args.faults) if args.faults else None

    def run(directory):
        return run_stress(
            kind=_KINDS[args.kind], shards=args.shards,
            sessions=args.sessions, transactions=args.ops, keys=args.keys,
            cross_ratio=args.cross, seed=args.seed,
            placement=args.placement, admission=admission,
            timeout=args.timeout, faults=faults, fault_at=args.fault_at,
            directory=directory, replicas=args.replicas,
            trace_out=args.trace_out, events_out=args.events_out)

    if faults is not None and args.dir is None:
        with tempfile.TemporaryDirectory() as scratch:
            report = run(scratch)
    else:
        report = run(args.dir)
    _emit(report.describe(), args.json)
    return 0 if report.ok else 1


def _repro_health(args) -> int:
    """The ``repro health`` verb: mixed workload, SLO verdict, exit code.

    Drives *ops* transactions of each operation class — read-only,
    single-shard write, cross-shard transfer — through a small sharded
    store, then judges the recorded latencies against the policy built
    from the objective flags.  Exit 1 means an error budget burned:
    more than ``--budget`` of a class's transactions missed their
    latency objective.
    """
    from repro import obs
    from repro.obs.slo import Objective, SloPolicy
    from repro.sharding.store import ShardedDatabase
    from repro.workload.stress import (RELATION, define_counters,
                                       increment_closure, transfer_closure)

    policy = SloPolicy({
        "read": Objective(args.read_ms / 1000.0, args.budget),
        "single_shard_write": Objective(args.write_ms / 1000.0, args.budget),
        "cross_shard_write": Objective(args.cross_ms / 1000.0, args.budget),
    })
    store = ShardedDatabase(StaticDatabase, shards=2,
                            clock=SimulatedClock("01/01/77"))
    keys = [f"k{i}" for i in range(16)]
    define_counters(store, keys)
    by_shard = sorted(keys, key=lambda k: store.shard_of_key(
        RELATION, {"k": k}))
    layer = store.sessions()

    def read_only(session):
        session.get(RELATION, {"k": keys[0]})

    increment = increment_closure(keys[1])
    transfer = transfer_closure(by_shard[0], by_shard[-1])

    with obs.recording() as instrumentation:
        for _ in range(args.ops):
            layer.run(read_only)
            layer.run(increment)
            layer.run(transfer)
    health = instrumentation.slo.health(policy)
    _emit(health, args.json)
    return 0 if health["ok"] else 1


def _repro_bench_diff(args) -> int:
    """The ``repro bench-diff`` verb: gate a fresh report on a baseline."""
    from repro.obs import bench_diff

    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    with open(args.fresh, encoding="utf-8") as handle:
        fresh = json.load(handle)
    result = bench_diff(baseline, fresh, tolerance=args.tolerance)
    _emit(result, args.json)
    return 0 if result["ok"] else 1


def _load_jsonl(path: str) -> list:
    """Parse one JSON object per line (span / event exports)."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def _render_trace_tree(span_rows, event_rows, txn: str, out=None) -> int:
    """Print one transaction's spans as a causally-ordered tree.

    Children are ordered by start time under their parent; a span whose
    parent fell off the ring is shown as an extra root (and counted, so
    a truncated export is visible rather than silently re-rooted).
    """
    out = out if out is not None else sys.stdout
    mine = [s for s in span_rows if s.get("trace_id") == txn]
    if not mine:
        print(f"no spans recorded for {txn!r}", file=out)
        return 1
    by_id = {s["span_id"]: s for s in mine}
    children: dict = {}
    roots = []
    for span in sorted(mine, key=lambda s: (s.get("started_at", 0.0),
                                            s["span_id"])):
        parent = span.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    orphans = sum(1 for s in roots if s.get("parent_id") is not None)
    note = f", {orphans} orphaned" if orphans else ""
    print(f"trace {txn}: {len(mine)} span(s), {len(roots)} root(s){note}",
          file=out)
    base = min(s.get("started_at", 0.0) for s in mine)

    def walk(span, depth):
        attrs = span.get("attributes") or {}
        extra = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        offset = (span.get("started_at", 0.0) - base) * 1e6
        print(f"  {'  ' * depth}- {span['name']}  "
              f"+{offset:.0f}us {span.get('duration_s', 0.0) * 1e6:.0f}us"
              + (f"  [{extra}]" if extra else ""), file=out)
        for child in children.get(span["span_id"], ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    events = [e for e in event_rows if e.get("txn") == txn]
    if events:
        print(f"events ({len(events)}):", file=out)
        for event in sorted(events, key=lambda e: e.get("seq", 0)):
            attrs = event.get("attrs") or {}
            extra = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            print(f"  #{event.get('seq')} {event['kind']}"
                  + (f"  {extra}" if extra else ""), file=out)
    return 0


def _repro_digest(args) -> int:
    """The ``repro digest`` verb: recover, print the canonical digest.

    The digest is over recovered *state*, not files, so two directories
    holding the same commit history — checkpointed differently, torn
    differently — print the same value; so do a primary and a caught-up
    replica.  ``--full`` forces the full-replay path as a cross-check.
    """
    from repro.replication import state_digest
    _, database, report = _recover(args, use_checkpoint=not args.full)
    _emit({"digest": state_digest(database), "kind": str(database.kind),
           "records": report.records_total,
           "full_replay": report.full_replay}, args.json)
    return 0


def _repro_audit(args) -> int:
    """The ``repro audit`` verb: classify damage, change nothing.

    Exit status 0 means clean; 2 means the audit found damage (so a
    cron job can page on it) — 1 stays reserved for operational errors,
    a missing directory among them.
    """
    from repro.storage import audit_directory
    from repro.storage.scrub import audit_sharded
    directory = _existing(args.dir)
    if args.sharded:
        result = audit_sharded(directory)
        _emit(dict(result,
                   per_shard=[r.describe() for r in result["per_shard"]],
                   decision_log=[f.describe()
                                 for f in result["decision_log"]]),
              args.json)
        return 0 if result["clean"] else 2
    report = audit_directory(directory)
    _emit(report.describe(), args.json)
    return 0 if report.clean else 2


def _repro_scrub(args) -> int:
    """The ``repro scrub`` verb: quarantine damage, optionally repair.

    Without ``--repair-from`` the damaged files are quarantined and the
    directory is left recoverable at its verified prefix; exit 2 when
    there was damage.  With it, the damaged suffix is re-fetched from
    the source (records, or a whole snapshot when the source compacted
    past the prefix) and the result is digest-checked against the
    source; exit 1 on a digest mismatch, in text and ``--json`` alike.
    """
    from repro.storage import Scrubber
    from repro.storage.scrub import DirectorySource
    scrubber = Scrubber(_existing(args.dir))
    if args.repair_from is None:
        report = scrubber.audit()
        data = report.describe()
        data["quarantined"] = scrubber.quarantine(report)
        _emit(data, args.json)
        return 0 if report.clean else 2
    factory = _durable_class(args)
    report = scrubber.repair(
        DirectorySource(_existing(args.repair_from), factory), factory)
    _emit(report.describe(), args.json)
    return 0 if report.digest_match is not False else 1


def _repro_promote(args) -> int:
    """The ``repro promote`` verb: durably bump a directory's epoch.

    Recovery proves the directory's history is intact, then the fencing
    epoch file is atomically advanced — records stamped with the old
    epoch are rejected by every replica that saw this promotion.
    """
    from repro.replication import read_epoch, state_digest, write_epoch
    _, database, report = _recover(args)
    epoch = read_epoch(args.dir) + 1
    write_epoch(args.dir, epoch)
    _emit({"epoch": epoch, "digest": state_digest(database),
           "kind": str(database.kind), "records": report.records_total},
          args.json)
    return 0


def _repro_replicate(args) -> int:
    """The ``repro replicate`` verb: run the replicated chaos harness."""
    from repro.workload.stress import run_replicated

    report = run_replicated(
        kind=_KINDS[args.kind], replicas=args.replicas,
        writers=args.writers, transactions=args.ops, keys=args.keys,
        seed=args.seed, drop=args.drop, duplicate=args.duplicate,
        reorder=args.reorder, delay=args.delay,
        partition_at=args.partition_at, heal_at=args.heal_at,
        failover_at=args.failover_at)
    _emit(report.describe(), args.json)
    return 0 if report.ok else 1


def _demo_workload(session: Session, clock: SimulatedClock) -> None:
    """The quickstart faculty history, plus repeated indexed reads.

    Mirrors ``examples/quickstart.py``'s six transactions (§4 of the
    paper); the repeated trailing queries make the index cache show hits,
    so a bare ``repro stats`` demonstrates every instrumented layer.
    """
    database = session.database
    historical = database.supports_historical_queries
    valid = (lambda clause: " " + clause) if historical else (lambda _: "")

    session.execute("create faculty (name = string, rank = string) "
                    "key (name)")
    session.execute("range of f is faculty")
    history = [
        ("08/25/77", 'append to faculty (name = "Merrie", '
                     'rank = "associate")' + valid('valid from "09/01/77"')),
        ("12/01/82", 'append to faculty (name = "Tom", rank = "full")'
                     + valid('valid from "12/05/82"')),
        ("12/07/82", 'replace f (rank = "associate") where f.name = "Tom"'
                     + valid('valid from "12/05/82"')),
        ("12/15/82", 'replace f (rank = "full") where f.name = "Merrie"'
                     + valid('valid from "12/01/82"')),
        ("01/10/83", 'append to faculty (name = "Mike", rank = "assistant")'
                     + valid('valid from "01/01/83"')),
        ("02/25/84", 'delete f where f.name = "Mike"'
                     + valid('valid from "03/01/84"')),
    ]
    for instant, statement in history:
        clock.set(instant)
        session.execute(statement)
    # Not `f.name = "Merrie"`: a keyed read bypasses the result cache.
    query = ('retrieve (f.rank) where f.name != "Tom" as of "12/10/82"'
             if database.supports_rollback
             else 'retrieve (f.name, f.rank) sort by name')
    for _ in range(3):
        session.execute(query)
    if database.supports_rollback and session.plan == "auto":
        # The result cache answers the repeated reads above, so force two
        # indexed passes (forced plans bypass it) to keep the
        # interval-tree layer in the stats story too.
        session.plan = "index"
        try:
            for _ in range(2):
                session.execute(query)
        finally:
            session.plan = "auto"


def _sharded_demo(shards: int) -> None:
    """A small sharded workload: populates every ``shard.<i>.*`` metric.

    Runs inside the caller's recording: durable store, per-shard
    sessions with a deliberate same-key collision (conflicts), a
    cross-shard transfer (the 2PC counters), then ``shard_stats()`` for
    the journal-bytes and record gauges.
    """
    import tempfile

    from repro.sharding import ShardedDurabilityManager
    from repro.workload.stress import define_counters, increment_closure

    with tempfile.TemporaryDirectory() as scratch:
        manager = ShardedDurabilityManager(scratch, shards=shards)
        store, _ = manager.recover(StaticDatabase)
        for shard_db in store.shard_databases:
            shard_db.manager.clock.source.set("01/01/77")
        keys = [f"k{i}" for i in range(8 * shards)]
        define_counters(store, keys)
        layer = store.sessions()
        for key in keys:
            layer.run(increment_closure(key))
        # one deliberate conflict: validate against a moved footprint
        first, second = layer.begin(), layer.begin()
        first.replace("counters", {"k": keys[0]}, {"v": 100})
        second.replace("counters", {"k": keys[0]}, {"v": 200})
        first.commit()
        try:
            second.commit()
        except ReproError:
            pass
        # one cross-shard transfer through the two-phase protocol
        pair = sorted(keys, key=lambda k: store.shard_of_key(
            "counters", {"k": k}))
        with store.begin() as txn:
            store.replace("counters", {"k": pair[0]}, {"v": 1}, txn=txn)
            store.replace("counters", {"k": pair[-1]}, {"v": 2}, txn=txn)
        manager.shard_stats()


def _instrumented_run(args):
    """Run the requested workload under a fresh recording; return it."""
    from repro import obs
    clock = SimulatedClock("01/01/77")
    session = Session(_KINDS[args.kind](clock=clock))
    if getattr(args, "shards", None):
        with obs.recording() as instrumentation:
            _sharded_demo(args.shards)
        return instrumentation
    with obs.recording() as instrumentation:
        if args.file is not None:
            with open(args.file, encoding="utf-8") as handle:
                source = handle.read()
            for _ in session.execute_script(source):
                pass
        else:
            _demo_workload(session, clock)
    return instrumentation


def _cache_snapshot(database) -> dict:
    """The two query caches' stats, as one JSON-friendly dict."""
    return {"columnar": database.columnar_cache.describe(),
            "results": database.result_cache.describe()}


def _repro_cache(args) -> int:
    """``repro cache``: run a workload, report both query caches."""
    clock = SimulatedClock("01/01/77")
    session = Session(_KINDS[args.kind](clock=clock), plan=args.plan)
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            session.execute_script(handle.read())
    else:
        _demo_workload(session, clock)
    _emit(_cache_snapshot(session.database), args.json)
    return 0


def _repro_serve(args) -> int:
    """The ``repro serve`` verb: a TCP server with graceful SIGTERM drain."""
    import asyncio
    import signal
    from repro.server import ReproServer, ServerConfig
    if args.dir is not None:
        _, database, _ = _recover(args, create=True)
    else:
        database = _KINDS[args.kind]()
    config = ServerConfig(chunk_rows=args.chunk_rows,
                          max_pipeline=args.max_pipeline,
                          idle_timeout=args.idle_timeout,
                          write_stall_timeout=args.write_stall,
                          drain_grace=args.drain_grace,
                          max_active=args.max_active,
                          max_queue=args.max_queue,
                          default_budget=(args.default_budget_ms / 1000.0
                                          if args.default_budget_ms
                                          else None),
                          plan=args.plan)

    async def run() -> None:
        server = ReproServer(database, config)
        host, port = await server.serve(args.host, args.port)
        print(f"serving a {database.kind} database on {host}:{port} "
              f"(s1 protocol); SIGTERM drains", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("draining: no new work, finishing in-flight "
              f"(grace {config.drain_grace}s)", flush=True)
        tally = await server.drain()
        server.shutdown()
        print(f"drained: {tally['completed']} completed, "
              f"{tally['aborted']} aborted, "
              f"{tally['rejected']} rejected")

    asyncio.run(run())
    return 0


def _repro_loadgen(args) -> int:
    """The ``repro loadgen`` verb: run the serving harness, print the
    audit, exit 1 when an invariant broke."""
    from repro.server import ChaosConfig
    from repro.workload import run_serving
    chaos = None
    if any((args.drop, args.delay, args.split, args.corrupt,
            args.disconnect)):
        chaos = ChaosConfig(seed=args.seed, drop=args.drop,
                            delay=args.delay, split=args.split,
                            corrupt=args.corrupt,
                            disconnect=args.disconnect)
    report = run_serving(
        clients=args.clients, requests=args.ops, seed=args.seed,
        write_ratio=args.write_ratio, budget_ms=args.budget_ms,
        chaos=chaos, replicas=args.replicas,
        failover_at=args.failover_at,
        tenants=tuple(f"tenant-{i}" for i in range(args.tenants)),
        kind=_KINDS[args.kind])
    _emit(report.describe(), args.json)
    return 0 if report.ok else 1


#: Each ``repro`` verb but ``stats`` and ``trace``, by name.
_VERBS = {"recover": _repro_recover, "checkpoint": _repro_checkpoint,
          "stress": _repro_stress, "digest": _repro_digest,
          "audit": _repro_audit, "scrub": _repro_scrub,
          "replicate": _repro_replicate, "promote": _repro_promote,
          "health": _repro_health, "bench-diff": _repro_bench_diff,
          "cache": _repro_cache, "serve": _repro_serve,
          "loadgen": _repro_loadgen}


def repro_main(argv: Optional[list] = None) -> int:
    """Entry point for the ``repro`` console script."""
    args = build_repro_parser().parse_args(argv)
    if args.subcommand in _VERBS:
        try:
            return _VERBS[args.subcommand](args)
        except (ReproError, OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
    if args.subcommand == "trace" and args.input is not None:
        # Offline reconstruction from a JSONL export — no workload run.
        try:
            span_rows = _load_jsonl(args.input)
            event_rows = (_load_jsonl(args.events_input)
                          if args.events_input else [])
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        if args.txn is not None:
            return _render_trace_tree(span_rows, event_rows, args.txn)
        if args.limit is not None:
            span_rows = span_rows[-args.limit:]
        for row in span_rows:
            print(json.dumps(row, sort_keys=True, default=str))
        return 0
    try:
        instrumentation = _instrumented_run(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.subcommand == "stats":
        if args.openmetrics:
            from repro.obs import to_openmetrics
            print(to_openmetrics(instrumentation.metrics.snapshot()),
                  end="")
            return 0
        _emit(instrumentation.stats(), args.json)
        return 0
    spans = instrumentation.tracer.spans()
    if args.txn is not None:
        event_rows = [event.describe()
                      for event in instrumentation.events.events()]
        return _render_trace_tree([span.describe() for span in spans],
                                  event_rows, args.txn)
    if args.limit is not None:
        spans = spans[-args.limit:]
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.describe(), sort_keys=True,
                                        default=str) + "\n")
        print(f"wrote {len(spans)} span(s) to {args.out}")
    else:
        for span in spans:
            print(json.dumps(span.describe(), sort_keys=True, default=str))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
