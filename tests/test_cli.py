"""Unit tests for the tquel command-line shell."""

import io
import json
import re

import pytest

from repro.cli import build_parser, main, make_session, repl, run_source
from repro.core import DatabaseKind
from repro.storage import Journal


def has_field(output, key, value, indent=r"\s*"):
    """True when *output* (a verb's text report) has the line
    ``key: value`` at *indent* (any depth by default)."""
    return re.search(rf"^{indent}{re.escape(key)}:\s+{re.escape(str(value))}$",
                     output, re.MULTILINE) is not None


SCRIPT = """
create faculty (name = string, rank = string) key (name)
append to faculty (name = "Merrie", rank = "full") valid from "12/01/82"
range of f is faculty
retrieve (f.rank) where f.name = "Merrie"
"""


class TestArguments:
    def test_default_kind_is_temporal(self):
        args = build_parser().parse_args([])
        assert args.kind == "temporal"

    def test_kind_choices(self):
        for kind in ("static", "rollback", "historical", "temporal"):
            assert build_parser().parse_args(["--kind", kind]).kind == kind

    def test_bad_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--kind", "quantum"])

    def test_make_session_kinds(self):
        args = build_parser().parse_args(
            ["--kind", "historical", "--simulated-clock", "01/01/80"])
        session = make_session(args)
        assert session.database.kind is DatabaseKind.HISTORICAL


class TestRunSource:
    def test_script_runs_and_prints(self, capsys):
        args = build_parser().parse_args(
            ["--simulated-clock", "01/01/80"])
        session = make_session(args)
        code = run_source(session, SCRIPT)
        assert code == 0
        assert "full" in capsys.readouterr().out

    def test_error_returns_nonzero(self, capsys):
        args = build_parser().parse_args(["--simulated-clock", "01/01/80"])
        session = make_session(args)
        code = run_source(session, "retrieve (f.rank)")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_main_with_command(self, capsys):
        code = main(["--simulated-clock", "01/01/80", "-c",
                     "create r (x = string)"])
        assert code == 0

    def test_main_with_file(self, tmp_path, capsys):
        script = tmp_path / "s.tq"
        script.write_text(SCRIPT)
        code = main(["--simulated-clock", "01/01/80", "-f", str(script)])
        assert code == 0
        assert "full" in capsys.readouterr().out

    def test_taxonomy_error_surfaces(self, capsys):
        code = main(["--kind", "static", "--simulated-clock", "01/01/80",
                     "-c", 'create r (x = string); range of v is r;'
                           ' retrieve (v.x) as of "01/01/80"'])
        assert code == 1
        assert "transaction time" in capsys.readouterr().err


class TestJournalFlags:
    def test_journal_and_replay(self, tmp_path, capsys):
        journal = str(tmp_path / "db.journal")
        assert main(["--simulated-clock", "01/01/80",
                     "--journal", journal, "-c", SCRIPT]) == 0
        # Replay into a new process/session.
        assert main(["--replay", journal, "-c",
                     "range of f is faculty; "
                     'retrieve (f.name) where f.rank = "full"']) == 0
        assert "Merrie" in capsys.readouterr().out


class TestRepl:
    def run_repl(self, lines, kind="temporal"):
        args = build_parser().parse_args(
            ["--kind", kind, "--simulated-clock", "01/01/80"])
        session = make_session(args)
        stdin = io.StringIO("\n".join(lines) + "\n")
        out = io.StringIO()
        code = repl(session, stdin=stdin, out=out)
        return code, out.getvalue()

    def test_quit(self):
        code, output = self.run_repl([".quit"])
        assert code == 0
        assert "tquel shell" in output

    def test_statement_and_result(self):
        code, output = self.run_repl([
            "create faculty (name = string, rank = string)",
            'append to faculty (name = "M", rank = "full") '
            'valid from "01/01/80"',
            "range of f is faculty",
            "retrieve (f.rank)",
            ".quit",
        ])
        assert "full" in output

    def test_dot_kind(self):
        _, output = self.run_repl([".kind", ".quit"])
        assert "temporal database" in output
        assert "rollback: yes" in output

    def test_dot_relations_and_figure(self):
        _, output = self.run_repl([
            "create faculty (name = string, rank = string)",
            'append to faculty (name = "M", rank = "full") '
            'valid from "01/01/80"',
            ".relations",
            ".figure faculty",
            ".quit",
        ])
        assert "faculty" in output
        assert "transaction (start)" in output

    def test_dot_log_and_clock(self):
        _, output = self.run_repl([
            "create r (x = string)",
            ".log",
            ".clock 06/01/80",
            ".quit",
        ])
        assert "define r" in output
        assert "clock at 1980-06-01" in output

    def test_dot_save(self, tmp_path):
        target = str(tmp_path / "dump.json")
        _, output = self.run_repl([
            "create r (x = string)",
            f".save {target}",
            ".quit",
        ])
        assert "saved" in output
        import json
        with open(target) as handle:
            assert json.load(handle)["kind"] == "temporal"

    def test_error_recovers(self):
        _, output = self.run_repl([
            "retrieve (f.rank)",  # error: no range variable
            "create r (x = string)",
            ".quit",
        ])
        assert "error" in output

    def test_unknown_dot_command(self):
        _, output = self.run_repl([".wat", ".quit"])
        assert "unknown command" in output

    def test_eof_exits(self):
        code, _ = self.run_repl([])
        assert code == 0

    def test_dot_migrate_upgrade(self):
        _, output = self.run_repl([
            "create stock (item = string)",
            'append to stock (item = "widget")',
            ".migrate temporal",
            ".kind",
            ".quit",
        ], kind="static")
        assert "migrated to a temporal database" in output
        assert "rollback: yes" in output

    def test_dot_migrate_lossy_needs_force(self):
        _, output = self.run_repl([
            ".migrate static",
            ".migrate static force",
            ".kind",
            ".quit",
        ], kind="temporal")
        assert "allow_loss" in output  # first attempt refused
        assert "migrated to a static database" in output

    def test_dot_explain(self):
        _, output = self.run_repl([
            "create stock (item = string)",
            'append to stock (item = "widget") valid from "01/01/80"',
            "range of s is stock",
            '.explain retrieve (s.item) where s.item = "widget"',
            ".quit",
        ])
        assert "candidates" in output
        assert "pushed" in output

    def test_dot_explain_error(self):
        _, output = self.run_repl([".explain retrieve (x.y)", ".quit"])
        assert "error" in output

    def test_dot_migrate_usage(self):
        _, output = self.run_repl([".migrate quantum", ".quit"])
        assert "usage: .migrate" in output

    @pytest.mark.parametrize("line", [".figure nosuch", ".save",
                                      ".clock garbage"])
    def test_failing_dot_command_reports_and_continues(self, line):
        code, output = self.run_repl(["create r (x = string)", line,
                                      ".relations", ".quit"])
        assert code == 0
        assert "error: " in output
        # `.relations` still answers after the error.
        assert output.split("error: ", 1)[1].count("tquel>   r\n") == 1

    def test_range_bindings_survive_migration(self):
        _, output = self.run_repl([
            "create stock (item = string)",
            'append to stock (item = "widget") valid from "01/01/80"',
            "range of s is stock",
            ".migrate historical force",
            "retrieve (s.item)",
            ".quit",
        ], kind="temporal")
        assert "widget" in output


#: ``.figure faculty`` for each store, as the hand-written kind ladder
#: printed it before the shell asked the store.
FIGURES = {
    "static": """faculty
+--------+------+
| name   | rank |
+--------+------+
| Merrie | full |
| Tom    | full |
+--------+------+
""",
    "interval rollback": """faculty
+-----------------------------------------------------+
| name   | rank      ‖ transaction (start) | (end)    |
+-----------------------------------------------------+
| Merrie | associate ‖ 02/01/80            | 04/01/80 |
| Tom    | full      ‖ 03/01/80            | ∞        |
| Merrie | full      ‖ 04/01/80            | ∞        |
+-----------------------------------------------------+
""",
    "historical": """faculty
+----------------------------------------------+
| name   | rank      ‖ valid (from) | (to)     |
+----------------------------------------------+
| Merrie | associate ‖ 01/15/80     | 03/15/80 |
| Merrie | full      ‖ 03/15/80     | ∞        |
| Tom    | full      ‖ 02/20/80     | ∞        |
+----------------------------------------------+
""",
    "temporal": """faculty
+-------------------------------------------------------------------------------+
| name   | rank      ‖ valid (from) | (to)     ‖ transaction (start) | (end)    |
+-------------------------------------------------------------------------------+
| Merrie | associate ‖ 01/15/80     | ∞        ‖ 02/01/80            | 04/01/80 |
| Tom    | full      ‖ 02/20/80     | ∞        ‖ 03/01/80            | ∞        |
| Merrie | associate ‖ 01/15/80     | 03/15/80 ‖ 04/01/80            | ∞        |
| Merrie | full      ‖ 03/15/80     | ∞        ‖ 04/01/80            | ∞        |
+-------------------------------------------------------------------------------+
""",
    "temporal event": """faculty
+---------------------------------------------------------------+
| name   | rank      ‖ valid (at) ‖ transaction (start) | (end) |
+---------------------------------------------------------------+
| Merrie | associate ‖ 01/15/80   ‖ 02/01/80            | ∞     |
| Tom    | full      ‖ 02/20/80   ‖ 03/01/80            | ∞     |
+---------------------------------------------------------------+
""",
}


class TestFigure:
    """``.figure`` asks the store to render itself."""

    def figure_of(self, make, valid, event=False):
        """``.figure faculty`` after two appends (and, for an interval
        relation, one replace) in a database built by *make*."""
        from repro.cli import _dot_command
        from repro.time import SimulatedClock
        from repro.tquel import Session
        clock = SimulatedClock("01/01/80")
        session = Session(make(clock))
        session.execute(f"create {'event ' if event else ''}faculty "
                        "(name = string, rank = string) key (name)")
        session.execute("range of f is faculty")
        clause = ' valid at "{}"' if event else ' valid from "{}"'
        steps = [("02/01/80", "01/15/80",
                  'append to faculty (name = "Merrie", rank = "associate")'),
                 ("03/01/80", "02/20/80",
                  'append to faculty (name = "Tom", rank = "full")')]
        if not event:
            steps.append(("04/01/80", "03/15/80",
                          'replace f (rank = "full") where f.name = "Merrie"'))
        for commit, valid_from, statement in steps:
            clock.set(commit)
            session.execute(statement
                            + (clause.format(valid_from) if valid else ""))
        out = io.StringIO()
        _dot_command(session, ".figure faculty", out)
        return out.getvalue()

    @pytest.mark.parametrize("store", sorted(FIGURES))
    def test_figure_matches_the_kind_ladder(self, store):
        from repro.core import (HistoricalDatabase, RollbackDatabase,
                                StaticDatabase, TemporalDatabase)
        make, valid, event = {
            "static": (StaticDatabase, False, False),
            "interval rollback": (RollbackDatabase, False, False),
            "historical": (HistoricalDatabase, True, False),
            "temporal": (TemporalDatabase, True, False),
            "temporal event": (TemporalDatabase, True, True)}[store]
        assert self.figure_of(make, valid, event) == FIGURES[store]


class TestReproCLI:
    """The ``repro`` observability console script."""

    def test_stats_demo_shows_instrumented_layers(self, capsys):
        from repro.cli import repro_main
        assert repro_main(["stats"]) == 0
        output = capsys.readouterr().out
        assert "commit.batches" in output
        assert "index.cache.hits" in output
        assert "commit.apply" in output  # nonzero commit spans
        assert "commit.apply_seconds" in output

    def test_stats_json(self, capsys):
        import json
        from repro.cli import repro_main
        assert repro_main(["stats", "--json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["instrumentation_enabled"] is True
        assert snapshot["metrics"]["counters"]["commit.batches"] > 0
        assert snapshot["metrics"]["counters"]["index.cache.hits"] > 0
        assert snapshot["spans"]["commit.apply"]["count"] > 0

    def test_stats_on_a_script(self, capsys, tmp_path):
        from repro.cli import repro_main
        script = tmp_path / "script.tq"
        script.write_text(SCRIPT)
        assert repro_main(["stats", "-f", str(script)]) == 0
        assert "tquel.statements" in capsys.readouterr().out

    def test_stats_script_error(self, capsys, tmp_path):
        from repro.cli import repro_main
        script = tmp_path / "script.tq"
        script.write_text("retrieve (f.rank)")  # unbound variable
        assert repro_main(["stats", "-f", str(script)]) == 1
        assert "error" in capsys.readouterr().err

    def test_trace_emits_json_lines(self, capsys):
        import json
        from repro.cli import repro_main
        assert repro_main(["trace", "--limit", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        rows = [json.loads(line) for line in lines]
        assert all({"name", "span_id", "parent_id", "duration_s"}
                   <= set(row) for row in rows)

    def test_trace_to_file(self, capsys, tmp_path):
        import json
        from repro.cli import repro_main
        target = tmp_path / "spans.jsonl"
        assert repro_main(["trace", "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        rows = [json.loads(line)
                for line in target.read_text().strip().splitlines()]
        assert any(row["name"] == "commit.apply" for row in rows)

    def test_subcommand_required(self):
        import pytest as _pytest
        from repro.cli import repro_main
        with _pytest.raises(SystemExit):
            repro_main([])

    def test_dot_stats_command(self):
        _, output = TestRepl().run_repl([".stats", ".quit"])
        assert has_field(output, "instrumentation_enabled", "false")


class TestDurabilityVerbs:
    """The ``repro checkpoint`` / ``repro recover`` verbs."""

    def populate(self, directory, steps=None):
        from repro.core import TemporalDatabase
        from repro.storage import DurabilityManager
        from tests.storage.probes import drive_faculty
        manager = DurabilityManager(directory)
        database, _ = manager.recover(TemporalDatabase)
        drive_faculty(database, stop=steps)
        return manager

    def test_recover_reports_full_replay(self, capsys, tmp_path):
        from repro.cli import repro_main
        directory = str(tmp_path / "dur")
        self.populate(directory)
        assert repro_main(["recover", "--dir", directory]) == 0
        output = capsys.readouterr().out
        assert has_field(output, "full_replay", "true")
        assert has_field(output, "records_replayed", 7)
        assert has_field(output, "records_total", 7)
        assert "relations:\n  0: faculty\n" in output

    def test_checkpoint_then_recover_uses_it(self, capsys, tmp_path):
        from repro.cli import repro_main
        directory = str(tmp_path / "dur")
        self.populate(directory)
        assert repro_main(["checkpoint", "--dir", directory]) == 0
        assert "commit index 7" in capsys.readouterr().out
        assert repro_main(["recover", "--dir", directory]) == 0
        output = capsys.readouterr().out
        assert has_field(output, "full_replay", "false")
        assert has_field(output, "checkpoint_index", 7)
        assert has_field(output, "records_replayed", 0)
        assert has_field(output, "records_total", 7)

    def test_recover_kind_comes_from_checkpoint(self, capsys, tmp_path):
        import json
        from repro.cli import repro_main
        from repro.core import RollbackDatabase
        from repro.storage import DurabilityManager
        from tests.storage.probes import drive_faculty
        directory = str(tmp_path / "dur")
        manager = DurabilityManager(directory)
        database, _ = manager.recover(RollbackDatabase)
        drive_faculty(database, stop=3)
        manager.checkpoint()
        # --kind says temporal, but the checkpoint knows better.
        assert repro_main(["recover", "--dir", directory,
                           "--kind", "temporal", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "static rollback"
        assert report["full_replay"] is False

    def test_recover_full_flag_ignores_checkpoints(self, capsys, tmp_path):
        import json
        from repro.cli import repro_main
        directory = str(tmp_path / "dur")
        manager = self.populate(directory)
        manager.checkpoint()
        assert repro_main(["recover", "--dir", directory, "--full",
                           "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["full_replay"] is True
        assert report["records_replayed"] == 7

    def test_checkpoint_runs_script_first(self, capsys, tmp_path):
        from repro.cli import repro_main
        directory = str(tmp_path / "dur")
        script = tmp_path / "setup.tq"
        script.write_text(SCRIPT)
        assert repro_main(["checkpoint", "--dir", directory,
                           "-f", str(script)]) == 0
        assert "commit index 2" in capsys.readouterr().out  # create + append
        assert repro_main(["recover", "--dir", directory]) == 0
        assert "relations:\n  0: faculty\n" in capsys.readouterr().out

    def test_recover_reports_torn_tail_repair(self, capsys, tmp_path):
        from repro.cli import repro_main
        directory = str(tmp_path / "dur")
        manager = self.populate(directory)
        _, live_path = manager.segments()[-1]
        with open(live_path, "ab") as handle:
            handle.write(b"r2 500 00000000 {\"torn")
        assert repro_main(["recover", "--dir", directory]) == 0
        truncated = re.search(r"^torn_bytes_truncated:\s+(\d+)$",
                              capsys.readouterr().out, re.MULTILINE)
        assert int(truncated.group(1)) > 0

    def test_recover_error_surfaces(self, capsys, tmp_path):
        from repro.cli import repro_main
        directory = str(tmp_path / "dur")
        manager = self.populate(directory)
        _, live_path = manager.segments()[-1]
        with open(live_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = b"r2 4 00000000 {\"x\": 2}\n"
        with open(live_path, "wb") as handle:
            handle.writelines(lines)
        assert repro_main(["recover", "--dir", directory]) == 1
        assert "corrupt journal record" in capsys.readouterr().err


class TestMissingDirectory:
    """A verb that reads a durability directory refuses a path that is
    not one, instead of reporting on (or creating) an empty store."""

    @pytest.mark.parametrize("argv", [
        ["recover"], ["digest"], ["promote"], ["audit"],
        ["audit", "--sharded"], ["scrub"], ["scrub", "--repair-from"]],
        ids=" ".join)
    def test_refused_with_exit_1(self, argv, capsys, tmp_path):
        from repro.cli import repro_main
        missing = str(tmp_path / "no" / "such")
        if argv[-1] == "--repair-from":
            argv = argv + [missing, "--dir", str(tmp_path)]
        else:
            argv = argv + ["--dir", missing]
        assert repro_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: no durability directory at {missing}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []  # nothing was created


class TestReportRendering:
    """Every verb's text names exactly the fields of its ``--json``:
    one ``key: value`` line per leaf, nested entries two spaces in."""

    def expected_lines(self, node, loose, depth=0):
        """A pattern for every line the text must hold (a leaf *loose*
        accepts may hold any value)."""
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            head = "  " * depth + re.escape(str(key)) + ":"
            if isinstance(value, (dict, list)) and value:
                yield head
                yield from self.expected_lines(value, loose, depth + 1)
            else:
                text = value if isinstance(value, str) else json.dumps(value)
                yield head + r"\s+" + (r"\S+" if loose(key, value)
                                        else re.escape(text))

    def check(self, argv, capsys, text_argv=None,
              loose=lambda key, value: False):
        """The ``--json`` run of *argv* against the text run of
        *text_argv* (default: *argv* again); returns the JSON."""
        from repro.cli import repro_main
        repro_main(argv + ["--json"])
        data = json.loads(capsys.readouterr().out)
        repro_main(text_argv or argv)
        text = capsys.readouterr().out
        expected = list(self.expected_lines(data, loose))
        for pattern in expected:
            assert re.search(f"^{pattern}$", text, re.MULTILINE), pattern
        assert len(text.splitlines()) == len(expected)
        return data

    def directory(self, tmp_path, name="dur", tamper=False):
        """A checkpointed faculty store, its last segment's first record
        rewritten when *tamper*."""
        from repro.core import TemporalDatabase
        from repro.storage import DurabilityManager, tamper_record
        from tests.storage.probes import drive_faculty
        manager = DurabilityManager(str(tmp_path / name))
        database, _ = manager.recover(TemporalDatabase)
        drive_faculty(database, stop=4)
        manager.checkpoint()
        drive_faculty(database, start=4)
        if tamper:
            tamper_record(manager.segments()[-1][1], 1)
        return str(tmp_path / name)

    @pytest.mark.parametrize("verb, tamper", [
        ("recover", False), ("digest", False), ("audit", True)])
    def test_reading_verbs(self, verb, tamper, capsys, tmp_path):
        self.check([verb, "--dir", self.directory(tmp_path, tamper=tamper)],
                   capsys)

    def test_scrub(self, capsys, tmp_path):
        # Scrub quarantines, so the text run scrubs a twin: the same
        # fields, and only the directory differs.
        data = self.check(
            ["scrub", "--dir", self.directory(tmp_path, "a", tamper=True)],
            capsys,
            ["scrub", "--dir", self.directory(tmp_path, "b", tamper=True)],
            loose=lambda key, value: key == "directory")
        assert data["quarantined"] and data["findings"]

    def test_stress(self, capsys):
        # One session, so every count is the same in both runs; only
        # the timings (floats) differ.
        self.check(["stress", "--sessions", "1", "--ops", "10", "--kind",
                    "static", "--shards", "2", "--placement", "scattered"],
                   capsys, loose=lambda key, value: isinstance(value, float))


class TestStressVerb:
    """The ``repro stress`` verb: run the harness, audit, report."""

    def test_stress_prints_the_audit(self, capsys):
        from repro.cli import repro_main
        assert repro_main(["stress", "--sessions", "2", "--ops", "10",
                           "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert has_field(output, "committed", 20)
        assert has_field(output, "attempted", 20)
        assert has_field(output, "lost_updates", 0)
        assert has_field(output, "commit_times_monotone", "true")
        assert has_field(output, "ok", "true", indent="")

    def test_stress_json_report(self, capsys):
        import json
        from repro.cli import repro_main
        assert repro_main(["stress", "--sessions", "2", "--ops", "5",
                           "--kind", "static", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["committed"] == 10
        assert report["lost_updates"] == 0
        assert report["serial_equivalent"] is True

    def test_stress_chaos_mode_audits_recovery(self, capsys, tmp_path):
        from repro.cli import repro_main
        assert repro_main(["stress", "--kind", "static", "--faults",
                           "lost-record", "--fault-at", "10",
                           "--sessions", "2", "--ops", "20",
                           "--dir", str(tmp_path / "dur")]) == 0
        output = capsys.readouterr().out
        assert has_field(output, "recovery_is_durable_prefix", "true")
        assert has_field(output, "ok", "true", indent="")

    def test_stress_chaos_defaults_to_a_temporary_directory(self, capsys):
        from repro.cli import repro_main
        assert repro_main(["stress", "--kind", "static", "--faults",
                           "torn-record", "--fault-at", "5",
                           "--sessions", "2", "--ops", "10"]) == 0
        assert has_field(capsys.readouterr().out, "ok", "true", indent="")

    def test_stress_rejects_checkpoint_crash_points(self):
        from repro.cli import repro_main
        with pytest.raises(SystemExit):
            repro_main(["stress", "--faults", "torn-checkpoint"])

    def test_stress_admission_knobs_shed_load(self, capsys):
        import json
        from repro.cli import repro_main
        repro_main(["stress", "--sessions", "4", "--ops", "10",
                    "--max-active", "1", "--max-queue", "0", "--json"])
        report = json.loads(capsys.readouterr().out)
        # With one slot and no queue some work is shed, none is lost.
        assert report["lost_updates"] == 0
        assert report["committed"] + report["shed"] <= report["attempted"]


class TestReplicationVerbs:
    """``repro digest`` / ``repro promote`` / ``repro replicate``."""

    @pytest.fixture
    def durable_dir(self, tmp_path):
        from repro.core import TemporalDatabase
        from repro.storage import DurabilityManager
        from tests.storage.probes import drive_faculty

        directory = str(tmp_path / "dur")
        manager = DurabilityManager(directory)
        database, _ = manager.recover(TemporalDatabase)
        drive_faculty(database, stop=5)
        manager.checkpoint()
        drive_faculty(database, start=5)
        return directory

    def test_digest_round_trips_checkpoint_and_full_replay(self, capsys,
                                                           durable_dir):
        from repro.cli import repro_main
        digest = re.compile(r"^digest:\s+([0-9a-f]+)$", re.MULTILINE)
        assert repro_main(["digest", "--dir", durable_dir]) == 0
        fast = digest.search(capsys.readouterr().out).group(1)
        assert repro_main(["digest", "--dir", durable_dir, "--full"]) == 0
        slow = digest.search(capsys.readouterr().out).group(1)
        # Checkpoint + tail and full replay agree on the canonical state.
        assert fast == slow
        assert len(fast) == 64  # a sha256 hex digest

    def test_digest_json_reports_the_recovery_path(self, capsys,
                                                   durable_dir):
        import json
        from repro.cli import repro_main
        assert repro_main(["digest", "--dir", durable_dir, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["records"] == 7
        assert report["full_replay"] is False
        assert report["kind"] == "temporal"

    def test_promote_bumps_the_epoch_durably(self, capsys, durable_dir):
        import json
        from repro.cli import repro_main
        assert repro_main(["promote", "--dir", durable_dir]) == 0
        output = capsys.readouterr().out
        assert has_field(output, "epoch", 1)
        # A second promotion reads the persisted epoch back.
        assert repro_main(["promote", "--dir", durable_dir,
                           "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["epoch"] == 2
        assert report["records"] == 7

    def test_replicate_prints_the_audit(self, capsys):
        from repro.cli import repro_main
        assert repro_main(["replicate", "--writers", "2", "--ops", "6",
                           "--replicas", "2", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert has_field(output, "committed", 12)
        assert has_field(output, "attempted", 12)
        assert has_field(output, "lost_durable_commits", 0)
        assert has_field(output, "replicas_converged", "true")
        assert has_field(output, "ok", "true", indent="")

    def test_replicate_json_with_failover(self, capsys):
        import json
        from repro.cli import repro_main
        assert repro_main(["replicate", "--writers", "2", "--ops", "8",
                           "--replicas", "2", "--seed", "5",
                           "--failover-at", "10", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["failover_performed"] is True
        assert report["final_epoch"] == 1
        assert report["lost_durable_commits"] == 0


class TestShardStressVerb:
    """The ``repro stress --shards N`` verb over the sharded store."""

    def test_shard_stress_prints_the_audit(self, capsys):
        from repro.cli import repro_main
        assert repro_main(["stress", "--kind", "static", "--shards", "3",
                           "--placement", "scattered", "--sessions",
                           "3", "--ops", "10", "--keys", "6", "--cross",
                           "0.1", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert has_field(output, "committed", 30)
        assert has_field(output, "attempted", 30)
        assert has_field(output, "shard", 0, indent="    ")
        assert has_field(output, "shard", 2, indent="    ")
        assert has_field(output, "lost_updates", 0)
        assert has_field(output, "ok", "true", indent="")

    def test_shard_stress_json_report(self, capsys):
        import json
        from repro.cli import repro_main
        assert repro_main(["stress", "--kind", "static", "--shards", "2",
                           "--placement", "scattered", "--sessions",
                           "2", "--ops", "5", "--keys", "4", "--cross",
                           "0.5", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["committed"] == 10
        assert report["sum_delta"] == 0
        assert len(report["per_shard"]) == 2

    def test_shard_stress_chaos_audits_recovery(self, capsys, tmp_path):
        from repro.cli import repro_main
        assert repro_main(["stress", "--kind", "static", "--shards", "3",
                           "--placement", "scattered", "--sessions",
                           "2", "--ops", "20", "--keys", "6", "--cross",
                           "0.3", "--faults", "lost-record",
                           "--fault-at", "25",
                           "--dir", str(tmp_path / "dur")]) == 0
        output = capsys.readouterr().out
        assert has_field(output, "recovery_is_durable_prefix", "true")
        assert re.search(r"^recovery_in_doubt_aborted:\s+\d+$", output,
                         re.MULTILINE)
        assert has_field(output, "ok", "true", indent="")

    def test_shard_stress_chaos_uses_a_temporary_directory(self, capsys):
        from repro.cli import repro_main
        assert repro_main(["stress", "--kind", "static", "--shards", "2",
                           "--placement", "scattered", "--sessions",
                           "2", "--ops", "20", "--keys", "4", "--cross",
                           "0.1", "--faults",
                           "torn-record", "--fault-at", "25"]) == 0
        assert has_field(capsys.readouterr().out, "ok", "true", indent="")

    def test_stats_shards_surfaces_per_shard_metrics(self, capsys):
        from repro.cli import repro_main
        assert repro_main(["stats", "--shards", "3"]) == 0
        output = capsys.readouterr().out
        assert "shard.0.commits" in output
        assert "shard.2.records" in output
        assert "shard.0.journal_bytes" in output
        assert "sharding.cross_commits" in output


class TestObservabilityVerbs:
    """``repro health`` / ``repro bench-diff`` / offline ``repro trace``."""

    def test_health_ok_under_loose_objectives(self, capsys):
        from repro.cli import repro_main
        assert repro_main(["health", "--ops", "5"]) == 0
        output = capsys.readouterr().out
        assert has_field(output, "ok", "true", indent="")
        for op_class in ("read", "single_shard_write", "cross_shard_write"):
            assert f"\n  {op_class}:\n" in output

    def test_health_json_reports_every_class(self, capsys):
        import json
        from repro.cli import repro_main
        assert repro_main(["health", "--ops", "5", "--json"]) == 0
        health = json.loads(capsys.readouterr().out)
        assert health["ok"] is True
        for op_class in ("read", "single_shard_write", "cross_shard_write"):
            assert health["classes"][op_class]["count"] == 5

    def test_health_burned_budget_exits_nonzero(self, capsys):
        from repro.cli import repro_main
        # A 1-nanosecond objective: every transaction misses it.
        assert repro_main(["health", "--ops", "5", "--read-ms", "0.000001",
                           "--write-ms", "0.000001",
                           "--cross-ms", "0.000001"]) == 1
        assert has_field(capsys.readouterr().out, "ok", "false", indent="")

    def test_stats_openmetrics_exposition(self, capsys):
        from repro.cli import repro_main
        assert repro_main(["stats", "--openmetrics"]) == 0
        output = capsys.readouterr().out
        assert "# TYPE repro_commit_batches counter" in output
        assert "repro_commit_batches_total" in output
        assert output.endswith("# EOF\n")

    def write_report(self, tmp_path, name, tps):
        import json
        path = tmp_path / name
        path.write_text(json.dumps({"ingest": {"throughput_tps": tps}}))
        return str(path)

    def test_bench_diff_ok_exits_zero(self, capsys, tmp_path):
        from repro.cli import repro_main
        baseline = self.write_report(tmp_path, "base.json", 100.0)
        fresh = self.write_report(tmp_path, "fresh.json", 95.0)
        assert repro_main(["bench-diff", "--baseline", baseline,
                           "--fresh", fresh]) == 0
        assert has_field(capsys.readouterr().out, "regressions", 0)

    def test_bench_diff_regression_exits_nonzero(self, capsys, tmp_path):
        from repro.cli import repro_main
        baseline = self.write_report(tmp_path, "base.json", 100.0)
        fresh = self.write_report(tmp_path, "fresh.json", 10.0)
        assert repro_main(["bench-diff", "--baseline", baseline,
                           "--fresh", fresh]) == 1
        output = capsys.readouterr().out
        assert has_field(output, "regression", "true")
        assert has_field(output, "metric", "ingest.throughput_tps")

    def test_bench_diff_json(self, capsys, tmp_path):
        import json
        from repro.cli import repro_main
        baseline = self.write_report(tmp_path, "base.json", 100.0)
        fresh = self.write_report(tmp_path, "fresh.json", 10.0)
        assert repro_main(["bench-diff", "--baseline", baseline,
                           "--fresh", fresh, "--json"]) == 1
        result = json.loads(capsys.readouterr().out)
        assert result["ok"] is False
        assert result["rows"][0]["metric"] == "ingest.throughput_tps"


class TestTraceTreeVerb:
    """``repro trace --txn`` reconstructing lineage from exported JSONL."""

    def write_jsonl(self, path, rows):
        import json
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return str(path)

    def spans(self, tmp_path):
        return self.write_jsonl(tmp_path / "spans.jsonl", [
            {"name": "concurrency.run", "span_id": 1, "parent_id": None,
             "trace_id": "txn-1", "started_at": 0.0, "duration_s": 0.01,
             "attributes": {}},
            {"name": "sharding.cross_commit", "span_id": 2, "parent_id": 1,
             "trace_id": "txn-1", "started_at": 0.002,
             "duration_s": 0.005, "attributes": {"shards": 2}},
            {"name": "replication.ship", "span_id": 3, "parent_id": 2,
             "trace_id": "txn-1", "started_at": 0.004,
             "duration_s": 0.001, "attributes": {}},
            {"name": "other.txn", "span_id": 9, "parent_id": None,
             "trace_id": "txn-2", "started_at": 0.0, "duration_s": 0.01,
             "attributes": {}},
        ])

    def test_renders_one_tree_with_events(self, capsys, tmp_path):
        from repro.cli import repro_main
        spans = self.spans(tmp_path)
        events = self.write_jsonl(tmp_path / "events.jsonl", [
            {"seq": 1, "ts": 0.0, "kind": "txn.begin", "txn": "txn-1",
             "attrs": {}},
            {"seq": 2, "ts": 0.01, "kind": "txn.commit", "txn": "txn-1",
             "attrs": {"token": 4}},
            {"seq": 3, "ts": 0.02, "kind": "txn.begin", "txn": "txn-2",
             "attrs": {}},
        ])
        assert repro_main(["trace", "--txn", "txn-1", "--input", spans,
                           "--events-input", events]) == 0
        output = capsys.readouterr().out
        assert "trace txn-1: 3 span(s), 1 root(s)" in output
        assert "- concurrency.run" in output
        assert "sharding.cross_commit" in output  # indented child
        assert "[shards=2]" in output
        assert "events (2):" in output
        assert "txn.commit  token=4" in output
        assert "txn-2" not in output  # the other transaction is filtered

    def test_unknown_txn_exits_nonzero(self, capsys, tmp_path):
        from repro.cli import repro_main
        assert repro_main(["trace", "--txn", "txn-404", "--input",
                           self.spans(tmp_path)]) == 1
        assert "no spans recorded" in capsys.readouterr().out

    def test_orphaned_parent_is_reported_not_hidden(self, capsys,
                                                    tmp_path):
        from repro.cli import repro_main
        spans = self.write_jsonl(tmp_path / "spans.jsonl", [
            {"name": "concurrency.run", "span_id": 5, "parent_id": None,
             "trace_id": "txn-1", "started_at": 0.0, "duration_s": 0.01,
             "attributes": {}},
            # Its parent fell off the ring: span 99 is not in the file.
            {"name": "journal.append", "span_id": 6, "parent_id": 99,
             "trace_id": "txn-1", "started_at": 0.001,
             "duration_s": 0.001, "attributes": {}},
        ])
        assert repro_main(["trace", "--txn", "txn-1",
                           "--input", spans]) == 0
        assert "2 root(s), 1 orphaned" in capsys.readouterr().out

    def test_shard_stress_replicas_flow_into_the_report(self, capsys,
                                                        tmp_path):
        import json
        from repro.cli import repro_main
        trace_out = str(tmp_path / "spans.jsonl")
        assert repro_main(["stress", "--kind", "static", "--shards", "2",
                           "--placement", "scattered", "--sessions",
                           "2", "--ops", "10", "--keys", "4", "--cross",
                           "0.5", "--replicas", "1", "--dir",
                           str(tmp_path / "store"), "--trace-out",
                           trace_out, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["replicas"] == 1
        assert report["replica_converged"] is True
        assert report["replica_digest_match"] is True
        assert report["sample_cross_txn"]
        assert report["trace_path"] == trace_out
        # The export really is consumable by the offline tree renderer.
        assert repro_main(["trace", "--txn", report["sample_cross_txn"],
                           "--input", trace_out]) == 0
        assert "1 root(s)" in capsys.readouterr().out
