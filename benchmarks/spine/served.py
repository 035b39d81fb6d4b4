"""``served-oltp``: two connections against a ``repro serve`` subprocess.

The dataset is built in-process through a :class:`DurabilityManager`,
checkpointed, and then served by ``python -m repro serve --dir D --port
0`` — a real process boundary and a real socket.  Two
:class:`ReproClient` connections over ``tcp_connector`` run closed loop
from one event loop in this process: client 0 reads and writes, client 1
only reads.  Only one connection writes because two concurrently writing
connections hit a product race (README, "Defects surfaced") that would
make ``failed`` flicker.

Answer checking is deferred: during the run each read only records its
rows and the range of model states it may legally have seen (any state
from the last write acknowledged before it began to the last write
issued before it ended); the comparison itself runs after the measured
phase, so the oracle never sits between a reply and the next request.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

from repro.client import ReproClient
from repro.concurrency import RetryPolicy
from repro.core import TemporalDatabase
from repro.storage import DurabilityManager
from repro.time import Instant
from repro.tquel import Session

from benchmarks.spine import dataset as ds
from benchmarks.spine import harness, lifecycle, oracle, streams
from benchmarks.spine.sizing import Sizing

CLIENTS = 2
#: How long a freshly spawned server may take to print its address.
STARTUP_SECONDS = 60.0


class Server:
    """A ``repro serve`` child process; always reaped by :meth:`kill`."""

    def __init__(self, directory: str) -> None:
        environment = dict(os.environ, PYTHONHASHSEED=harness.HASH_SEED)
        environment["PYTHONPATH"] = os.pathsep.join(
            [harness.SRC] + [p for p in
                             [environment.get("PYTHONPATH")] if p])
        self.stderr_path = directory + ".stderr"
        with open(self.stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--dir", directory,
                 "--port", "0"],
                stdout=subprocess.PIPE, stderr=stderr, env=environment)
        try:
            self.port = self._read_port()
        except BaseException:
            self.kill()
            raise

    def _read_port(self) -> int:
        """Parse ``… on HOST:PORT (s1 protocol)…`` from the banner line."""
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], STARTUP_SECONDS)
        line = stdout.readline().decode("utf-8", "replace") if ready else ""
        try:
            address = line.split(" on ", 1)[1].split(" ", 1)[0]
            return int(address.rsplit(":", 1)[1])
        except (IndexError, ValueError):
            with open(self.stderr_path, encoding="utf-8",
                      errors="replace") as handle:
                detail = handle.read()[-2000:]
            raise RuntimeError(
                f"repro serve did not announce an address within "
                f"{STARTUP_SECONDS:.0f}s (stdout {line!r}); stderr: "
                f"{detail}") from None

    @property
    def endpoint(self) -> str:
        return f"127.0.0.1:{self.port}"

    def peak_rss_mb(self) -> float:
        return harness.vm_hwm_mb(self.process.pid)

    def kill(self) -> None:
        """SIGKILL — no drain, no flush — and wait until it is gone."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)
        if self.process.stdout is not None:
            self.process.stdout.close()
        with contextlib.suppress(OSError):
            os.remove(self.stderr_path)

    @property
    def reaped(self) -> bool:
        return self.process.poll() is not None


class Book:
    """The client-side model of acknowledged writes, with issue order.

    ``states[name]`` lists every state the key has been *asked* into, in
    issue order (one writer, so issue order is commit order);
    ``acked[name]`` indexes the last one acknowledged.  A read of the key
    may legally observe any state from ``acked`` at its start to the
    last issued at its end.
    """

    def __init__(self, model: oracle.FacultyModel,
                 hot_expected: List[Any]) -> None:
        self.hot_expected = hot_expected
        self.states = {name: [model.key_state(name)]
                       for name in model.starts}
        self.acked = {name: 0 for name in model.starts}
        self.full_names = model.names_with_rank("full")
        #: Keys a failed write left in an unknown state: never checked.
        self.uncertain: set = set()
        self.acked_writes = 0
        self.user_bytes = 0
        self._deferred: List[Tuple[streams.Op, list, Dict[str, int]]] = []

    def _names(self, op: streams.Op) -> List[str]:
        if op.shape == "rank_scan":
            return self.full_names
        return [op.name] if op.shape != "asof_point" else []

    def before(self, op: streams.Op) -> Any:
        if op.is_write:
            self.states[op.name].append(oracle.FacultyModel.replaced(
                self.states[op.name][-1], op.salary, op.valid_day))
            return len(self.states[op.name]) - 1
        return {name: self.acked[name] for name in self._names(op)}

    def after(self, op: streams.Op, ticket: Any, rows: list) -> None:
        if op.is_write:
            self.acked[op.name] = ticket
            self.acked_writes += 1
            self.user_bytes += ds.value_bytes({"salary": op.salary})
        else:
            self._deferred.append((op, rows, ticket))
            ticket["__issued__"] = {name: len(self.states[name]) - 1
                                    for name in self._names(op)}

    def write_failed(self, op: streams.Op) -> None:
        self.uncertain.add(op.name)

    def _allowed(self, name: str, ticket: Dict[str, Any]):
        return self.states[name][ticket[name]:ticket["__issued__"][name] + 1]

    def verify(self, tally: harness.Tally) -> None:
        """Run every deferred comparison; wrong answers land in *tally*."""
        agrees, value_at = oracle.FacultyModel.agrees, oracle.FacultyModel.value_at
        for op, rows, ticket in self._deferred:
            if op.shape == "asof_point":
                seen = oracle.canonical(rows)
                tally.expect(
                    seen == self.hot_expected[op.hot], "asof_answer_changed",
                    lambda: f"{op.text}: expected "
                            f"{self.hot_expected[op.hot]}, got {seen}")
            elif op.shape == "current_point":
                if op.name in self.uncertain:
                    continue
                tally.expect(any(agrees(state, rows) for state in
                                 self._allowed(op.name, ticket)),
                             "current_read_disagrees_with_acked_writes")
            elif op.shape == "when_point":
                if op.name in self.uncertain:
                    continue
                seen = [row["values"].get("salary") for row in rows
                        if row["valid"].contains(
                            Instant.from_chronon(op.valid_day))]
                tally.expect(len(rows) == 1 and len(seen) == 1 and any(
                    value_at(state, op.valid_day) == seen[0]
                    for state in self._allowed(op.name, ticket)),
                    "when_read_disagrees_with_acked_writes")
            else:  # rank_scan
                by_name: Dict[str, list] = {}
                for row in rows:
                    by_name.setdefault(row["values"]["name"], []).append(row)
                good = sorted(by_name) == self.full_names and all(
                    name in self.uncertain or any(
                        agrees(state, group)
                        for state in self._allowed(name, ticket))
                    for name, group in by_name.items())
                tally.expect(good, "rank_scan_disagrees_with_acked_writes")
        self._deferred.clear()


async def _drive(client: ReproClient, ops: List[streams.Op], book: Book,
                 tally: harness.Tally, pace: harness.Pace,
                 cap: harness.WallCap) -> float:
    """One closed-loop connection; returns its generator lateness: the
    share of its own wall it spent outside ``await client.query`` (the
    speed probes both connections share included)."""
    busy = 0.0
    began = time.perf_counter()
    for index, op in enumerate(ops):
        if cap.expired:
            tally.abandon(len(ops) - index)
            break
        tally.attempted += 1
        ticket = book.before(op)
        pace.tick()
        started = time.perf_counter()
        try:
            result = await client.query(op.text,
                                        budget_ms=harness.BUDGET_MS)
        except Exception as error:  # noqa: BLE001 - tallied by class
            tally.fail(error)
            if op.is_write:
                book.write_failed(op)
            continue
        elapsed = time.perf_counter() - started
        busy += elapsed
        tally.ok(op, started, elapsed)
        book.after(op, ticket, result.rows)
    wall = time.perf_counter() - began
    return (wall - busy) / wall if wall > 0 else 0.0


def _client(endpoint: str, seed: int, index: int) -> ReproClient:
    return ReproClient([endpoint], pool_size=1,
                       retry=RetryPolicy(max_attempts=4,
                                         seed=(seed << 4) ^ index),
                       preamble=[lifecycle.RANGE])


def run_served(sizing: Sizing, seed: int, seconds: float,
               both_write: bool = False) -> harness.RunResult:
    """*both_write* reproduces the two-writer race (README); the gated
    workload keeps it off."""
    dataset_plan = ds.plan(sizing.dataset, seed)
    pace = harness.Pace()
    loop = asyncio.new_event_loop()
    with harness.scratch_dir("served") as parent:
        def build():
            directory = tempfile.mkdtemp(prefix="d", dir=parent)
            manager, database, data = lifecycle.durable_dataset(
                directory, dataset_plan, pace.tick)
            manager.checkpoint()
            server = Server(directory)
            try:
                clients = [_client(server.endpoint, seed, index)
                           for index in range(CLIENTS)]
                for client in clients:
                    if not loop.run_until_complete(client.ping(
                            harness.BUDGET_MS)):
                        raise RuntimeError("server did not answer a ping")
            except BaseException:
                server.kill()
                raise
            return directory, database, data, server, clients

        def teardown(built) -> None:
            directory, _database, _data, server, clients = built
            for client in clients:
                loop.run_until_complete(client.close())
            server.kill()
            shutil.rmtree(directory)

        built, setup_samples = harness.timed_setups(build, teardown,
                                                    sizing.setups, pace)
        directory, database, data, server, clients = built
        try:
            per_client = sizing.op_count(seconds) // CLIENTS
            rw, ro, hot = streams.served(sizing.dataset, data.pins, seed,
                                         per_client, both_write)
            reference = Session(database)
            reference.execute(lifecycle.RANGE)
            book = Book(oracle.FacultyModel(dataset_plan), [
                oracle.canonical(oracle.to_wire_rows(
                    reference.execute(op.text))) for op in hot])
            if both_write:
                # Two writers break the model's one-writer ordering: keep
                # the as-of and crash checks, skip the model comparisons.
                book.uncertain = set(book.states)
            del reference, database  # the directory is the server's now
            tally = harness.Tally()
            cap = harness.WallCap(seconds)
            gc.collect()

            async def measured() -> List[float]:
                return await asyncio.gather(
                    _drive(clients[0], rw, book, tally, pace, cap),
                    _drive(clients[1], ro, book, tally, pace, cap))

            pace.sample(harness.PROBE_BURST)
            began = time.perf_counter()
            lateness = loop.run_until_complete(measured())
            ended = time.perf_counter()
            pace.sample(harness.PROBE_BURST)
            book.verify(tally)

            async def recheck() -> None:
                for op in hot:
                    tally.attempted += 1
                    try:
                        result = await clients[1].query(
                            op.text, budget_ms=harness.BUDGET_MS)
                    except Exception as error:  # noqa: BLE001 - tallied
                        tally.fail(error)
                        continue
                    book.after(op, {}, result.rows)
                for client in clients:
                    await client.close()

            loop.run_until_complete(recheck())
            book.verify(tally)
            retries = sum(client.stats["retries"] for client in clients)
            peak_rss = server.peak_rss_mb()
            disk_ratio = (harness.dir_bytes(directory)
                          / (data.user_bytes + book.user_bytes))
        finally:
            server.kill()
            loop.close()
        if not server.reaped:
            raise RuntimeError("the server subprocess was not reaped")

        # The crash test: the server died by SIGKILL; everything it
        # acknowledged must be in the directory it left behind.
        manager = DurabilityManager(directory)
        recovered, report = manager.recover(TemporalDatabase)
        survivor = Session(recovered)
        survivor.execute(lifecycle.RANGE)
        for name in sorted(book.states):
            if name in book.uncertain:
                continue
            rows = oracle.to_wire_rows(survivor.execute(
                f'retrieve (f.name, f.salary) where f.name = "{name}"'))
            tally.expect(oracle.FacultyModel.agrees(
                book.states[name][book.acked[name]], rows),
                "acknowledged_write_lost_in_crash")
        if not book.uncertain:
            expected_records = 2 + len(dataset_plan.replaces) \
                + book.acked_writes
            tally.expect(report.records_total == expected_records,
                         "durable_record_count_differs_from_acks")

        cycle_samples, _ = lifecycle.run_cycles(
            directory, manager, recovered, sizing.dataset, data.pins, seed,
            sizing.cycles, tally, pace, cap, timed_ops=False)

    notes = {"generator_lateness_share": lateness,
             "client_retries": retries,
             "acked_writes": book.acked_writes,
             "uncertain_keys": len(book.uncertain)}
    metrics = harness.end_to_end(tally, pace, began, ended, setup_samples,
                                 cycle_samples, disk_ratio, peak_rss, notes)
    return harness.result("served-oltp", seed, seconds, False, tally, metrics,
                          notes)
