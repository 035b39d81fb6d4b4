"""The wire format: framing, typed error round-trips, and fuzz.

The protocol promises two things the rest of the serving layer builds
on: *every* :class:`~repro.errors.ReproError` subclass survives the
wire as the same class with the same triage bit, and *no* byte
sequence a peer can send produces anything other than a typed
:class:`~repro.errors.ProtocolError` — no hangs, no stack traces, no
half-parsed frames.
"""

import random

import pytest

import repro.errors as errors_module
from repro.core import TemporalDatabase
from repro.errors import (ConflictError, Overloaded, ProtocolError,
                          RemoteError, ReplicaLagging, ReproError,
                          TQuelSyntaxError)
from repro.server import protocol
from repro.time import Granularity, Instant, Period
from repro.tquel import Session


def _all_error_classes():
    """Every concrete ReproError subclass in the live tree."""
    seen = []
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        seen.append(cls)
        stack.extend(cls.__subclasses__())
    return seen


class TestErrorRoundTrip:
    def test_every_subclass_round_trips_to_the_same_type(self):
        for cls in _all_error_classes():
            error = cls("synthetic failure for the wire")
            decoded = protocol.decode_error(protocol.encode_error(error))
            assert type(decoded) is cls, cls.__name__
            assert decoded.retryable == error.retryable, cls.__name__

    def test_triage_bit_survives_for_every_subclass(self):
        retryable = {cls.__name__ for cls in _all_error_classes()
                     if cls("x").retryable}
        # The triage set is load-bearing: these are the errors a client
        # may retry.  A new retryable error type extends this set
        # deliberately, not by accident.
        assert "ConflictError" in retryable
        assert "Overloaded" in retryable
        assert "DrainingError" in retryable
        assert "TransportError" in retryable
        assert "ReplicaLagging" in retryable
        assert "ProtocolError" not in retryable
        assert "DeadlineExceeded" not in retryable

    def test_overloaded_details_travel(self):
        error = Overloaded("queue full", retry_after=0.25, queued=16,
                           active=8)
        decoded = protocol.decode_error(protocol.encode_error(error))
        assert isinstance(decoded, Overloaded)
        assert decoded.retry_after == 0.25
        assert decoded.queued == 16
        assert decoded.active == 8

    def test_conflict_relations_travel_as_tuple(self):
        error = ConflictError("lost validation",
                              relations=("faculty", "salary"))
        decoded = protocol.decode_error(protocol.encode_error(error))
        assert isinstance(decoded, ConflictError)
        assert decoded.relations == ("faculty", "salary")

    def test_replica_lagging_positions_travel(self):
        error = ReplicaLagging("behind", token=42, applied=17)
        decoded = protocol.decode_error(protocol.encode_error(error))
        assert decoded.token == 42
        assert decoded.applied == 17

    def test_unknown_error_name_degrades_to_remote_error(self):
        decoded = protocol.decode_error(
            {"name": "FutureQuantumError", "message": "novel failure",
             "retryable": True})
        assert isinstance(decoded, RemoteError)
        assert decoded.retryable is True
        assert decoded.type_name == "FutureQuantumError"
        assert "novel failure" in str(decoded)

    def test_wire_triage_disagreement_is_honored_for_known_types(self):
        data = protocol.encode_error(ConflictError("x"))
        data["retryable"] = False  # a stricter server said: do not retry
        decoded = protocol.decode_error(data)
        assert isinstance(decoded, ConflictError)
        assert decoded.retryable is False

    def test_tquel_location_is_not_double_suffixed(self):
        error = TQuelSyntaxError("unexpected token", line=3, column=7)
        decoded = protocol.decode_error(protocol.encode_error(error))
        assert isinstance(decoded, TQuelSyntaxError)
        assert str(decoded).count("line 3") == 1


class TestMessageFraming:
    def test_round_trip(self):
        line = protocol.encode_message({"type": "ping", "id": 1})
        assert line.endswith(b"\n")
        assert protocol.decode_message(line) == {"type": "ping", "id": 1}

    def test_request_builders_validate(self):
        message = protocol.parse_request(protocol.query_request(
            7, "retrieve (f.rank)", budget_ms=250.0, tenant="t1",
            consistency="ryw", token=3))
        assert message["id"] == 7
        assert message["budget_ms"] == 250.0
        assert message["token"] == 3

    @pytest.mark.parametrize("line", [
        b"",
        b"\n",
        b"garbage that is not a frame\n",
        b"\xff\xfe\x00 not utf-8 \xba\xad\n",
        b"s1 12 deadbeef {\"type\": \"q\"}\n",     # CRC mismatch
        b"s1 999 00000000 {}\n",                   # torn: length lies
        b"s2 2 6da88c34 {}\n",                     # wrong tag
    ])
    def test_malformed_lines_raise_typed_protocol_errors(self, line):
        with pytest.raises(ProtocolError):
            protocol.decode_message(line)

    def test_oversized_declared_length_is_refused_before_buffering(self):
        huge = protocol.MAX_FRAME_BYTES + 1
        line = f"s1 {huge} deadbeef x".encode()
        with pytest.raises(ProtocolError, match="ceiling"):
            protocol.decode_message(line + b"\n")

    def test_truncated_frames_at_every_cut_point(self):
        whole = protocol.query_request(1, "retrieve (f.rank)")
        for cut in range(1, len(whole) - 1, 7):
            with pytest.raises(ProtocolError):
                protocol.decode_message(whole[:cut] + b"\n")

    def test_seeded_garbage_never_escapes_the_type(self):
        rng = random.Random(1234)
        for _ in range(200):
            blob = bytes(rng.randrange(256)
                         for _ in range(rng.randrange(1, 120)))
            try:
                protocol.decode_message(blob + b"\n")
            except ProtocolError:
                continue  # the only acceptable failure
            except Exception as exc:  # pragma: no cover - the point
                pytest.fail(f"non-typed escape: {type(exc).__name__}: "
                            f"{exc!r} for {blob!r}")

    def test_payload_must_be_a_typed_object(self):
        import json

        from repro.storage.framing import frame
        line = (frame(json.dumps(["not", "an", "object"]), tag="s1")
                + "\n").encode()
        with pytest.raises(ProtocolError, match="typed message"):
            protocol.decode_message(line)

    @pytest.mark.parametrize("message,match", [
        ({"type": "mystery", "id": 1}, "unknown request type"),
        ({"type": "query", "id": "one", "source": "x"}, "integer"),
        ({"type": "query", "id": 1}, "source"),
        ({"type": "query", "id": 1, "source": "x", "budget_ms": -5},
         "budget_ms"),
        ({"type": "query", "id": 1, "source": "x",
          "consistency": "psychic"}, "consistency"),
        ({"type": "query", "id": 1, "source": "x", "token": "later"},
         "token"),
    ])
    def test_request_schema_violations(self, message, match):
        with pytest.raises(ProtocolError, match=match):
            protocol.parse_request(protocol.encode_message(message))


class TestRowsOnTheWire:
    def test_historical_rows_round_trip_with_time_values(self):
        session = Session(TemporalDatabase())
        session.execute("create faculty (name = string, rank = string) "
                        "key (name)")
        session.execute('append to faculty (name = "Tom", '
                        'rank = "full") valid from "12/05/82"')
        session.execute("range of f is faculty")
        result = session.execute('retrieve (f.name, f.rank)')
        columns, wire = protocol.rows_to_wire(result)
        assert columns == ["name", "rank"]
        assert len(wire) == 1
        decoded = protocol.rows_from_wire(wire)
        assert decoded[0]["values"] == {"name": "Tom", "rank": "full"}
        # The valid period survived JSON as a real Period again.
        assert str(decoded[0]["valid"].start) == "1982-12-05"

    def test_empty_result(self):
        assert protocol.rows_to_wire(None) == ([], [])
        assert protocol.rows_from_wire([]) == []


class TestRowCodecCost:
    """A stamp crosses the wire as its two chronons: encoding and decoding
    a 64-row temporal reply formats no date and parses none, and the
    decode builds one period per distinct stamp of the frame (a clock-free
    guard; docs/PERFORMANCE.md "What a served request costs")."""

    def reply(self):
        session = Session(TemporalDatabase())
        session.execute("create faculty (name = string, rank = string) "
                        "key (name)")
        for n in range(64):
            until = ' to "01/01/90"' if n % 3 == 0 else ""
            session.execute(
                f'append to faculty (name = "n{n:02d}", rank = "full") '
                f'valid from "0{1 + n % 4}/01/82"{until}')
        session.execute("range of f is faculty")
        return session.execute("retrieve (f.name, f.rank)")

    def test_no_date_is_formatted_or_parsed(self, monkeypatch):
        result = self.reply()
        calls = []
        for cls, name in ((Instant, "isoformat"), (Granularity, "parse")):
            original = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda *args, _f=original, _n=name:
                                calls.append(_n) or _f(*args))
        columns, wire = protocol.rows_to_wire(result)
        rows = protocol.rows_from_wire(protocol.decode_message(
            protocol.rows_reply(1, 0, wire, columns=columns))["rows"])
        assert len(rows) == 64
        assert calls == []

    def test_one_period_per_distinct_stamp(self, monkeypatch):
        result = self.reply()
        stamps = {(row.valid.lo, row.valid.hi) for row in result.rows}
        assert len(stamps) == 8
        line = protocol.rows_reply(1, 0, protocol.rows_to_wire(result)[1])
        built = []
        original_init, original_from = Period.__init__, Period.from_chronons
        monkeypatch.setattr(Period, "__init__", lambda self, *args:
                            built.append(1) or original_init(self, *args))
        monkeypatch.setattr(Period, "from_chronons", classmethod(
            lambda cls, *args: built.append(1) or original_from(*args)))
        rows = protocol.rows_from_wire(protocol.decode_message(line)["rows"])
        assert len(built) == len(stamps)
        assert len({id(row["valid"]) for row in rows}) == len(stamps)
