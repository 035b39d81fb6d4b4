"""Unit tests for record framing: torn vs corrupt classification."""

import pytest

from repro.storage import (CHECKPOINT_TAG, FrameDamage, FrameError, frame,
                           frame_record, parse_frame)


class TestRoundTrip:
    def test_frame_parse_roundtrip(self):
        entry = {"sequence": 3, "nested": {"a": [1, 2]}, "s": "héllo"}
        assert parse_frame(frame_record(entry)) == entry

    def test_tags_are_not_interchangeable(self):
        line = frame('{"x": 1}', tag=CHECKPOINT_TAG)
        with pytest.raises(FrameError) as excinfo:
            parse_frame(line)  # journal tag expected by default
        assert excinfo.value.damage is FrameDamage.CORRUPT

    def test_bare_json_is_corrupt_not_a_record(self):
        with pytest.raises(FrameError) as excinfo:
            parse_frame('{"x": 1}')
        assert excinfo.value.damage is FrameDamage.CORRUPT

    def test_journal_lines_are_r2_frames_only(self):
        from repro.storage import CHAINED_TAG, parse_journal_line
        entry = {"sequence": 3}
        assert parse_journal_line(
            frame_record(entry, tag=CHAINED_TAG)) == entry
        for retired in (frame_record(entry), '{"sequence": 3}'):
            with pytest.raises(FrameError) as excinfo:
                parse_journal_line(retired)
            assert excinfo.value.damage is FrameDamage.CORRUPT
        with pytest.raises(FrameError) as excinfo:
            parse_journal_line("r")  # cut mid-tag: crash residue
        assert excinfo.value.damage is FrameDamage.TORN


class TestClassification:
    """TORN = possible crash residue; CORRUPT = never explainable by one."""

    def damage_of(self, line):
        with pytest.raises(FrameError) as excinfo:
            parse_frame(line)
        return excinfo.value.damage

    def test_short_payload_is_torn(self):
        # An append died partway: fewer payload bytes than promised.
        line = frame_record({"x": 1})
        assert self.damage_of(line[:-3]) is FrameDamage.TORN

    def test_truncated_header_is_torn(self):
        line = frame_record({"x": 1})
        assert self.damage_of(line[:4]) is FrameDamage.TORN

    def test_bad_checksum_is_corrupt(self):
        line = frame_record({"x": 1})
        flipped = line.replace('"x"', '"y"')  # same length, wrong CRC
        assert self.damage_of(flipped) is FrameDamage.CORRUPT

    def test_overlong_payload_is_corrupt(self):
        # More bytes than the length prefix: no crash writes *extra* data.
        line = frame_record({"x": 1}) + "tail"
        assert self.damage_of(line) is FrameDamage.CORRUPT

    def test_unparseable_payload_is_corrupt(self):
        import zlib
        payload = "{not json"
        data = payload.encode("utf-8")
        line = f"r1 {len(data)} {zlib.crc32(data):08x} {payload}"
        assert self.damage_of(line) is FrameDamage.CORRUPT
