"""The WAL frame codec: CRC framing, JSON canonicals, the retired kind."""

import zlib

import pytest

from repro.utils.validation import ValidationError
from repro.wal import records as rec

pytestmark = pytest.mark.wal


class TestFrames:
    def test_round_trip_all_kinds(self):
        buffer = b"".join(
            rec.encode_frame(kind, bytes([kind]) * (kind * 3))
            for kind in rec.RECORD_KINDS)
        decoded = [(kind, body) for kind, body, _, _
                   in rec.iter_frames(buffer)]
        assert decoded == [(kind, bytes([kind]) * (kind * 3))
                           for kind in rec.RECORD_KINDS]

    def test_empty_body_round_trips(self):
        frame = rec.encode_frame(rec.RECORD_OP, b"")
        kind, body, end = rec.decode_frame(frame, 0)
        assert (kind, body, end) == (rec.RECORD_OP, b"", len(frame))

    def test_iter_frames_reports_physical_offsets(self):
        first = rec.encode_frame(rec.RECORD_OP, b"abc")
        second = rec.encode_frame(rec.RECORD_PERIOD, b"defgh")
        spans = [(start, end) for _, _, start, end
                 in rec.iter_frames(first + second)]
        assert spans == [(0, len(first)),
                         (len(first), len(first) + len(second))]

    def test_flipped_payload_byte_fails_crc(self):
        frame = bytearray(rec.encode_frame(rec.RECORD_OP, b"payload"))
        frame[-1] ^= 0x01
        with pytest.raises(rec.FrameError, match="CRC"):
            rec.decode_frame(bytes(frame), 0)

    def test_truncated_frame_is_detected(self):
        frame = rec.encode_frame(rec.RECORD_OP, b"payload")
        for cut in (1, rec.FRAME_HEADER - 1, rec.FRAME_HEADER + 2,
                    len(frame) - 1):
            with pytest.raises(rec.FrameError):
                rec.decode_frame(frame[:cut], 0)

    def test_iter_frames_error_carries_tear_offset(self):
        good = rec.encode_frame(rec.RECORD_OP, b"ok")
        torn = good + rec.encode_frame(rec.RECORD_OP, b"lost")[:-3]
        frames = rec.iter_frames(torn)
        assert next(frames)[1] == b"ok"
        with pytest.raises(rec.FrameError) as excinfo:
            next(frames)
        assert excinfo.value.offset == len(good)

    def test_absurd_length_prefix_rejected_without_allocating(self):
        header = rec._FRAME.pack(rec.MAX_FRAME_BYTES + 1,
                                 zlib.crc32(b""))
        with pytest.raises(rec.FrameError, match="length"):
            rec.decode_frame(header, 0)


class TestJsonRecords:
    def test_canonical_bytes_are_key_sorted_and_compact(self):
        body = rec.encode_json({"b": 2, "a": [1.5, None]})
        assert body == b'{"a":[1.5,null],"b":2}'
        assert rec.decode_json(body, "test") == {"b": 2,
                                                 "a": [1.5, None]}

    def test_garbage_body_raises_validation_error_naming_what(self):
        with pytest.raises(ValidationError, match="period"):
            rec.decode_json(b"\xff\xfe not json", "period")

    def test_non_object_body_rejected(self):
        with pytest.raises(ValidationError, match="object"):
            rec.decode_json(b"[1,2,3]", "op")
