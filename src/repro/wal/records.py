"""WAL record framing: length-prefixed CRC32 frames over JSON bodies.

Every record in a WAL segment is one *frame*::

    u32 length | u32 crc32(payload) | payload (length bytes)

and every payload starts with a one-byte record kind.  Period, op, and
checkpoint records are canonical JSON (sorted keys) so byte-identical
state produces byte-identical frames.  A fourth kind, ``ARRIVALS``
(one settle window's arrivals as packed trace columns), is *retired*:
no recovery ever read it — the sim driver regenerates arrivals from
the RNG state in its snapshot — so nothing writes it any more, but a
directory an earlier build wrote still holds such frames and they
must decode as frames rather than read as a tear.

The scan helpers below are deliberately paranoid: a frame that is
short, oversized, or fails its CRC terminates the scan.  Whether that
termination is a *torn tail* (expected after ``kill -9``; the bytes
are discarded) or *corruption* (mid-log damage; hard error) is the
caller's decision — :mod:`repro.wal.log` treats a bad frame in the
final segment as torn and anywhere else as a `ValidationError`.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.utils.validation import ValidationError

#: Record kinds (first payload byte).
RECORD_ARRIVALS = 1   #: retired: decoded and skipped, never written
RECORD_PERIOD = 2     #: JSON settle receipt {period, events, revenue, ...}
RECORD_OP = 3         #: JSON serve-request document (gateway mutation)
RECORD_CHECKPOINT = 4 #: JSON {period, snapshot} — compaction boundary

#: The kinds this build writes (and a recovery reads).
RECORD_KINDS = (RECORD_PERIOD, RECORD_OP, RECORD_CHECKPOINT)

_FRAME = struct.Struct("<II")
FRAME_HEADER = _FRAME.size

#: Sanity cap on a single frame payload.  A torn length field can read
#: as garbage; anything past this is treated as an invalid frame rather
#: than a 4 GiB allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024


class FrameError(ValueError):
    """A frame failed to parse (short, oversized, or CRC mismatch)."""


def encode_frame(kind: int, body: bytes) -> bytes:
    """Frame ``kind`` + *body* into header | crc | payload bytes."""
    if kind not in RECORD_KINDS:
        what = "retired" if kind == RECORD_ARRIVALS else "unknown"
        raise ValidationError(f"{what} WAL record kind {kind!r}")
    payload = bytes([kind]) + body
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def decode_frame(buffer: bytes, offset: int) -> "tuple[int, bytes, int]":
    """Decode one frame at *offset*; returns ``(kind, body, end)``.

    Raises :class:`FrameError` on anything short of a complete,
    CRC-clean frame — the caller decides torn-tail vs corruption.
    """
    header_end = offset + FRAME_HEADER
    if header_end > len(buffer):
        raise FrameError(f"short frame header at offset {offset}")
    length, crc = _FRAME.unpack_from(buffer, offset)
    if length < 1 or length > MAX_FRAME_BYTES:
        raise FrameError(f"implausible frame length {length} at "
                         f"offset {offset}")
    end = header_end + length
    if end > len(buffer):
        raise FrameError(f"truncated frame payload at offset {offset}")
    payload = buffer[header_end:end]
    if zlib.crc32(payload) != crc:
        raise FrameError(f"CRC mismatch at offset {offset}")
    kind = payload[0]
    if kind not in RECORD_KINDS and kind != RECORD_ARRIVALS:
        raise FrameError(f"unknown record kind {kind} at "
                         f"offset {offset}")
    return kind, payload[1:], end


def iter_frames(buffer: bytes):
    """Yield ``(kind, body, start, end)`` until EOF or a bad frame.

    A clean EOF exhausts the iterator; a bad frame re-raises
    :class:`FrameError` carrying the failing start offset in
    ``error.offset``.
    """
    offset = 0
    size = len(buffer)
    while offset < size:
        try:
            kind, body, end = decode_frame(buffer, offset)
        except FrameError as error:
            error.offset = offset
            raise
        yield kind, body, offset, end
        offset = end


# --- JSON record bodies -------------------------------------------------

def encode_json(document: dict) -> bytes:
    """Canonical (sorted-key) JSON body bytes for *document*."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def decode_json(body: bytes, what: str) -> dict:
    """Parse a JSON record body, converting failures to ValidationError."""
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValidationError(f"WAL {what} record is not valid JSON: "
                              f"{error}") from None
    if not isinstance(document, dict):
        raise ValidationError(f"WAL {what} record must be a JSON "
                              f"object, got {type(document).__name__}")
    return document
