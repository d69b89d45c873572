"""Minimal HTTP/1.1: one message parser, a server and a client framing.

The gateway speaks plain HTTP/JSON so any client — curl, a browser, a
load balancer's health checker — can talk to it, but the container
ships no HTTP library; this module is the small, strict subset the
gateway and its load generator need: request/response line parsing,
headers, ``Content-Length`` bodies, and keep-alive.

One synchronous parser reads every message head and declares every
body length (:func:`_parse_head`, :func:`_body_length`), so the two
ways bytes arrive cannot drift apart:

* the gateway's server and the load generator's client are
  ``asyncio.Protocol`` callbacks that feed whatever the socket delivers
  into a :class:`RequestParser` / :class:`ResponseParser` and take
  complete messages off its buffer — no stream reader, task or
  coroutine per message;
* anything holding an ``asyncio.StreamReader`` reads one message at a
  time with :func:`read_request` / :func:`read_response`: a
  ``readuntil`` for the head and a ``readexactly`` for the body around
  the same parser.

Framing limits are explicit arguments — an over-long request line, a
head over :data:`MAX_HEAD` or an oversized body raises
:class:`HttpError` with the right status (431/413) instead of buffering
unboundedly, and a ``Transfer-Encoding`` body is refused (501, or 400
beside a ``Content-Length``) before anything acts on the message.  So
is every head whose framing two readers could take two ways (400): a
``Content-Length`` that is not ASCII digits or is repeated with
another value, whitespace before a field name's colon, and a method
that is not a token.
"""

from __future__ import annotations

import asyncio
import functools
import json
import re
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

from repro.utils.validation import ValidationError

#: Reason phrases for every status the gateway emits.
REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HttpError(Exception):
    """A protocol-level failure with the HTTP status to report."""

    def __init__(self, status: int, message: str,
                 retry_after: "float | None" = None) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = message
        self.retry_after = retry_after


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    target: str
    path: str
    params: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""

    def json(self) -> object:
        """The body parsed as JSON (raises :class:`ValidationError`)."""
        if not self.body:
            raise ValidationError("request body is empty, expected JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(
                f"request body is not valid JSON: {exc}") from exc

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        return self.headers.get("connection", "keep-alive").lower() != "close"


@dataclass
class HttpResponse:
    """One parsed response (client side)."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        """The body parsed as JSON (raises :class:`ValidationError`)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(
                f"response body is not valid JSON: {exc}") from exc


#: RFC 9110 §5.6.2 ``token``: what a method is made of.
_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

#: The longest message head (start line, headers and the blank line
#: before the body) either entry point buffers before answering 431 —
#: the buffer limit asyncio streams apply by default.
MAX_HEAD = 1 << 16


#: Heads up to this many bytes are memoised (256 of them at most).
_MEMO_HEAD = 1024


def _parse_head(head: bytes, max_line: int,
                max_headers: int) -> tuple[str, dict[str, str]]:
    """The start line and headers of one head (its final CRLFCRLF cut).

    A keep-alive peer sends the same few heads over and over (only
    the Content-Length digits differ), so a short head's parse is
    memoised by its bytes; each caller gets its own headers dict.
    """
    if len(head) > _MEMO_HEAD:
        return _split_head(head, max_line, max_headers)
    line, headers = _split_head_memo(head, max_line, max_headers)
    return line, headers.copy()


def _split_head(head: bytes, max_line: int,
                max_headers: int) -> tuple[str, dict[str, str]]:
    """:func:`_parse_head`'s work.

    Lines end in CRLF; a bare LF is not a terminator (RFC 9112 lets a
    server insist), so one inside a CRLF-framed head is a 400.  Over
    *max_line* per line or *max_headers* lines is a 431.  A field name
    with whitespace around it is a 400 (before the colon: RFC 9112
    §5.1), and ``Content-Length`` may repeat only with one value
    (§6.3); any other repeated field keeps its last value.
    """
    text = head.decode("latin-1")
    lines = text.split("\r\n")
    count = len(lines) - 1
    if text.count("\n") != count or text.count("\r") != count:
        raise HttpError(400, "bare CR or LF in the message head")
    if max(map(len, lines)) + 2 > max_line:
        raise HttpError(431, "header line too long")
    if count > max_headers:
        raise HttpError(431, "too many headers")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep or not name or name.strip() != name:
            raise HttpError(400, f"malformed header line {line!r}")
        name = name.lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "Content-Length repeated with "
                                 "different values")
        headers[name] = value
    return lines[0], headers


_split_head_memo = functools.lru_cache(maxsize=256)(_split_head)


def _body_length(headers: dict[str, str], max_body: int) -> int:
    """The body length the head declares.

    Only ``Content-Length`` framing is read.  A ``Transfer-Encoding``
    is refused before anything acts on the message: with a
    ``Content-Length`` beside it the framing is ambiguous (400, RFC
    9112 §6.3), alone it is a framing this parser does not implement
    (501) — reading its chunks as the next message would be worse.
    """
    if "transfer-encoding" in headers:
        if "content-length" in headers:
            raise HttpError(
                400, "both Transfer-Encoding and Content-Length given")
        raise HttpError(
            501, f"Transfer-Encoding "
                 f"{headers['transfer-encoding']!r} is not supported; "
                 f"send a Content-Length body")
    raw = headers.get("content-length", "0")
    if not (raw.isascii() and raw.isdigit()):
        raise HttpError(400, f"bad Content-Length {raw!r}")
    length = int(raw)
    if length > max_body:
        raise HttpError(
            413, f"body of {length} bytes exceeds the {max_body}-byte "
                 f"limit")
    return length


def _request_head(head: bytes, max_line: int, max_headers: int,
                  max_body: int) -> tuple[HttpRequest, int]:
    """A request with its body still to come, and that body's length."""
    line, headers = _parse_head(head, max_line, max_headers)
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise HttpError(400, f"malformed request line {line!r}")
    method, target, _version = parts
    if not _TOKEN.fullmatch(method):
        raise HttpError(400, f"request method {method!r} is not a token")
    split = urlsplit(target)
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=split.path or "/",
        params=dict(parse_qsl(split.query)) if split.query else {},
        headers=headers,
    ), _body_length(headers, max_body)


def _response_head(head: bytes, max_line: int, max_headers: int,
                   max_body: int) -> tuple[HttpResponse, int]:
    """A response with its body still to come, and that body's length."""
    line, headers = _parse_head(head, max_line, max_headers)
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1"):
        raise HttpError(400, f"malformed status line {line!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise HttpError(
            400, f"malformed status line {line!r}") from None
    return (HttpResponse(status=status, headers=headers),
            _body_length(headers, max_body))


def _mid_body(got: int, length: int) -> HttpError:
    return HttpError(
        400, f"connection closed mid-body ({got}/{length} bytes)")


class RequestParser:
    """Requests out of a byte stream fed in whatever pieces arrive.

    The server's half: :meth:`feed` appends received bytes to one
    buffer and :meth:`next_request` takes the next complete request
    off its front (``None`` until one is complete), so pipelined
    requests come out one at a time, in order.  The head is found
    without rescanning bytes already searched, and is refused with a
    431 once it outgrows *max_head* without ending — the bound a
    stream reader's buffer limit used to give.  After
    :meth:`feed_eof`, a partial message is a 400 and :attr:`finished`
    says the peer closed cleanly between messages.
    :class:`ResponseParser` is the same machine reading responses.
    """

    #: Parses one head: the message with its body still to come, and
    #: that body's length.
    _head = staticmethod(_request_head)

    def __init__(self, *, max_line: int = 8192, max_headers: int = 64,
                 max_body: int = 1 << 20, max_head: int = MAX_HEAD) -> None:
        self.max_line = max_line
        self.max_headers = max_headers
        self.max_body = max_body
        self.max_head = max_head
        self._buffer = bytearray()
        #: Where the search for the head's end resumes.
        self._scanned = 0
        #: The parsed head whose body is still arriving.
        self._pending: "tuple[HttpRequest | HttpResponse, int] | None" = None
        self._eof = False

    @property
    def buffered(self) -> int:
        """Bytes received and not yet taken as a request."""
        return len(self._buffer)

    @property
    def finished(self) -> bool:
        """The peer closed, and nothing it sent is left unparsed."""
        return self._eof and not self._buffer and self._pending is None

    def feed(self, data: bytes) -> None:
        self._buffer += data

    def feed_eof(self) -> None:
        self._eof = True

    def next_request(self) -> "HttpRequest | None":
        """The next complete message, or ``None`` until one is."""
        buffer = self._buffer
        if self._pending is None:
            end = buffer.find(b"\r\n\r\n", self._scanned)
            if end < 0:
                if len(buffer) - 3 > self.max_head:
                    raise HttpError(
                        431, f"header block too long: no end of head "
                             f"within {self.max_head} bytes")
                if self._eof and buffer:
                    raise HttpError(
                        400, f"connection closed mid-head after "
                             f"{len(buffer)} bytes")
                self._scanned = max(0, len(buffer) - 3)
                return None
            if end > self.max_head:
                raise HttpError(
                    431, f"header block too long: the head ends "
                         f"{end} bytes in, past the {self.max_head}-byte "
                         f"limit")
            self._pending = self._head(
                bytes(buffer[:end]), self.max_line, self.max_headers,
                self.max_body)
            del buffer[:end + 4]
            self._scanned = 0
        message, length = self._pending
        if len(buffer) < length:
            if self._eof:
                raise _mid_body(len(buffer), length)
            return None
        if length:
            message.body = bytes(buffer[:length])
            del buffer[:length]
        self._pending = None
        return message


class ResponseParser(RequestParser):
    """Responses out of a byte stream: the client's half.

    The same buffer, limits and end-of-stream rules as
    :class:`RequestParser`; only the head is a status line, and the
    body limit is the 8 MiB :func:`read_response` allows (a settle's
    report is the largest answer the gateway sends).
    """

    _head = staticmethod(_response_head)

    def __init__(self, *, max_line: int = 8192, max_headers: int = 64,
                 max_body: int = 8 << 20, max_head: int = MAX_HEAD) -> None:
        super().__init__(max_line=max_line, max_headers=max_headers,
                         max_body=max_body, max_head=max_head)

    #: The next complete response, or ``None`` until one is.
    next_response = RequestParser.next_request


async def _read_head(reader: asyncio.StreamReader) -> "bytes | None":
    """One message head off *reader*; ``None`` on clean EOF.

    One ``readuntil``, bounded by the reader's buffer limit
    (:data:`MAX_HEAD` unless the stream was opened with another): a
    head that outgrows it is a 431, one the peer cuts short a 400.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(
            400, f"connection closed mid-head after "
                 f"{len(exc.partial)} bytes") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, f"header block too long: {exc}") from exc
    return head[:-4]


async def _read_body(reader: asyncio.StreamReader, length: int) -> bytes:
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise _mid_body(len(exc.partial), length) from exc


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_line: int = 8192,
    max_headers: int = 64,
    max_body: int = 1 << 20,
) -> "HttpRequest | None":
    """Parse one request off a stream; ``None`` on a clean close."""
    head = await _read_head(reader)
    if head is None:
        return None
    request, length = _request_head(head, max_line, max_headers, max_body)
    request.body = await _read_body(reader, length)
    return request


async def read_response(
    reader: asyncio.StreamReader,
    *,
    max_line: int = 8192,
    max_headers: int = 64,
    max_body: int = 8 << 20,
) -> "HttpResponse | None":
    """Parse one response off a stream; ``None`` on a clean close."""
    head = await _read_head(reader)
    if head is None:
        return None
    response, length = _response_head(
        head, max_line, max_headers, max_body)
    response.body = await _read_body(reader, length)
    return response


#: Precomputed response-head byte pairs, keyed by
#: ``(status, keep_alive)``: everything before the Content-Length
#: digits, and everything after them.  JSON responses with no extra
#: headers — the entire serving hot path — assemble in one
#: ``bytes.join`` with zero per-request string formatting.
_HEAD_CACHE: "dict[tuple[int, bool], tuple[bytes, bytes]]" = {}


def _head_parts(status: int, keep_alive: bool) -> tuple[bytes, bytes]:
    parts = _HEAD_CACHE.get((status, keep_alive))
    if parts is None:
        reason = REASONS.get(status, "Unknown")
        prefix = (f"HTTP/1.1 {status} {reason}\r\n"
                  f"Content-Type: application/json\r\n"
                  f"Content-Length: ").encode("latin-1")
        suffix = ("\r\nConnection: "
                  + ("keep-alive" if keep_alive else "close")
                  + "\r\n\r\n").encode("latin-1")
        parts = _HEAD_CACHE[(status, keep_alive)] = (prefix, suffix)
    return parts


def render_response(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    headers: "dict[str, str] | None" = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one response, ready for ``writer.write``."""
    if body and not headers and content_type == "application/json":
        prefix, suffix = _head_parts(status, keep_alive)
        return b"".join(
            (prefix, b"%d" % len(body), suffix, body))
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    if body:
        lines.append(f"Content-Type: {content_type}")
    lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def request_head(
    method: str,
    target: str,
    *,
    with_body: bool,
    host: str = "localhost",
    headers: "dict[str, str] | None" = None,
    keep_alive: bool = True,
) -> tuple[bytes, bytes]:
    """One request head split around its Content-Length digits.

    What :func:`render_request` writes before and after the length, so
    a client that sends many requests to one target can cache the pair
    and send ``prefix + digits + suffix + body``.
    """
    lines = [f"{method.upper()} {target} HTTP/1.1", f"Host: {host}"]
    if with_body:
        lines.append("Content-Type: application/json")
    lines.append("Content-Length: ")
    prefix = "\r\n".join(lines).encode("latin-1")
    lines = ["", "Connection: " + ("keep-alive" if keep_alive else "close")]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    suffix = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return prefix, suffix


def render_request(
    method: str,
    target: str,
    body: bytes = b"",
    *,
    host: str = "localhost",
    headers: "dict[str, str] | None" = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one request, ready for ``transport.write``."""
    prefix, suffix = request_head(
        method, target, with_body=bool(body), host=host, headers=headers,
        keep_alive=keep_alive)
    return b"".join((prefix, b"%d" % len(body), suffix, body))


#: One encoder for every body: ``json.dumps`` with these options would
#: build a fresh one per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def json_body(document: object) -> bytes:
    """A JSON document as compact, sorted, UTF-8 bytes."""
    return _ENCODER.encode(document).encode("utf-8")
