"""Minimal HTTP/1.1 framing over asyncio streams.

The gateway speaks plain HTTP/JSON so any client — curl, a browser, a
load balancer's health checker — can talk to it, but the container
ships no HTTP library; this module is the small, strict subset the
gateway and its load generator need: request/response line parsing,
headers, ``Content-Length`` bodies, and keep-alive.  Both directions
live here so the server (:func:`read_request`) and the client
(:func:`read_response`) cannot drift apart.

Framing limits are explicit arguments — an over-long request line or
an oversized body raises :class:`HttpError` with the right status
(431/413) instead of buffering unboundedly.
"""

from __future__ import annotations

import asyncio
import json
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


async def _read_head(
    reader: asyncio.StreamReader, max_line: int, max_headers: int
) -> "tuple[str, dict[str, str]] | None":
    """The start line and headers of one message; ``None`` on clean EOF.

    The whole head is one ``readuntil`` — one coroutine call however
    many headers there are — so it is bounded by the reader's buffer
    limit (64 KiB unless the stream was opened with another) as well as
    by *max_line* per line and *max_headers* lines: over any of them is
    a 431.  Lines end in CRLF; a bare LF is not a terminator (RFC 9112
    lets a server insist), so one inside a CRLF-framed head is a 400
    and a head framed in bare LFs alone never completes — 400 when the
    peer closes, 431 when it outgrows the buffer.
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
    text = head[:-4].decode("latin-1")
    start, *lines = text.split("\r\n")
    if text.count("\n") != len(lines) or text.count("\r") != len(lines):
        raise HttpError(400, "bare CR or LF in the message head")
    if max(map(len, (start, *lines))) + 2 > max_line:
        raise HttpError(431, "header line too long")
    if len(lines) > max_headers:
        raise HttpError(431, "too many headers")
    headers: dict[str, str] = {}
    for line in lines:
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return start, headers


async def _read_body(
    reader: asyncio.StreamReader, headers: dict[str, str], max_body: int
) -> bytes:
    raw = headers.get("content-length", "0")
    try:
        length = int(raw)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {raw!r}") from None
    if length < 0:
        raise HttpError(400, f"bad Content-Length {raw!r}")
    if length > max_body:
        raise HttpError(
            413, f"body of {length} bytes exceeds the {max_body}-byte "
                 f"limit")
    if length == 0:
        return b""
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise HttpError(
            400, f"connection closed mid-body ({len(exc.partial)}/"
                 f"{length} bytes)") from exc


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_line: int = 8192,
    max_headers: int = 64,
    max_body: int = 1 << 20,
) -> "HttpRequest | None":
    """Parse one request; ``None`` on a clean connection close."""
    head = await _read_head(reader, max_line, max_headers)
    if head is None:
        return None
    line, headers = head
    parts = line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise HttpError(400, f"malformed request line {line!r}")
    method, target, _version = parts
    split = urlsplit(target)
    body = await _read_body(reader, headers, max_body)
    return HttpRequest(
        method=method.upper(),
        target=target,
        path=split.path or "/",
        params=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


async def read_response(
    reader: asyncio.StreamReader,
    *,
    max_line: int = 8192,
    max_headers: int = 64,
    max_body: int = 8 << 20,
) -> "HttpResponse | None":
    """Parse one response; ``None`` on a clean connection close."""
    head = await _read_head(reader, max_line, max_headers)
    if head is None:
        return None
    line, headers = head
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1"):
        raise HttpError(400, f"malformed status line {line!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise HttpError(
            400, f"malformed status line {line!r}") from None
    body = await _read_body(reader, headers, max_body)
    return HttpResponse(status=status, headers=headers, body=body)


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


def render_request(
    method: str,
    target: str,
    body: bytes = b"",
    *,
    host: str = "localhost",
    headers: "dict[str, str] | None" = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one request (the load generator's half)."""
    lines = [f"{method.upper()} {target} HTTP/1.1", f"Host: {host}"]
    if body:
        lines.append("Content-Type: application/json")
    lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_body(document: object) -> bytes:
    """A JSON document as compact, sorted, UTF-8 bytes."""
    return json.dumps(document, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
