"""HTTP/1.1 framing: parse, render, and the protocol-limit errors.

Every request-parsing case runs through both entry points to the one
parser: :func:`read_request` over an ``asyncio.StreamReader`` (what a
stream holder uses; ``TestRequestParsing``, ``TestHeadFraming``) and a
fed :class:`RequestParser` (what the gateway's protocol uses; the
``...Fed`` subclasses, which swap the ``parse_request`` fixture).
"""

import asyncio

import pytest

from repro.serve.http import (
    MAX_HEAD,
    REASONS,
    HttpError,
    RequestParser,
    json_body,
    read_request,
    read_response,
    render_request,
    render_response,
)
from repro.utils.validation import ValidationError


def parse_via_stream(raw: bytes, head_limit: "int | None" = None,
                     **limits):
    async def go():
        reader = (asyncio.StreamReader() if head_limit is None
                  else asyncio.StreamReader(limit=head_limit))
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **limits)

    return asyncio.run(go())


def parse_via_feed(raw: bytes, head_limit: "int | None" = None,
                   **limits):
    if head_limit is not None:
        limits["max_head"] = head_limit
    parser = RequestParser(**limits)
    parser.feed(raw)
    parser.feed_eof()
    return parser.next_request()


def parse_response(raw: bytes, **limits):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_response(reader, **limits)

    return asyncio.run(go())


class TestRequestParsing:
    @pytest.fixture
    def parse_request(self):
        """Parse one message, then EOF; *head_limit* is the stream's
        buffer limit (the fed parser's ``max_head``)."""
        return parse_via_stream

    def test_round_trip(self, parse_request):
        raw = render_request(
            "post", "/v1/submit?a=1&b=two", json_body({"x": 1}),
            headers={"x-client-id": "c7"})
        request = parse_request(raw)
        assert request.method == "POST"
        assert request.path == "/v1/submit"
        assert request.params == {"a": "1", "b": "two"}
        assert request.headers["x-client-id"] == "c7"
        assert request.json() == {"x": 1}
        assert request.keep_alive

    def test_connection_close_honoured(self, parse_request):
        raw = render_request("GET", "/healthz", keep_alive=False)
        assert not parse_request(raw).keep_alive

    def test_clean_eof_returns_none(self, parse_request):
        assert parse_request(b"") is None

    def test_malformed_request_line_is_400(self, parse_request):
        with pytest.raises(HttpError) as excinfo:
            parse_request(b"NOT-HTTP\r\n\r\n")
        assert excinfo.value.status == 400

    def test_oversized_body_is_413(self, parse_request):
        raw = render_request("POST", "/v1/submit", b"x" * 100)
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw, max_body=10)
        assert excinfo.value.status == 413

    def test_too_many_headers_is_431(self, parse_request):
        headers = {f"h{i}": "v" for i in range(100)}
        raw = render_request("GET", "/healthz", headers=headers)
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw, max_headers=8)
        assert excinfo.value.status == 431

    def test_bad_content_length_is_400(self, parse_request):
        raw = (b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n")
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("raw", [
        b"POST /x HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
        b"POST /x HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
        b"POST /x HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n{}",
        b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 0"
        b"\r\n\r\n{}GET /healthz HTTP/1.1\r\n\r\n",
        b"POST /x HTTP/1.1\r\nContent-Length : 2\r\n\r\n{}",
        b"POST /x HTTP/1.1\r\n Content-Length: 2\r\n\r\n{}",
        b"{}GET /healthz HTTP/1.1\r\n\r\n",
        b"G(T /healthz HTTP/1.1\r\n\r\n",
    ], ids=["plus-sign", "underscore", "latin-1-digit", "repeated",
            "space-before-colon", "leading-space", "brace-method",
            "paren-method"])
    def test_ambiguous_framing_is_400(self, raw, parse_request):
        """A head two readers could frame two ways is refused: a
        Content-Length that is not ASCII digits or is repeated with
        another value, a field name with whitespace before its colon
        (RFC 9112 §5.1, §6.3), a method that is not a token (RFC 9110
        §9.1)."""
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw)
        assert excinfo.value.status == 400

    def test_repeated_equal_content_length_is_one(self, parse_request):
        raw = (b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n"
               b"Content-Length: 2\r\n\r\n{}")
        assert parse_request(raw).body == b"{}"

    def test_truncated_body_is_400(self, parse_request):
        raw = b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw)
        assert excinfo.value.status == 400
        assert "mid-body" in excinfo.value.message

    def test_non_json_body_raises_validation_error(self, parse_request):
        raw = render_request("POST", "/x", b"not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            parse_request(raw).json()

    def test_chunked_body_is_501_before_anything_reads_it(
            self, parse_request):
        """A framing this parser does not read is refused, not taken
        as an empty body with the chunks parsed as the next request."""
        raw = (b"POST /v1/tick HTTP/1.1\r\nTransfer-Encoding: chunked"
               b"\r\n\r\n0\r\n\r\n")
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw)
        assert excinfo.value.status == 501
        assert "Transfer-Encoding" in excinfo.value.message
        assert REASONS[501] == "Not Implemented"

    def test_transfer_encoding_beside_content_length_is_400(
            self, parse_request):
        raw = (b"POST /v1/tick HTTP/1.1\r\nContent-Length: 5\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n")
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw)
        assert excinfo.value.status == 400
        assert "both Transfer-Encoding and Content-Length" in (
            excinfo.value.message)


class TestRequestParsingFed(TestRequestParsing):
    @pytest.fixture
    def parse_request(self):
        return parse_via_feed


class TestHeadFraming:
    """The head is read with one ``readuntil`` and split afterwards."""

    GET = b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n"

    @pytest.fixture
    def parse_request(self):
        return parse_via_stream

    def test_head_split_across_two_segments(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(self.GET[:17])
            pending = asyncio.ensure_future(read_request(reader))
            await asyncio.sleep(0)
            assert not pending.done()
            reader.feed_data(self.GET[17:])
            return await pending

        request = asyncio.run(go())
        assert (request.method, request.path) == ("GET", "/healthz")
        assert request.headers == {"host": "a"}

    def test_two_pipelined_requests_in_one_segment(self):
        first = render_request("POST", "/v1/submit", b'{"n":1}')
        second = render_request("POST", "/v1/withdraw", b'{"n":22}')

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(first + second)
            reader.feed_eof()
            return [await read_request(reader) for _ in range(3)]

        one, two, end = asyncio.run(go())
        assert (one.path, one.body) == ("/v1/submit", b'{"n":1}')
        assert (two.path, two.body) == ("/v1/withdraw", b'{"n":22}')
        assert end is None

    @pytest.mark.parametrize("raw", [
        b"GET /" + b"x" * 200 + b" HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\nX-Long: " + b"v" * 200 + b"\r\n\r\n",
    ])
    def test_over_long_line_is_431(self, raw, parse_request):
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw, max_line=128)
        assert excinfo.value.status == 431
        assert parse_request(self.GET, max_line=128) is not None

    def test_head_over_the_reader_limit_is_431(self, parse_request):
        """No terminator within the buffer limit: refused, not
        buffered without bound."""
        raw = (b"GET / HTTP/1.1\r\n"
               + (b"X-Pad: " + b"p" * 64 + b"\r\n") * 8)
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw, head_limit=256)
        assert excinfo.value.status == 431
        # Ended within the limit, the same head parses.
        assert parse_request(raw + b"\r\n", head_limit=1024) is not None

    @pytest.mark.parametrize("ended", [False, True])
    def test_default_head_limit_is_64_kib(self, parse_request, ended):
        """The bound an asyncio stream's default buffer gave for free:
        a head over 64 KiB is a 431 whether or not it ever ends, though
        every line and the header count are within their own limits."""
        pad = (b"X-Pad: " + b"p" * 8000 + b"\r\n") * 9
        raw = b"GET / HTTP/1.1\r\n" + pad + (b"\r\n" if ended else b"")
        assert len(raw) > MAX_HEAD == 1 << 16
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw)
        assert excinfo.value.status == 431
        fits = b"GET / HTTP/1.1\r\n" + pad[:8 * 8009] + b"\r\n"
        assert parse_request(fits).headers["x-pad"] == "p" * 8000

    def test_header_count_at_and_over_the_limit(self, parse_request):
        def raw(count):
            return render_request(
                "GET", "/healthz",
                headers={f"h{i}": "v" for i in range(count - 3)})

        # render_request adds Host, Content-Length and Connection.
        assert len(parse_request(raw(8), max_headers=8).headers) == 8
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw(9), max_headers=8)
        assert excinfo.value.status == 431

    def test_malformed_header_is_400(self, parse_request):
        with pytest.raises(HttpError) as excinfo:
            parse_request(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n")
        assert excinfo.value.status == 400
        assert "no-colon-here" in excinfo.value.message

    @pytest.mark.parametrize("raw", [
        b"GET /healthz HT",
        b"GET /healthz HTTP/1.1\r\nHost: a\r\n",
        b"GET /healthz HTTP/1.1\r\nHost: a\r\nX-Cut: of",
    ])
    def test_eof_mid_head_is_400(self, raw, parse_request):
        with pytest.raises(HttpError) as excinfo:
            parse_request(raw)
        assert excinfo.value.status == 400
        assert "mid-head" in excinfo.value.message

    def test_bare_lf_is_not_a_line_terminator(self, parse_request):
        """Stated behaviour: lines end in CRLF.  A head framed in bare
        LFs never completes (400 once the peer closes); a bare LF or CR
        inside a CRLF-framed head is a 400, never a header split."""
        with pytest.raises(HttpError) as excinfo:
            parse_request(b"GET /healthz HTTP/1.1\nHost: a\n\n")
        assert excinfo.value.status == 400
        assert "mid-head" in excinfo.value.message
        for raw in (b"GET / HTTP/1.1\r\nHost: a\nX-Evil: 1\r\n\r\n",
                    b"GET / HTTP/1.1\nHost: a\r\n\r\n",
                    b"GET / HTTP/1.1\r\nHost: a\rb\r\n\r\n"):
            with pytest.raises(HttpError) as excinfo:
                parse_request(raw)
            assert excinfo.value.status == 400
            assert "bare CR or LF" in excinfo.value.message


class TestHeadFramingFed(TestHeadFraming):
    """The same cases through a fed parser, whose buffer holds
    whatever has not been taken as a request yet."""

    @pytest.fixture
    def parse_request(self):
        return parse_via_feed

    def test_head_split_across_two_segments(self):
        """Any split, down to single bytes: nothing until the last."""
        raw = render_request("POST", "/v1/submit?a=1", b'{"n":1}',
                             headers={"x-client-id": "c7"})
        parser = RequestParser()
        for byte in raw[:-1]:
            parser.feed(bytes([byte]))
            assert parser.next_request() is None
        parser.feed(raw[-1:])
        request = parser.next_request()
        assert (request.path, request.params, request.body) == (
            "/v1/submit", {"a": "1"}, b'{"n":1}')
        assert request.headers["x-client-id"] == "c7"
        assert parser.buffered == 0 and not parser.finished

    def test_two_pipelined_requests_in_one_segment(self):
        first = render_request("POST", "/v1/submit", b'{"n":1}')
        second = render_request("POST", "/v1/withdraw", b'{"n":22}')
        parser = RequestParser()
        parser.feed(first + second + first[:9])
        one, two = parser.next_request(), parser.next_request()
        assert (one.path, one.body) == ("/v1/submit", b'{"n":1}')
        assert (two.path, two.body) == ("/v1/withdraw", b'{"n":22}')
        assert parser.next_request() is None
        assert parser.buffered == 9
        parser.feed(first[9:])
        assert parser.next_request().body == b'{"n":1}'
        parser.feed_eof()
        assert parser.next_request() is None and parser.finished

    def test_eof_mid_body_is_400(self):
        parser = RequestParser()
        parser.feed(b"POST /x HTTP/1.1\r\nContent-Length: 50\r\n\r\n"
                    b"short")
        assert parser.next_request() is None
        parser.feed_eof()
        with pytest.raises(HttpError) as excinfo:
            parser.next_request()
        assert excinfo.value.status == 400
        assert "mid-body (5/50 bytes)" in excinfo.value.message


class TestRepeatedHeads:
    """Heads a keep-alive peer repeats are parsed once; every message
    still gets its own headers, and a refused head stays refused."""

    def test_each_message_gets_its_own_headers(self):
        raw = render_request("POST", "/v1/submit", b'{"n":1}',
                             headers={"x-client-id": "c7"})
        first = parse_via_feed(raw)
        first.headers["x-client-id"] = "changed"
        first.headers["injected"] = "1"
        second = parse_via_feed(raw)
        assert second.headers["x-client-id"] == "c7"
        assert "injected" not in second.headers

    def test_a_refused_head_is_refused_every_time(self):
        raw = b"GET / HTTP/1.1\r\nHost : a\r\n\r\n"
        for _ in range(2):
            with pytest.raises(HttpError) as excinfo:
                parse_via_feed(raw)
            assert excinfo.value.status == 400

    def test_a_long_head_parses_like_a_short_one(self):
        headers = {f"x-pad-{n}": "v" * 40 for n in range(30)}
        raw = render_request("GET", "/healthz", headers=headers)
        assert raw.index(b"\r\n\r\n") > 1024
        assert parse_via_feed(raw).headers["x-pad-29"] == "v" * 40


class TestResponseParsing:
    def test_round_trip(self):
        raw = render_response(200, json_body({"ok": True}),
                              headers={"Retry-After": "0.5"})
        response = parse_response(raw)
        assert response.status == 200
        assert response.headers["retry-after"] == "0.5"
        assert response.json() == {"ok": True}

    def test_reason_phrases_cover_gateway_statuses(self):
        for status in (200, 400, 404, 405, 413, 429, 431, 500, 501,
                       503, 504):
            line = render_response(status).split(b"\r\n")[0]
            assert str(status).encode() in line
            assert line != f"HTTP/1.1 {status} Unknown".encode()

    def test_malformed_status_line_is_400(self):
        with pytest.raises(HttpError) as excinfo:
            parse_response(b"HTTP/1.1 abc\r\n\r\n")
        assert excinfo.value.status == 400

    def test_clean_eof_is_none_and_eof_mid_head_is_400(self):
        assert parse_response(b"") is None
        with pytest.raises(HttpError) as excinfo:
            parse_response(b"HTTP/1.1 200 OK\r\nContent-Le")
        assert excinfo.value.status == 400
