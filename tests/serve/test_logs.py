"""Structured logging: dual sinks, redaction, deterministic records."""

import io
import json

import pytest

from repro.serve.logs import REDACTED, StructuredLog, redact


class TestRedact:
    def test_redacts_secret_looking_keys(self):
        cleaned = redact({
            "token": "t0p", "api_key": "k", "Authorization": "Bearer x",
            "password": "pw", "client": "c7",
        })
        assert cleaned["token"] == REDACTED
        assert cleaned["api_key"] == REDACTED
        assert cleaned["Authorization"] == REDACTED
        assert cleaned["password"] == REDACTED
        assert cleaned["client"] == "c7"

    def test_recurses_through_mappings_and_lists(self):
        cleaned = redact({
            "params": {"session_token": "s", "path": "/x"},
            "items": [{"secret": "s2"}, 7],
        })
        assert cleaned["params"]["session_token"] == REDACTED
        assert cleaned["params"]["path"] == "/x"
        assert cleaned["items"][0]["secret"] == REDACTED
        assert cleaned["items"][1] == 7

    def test_original_mapping_is_untouched(self):
        original = {"token": "keep-me"}
        redact(original)
        assert original["token"] == "keep-me"


class TestStructuredLog:
    def test_writes_both_sinks(self, tmp_path):
        stream = io.StringIO()
        path = tmp_path / "gw.jsonl"
        with StructuredLog(path=path, stream=stream,
                           clock=lambda: 12.5) as log:
            log.log("request", request_id="r1", status=200)
        line = stream.getvalue()
        assert "[info] request" in line
        assert "request_id=r1" in line
        record = json.loads(path.read_text())
        assert record == {"ts": 12.5, "level": "info",
                          "event": "request", "request_id": "r1",
                          "status": 200}

    def test_secrets_never_reach_either_sink(self, tmp_path):
        stream = io.StringIO()
        path = tmp_path / "gw.jsonl"
        with StructuredLog(path=path, stream=stream) as log:
            log.log("auth", token="sekret123",
                    params={"api_key": "k-9"})
        for sink in (stream.getvalue(), path.read_text()):
            assert "sekret123" not in sink
            assert "k-9" not in sink
            assert REDACTED in sink

    def test_rejects_unknown_level(self):
        log = StructuredLog(stream=None)
        with pytest.raises(ValueError, match="unknown log level"):
            log.log("event", level="loud")

    def test_file_sink_appends_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "gw.jsonl"
        with StructuredLog(path=path, stream=None) as log:
            log.log("a", n=1)
            log.log("b", n=2)
        lines = path.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["a",
                                                                 "b"]

    def test_file_line_is_the_sorted_json_of_the_record(self, tmp_path):
        """One shared encoder writes what ``json.dumps(record,
        sort_keys=True, default=repr)`` would: same bytes, unencodable
        values as their repr."""
        path = tmp_path / "gw.jsonl"
        with StructuredLog(path=path, stream=None,
                           clock=lambda: 3.25) as log:
            record = log.log("settle", zeta=[1, 0.1, None], alpha="é\n",
                             nested={"b": 2, "a": {"Token": "x"}},
                             phase=complex(1, 2))
        assert path.read_text(encoding="utf-8") == (
            json.dumps(record, sort_keys=True, default=repr) + "\n")
        assert record["nested"]["a"]["Token"] == REDACTED
