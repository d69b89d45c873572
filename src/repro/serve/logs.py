"""Structured gateway logging: stderr for humans, JSONL for machines.

Every gateway event is one flat record — an event name, a level, and
plain key/value fields (request ids, client ids, endpoints, latencies).
:class:`StructuredLog` writes each record twice:

* a single ``key=value`` line to stderr (or any text stream), so an
  operator tailing the process sees what is happening;
* a JSON object per line to an append-only ``.jsonl`` file, so log
  pipelines ingest the same record without parsing prose.

Secrets never reach either sink: field names that look like
credentials (``token``, ``secret``, ``password``, ``authorization``,
``api_key``...) are redacted *by key* before formatting, recursively
through nested mappings — the value is replaced with ``"[redacted]"``,
the key survives so the record stays debuggable.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from pathlib import Path
from collections.abc import Mapping

#: Substrings (lower-cased) that mark a field name as secret-bearing.
SECRET_MARKERS = ("token", "secret", "password", "passwd", "apikey",
                  "api_key", "authorization", "credential", "cookie")

#: What a redacted value is replaced with.
REDACTED = "[redacted]"

_LEVELS = ("debug", "info", "warning", "error")

#: One scan per field name for every marker, and once for every record
#: the encoder ``json.dumps(..., sort_keys=True, default=repr)`` builds.
_SECRET_PATTERN = re.compile("|".join(map(re.escape, SECRET_MARKERS)))
_ENCODER = json.JSONEncoder(sort_keys=True, default=repr)


def _is_secret(key: str) -> bool:
    return _SECRET_PATTERN.search(key.lower()) is not None


def redact(fields: Mapping) -> dict:
    """A copy of *fields* with secret-looking keys' values replaced.

    Recurses through nested mappings; lists and tuples are scanned for
    nested mappings too.  The keys themselves are preserved.
    """
    cleaned: dict = {}
    for key, value in fields.items():
        if _is_secret(str(key)):
            cleaned[key] = REDACTED
        elif isinstance(value, Mapping):
            cleaned[key] = redact(value)
        elif isinstance(value, (list, tuple)):
            cleaned[key] = [redact(item) if isinstance(item, Mapping)
                            else item for item in value]
        else:
            cleaned[key] = value
    return cleaned


class StructuredLog:
    """A dual-sink (text + JSONL) structured event log.

    Parameters
    ----------
    path:
        JSONL file to append records to; ``None`` disables the file
        sink.
    stream:
        Text stream for the human-readable line; defaults to stderr,
        ``None`` disables it.
    clock:
        Wall-clock source for the ``ts`` field (injectable for
        deterministic tests).
    """

    def __init__(
        self,
        path: "str | Path | None" = None,
        stream: "object | None" = sys.stderr,
        clock=time.time,
    ) -> None:
        self.path = None if path is None else Path(path)
        self.stream = stream
        self._clock = clock
        self._lock = threading.Lock()
        self._handle = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a", encoding="utf-8")

    @property
    def enabled(self) -> bool:
        """Whether a record would reach any sink (a quiet gateway's
        hot path checks this before building one)."""
        return self.stream is not None or self._handle is not None

    def log(self, event: str, level: str = "info", **fields: object) -> dict:
        """Emit one record to every sink; returns the (redacted) record."""
        if level not in _LEVELS:
            raise ValueError(
                f"unknown log level {level!r}; use one of {_LEVELS}")
        if not self.enabled:
            # No sink: skip building and redacting the record entirely.
            return {}
        record = {"ts": round(float(self._clock()), 6), "level": level,
                  "event": event, **redact(fields)}
        with self._lock:
            if self.stream is not None:
                print(self._format_line(record), file=self.stream)
            if self._handle is not None:
                self._handle.write(_ENCODER.encode(record) + "\n")
                self._handle.flush()
        return record

    @staticmethod
    def _format_line(record: Mapping) -> str:
        parts = [f"[{record['level']}] {record['event']}"]
        for key, value in record.items():
            if key in ("level", "event"):
                continue
            parts.append(f"{key}={value}")
        return " ".join(parts)

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "StructuredLog":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()
