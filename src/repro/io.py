"""(De)serialization: instances, outcomes, period reports, snapshots.

A downstream user needs to move data in and out of the library — to
pin a regression case, to auction real workloads exported from another
system, to archive an outcome for billing audits, or to stop a running
:class:`~repro.service.AdmissionService` and resume it later.  Three
formats live here:

* **Auction instances** — plain JSON, deliberately simple:

  ```json
  {
    "capacity": 10.0,
    "operators": {"A": 4.0, "B": 1.0},
    "queries": [
      {"id": "q1", "operators": ["A", "B"], "bid": 55.0,
       "valuation": 60.0, "owner": "alice"}
    ]
  }
  ```

  ``valuation`` and ``owner`` are optional, exactly as in the model.

* **Period reports** — a *versioned* JSON schema
  (``schema: "repro/period-report"``, ``version: 1``) embedding the
  full instance and outcome, so a report round-trips losslessly and a
  future version can migrate old archives.

* **Service snapshots** — a versioned pickle envelope
  (``schema: "repro/service-snapshot"``) holding a
  :class:`~repro.service.ServiceSnapshot`.  Pickle, because engine
  state includes arbitrary operator callables; only load snapshot
  files you trust, and use module-level functions (not lambdas) in
  plans you intend to checkpoint.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.core.model import AuctionInstance, Operator, Query
from repro.core.result import AuctionOutcome
from repro.utils.validation import ValidationError
from repro.wal.crashpoints import crashpoint, register

#: Fault-injection point between writing the temp file and the
#: ``os.replace`` that publishes it — a crash here must leave the old
#: file intact and only a stray ``*.tmp`` behind.
CP_IO_SAVE_AFTER_TMP = register("io.save.after-tmp")

#: Schema tags + versions of the formats written by this module.
PERIOD_REPORT_SCHEMA = "repro/period-report"
PERIOD_REPORT_VERSION = 1
SNAPSHOT_SCHEMA = "repro/service-snapshot"
SNAPSHOT_VERSION = 1
CLUSTER_REPORT_SCHEMA = "repro/cluster-report"
CLUSTER_REPORT_VERSION = 1
CLUSTER_SNAPSHOT_SCHEMA = "repro/cluster-snapshot"
CLUSTER_SNAPSHOT_VERSION = 1
SIM_TRACE_SCHEMA = "repro/sim-trace"
SIM_TRACE_VERSION = 1
SIM_TRACE_BINARY_VERSION = 2
SIM_SNAPSHOT_SCHEMA = "repro/sim-snapshot"
SIM_SNAPSHOT_VERSION = 1
SERVE_REQUEST_SCHEMA = "repro/serve-request"
SERVE_REQUEST_VERSION = 1
SERVE_RESPONSE_SCHEMA = "repro/serve-response"
SERVE_RESPONSE_VERSION = 1


def _atomic_write(path: "str | Path", data: bytes) -> None:
    """Publish *data* at *path* all-or-nothing.

    Writes to a same-directory temp file, fsyncs it, then
    ``os.replace``s it over *path* — a crash at any instant leaves
    either the previous complete file or the new complete file, never
    a truncated hybrid.  The directory entry is fsynced best-effort
    (not every filesystem supports opening a directory).
    """
    target = Path(path)
    directory = target.parent if str(target.parent) else Path(".")
    handle, tmp_name = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=str(directory))
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
            stream.flush()
            os.fsync(stream.fileno())
        crashpoint(CP_IO_SAVE_AFTER_TMP)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def _atomic_write_text(path: "str | Path", text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


def _read_json(path: "str | Path", what: str) -> object:
    """Load a JSON file, naming *path* in any corruption error."""
    raw = Path(path).read_bytes()
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(
            f"malformed {what} file {str(path)!r}: {exc!r}") from exc


#: What a corrupt or truncated pickle can raise: the unpickler's own
#: errors plus whatever a garbage stream makes it do — index past the
#: memo, build with wrong arguments.
_PICKLE_ERRORS = (
    pickle.UnpicklingError, EOFError,
    IndexError, KeyError, ValueError, TypeError,
)


def _read_pickle_envelope(path: "str | Path", what: str) -> dict:
    """Unpickle the envelope dict a ``save_*_snapshot`` call wrote."""
    try:
        envelope = pickle.loads(Path(path).read_bytes())
    except (ImportError, AttributeError) as exc:
        # A class this build does not have: another build's file.
        raise ValidationError(
            f"{what} file {str(path)!r} was written by a build that "
            f"has {exc.name or exc}; this build does not") from exc
    except _PICKLE_ERRORS as exc:
        raise ValidationError(
            f"malformed {what} file {str(path)!r}: {exc!r}") from exc
    if not isinstance(envelope, dict):
        raise ValidationError(
            f"malformed {what} file {str(path)!r}: not an envelope")
    return envelope


def _check_envelope(payload: object, what: str, noun: str, label: str,
                    schema: str, version: int) -> None:
    """Require *payload* to be a *schema* document at *version*.

    *what*, *noun* and *label* are how the not-an-object, wrong-schema
    and wrong-version errors name the document.
    """
    if not isinstance(payload, dict):
        raise ValidationError(
            f"malformed {what}: expected an object, got "
            f"{type(payload).__name__}")
    found = payload.get("schema")
    if found != schema:
        raise ValidationError(
            f"not a {noun} (schema {found!r}, expected {schema!r})")
    found = payload.get("version")
    if found != version:
        raise ValidationError(
            f"unsupported {label} version {found!r}; this build reads "
            f"version {version}")


def instance_to_dict(instance: AuctionInstance) -> dict:
    """Plain-JSON-able representation of *instance*."""
    queries = []
    for query in instance.queries:
        entry: dict[str, object] = {
            "id": query.query_id,
            "operators": list(query.operator_ids),
            "bid": query.bid,
        }
        if query.valuation is not None:
            entry["valuation"] = query.valuation
        if query.owner is not None:
            entry["owner"] = query.owner
        queries.append(entry)
    return {
        "capacity": instance.capacity,
        "operators": {op_id: op.load
                      for op_id, op in sorted(instance.operators.items())},
        "queries": queries,
    }


def instance_from_dict(payload: dict) -> AuctionInstance:
    """Parse the :func:`instance_to_dict` format (with validation)."""
    try:
        capacity = float(payload["capacity"])
        operator_items = payload["operators"].items()
        query_entries = payload["queries"]
    except (KeyError, AttributeError, TypeError) as exc:
        raise ValidationError(
            f"malformed instance document: {exc!r}") from exc
    operators = {
        op_id: Operator(op_id, float(load))
        for op_id, load in operator_items
    }
    queries = []
    for entry in query_entries:
        try:
            queries.append(Query(
                query_id=entry["id"],
                operator_ids=tuple(entry["operators"]),
                bid=float(entry["bid"]),
                valuation=(float(entry["valuation"])
                           if "valuation" in entry else None),
                owner=entry.get("owner"),
            ))
        except KeyError as exc:
            raise ValidationError(
                f"query entry missing field {exc}") from exc
    return AuctionInstance(operators, tuple(queries), capacity)


def save_instance(instance: AuctionInstance, path: "str | Path") -> None:
    """Write *instance* as JSON to *path* (atomically)."""
    _atomic_write_text(
        path, json.dumps(instance_to_dict(instance), indent=2) + "\n")


def load_instance(path: "str | Path") -> AuctionInstance:
    """Read an instance JSON document from *path*."""
    return instance_from_dict(_read_json(path, "instance"))


def outcome_to_dict(outcome: AuctionOutcome) -> dict:
    """Plain-JSON-able representation of *outcome* (audit record)."""
    return {
        "mechanism": outcome.mechanism,
        "payments": {qid: outcome.payment(qid)
                     for qid in sorted(outcome.winner_ids)},
        "metrics": outcome.summary(),
    }


def save_outcome(outcome: AuctionOutcome, path: "str | Path") -> None:
    """Write *outcome*'s audit record as JSON to *path* (atomically)."""
    _atomic_write_text(
        path, json.dumps(outcome_to_dict(outcome), indent=2) + "\n")


def _jsonable(value: object) -> object:
    """Best-effort conversion of mechanism diagnostics to plain JSON.

    Tuples become lists, sets become sorted lists, numpy scalars their
    Python equivalents; anything else unrepresentable falls back to
    ``repr`` so a report never fails to serialize.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(item) for item in value), key=repr)
    if hasattr(value, "item"):  # numpy scalar
        try:
            return _jsonable(value.item())
        except (TypeError, ValueError):
            pass
    return repr(value)


def full_outcome_to_dict(outcome: AuctionOutcome) -> dict:
    """Lossless (modulo diagnostics typing) outcome representation.

    Unlike :func:`outcome_to_dict` (the compact audit record), this
    keeps the payments, mechanism name and diagnostics needed to
    rebuild the outcome against its instance with
    :func:`outcome_from_dict`.
    """
    return {
        "mechanism": outcome.mechanism,
        "payments": {qid: outcome.payments[qid]
                     for qid in sorted(outcome.payments)},
        "details": _jsonable(dict(outcome.details)),
        "metrics": outcome.summary(),
    }


def outcome_from_dict(
    payload: dict, instance: AuctionInstance
) -> AuctionOutcome:
    """Rebuild an outcome serialized by :func:`full_outcome_to_dict`.

    The instance is not part of the payload (the compact audit record
    never carried it); pass the instance the outcome belongs to.
    """
    try:
        payments = {str(qid): float(amount)
                    for qid, amount in payload["payments"].items()}
        mechanism = payload.get("mechanism", "")
        details = payload.get("details", {})
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"malformed outcome document: {exc!r}") from exc
    return AuctionOutcome(
        instance=instance,
        payments=payments,
        mechanism=mechanism,
        details=details,
    )


# ----------------------------------------------------------------------
# Period reports (versioned schema)
# ----------------------------------------------------------------------


def report_to_dict(report: object) -> dict:
    """Versioned JSON document for a :class:`PeriodReport`.

    The embedded instance makes the document self-contained: an
    archived period can be re-audited (payments recomputed, capacity
    revalidated) without the service that produced it.
    """
    outcome = report.outcome
    return {
        "schema": PERIOD_REPORT_SCHEMA,
        "version": PERIOD_REPORT_VERSION,
        "period": report.period,
        "revenue": report.revenue,
        "admitted": list(report.admitted),
        "rejected": list(report.rejected),
        "engine_ticks": report.engine_ticks,
        "engine_utilization": report.engine_utilization,
        "instance": instance_to_dict(outcome.instance),
        "outcome": full_outcome_to_dict(outcome),
    }


def report_from_dict(payload: dict) -> object:
    """Parse a :func:`report_to_dict` document into a PeriodReport."""
    from repro.service.reports import PeriodReport

    _check_envelope(payload, "report document", "period-report document",
                    "period-report", PERIOD_REPORT_SCHEMA,
                    PERIOD_REPORT_VERSION)
    try:
        instance = instance_from_dict(payload["instance"])
        outcome = outcome_from_dict(payload["outcome"], instance)
        return PeriodReport(
            period=int(payload["period"]),
            outcome=outcome,
            revenue=float(payload["revenue"]),
            admitted=tuple(payload["admitted"]),
            rejected=tuple(payload["rejected"]),
            engine_ticks=int(payload["engine_ticks"]),
            engine_utilization=(
                None if payload.get("engine_utilization") is None
                else float(payload["engine_utilization"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(
            f"malformed report document: {exc!r}") from exc


def save_report(report: object, path: "str | Path") -> None:
    """Write one period report as versioned JSON to *path*."""
    _atomic_write_text(
        path,
        json.dumps(report_to_dict(report), indent=2, sort_keys=True)
        + "\n")


def load_report(path: "str | Path") -> object:
    """Read a period report written by :func:`save_report`."""
    return report_from_dict(_read_json(path, "period report"))


def save_reports(reports: "list | tuple", path: "str | Path") -> None:
    """Write a run's reports as one JSON array (period history)."""
    _atomic_write_text(
        path,
        json.dumps([report_to_dict(r) for r in reports],
                   indent=2, sort_keys=True) + "\n")


def load_reports(path: "str | Path") -> list:
    """Read a period history written by :func:`save_reports`."""
    payload = _read_json(path, "report history")
    if not isinstance(payload, list):
        raise ValidationError(
            "malformed report history: expected a JSON array")
    return [report_from_dict(entry) for entry in payload]


# ----------------------------------------------------------------------
# Cluster reports (versioned schema)
# ----------------------------------------------------------------------


def cluster_report_to_dict(report: object) -> dict:
    """Versioned JSON document for a :class:`ClusterReport`.

    Embeds every shard's full period-report document (each
    self-contained, schema-tagged) plus the cluster aggregates and the
    rebalancer's migrations, so one archived document re-audits an
    entire cluster period.
    """
    return {
        "schema": CLUSTER_REPORT_SCHEMA,
        "version": CLUSTER_REPORT_VERSION,
        "period": report.period,
        "total_revenue": report.total_revenue,
        "utilization": report.utilization,
        "rejected_load": report.rejected_load,
        "migrations": [
            {
                "query_id": migration.query_id,
                "origin": migration.origin,
                "target": migration.target,
                "load": migration.load,
            }
            for migration in report.migrations
        ],
        "shard_capacities": list(report.shard_capacities),
        "shards": [report_to_dict(shard_report)
                   for shard_report in report.shard_reports],
    }


def cluster_report_from_dict(payload: dict) -> object:
    """Parse a :func:`cluster_report_to_dict` document."""
    from repro.cluster.reports import ClusterReport, Migration

    _check_envelope(payload, "cluster report", "cluster-report document",
                    "cluster-report", CLUSTER_REPORT_SCHEMA,
                    CLUSTER_REPORT_VERSION)
    try:
        return ClusterReport(
            period=int(payload["period"]),
            shard_reports=tuple(
                report_from_dict(entry) for entry in payload["shards"]),
            shard_capacities=tuple(
                float(capacity)
                for capacity in payload["shard_capacities"]),
            migrations=tuple(
                Migration(
                    query_id=entry["query_id"],
                    origin=int(entry["origin"]),
                    target=int(entry["target"]),
                    load=float(entry["load"]),
                )
                for entry in payload["migrations"]
            ),
            rejected_load=float(payload["rejected_load"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(
            f"malformed cluster report: {exc!r}") from exc


def save_cluster_report(report: object, path: "str | Path") -> None:
    """Write one cluster report as versioned JSON to *path*."""
    _atomic_write_text(
        path,
        json.dumps(cluster_report_to_dict(report), indent=2,
                   sort_keys=True) + "\n")


def load_cluster_report(path: "str | Path") -> object:
    """Read a cluster report written by :func:`save_cluster_report`."""
    return cluster_report_from_dict(_read_json(path, "cluster report"))


# ----------------------------------------------------------------------
# Service snapshots (versioned pickle envelope)
# ----------------------------------------------------------------------


def _snapshot_envelope(snapshot: object) -> dict:
    """The versioned envelope wrapped around one service snapshot."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "version": SNAPSHOT_VERSION,
        "snapshot": snapshot,
    }


def _unwrap_snapshot_envelope(envelope: object, origin: str) -> object:
    """Validate a service-snapshot envelope and return its payload."""
    if not isinstance(envelope, dict):
        raise ValidationError(
            f"malformed snapshot file {origin!r}: not an envelope")
    _check_envelope(envelope, "snapshot", "service snapshot", "snapshot",
                    SNAPSHOT_SCHEMA, SNAPSHOT_VERSION)
    return envelope["snapshot"]


def save_snapshot(snapshot: object, path: "str | Path") -> None:
    """Write a service snapshot as a versioned pickle envelope.

    *snapshot* is a :class:`~repro.service.ServiceSnapshot` (from
    :meth:`AdmissionService.snapshot`).  Everything inside must be
    picklable: module-level functions in operator predicates and
    stream payloads are, lambdas and closures are not.
    """
    _atomic_write(path, pickle.dumps(
        _snapshot_envelope(snapshot), protocol=pickle.HIGHEST_PROTOCOL))


def load_snapshot(path: "str | Path") -> object:
    """Read a snapshot envelope written by :func:`save_snapshot`.

    Pickle executes code on load — only open snapshot files you trust.
    """
    return _unwrap_snapshot_envelope(
        _read_pickle_envelope(path, "snapshot"), str(path))


# ----------------------------------------------------------------------
# Simulation traces (versioned schema)
# ----------------------------------------------------------------------


def sim_trace_from_dict(payload: dict) -> object:
    """Parse a v1 (JSON) trace document into a SimTrace.

    This build no longer writes the format; the reader stays for the
    files earlier builds wrote.  The result is the same columns a v2
    binary load builds: arrivals come back as compact
    :class:`~repro.sim.arrivals.SelectPlan` rows, so a v1 replay
    drives the very same objects through routing and the auctions as
    the recorded run did (and as a v2 replay would) — not freshly
    materialized plan graphs.
    """
    from repro.sim.trace import SimTrace, TraceColumns, entry_from_dict

    _check_envelope(payload, "trace document", "sim-trace document",
                    "sim-trace", SIM_TRACE_SCHEMA, SIM_TRACE_VERSION)
    entries = payload.get("arrivals")
    if not isinstance(entries, list):
        raise ValidationError(
            "malformed trace document: 'arrivals' must be an array")
    return SimTrace(columns=TraceColumns.from_entries(
        entry_from_dict(entry) for entry in entries))


def _intern_column(values: list) -> tuple:
    """(codes int32, table U-strings) for a column of str-or-None.

    Table order is an implementation detail of the writer — codes are
    only ever resolved through the table stored next to them, so the
    sorted (numpy) and first-appearance (dict) paths interoperate.
    """
    import numpy as np

    if values and None not in values:
        # All-string column: sort-based interning entirely in C.
        table, codes = np.unique(np.asarray(values, dtype="U"),
                                 return_inverse=True)
        return codes.astype(np.int32), table
    # setdefault assigns first-appearance codes in one pass; dict
    # insertion order IS the table.
    index: dict[str, int] = {}
    codes = [-1 if value is None else index.setdefault(value, len(index))
             for value in values]
    return (np.asarray(codes, dtype=np.int32),
            np.asarray(list(index), dtype="U") if index
            else np.empty(0, dtype="U1"))


def _uncode_column(codes, table) -> list:
    """Invert :func:`_intern_column` back to str-or-None cells."""
    names = [str(name) for name in table.tolist()]
    lookup = dict(enumerate(names))
    return [lookup.get(code) for code in codes.tolist()]


#: The arrays of a v2 trace container.
_SIM_TRACE_ARRAYS = frozenset((
    "schema", "version", "rows", "ids", "ops",
    "owner_table", "category_table", "input_table"))


def sim_trace_to_arrays(trace: object) -> dict:
    """The v2 (binary) column arrays of a :class:`SimTrace`.

    One structured numeric array (``rows``: time, stream, cost,
    selectivity, bid, valuation + presence flag, interned owner /
    category / input-stream codes) plus the id/op string columns and
    the interned string tables — plain numeric and string arrays, so
    the container never needs object arrays at the numpy layer.
    """
    import numpy as np

    columns = trace.columns()
    count = len(columns)
    rows = np.zeros(count, dtype=[
        ("time", "f8"), ("stream", "i4"), ("cost", "f8"),
        ("selectivity", "f8"), ("bid", "f8"), ("valuation", "f8"),
        ("has_valuation", "u1"), ("owner", "i4"), ("category", "i4"),
        ("input", "i4")])
    rows["time"] = columns.times
    rows["stream"] = columns.streams
    rows["cost"] = columns.costs
    rows["selectivity"] = columns.selectivities
    rows["bid"] = columns.bids
    valuations = columns.valuations
    if None in valuations:
        rows["valuation"] = [0.0 if value is None else value
                             for value in valuations]
        rows["has_valuation"] = [value is not None
                                 for value in valuations]
    else:
        rows["valuation"] = valuations
        rows["has_valuation"] = 1
    owner_codes, owner_table = _intern_column(columns.owners)
    category_codes, category_table = _intern_column(columns.categories)
    input_codes, input_table = _intern_column(columns.inputs)
    rows["owner"] = owner_codes
    rows["category"] = category_codes
    rows["input"] = input_codes
    return {
        "schema": np.asarray(SIM_TRACE_SCHEMA),
        "version": np.asarray(SIM_TRACE_BINARY_VERSION),
        "rows": rows,
        "ids": (np.asarray(columns.ids, dtype="U") if count
                else np.empty(0, dtype="U1")),
        "ops": (np.asarray(columns.ops, dtype="U") if count
                else np.empty(0, dtype="U1")),
        "owner_table": owner_table,
        "category_table": category_table,
        "input_table": input_table,
    }


def sim_trace_from_arrays(arrays) -> object:
    """Rebuild a :class:`SimTrace` from the v2 arrays."""
    import numpy as np

    from repro.sim.trace import SimTrace, TraceColumns

    try:
        envelope = {"schema": str(arrays["schema"]),
                    "version": int(arrays["version"])}
    except KeyError as exc:
        raise ValidationError(
            f"malformed binary trace: missing {exc}") from exc
    _check_envelope(envelope, "binary trace", "sim-trace document",
                    "binary sim-trace", SIM_TRACE_SCHEMA,
                    SIM_TRACE_BINARY_VERSION)
    try:
        # Earlier builds wrote two more arrays, for plans pickled
        # beside the columns; every select-only file holds them empty.
        # An array this build does not read must be empty, or replay
        # would silently skip the rows it stood for.
        unread = [name for name in arrays
                  if name not in _SIM_TRACE_ARRAYS and arrays[name].size]
        if unread:
            raise ValidationError(
                f"binary trace holds arrivals outside its columns "
                f"({', '.join(sorted(unread))}): it was recorded with "
                f"pickled query plans, which ran code on load and are "
                f"no longer read")
        rows = arrays["rows"]
        columns = TraceColumns(
            times=rows["time"].tolist(),
            streams=rows["stream"].tolist(),
            categories=_uncode_column(rows["category"],
                                      arrays["category_table"]),
            ids=[str(value) for value in arrays["ids"].tolist()],
            ops=[str(value) for value in arrays["ops"].tolist()],
            inputs=_uncode_column(rows["input"],
                                  arrays["input_table"]),
            costs=rows["cost"].tolist(),
            selectivities=rows["selectivity"].tolist(),
            bids=rows["bid"].tolist(),
            valuations=[
                value if present else None
                for value, present in zip(
                    rows["valuation"].tolist(),
                    rows["has_valuation"].tolist())],
            owners=_uncode_column(rows["owner"],
                                  arrays["owner_table"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(
            f"malformed binary trace: {exc!r}") from exc
    # Keep the numeric columns as float64 arrays alongside the list
    # form: TraceArrivals slices them straight into arrival blocks
    # instead of re-converting list slices, which is most of the replay
    # setup cost on million-row traces.  The values are the same
    # objects either way (tolist() round-trips float64 bitwise).
    columns._numeric_cache = (
        np.ascontiguousarray(rows["time"], dtype=np.float64),
        np.ascontiguousarray(rows["cost"], dtype=np.float64),
        np.ascontiguousarray(rows["bid"], dtype=np.float64),
    )
    return SimTrace(columns=columns)


def save_sim_trace(trace: object, path: "str | Path") -> None:
    """Write a simulation trace to *path* as the v2 ``.npz`` columns.

    The container is the same whatever *path* is called;
    :func:`load_sim_trace` sniffs it rather than trusting a suffix.
    """
    import io as _io

    import numpy as np

    buffer = _io.BytesIO()
    np.savez(buffer, **sim_trace_to_arrays(trace))
    _atomic_write(path, buffer.getvalue())


def load_sim_trace(path: "str | Path") -> object:
    """Read a trace file: what :func:`save_sim_trace` writes, or v1 JSON.

    The container is sniffed, not trusted from the suffix: a zip
    magic number means the v2 binary columns (loaded with
    ``allow_pickle=False`` — the numpy layer never unpickles),
    anything else the v1 JSON document earlier builds wrote.  Neither
    reader executes anything: a file holding pickled plans is refused
    with an error that says so.
    """
    raw = Path(path).read_bytes()
    if raw[:2] == b"PK":
        import io as _io
        import zipfile

        import numpy as np

        try:
            with np.load(_io.BytesIO(raw), allow_pickle=False) as data:
                return sim_trace_from_arrays(data)
        except (ValueError, OSError, KeyError,
                zipfile.BadZipFile) as exc:
            raise ValidationError(
                f"malformed binary trace file {str(path)!r}: "
                f"{exc!r}") from exc
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(
            f"malformed trace file {str(path)!r}: {exc!r}") from exc
    return sim_trace_from_dict(payload)


# ----------------------------------------------------------------------
# Simulation snapshots (versioned pickle envelope)
# ----------------------------------------------------------------------


def save_sim_snapshot(snapshot: object, path: "str | Path") -> None:
    """Write a simulation snapshot as a versioned pickle envelope.

    *snapshot* is a :class:`~repro.sim.SimSnapshot` (from
    :meth:`SimulationDriver.snapshot`): the driver's clock, event
    queue, arrival-process RNGs, subscription books and probes, plus
    the host service/cluster snapshot.  The usual pickle rules apply —
    module-level functions only, and only load files you trust.
    """
    _atomic_write(path, pickle.dumps({
        "schema": SIM_SNAPSHOT_SCHEMA,
        "version": SIM_SNAPSHOT_VERSION,
        "snapshot": snapshot,
    }, protocol=pickle.HIGHEST_PROTOCOL))


def load_sim_snapshot(path: "str | Path") -> object:
    """Read a snapshot envelope written by :func:`save_sim_snapshot`."""
    envelope = _read_pickle_envelope(path, "simulation snapshot")
    _check_envelope(envelope, "simulation snapshot",
                    "simulation snapshot", "simulation-snapshot",
                    SIM_SNAPSHOT_SCHEMA, SIM_SNAPSHOT_VERSION)
    return envelope["snapshot"]


# ----------------------------------------------------------------------
# Cluster snapshots (one envelope composing the per-shard envelopes)
# ----------------------------------------------------------------------


def save_cluster_snapshot(snapshot: object, path: "str | Path") -> None:
    """Write a cluster snapshot as one versioned pickle envelope.

    *snapshot* is a :class:`~repro.cluster.ClusterSnapshot`.  Each
    shard's :class:`~repro.service.ServiceSnapshot` is wrapped in the
    same envelope :func:`save_snapshot` writes, so the cluster format
    *composes* the service format instead of forking it — a cluster
    file is N shard checkpoints plus the federation state (placement
    policy, rebalancer, period counter, report history).
    """
    envelope = {
        "schema": CLUSTER_SNAPSHOT_SCHEMA,
        "version": CLUSTER_SNAPSHOT_VERSION,
        "cluster": {
            "state_version": snapshot.version,
            "placement": snapshot.placement,
            "rebalancer": snapshot.rebalancer,
            "period": snapshot.period,
            "reports": snapshot.reports,
        },
        "shards": [_snapshot_envelope(shard) for shard in snapshot.shards],
    }
    _atomic_write(
        path, pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL))


def load_cluster_snapshot(path: "str | Path") -> object:
    """Read a cluster snapshot written by :func:`save_cluster_snapshot`.

    Every embedded shard envelope is validated with the same rules as
    a standalone service checkpoint.  Pickle executes code on load —
    only open snapshot files you trust.
    """
    from repro.cluster.federation import ClusterSnapshot

    envelope = _read_pickle_envelope(path, "cluster snapshot")
    _check_envelope(envelope, "cluster snapshot", "cluster snapshot",
                    "cluster-snapshot", CLUSTER_SNAPSHOT_SCHEMA,
                    CLUSTER_SNAPSHOT_VERSION)
    try:
        cluster = envelope["cluster"]
        shards = tuple(
            _unwrap_snapshot_envelope(shard, str(path))
            for shard in envelope["shards"])
        return ClusterSnapshot(
            version=cluster["state_version"],
            placement=cluster["placement"],
            rebalancer=cluster["rebalancer"],
            period=cluster["period"],
            reports=cluster["reports"],
            shards=shards,
        )
    except (KeyError, TypeError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(
            f"malformed cluster snapshot file {str(path)!r}: "
            f"{exc!r}") from exc


# ----------------------------------------------------------------------
# Serving-layer wire schemas (versioned request/response envelopes)
# ----------------------------------------------------------------------

#: Operations a gateway request may name.
SERVE_OPS = ("submit", "subscribe", "withdraw")


@dataclass(frozen=True)
class ServeRequest:
    """One validated gateway request body.

    ``op`` is one of :data:`SERVE_OPS`; ``submit``/``subscribe`` carry
    a query plan (and ``subscribe`` a subscription category),
    ``withdraw`` carries the query id to pull back.
    """

    op: str
    query: "object | None" = None
    query_id: "str | None" = None
    category: "str | None" = None

    def __post_init__(self) -> None:
        if self.op not in SERVE_OPS:
            raise ValidationError(
                f"unknown serve op {self.op!r}; this build handles "
                f"{', '.join(SERVE_OPS)}")
        if self.op in ("submit", "subscribe") and self.query is None:
            raise ValidationError(f"a {self.op!r} request needs a query")
        if self.op == "subscribe" and self.category is None:
            raise ValidationError(
                "a 'subscribe' request needs a category")
        if self.op == "withdraw" and not self.query_id:
            raise ValidationError("a 'withdraw' request needs a query_id")


def serve_request_to_dict(request: ServeRequest) -> dict:
    """Versioned JSON document for one gateway request.

    Query plans ride the sim-trace codec
    (:func:`repro.sim.trace.encode_query`), which carries single
    pass-all select plans and refuses anything else at the sender.
    """
    from repro.sim.trace import encode_query

    document: dict[str, object] = {
        "schema": SERVE_REQUEST_SCHEMA,
        "version": SERVE_REQUEST_VERSION,
        "op": request.op,
    }
    if request.query is not None:
        document["query"] = encode_query(request.query)
    if request.query_id is not None:
        document["query_id"] = request.query_id
    if request.category is not None:
        document["category"] = request.category
    return document


#: The canonical JSON encoder every wire body and WAL record uses
#: (sorted keys, no spaces, ASCII): the reference the direct writers
#: below must match byte for byte, and what they fall back to for a
#: value outside their fast cases.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_json_string = json.encoder.encode_basestring_ascii


def _json_str(value: object) -> str:
    return (_json_string(value) if type(value) is str
            else _CANONICAL.encode(value))


def _json_number(value: object) -> str:
    if type(value) is float:
        if value - value == 0.0:        # finite: repr is its JSON
            return float.__repr__(value)
    elif type(value) is int:
        return int.__repr__(value)
    return _CANONICAL.encode(value)


_OWNER = ',"owner":'
_VALUATION = ',"valuation":'


def serve_request_body(query, category: "str | None" = None) -> bytes:
    """The canonical bytes of a submit (or, with a *category*, a
    subscribe) of *query*, written straight from its select row.

    Equal to ``json_body(serve_request_to_dict(ServeRequest(...)))``
    — the keys in sorted order, each value as the canonical encoder
    writes it — without building the request, the dict or the sorted
    encoding.  A plan with no select row is refused as
    :func:`serve_request_to_dict` refuses it.
    """
    from repro.sim.trace import require_select_plan

    plan = require_select_plan(query)
    head = ('{"op":"submit"' if category is None else
            '{"category":' + _json_str(category) + ',"op":"subscribe"')
    owner, valuation = plan.owner, plan.valuation
    return (f'{head},"query":{{"bid":{_json_number(plan.bid)},'
            f'"cost":{_json_number(plan.cost)},'
            f'"id":{_json_str(plan.query_id)},"op":{_json_str(plan.op_id)}'
            f'{"" if owner is None else _OWNER + _json_str(owner)},'
            f'"plan":"select",'
            f'"selectivity":{_json_number(plan.selectivity)},'
            f'"stream":{_json_str(plan.stream)}'
            f'{"" if valuation is None else _VALUATION + _json_number(valuation)}'
            f'}},"schema":"{SERVE_REQUEST_SCHEMA}",'
            f'"version":{SERVE_REQUEST_VERSION}}}').encode("ascii")


def serve_request_from_dict(payload: object) -> ServeRequest:
    """Parse and validate a :func:`serve_request_to_dict` document.

    The same call reads a request body off a socket and an op record
    out of the WAL; the query plan goes through
    :func:`repro.sim.trace.decode_query`, which reads ``'select'``
    rows only and never executes anything the sender chose.
    """
    from repro.sim.trace import decode_query

    if not isinstance(payload, dict):
        raise ValidationError(
            f"malformed serve request: expected an object, got "
            f"{type(payload).__name__}")
    schema = payload.get("schema")
    if schema != SERVE_REQUEST_SCHEMA:
        raise ValidationError(
            f"not a serve request (schema {schema!r}, expected "
            f"{SERVE_REQUEST_SCHEMA!r})")
    version = payload.get("version")
    if version != SERVE_REQUEST_VERSION:
        raise ValidationError(
            f"unsupported serve-request version {version!r}; this "
            f"build reads version {SERVE_REQUEST_VERSION}")
    try:
        op = payload["op"]
    except KeyError:
        raise ValidationError(
            "malformed serve request: missing 'op'") from None
    query = payload.get("query")
    if query is not None:
        query = decode_query(query)
    return ServeRequest(
        op=str(op),
        query=query,
        query_id=payload.get("query_id"),
        category=payload.get("category"),
    )


def serve_response_to_dict(
    status: str, request_id: str, **fields: object
) -> dict:
    """Versioned JSON document for one gateway response.

    ``status`` is the application-level outcome (``"ok"``,
    ``"queued"``, ``"throttled"``, ``"error"``...); extra *fields*
    (shard, report, error message) merge into the envelope.
    """
    return {
        "schema": SERVE_RESPONSE_SCHEMA,
        "version": SERVE_RESPONSE_VERSION,
        "status": str(status),
        "request_id": str(request_id),
        **fields,
    }


def serve_ok_body(op: str, request_id: str, query_id: str, pending: int,
                  *, period: "int | None" = None,
                  shard: "int | None" = None,
                  category: "str | None" = None) -> bytes:
    """The canonical bytes of the ``ok`` answer to one mutation.

    Equal to ``json_body(serve_response_to_dict("ok", request_id,
    **fields))`` for the gateway's answer to *op*, written straight to
    bytes.  The fields are ``query_id`` and ``pending``, plus:

    * ``submit`` — ``period`` and ``shard`` (``null`` when the backend
      names none);
    * ``subscribe`` — ``period`` and ``category``;
    * ``withdraw`` — ``withdrawn: true``.
    """
    before = ('{"category":' + _json_str(category) + ","
              if op == "subscribe" else "{")
    period_field = ("" if op == "withdraw" else
                    f'"period":{_json_number(period)},')
    shard_field = (f'"shard":{_json_number(shard)},' if op == "submit"
                   else "")
    after = ',"withdrawn":true' if op == "withdraw" else ""
    return (f'{before}"pending":{_json_number(pending)},{period_field}'
            f'"query_id":{_json_str(query_id)},'
            f'"request_id":{_json_str(request_id)},'
            f'"schema":"{SERVE_RESPONSE_SCHEMA}",{shard_field}'
            f'"status":"ok","version":{SERVE_RESPONSE_VERSION}{after}}}'
            ).encode("ascii")


def serve_response_from_dict(payload: object) -> dict:
    """Validate a :func:`serve_response_to_dict` envelope, return it."""
    _check_envelope(payload, "serve response", "serve response",
                    "serve-response", SERVE_RESPONSE_SCHEMA,
                    SERVE_RESPONSE_VERSION)
    if "status" not in payload or "request_id" not in payload:
        raise ValidationError(
            "malformed serve response: missing 'status'/'request_id'")
    return payload
