"""Checkpoint/restore: the resumed service is bit-identical.

The acceptance bar: a service checkpointed after period N and restored
must produce byte-identical ``PeriodReport`` documents for periods
N+1... compared with the uninterrupted run under the same seed — RNG
state (mechanism and sources), engine counters, ledger and pending
queue all survive the round trip.
"""

import json

import pytest

from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.streams import SyntheticStream
from repro.io import (
    SNAPSHOT_SCHEMA,
    load_snapshot,
    report_to_dict,
    save_snapshot,
)
from repro.service import AdmissionService, ServiceBuilder, ServiceSnapshot
from repro.utils.validation import ValidationError


def accept_all(_tuple):
    """Module-level predicate so the plans pickle."""
    return True


def make_query(qid, bid, cost):
    op_id = f"sel_{qid}"
    sel = SelectOperator(op_id, "s", accept_all,
                         cost_per_tuple=cost, selectivity_estimate=1.0)
    return ContinuousQuery(qid, (sel,), sink_id=op_id, bid=bid, owner=qid)


def build_service(mechanism="two-price:seed=7"):
    return (ServiceBuilder()
            .with_sources(SyntheticStream("s", rate=5, seed=3))
            .with_capacity(30.0)
            .with_mechanism(mechanism)
            .with_ticks_per_period(10)
            .build())


def batch(period):
    return [make_query(f"p{period}q{i}", 10.0 * (i + 1) + period,
                       1.0 + 0.5 * i)
            for i in range(3)]


def report_bytes(report):
    return json.dumps(report_to_dict(report), sort_keys=True).encode()


@pytest.mark.parametrize("mechanism", ["CAT", "two-price:seed=7"])
def test_restore_is_byte_identical(mechanism):
    service = build_service(mechanism)
    service.run_periods([batch(1), batch(2)])
    snapshot = service.snapshot()

    uninterrupted = service.run_periods([batch(3), batch(4)])

    resumed = AdmissionService.restore(snapshot)
    replayed = resumed.run_periods([batch(3), batch(4)])

    for original, again in zip(uninterrupted, replayed):
        assert report_bytes(original) == report_bytes(again)
    assert resumed.total_revenue() == service.total_revenue()


def test_disk_round_trip_is_byte_identical(tmp_path):
    service = build_service()
    service.run_periods([batch(1), batch(2)])
    path = tmp_path / "service.ckpt"
    service.save_checkpoint(path)

    uninterrupted = service.run_periods([batch(3)])

    resumed = AdmissionService.load_checkpoint(path)
    replayed = resumed.run_periods([batch(3)])
    assert report_bytes(uninterrupted[0]) == report_bytes(replayed[0])


def test_snapshot_is_isolated_from_the_live_service(tmp_path):
    """Mutating the service after snapshotting must not leak into the
    snapshot, and one snapshot restores any number of times."""
    service = build_service()
    service.run_periods([batch(1)])
    snapshot = service.snapshot()
    service.run_periods([batch(2), batch(3)])

    first = AdmissionService.restore(snapshot)
    second = AdmissionService.restore(snapshot)
    assert first.period == second.period == 1
    r_first = first.run_periods([batch(2)])[0]
    r_second = second.run_periods([batch(2)])[0]
    assert report_bytes(r_first) == report_bytes(r_second)


def test_pending_queue_survives_checkpoint(tmp_path):
    service = build_service()
    service.run_periods([batch(1)])
    service.submit(make_query("queued", 99.0, 1.0))
    path = tmp_path / "service.ckpt"
    service.save_checkpoint(path)

    resumed = AdmissionService.load_checkpoint(path)
    assert resumed.pending_ids == {"queued"}
    report = resumed.run_period()
    assert "queued" in report.admitted


def test_snapshot_version_mismatch_rejected():
    service = build_service()
    service.run_periods([batch(1)])
    snapshot = service.snapshot()
    stale = ServiceSnapshot(version=99, state=snapshot.state)
    with pytest.raises(ValidationError, match="version 99"):
        AdmissionService.restore(stale)


def test_snapshot_missing_state_rejected():
    with pytest.raises(ValidationError, match="missing state"):
        ServiceSnapshot(version=1, state={"capacity": 1.0})


def test_snapshot_file_validation(tmp_path):
    bogus = tmp_path / "bogus.ckpt"
    bogus.write_bytes(b"not a pickle at all")
    with pytest.raises(ValidationError, match="malformed snapshot"):
        load_snapshot(bogus)

    import pickle

    wrong_schema = tmp_path / "wrong.ckpt"
    wrong_schema.write_bytes(pickle.dumps(
        {"schema": "repro/other", "version": 1, "snapshot": None}))
    with pytest.raises(ValidationError, match=SNAPSHOT_SCHEMA):
        load_snapshot(wrong_schema)

    service = build_service()
    service.run_periods([batch(1)])
    good = tmp_path / "good.ckpt"
    save_snapshot(service.snapshot(), good)
    assert isinstance(load_snapshot(good), ServiceSnapshot)


def test_snapshot_from_a_build_with_the_columnar_backend_is_refused():
    """``tests/data/service.columnar.checkpoint`` is
    ``tests/checkpoints.py::build_service`` with
    ``.with_backend("columnar:batch=128")`` after three periods,
    written by the last build that had that backend (never rewritten
    by ``tests.checkpoints write``).  Its engine holds
    ``repro.dsms.columnar`` state this build cannot resume: a one-line
    refusal that names it, not a traceback."""
    from tests.checkpoints import DATA

    with pytest.raises(ValidationError) as refused:
        load_snapshot(DATA / "service.columnar.checkpoint")
    message = str(refused.value)
    assert "written by a build that has repro.dsms.columnar" in message
    assert "malformed" not in message


def test_hooks_are_reattached_not_restored(tmp_path):
    calls = []
    service = build_service()
    service.hooks.add("on_billing", lambda *a: calls.append("live"))
    service.run_periods([batch(1)])
    snapshot = service.snapshot()

    resumed = AdmissionService.restore(snapshot)
    assert resumed.hooks.hooks("on_billing") == ()

    from repro.service import HookRegistry

    hooks = HookRegistry()
    hooks.add("on_billing", lambda *a: calls.append("resumed"))
    rewired = AdmissionService.restore(snapshot, hooks=hooks)
    rewired.run_periods([batch(2)])
    assert calls.count("resumed") == 1
