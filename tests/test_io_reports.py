"""Registry round-trips and the versioned period-report schema."""

import json

import pytest

from repro.core import PAPER_MECHANISMS, MechanismSpec, make_mechanism
from repro.io import (
    PERIOD_REPORT_SCHEMA,
    PERIOD_REPORT_VERSION,
    full_outcome_to_dict,
    load_report,
    load_reports,
    outcome_from_dict,
    report_from_dict,
    report_to_dict,
    save_report,
    save_reports,
)
from repro.utils.validation import ValidationError
from repro.workload import example1


def _seeded(name):
    spec = MechanismSpec(name)
    return spec.with_params(seed=7) if spec.accepts("seed") else spec


class TestRegistryRoundTrips:
    """Every paper mechanism: registry → run → serialize → deserialize."""

    @pytest.mark.parametrize("name", PAPER_MECHANISMS)
    def test_make_mechanism_and_spec_agree(self, name):
        via_factory = make_mechanism(name, **dict(_seeded(name).params))
        via_spec = MechanismSpec.parse(str(_seeded(name))).create()
        instance = example1()
        assert dict(via_factory.run(instance).payments) == \
            dict(via_spec.run(instance).payments)

    @pytest.mark.parametrize("name", PAPER_MECHANISMS)
    def test_outcome_survives_io_round_trip(self, name):
        instance = example1()
        outcome = _seeded(name).create().run(instance)
        # Through JSON text, not just dicts: what a file would hold.
        payload = json.loads(json.dumps(full_outcome_to_dict(outcome)))
        again = outcome_from_dict(payload, instance)
        assert again.mechanism == outcome.mechanism
        assert again.winner_ids == outcome.winner_ids
        assert dict(again.payments) == pytest.approx(dict(outcome.payments))
        assert again.summary() == pytest.approx(outcome.summary())


def _period_report(mechanism="CAT"):
    from repro.service import PeriodReport

    outcome = make_mechanism(mechanism).run(example1())
    return PeriodReport(
        period=3,
        outcome=outcome,
        revenue=outcome.profit,
        admitted=tuple(sorted(outcome.winner_ids)),
        rejected=("q3",),
        engine_ticks=50,
        engine_utilization=0.85,
    )


class TestPeriodReportSchema:
    def test_document_is_versioned_and_self_contained(self):
        document = report_to_dict(_period_report())
        assert document["schema"] == PERIOD_REPORT_SCHEMA
        assert document["version"] == PERIOD_REPORT_VERSION
        assert document["instance"]["capacity"] == 10.0
        json.dumps(document)  # plain JSON, nothing exotic inside

    def test_round_trip_preserves_everything(self):
        report = _period_report()
        again = report_from_dict(
            json.loads(json.dumps(report_to_dict(report))))
        assert again.period == report.period
        assert again.revenue == report.revenue
        assert again.admitted == report.admitted
        assert again.rejected == report.rejected
        assert again.engine_ticks == report.engine_ticks
        assert again.engine_utilization == report.engine_utilization
        assert again.admission_rate == report.admission_rate
        assert dict(again.outcome.payments) == \
            pytest.approx(dict(report.outcome.payments))

    def test_report_is_an_immutable_record(self):
        """Checkpoints share reports instead of copying them."""
        import copy
        import dataclasses

        report = _period_report()
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.revenue = 0.0
        assert copy.deepcopy(report) is report
        amended = dataclasses.replace(report, revenue=1.5)
        assert (amended.revenue, report.revenue) == (1.5, report.outcome.profit)
        assert amended.outcome is report.outcome

    def test_file_round_trip(self, tmp_path):
        report = _period_report()
        path = tmp_path / "report.json"
        save_report(report, path)
        assert load_report(path).admitted == report.admitted

    def test_history_round_trip(self, tmp_path):
        reports = [_period_report("CAT"), _period_report("CAF")]
        path = tmp_path / "history.json"
        save_reports(reports, path)
        loaded = load_reports(path)
        assert [r.outcome.mechanism for r in loaded] == ["CAT", "CAF"]

    def test_mixed_type_details_still_serialize(self):
        """_jsonable must never crash a report — even on sets whose
        elements are not mutually comparable."""
        report = _period_report()
        object.__setattr__(report.outcome, "details",
                           {"weird": {1, "a", ("t",)}, "obj": object()})
        document = report_to_dict(report)
        json.dumps(document)
        assert len(document["outcome"]["details"]["weird"]) == 3

    def test_wrong_schema_rejected(self):
        document = report_to_dict(_period_report())
        document["schema"] = "repro/other"
        with pytest.raises(ValidationError, match="schema"):
            report_from_dict(document)

    def test_future_version_rejected(self):
        document = report_to_dict(_period_report())
        document["version"] = PERIOD_REPORT_VERSION + 1
        with pytest.raises(ValidationError, match="version"):
            report_from_dict(document)

    def test_malformed_document_rejected(self):
        with pytest.raises(ValidationError):
            report_from_dict({"schema": PERIOD_REPORT_SCHEMA,
                              "version": PERIOD_REPORT_VERSION})
        with pytest.raises(ValidationError):
            report_from_dict("not even an object")


class TestServiceReportsSerialize:
    def test_live_service_reports_round_trip(self, tmp_path):
        """Reports from an actual run (details and all) must survive."""
        from repro.dsms.operators import SelectOperator
        from repro.dsms.plan import ContinuousQuery
        from repro.dsms.streams import SyntheticStream
        from repro.service import ServiceBuilder

        service = (ServiceBuilder()
                   .with_sources(SyntheticStream("s", rate=5,
                                                 poisson=False, seed=0))
                   .with_capacity(30.0)
                   .with_mechanism("two-price:seed=7")
                   .with_ticks_per_period(5)
                   .build())
        for i, bid in enumerate([50, 40, 30]):
            op = SelectOperator(f"sel_q{i}", "s", lambda t: True,
                                cost_per_tuple=2.0,
                                selectivity_estimate=1.0)
            service.submit(ContinuousQuery(
                f"q{i}", (op,), sink_id=op.op_id, bid=float(bid)))
        report = service.run_period()
        path = tmp_path / "period.json"
        save_report(report, path)
        again = load_report(path)
        assert again.admitted == report.admitted
        assert again.revenue == pytest.approx(report.revenue)
