"""The report bodies joined from cached row fragments are the dict
path's bytes.

The gateway answers ``/v1/tick`` and ``/v1/report`` for a host with
:func:`repro.io.serve_report_body` over :func:`repro.io.report_body`:
each query entry and operator load of a shard's instance was written to
JSON once, when the admission service priced its row, and the tick only
joins them.  Whatever the period held, the result must equal
``json_body(serve_response_to_dict("ok", rid, period=…,
report=report_document(report)))`` byte for byte, and the fragments
must never reach a pickle.
"""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FederatedAdmissionService
from repro.core.mechanism import registered_mechanisms
from repro.dsms.operators import SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.dsms.streams import SyntheticStream
from repro.io import report_body, serve_report_body, serve_response_to_dict
from repro.serve.gateway import report_document
from repro.serve.http import json_body
from repro.service import ServiceBuilder
from repro.sim.arrivals import pass_all

pytestmark = pytest.mark.serve

#: Ids a writer must escape, next to plain ones.
IDS = st.one_of(
    st.text(min_size=1, max_size=6),
    st.sampled_from(['q"1', "café", "☃\U0001f600", "a\\b",
                     "new\nline", "\x00\x1f", "</x>"]))

#: A bid, or a valuation, as plain JSON numbers or not.
NUMBERS = st.one_of(st.floats(0.0, 100.0), st.integers(0, 100))


@st.composite
def rounds(draw):
    """A host and the submissions of one to three periods."""
    shards = draw(st.integers(0, 4))        # 0: a bare service
    mechanism = draw(st.sampled_from(sorted(registered_mechanisms())))
    capacity = draw(st.floats(1.0, 30.0))
    ids = iter(draw(st.lists(IDS, min_size=12, max_size=12, unique=True)))
    # k-unit auctions only equal loads.
    equal_cost = (draw(st.floats(0.25, 3.0)) if mechanism == "k-unit"
                  else None)
    periods = []
    for _ in range(draw(st.integers(1, 3))):
        batch = []
        for _ in range(draw(st.integers(0, 4))):
            query_id = next(ids)
            op = SelectOperator(
                f"sel_{query_id}", "s", pass_all,
                cost_per_tuple=(equal_cost if equal_cost is not None
                                else draw(st.floats(0.25, 3.0))),
                selectivity_estimate=1.0)
            batch.append(ContinuousQuery(
                query_id, (op,), sink_id=op.op_id,
                bid=draw(NUMBERS),
                valuation=draw(st.none() | NUMBERS
                               | st.just(math.inf)),
                owner=draw(st.none() | IDS)))
        periods.append(batch)
    return shards, mechanism, capacity, periods


def build_host(shards: int, mechanism: str,
               capacity: float) -> FederatedAdmissionService:
    sources = [SyntheticStream("s", rate=2.0, seed=0)]
    if not shards:
        return FederatedAdmissionService.of(
            ServiceBuilder().with_sources(*sources)
            .with_capacity(capacity).with_mechanism(mechanism)
            .with_ticks_per_period(2).build())
    return FederatedAdmissionService.build(
        num_shards=shards, sources=sources, capacity=capacity,
        mechanism=mechanism, ticks_per_period=2,
        placement="round-robin")


def dict_bodies(request_id: str, period: int, report: object,
                revenue: float) -> "tuple[bytes, bytes]":
    """The tick and /v1/report bodies the dict path renders."""
    document = report_document(report)
    return (json_body(serve_response_to_dict(
                "ok", request_id, period=period, report=document)),
            json_body(serve_response_to_dict(
                "ok", request_id, period=period, revenue=revenue,
                report=document)))


def joined_bodies(request_id: str, period: int, report: object,
                  revenue: float) -> "tuple[bytes, bytes]":
    """The same two bodies as the gateway writes them for a host."""
    rendered = report_body(report)
    return (serve_report_body(request_id, period, rendered),
            serve_report_body(request_id, period, rendered,
                              revenue=revenue))


def shard_reports(report: object) -> tuple:
    return getattr(report, "shard_reports", (report,))


class TestJoinedBodiesAreTheDictBodies:
    @settings(max_examples=150, deadline=None)
    @given(scenario=rounds(), request_id=IDS)
    def test_every_period(self, scenario, request_id):
        shards, mechanism, capacity, periods = scenario
        host = build_host(shards, mechanism, capacity)
        for batch in periods:
            for query in batch:
                host.submit(query)
            report = host.run_period()
            args = (request_id, host.period, report, host.total_revenue())
            assert joined_bodies(*args) == dict_bodies(*args)
            # The newest auction joined its fragments (an idle shard's
            # empty instance has none and is encoded).
            for shard in shard_reports(report):
                instance = shard.outcome.instance
                assert ((getattr(instance, "_json_fragments", None)
                         is not None) == bool(instance.queries))
            # A restored report holds no fragments: every row is
            # encoded, to the same bytes.
            restored = pickle.loads(pickle.dumps(report))
            args = (request_id, host.period, restored, host.total_revenue())
            assert joined_bodies(*args) == dict_bodies(*args)

    def test_migrations_and_non_finite_values(self):
        """A rebalanced period, and values only the canonical encoder
        writes: an infinite valuation in a fragment, a utilization of
        ``None`` and a NaN revenue in what the period decided."""
        host = build_host(2, "CAT", 7.0)
        for index in range(9):
            op = SelectOperator(f"sel_{index}", "s", pass_all,
                                cost_per_tuple=0.5 + 0.3 * index,
                                selectivity_estimate=1.0)
            host.submit(ContinuousQuery(
                f"q{index}", (op,), sink_id=op.op_id, bid=1.0 + 1.5 * index,
                valuation=math.inf if index % 2 else None))
        report = host.run_period()
        assert report.migrations
        report = dataclasses.replace(report, shard_reports=tuple(
            dataclasses.replace(shard, engine_utilization=None,
                                revenue=math.nan)
            for shard in report.shard_reports))
        args = ("r000001", host.period, report, math.inf)
        joined = joined_bodies(*args)
        assert joined == dict_bodies(*args)
        assert b"Infinity" in joined[0] and b"NaN" in joined[0]


class TestFragmentsAreDerivedState:
    def test_a_snapshot_pickles_the_same_bytes_without_them(self):
        host = build_host(3, "CAT", 10.0)
        for index in range(12):
            op = SelectOperator(f"sel_{index}", "s", pass_all,
                                cost_per_tuple=1.0, selectivity_estimate=1.0)
            host.submit(ContinuousQuery(f"q{index}", (op,), sink_id=op.op_id,
                                        bid=float(index), owner="o"))
        host.run_period()
        instances = [shard.outcome.instance
                     for shard in host.reports[-1].shard_reports]
        assert all(vars(instance).get("_json_fragments") is not None
                   for instance in instances)
        with_fragments = pickle.dumps(host.snapshot())
        for instance in instances:
            del vars(instance)["_json_fragments"]
        assert pickle.dumps(host.snapshot()) == with_fragments

    def test_only_the_newest_instance_keeps_them(self):
        """Each build takes the previous instance's fragments back, so
        the reports a host keeps hold one period's worth at most."""
        host = build_host(0, "CAT", 10.0)
        for period in range(3):
            op = SelectOperator(f"sel_{period}", "s", pass_all,
                                cost_per_tuple=1.0, selectivity_estimate=1.0)
            host.submit(ContinuousQuery(f"q{period}", (op,),
                                        sink_id=op.op_id, bid=1.0))
            host.run_period()
        reports = host.shards[0].reports
        assert [vars(report.outcome.instance).get("_json_fragments")
                is not None for report in reports] == [False, False, True]
