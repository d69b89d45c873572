"""Serving-layer wire schemas: request/response envelopes."""

import asyncio
import base64
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import (
    ServeRequest,
    serve_ok_body,
    serve_request_body,
    serve_request_from_dict,
    serve_request_to_dict,
    serve_response_from_dict,
    serve_response_to_dict,
)
from repro.serve.http import json_body
from repro.utils.validation import ValidationError
from repro.wal.records import encode_json
from tests.strategies import select_plans, select_query

#: Category names, request ids and query ids a writer must escape.
NAMES = st.one_of(
    st.text(max_size=10),
    st.sampled_from(["day", 'q"1', "caf\u00e9", "\u2603", "a\\b",
                     "\n\x00"]))


class TestServeRequest:
    def test_submit_round_trip(self):
        query = select_query("q1", "alice", bid=4.0, cost=2.0)
        request = ServeRequest(op="submit", query=query)
        parsed = serve_request_from_dict(serve_request_to_dict(request))
        assert parsed.op == "submit"
        assert parsed.query.query_id == "q1"
        assert parsed.query.bid == pytest.approx(4.0)
        assert parsed.category is None

    def test_subscribe_round_trip_keeps_category(self):
        query = select_query("q2", "bob", bid=3.0, cost=1.0)
        request = ServeRequest(op="subscribe", query=query,
                               category="gold")
        parsed = serve_request_from_dict(serve_request_to_dict(request))
        assert parsed.op == "subscribe"
        assert parsed.category == "gold"

    def test_compact_select_round_trip_needs_no_opt_in(self):
        # Synthetic pass-all selects use the compact 'select' codec —
        # the only plan shape an untrusting server accepts.
        import numpy as np

        from repro.sim.arrivals import synthetic_query

        query = synthetic_query(np.random.default_rng(0), 1)
        document = serve_request_to_dict(
            ServeRequest(op="submit", query=query))
        assert document["query"]["plan"] == "select"
        parsed = serve_request_from_dict(document)
        assert parsed.query.query_id == query.query_id
        assert parsed.query.bid == pytest.approx(query.bid)

    def test_pickle_plan_refused_without_opt_in(self, monkeypatch):
        # pickle.loads on wire bytes is remote code execution; the
        # parse must refuse before any unpickling happens — and there
        # is no opt-in any more.
        def loads(*_args, **_kwargs):
            raise AssertionError("wire bytes reached pickle.loads")

        query = select_query("q1", "alice", bid=4.0, cost=2.0)
        document = serve_request_to_dict(
            ServeRequest(op="submit", query=query))
        document["query"] = {
            "plan": "pickle", "id": "q1",
            "data": base64.b64encode(
                pickle.dumps(query)).decode("ascii")}
        monkeypatch.setattr(pickle, "loads", loads)
        with pytest.raises(ValidationError,
                           match="unknown trace plan encoding 'pickle'"):
            serve_request_from_dict(document)
        with pytest.raises(TypeError):
            serve_request_from_dict(document, allow_pickle=True)

    def test_withdraw_round_trip(self):
        request = ServeRequest(op="withdraw", query_id="q9")
        parsed = serve_request_from_dict(serve_request_to_dict(request))
        assert parsed.op == "withdraw"
        assert parsed.query_id == "q9"
        assert parsed.query is None

    def test_unknown_op_rejected(self):
        with pytest.raises(ValidationError, match="unknown serve op"):
            ServeRequest(op="teleport")

    def test_submit_without_query_rejected(self):
        with pytest.raises(ValidationError, match="needs a query"):
            ServeRequest(op="submit")

    def test_subscribe_without_category_rejected(self):
        query = select_query("q3", "carol", bid=1.0, cost=1.0)
        with pytest.raises(ValidationError, match="needs a category"):
            ServeRequest(op="subscribe", query=query)

    def test_withdraw_without_id_rejected(self):
        with pytest.raises(ValidationError, match="needs a query_id"):
            ServeRequest(op="withdraw")

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValidationError, match="not a serve request"):
            serve_request_from_dict({"schema": "repro/other",
                                     "version": 1, "op": "submit"})

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError, match="expected an object"):
            serve_request_from_dict([1, 2, 3])


class TestServeResponse:
    def test_round_trip_with_fields(self):
        document = serve_response_to_dict(
            "ok", "r000001", shard=2, query_id="q1")
        parsed = serve_response_from_dict(document)
        assert parsed["status"] == "ok"
        assert parsed["request_id"] == "r000001"
        assert parsed["shard"] == 2

    def test_missing_status_rejected(self):
        document = serve_response_to_dict("ok", "r1")
        del document["status"]
        with pytest.raises(ValidationError, match="missing"):
            serve_response_from_dict(document)

    def test_wrong_version_rejected(self):
        document = serve_response_to_dict("ok", "r1")
        document["version"] = 99
        with pytest.raises(ValidationError, match="version"):
            serve_response_from_dict(document)


class TestDirectWritersAreByteIdentical:
    """The bodies written straight to bytes are the canonical encoding
    of the documents they stand for, whatever the plan holds."""

    @settings(max_examples=300, deadline=None)
    @given(plan=select_plans(), category=st.none() | NAMES)
    def test_request_body(self, plan, category):
        op = "submit" if category is None else "subscribe"
        document = serve_request_to_dict(
            ServeRequest(op=op, query=plan, category=category))
        body = serve_request_body(plan, category)
        assert body == json_body(document)
        # The WAL op record frames the same canonical bytes.
        assert body == encode_json(document)

    def test_request_body_refuses_what_the_dict_refuses(self):
        from repro.dsms.operators import SelectOperator
        from repro.dsms.plan import ContinuousQuery

        op = SelectOperator("sel", "s", lambda _tuple: True,
                            cost_per_tuple=1.0)
        query = ContinuousQuery("q", (op,), sink_id="sel", bid=1.0)
        with pytest.raises(ValidationError, match="single pass-all"):
            serve_request_to_dict(ServeRequest(op="submit", query=query))
        with pytest.raises(ValidationError, match="single pass-all"):
            serve_request_body(query)

    @settings(max_examples=300, deadline=None)
    @given(request_id=NAMES, query_id=NAMES,
           pending=st.integers(0, 2 ** 40),
           period=st.integers(0, 2 ** 40),
           shard=st.none() | st.integers(0, 64), category=NAMES)
    def test_ok_answers(self, request_id, query_id, pending, period,
                        shard, category):
        cases = (
            ("submit", {"query_id": query_id, "shard": shard,
                        "period": period, "pending": pending}),
            ("subscribe", {"query_id": query_id, "category": category,
                           "period": period, "pending": pending}),
            ("withdraw", {"query_id": query_id, "withdrawn": True,
                          "pending": pending}),
        )
        for op, fields in cases:
            expected = json_body(
                serve_response_to_dict("ok", request_id, **fields))
            assert serve_ok_body(
                op, request_id, query_id, pending, period=period,
                shard=shard, category=category) == expected, op

    def test_a_submit_with_no_shard_answers_shard_null(self):
        body = serve_ok_body("submit", "r000001", "q1", 3, period=0)
        assert b'"shard":null' in body
        assert body == json_body(serve_response_to_dict(
            "ok", "r000001", query_id="q1", shard=None, period=0,
            pending=3))


class TestFrontEndIsGone:
    """PR 21 deleted the multi-process front-end: one gateway process,
    no routing header, no second deployment to import."""

    def test_submit_carries_no_affinity_header(self):
        from repro.serve import GatewayClient, http

        seen = []

        async def handle(reader, writer):
            seen.append(await http.read_request(reader, max_body=1 << 20))
            writer.write(http.render_response(
                200, http.json_body({}), keep_alive=False))
            await writer.drain()
            writer.close()

        async def go():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with GatewayClient("127.0.0.1", port,
                                     client_id="c1") as client:
                await client.submit(
                    select_query("q1", "owner1", bid=4.0, cost=1.0))
            server.close()
            await server.wait_closed()

        asyncio.run(go())
        assert sorted(seen[0].headers) == [
            "connection", "content-length", "content-type", "host",
            "x-client-id"]

    def test_front_end_names_are_not_importable(self):
        import repro.cluster
        import repro.serve
        import repro.wal

        for module, names in (
                (repro.serve, ("GatewaySupervisor", "WorkerGateway",
                               "FrontendConfig")),
                (repro.cluster, ("ShardAffinityMap", "affinity_key")),
                (repro.wal, ("recover_striped_gateway",
                             "resume_stripe"))):
            for name in names:
                assert not hasattr(module, name), (module.__name__, name)
        with pytest.raises(ImportError):
            from repro.serve import GatewaySupervisor  # noqa: F401
