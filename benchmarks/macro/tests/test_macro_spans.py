"""Span accounting and clean installation/removal of the wrappers."""

import asyncio

import pytest
import spans


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def by_name(tracer):
    return {span.name: span for span in tracer.spans}


def test_self_time_is_duration_minus_children_sync_and_async():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.advance(2.0)

    leaf = spans._wrap(tracer, leaf, "core:leaf", "core", False)

    async def inner():
        clock.advance(1.0)
        leaf()
        await asyncio.sleep(0)      # suspended: nobody's busy time
        clock.advance(4.0)

    inner = spans._wrap(tracer, inner, "io:inner", "io", False)

    async def outer():
        clock.advance(0.5)
        await inner()
        clock.advance(0.25)
        leaf()

    outer = spans._wrap(tracer, outer, "serve.gateway:outer",
                        "serve.gateway", False)
    asyncio.run(outer())

    found = by_name(tracer)
    assert len(tracer.spans) == 4
    assert found["io:inner"].busy == pytest.approx(7.0)
    assert found["io:inner"].self_time == pytest.approx(5.0)
    assert found["serve.gateway:outer"].busy == pytest.approx(9.75)
    assert found["serve.gateway:outer"].self_time == pytest.approx(0.75)
    assert sum(span.self_time for span in tracer.spans) == \
        pytest.approx(clock.now)
    # Parent links and the shared per-request id.
    root = found["serve.gateway:outer"]
    assert root.parent is None
    assert found["io:inner"].parent is root
    assert {span.rid for span in tracer.spans} == {root.id}


def test_an_awaited_sleep_bills_no_busy_time():
    tracer = spans.Tracer()

    async def waits():
        await asyncio.sleep(0.05)
        return "done"

    waits = spans._wrap(tracer, waits, "serve.http:waits",
                        "serve.http", False)
    assert asyncio.run(waits()) == "done"
    (span,) = tracer.spans
    assert span.end - span.start >= 0.045
    assert span.busy < 0.01


def test_a_child_stepping_in_another_task_is_not_subtracted():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    async def child():
        clock.advance(3.0)

    child = spans._wrap(tracer, child, "io:child", "io", False)

    async def parent():
        clock.advance(1.0)
        # wait_for-style: the child runs in its own task while the
        # parent is suspended, so its time was never in parent.busy.
        await asyncio.create_task(child())
        clock.advance(1.0)

    parent = spans._wrap(tracer, parent, "service:parent", "service",
                         False)
    asyncio.run(parent())
    found = by_name(tracer)
    assert found["service:parent"].busy == pytest.approx(2.0)
    assert found["service:parent"].self_time == pytest.approx(2.0)
    assert found["io:child"].parent is found["service:parent"]


def test_exceptions_pass_through_and_close_the_span():
    tracer = spans.Tracer()

    def boom():
        raise KeyError("x")

    boom = spans._wrap(tracer, boom, "wal:boom", "wal", False)
    with pytest.raises(KeyError):
        boom()
    assert not tracer.spans[0].active


def test_install_wraps_and_remove_restores_everything():
    import repro.io
    import repro.serve.gateway as gateway
    import repro.serve.http as http
    import repro.serve.loadgen as loadgen
    from repro.core.fastpath.index import InstanceIndex
    from repro.service.service import AdmissionService

    before = {
        "read_request": http.read_request,
        "gateway_from_dict": gateway.serve_request_from_dict,
        "loadgen_to_dict": loadgen.serve_request_to_dict,
        "submit": AdmissionService.__dict__["submit"],
        "of": InstanceIndex.__dict__["of"],
    }
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    assert len(installed) >= len(spans.TARGETS)
    assert http.read_request.__macro_traced__
    # The name imported into another module is patched too.
    assert gateway.serve_request_from_dict is repro.io.serve_request_from_dict
    assert gateway.serve_request_from_dict.__macro_traced__
    assert loadgen.serve_request_to_dict.__macro_traced__
    assert isinstance(InstanceIndex.__dict__["of"], classmethod)
    http.json_body({"a": 1})
    assert [span.name for span in tracer.spans] == ["serve.http:json_body"]

    installed.remove()
    assert len(installed) == 0
    assert http.read_request is before["read_request"]
    assert gateway.serve_request_from_dict is before["gateway_from_dict"]
    assert loadgen.serve_request_to_dict is before["loadgen_to_dict"]
    assert AdmissionService.__dict__["submit"] is before["submit"]
    assert InstanceIndex.__dict__["of"] is before["of"]
    # An untraced run after a traced one, same process: no new spans.
    http.json_body({"a": 1})
    assert len(tracer.spans) == 1


def test_layer_names_match_the_benchmark_contract():
    import report

    declared = {definition["name"]
                for definition in report.load_spec()["per_layer"]}
    for layer in spans.LAYERS:
        assert f"{layer}.busy_us_per_op" in declared
        assert f"{layer}.calls_per_op" in declared
    assert {target[0] for target in spans.TARGETS} <= set(spans.LAYERS)
