"""Span tracing from outside: wrappers around each layer's entry points.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces
the public functions and methods listed in :data:`TARGETS` — on the
module or class that defines them *and* on every ``repro`` module that
imported the name — with wrappers that record one :class:`Span` per
call; :meth:`Installed.remove` puts the originals back.

A span's **busy** time is the time its own frames were on the CPU: for
a plain call that is its duration; for a coroutine it is the sum of its
resume→suspend steps, so time parked on a socket is nobody's busy time.
Its **self** time is busy minus the busy time of spans that ran inside
those steps.  Per layer, self times add up without double counting, and
``wall − Σ self`` is what the event loop, the sockets and unwrapped glue
cost (reported as ``other``).
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

#: The repo's modules, as the per-layer metrics name them.
LAYERS = ("serve.http", "serve.backpressure", "serve.gateway",
          "serve.loadgen", "serve.logs", "io", "cluster", "service",
          "core", "dsms", "sim", "wal")

#: (layer, module, class or None, attribute[, option]) — option
#: ``"bytes"`` also totals ``len(result)``, ``"subclasses"`` patches
#: every subclass that defines the attribute itself.
TARGETS = (
    ("serve.http", "repro.serve.http", None, "read_request"),
    ("serve.http", "repro.serve.http", None, "read_response"),
    ("serve.http", "repro.serve.http", None, "render_request", "bytes"),
    ("serve.http", "repro.serve.http", None, "render_response", "bytes"),
    ("serve.http", "repro.serve.http", None, "json_body"),
    ("serve.backpressure", "repro.serve.backpressure", "TokenBucket",
     "try_acquire"),
    ("serve.gateway", "repro.serve.gateway", "AdmissionGateway",
     "_respond"),
    ("serve.gateway", "repro.serve.gateway", "AdmissionGateway",
     "_handle_submit"),
    ("serve.gateway", "repro.serve.gateway", "AdmissionGateway",
     "_handle_subscribe"),
    ("serve.gateway", "repro.serve.gateway", "AdmissionGateway",
     "_handle_withdraw"),
    ("serve.gateway", "repro.serve.gateway", "AdmissionGateway",
     "_handle_report"),
    ("serve.gateway", "repro.serve.gateway", "AdmissionGateway",
     "_handle_tick"),
    ("serve.gateway", "repro.serve.gateway", "AdmissionGateway",
     "metrics_document"),
    ("serve.gateway", "repro.serve.gateway", "HostBackend", "submit"),
    ("serve.gateway", "repro.serve.gateway", "HostBackend", "withdraw"),
    ("serve.gateway", "repro.serve.gateway", "HostBackend", "tick"),
    ("serve.gateway", "repro.serve.gateway", "DriverBackend", "submit"),
    ("serve.gateway", "repro.serve.gateway", "DriverBackend",
     "withdraw"),
    ("serve.gateway", "repro.serve.gateway", "DriverBackend", "tick"),
    ("serve.gateway", "repro.serve.gateway", None, "report_document"),
    ("serve.loadgen", "repro.serve.loadgen", "GatewayClient", "request"),
    ("serve.loadgen", "repro.serve.loadgen", "GatewayClient", "submit"),
    ("serve.loadgen", "repro.serve.loadgen", "GatewayClient", "withdraw"),
    ("serve.logs", "repro.serve.logs", "StructuredLog", "log"),
    ("io", "repro.io", None, "serve_request_from_dict"),
    ("io", "repro.io", None, "serve_request_to_dict"),
    ("io", "repro.io", None, "serve_response_to_dict"),
    ("io", "repro.io", None, "cluster_report_to_dict"),
    ("io", "repro.io", None, "report_to_dict"),
    ("io", "repro.io", None, "save_cluster_snapshot"),
    ("io", "repro.io", None, "load_cluster_snapshot"),
    ("io", "repro.io", None, "save_sim_snapshot"),
    ("io", "repro.io", None, "load_sim_snapshot"),
    ("io", "repro.io", None, "load_instance"),
    ("cluster", "repro.cluster.federation", "FederatedAdmissionService",
     "submit"),
    ("cluster", "repro.cluster.federation", "FederatedAdmissionService",
     "withdraw"),
    ("cluster", "repro.cluster.federation", "FederatedAdmissionService",
     "run_period"),
    ("cluster", "repro.cluster.federation", "FederatedAdmissionService",
     "run_period_all"),
    ("cluster", "repro.cluster.federation", "FederatedAdmissionService",
     "snapshot"),
    ("cluster", "repro.cluster.federation", "FederatedAdmissionService",
     "restore"),
    ("service", "repro.service.service", "AdmissionService", "submit"),
    ("service", "repro.service.service", "AdmissionService", "withdraw"),
    ("service", "repro.service.service", "AdmissionService",
     "prepare_period"),
    ("service", "repro.service.service", "AdmissionService",
     "settle_period"),
    ("service", "repro.service.service", "AdmissionService",
     "execute_period"),
    ("service", "repro.service.service", "AdmissionService",
     "run_idle_period"),
    ("service", "repro.service.service", "AdmissionService", "snapshot"),
    ("service", "repro.service.service", "AdmissionService", "restore"),
    ("core", "repro.core.mechanism", "Mechanism", "run"),
    ("core", "repro.core.mechanism", "Mechanism", "run_many"),
    ("core", "repro.core.fastpath.index", "InstanceIndex", "of"),
    ("core", "repro.core.fastpath.index", "InstanceIndex", "__init__"),
    ("core", "repro.core.fastpath.index", "InstanceIndex",
     "from_select_columns"),
    ("dsms", "repro.dsms.engine", "StreamEngine", "run"),
    ("dsms", "repro.dsms.engine", "StreamEngine", "admit"),
    ("dsms", "repro.dsms.engine", "StreamEngine", "remove"),
    ("dsms", "repro.dsms.scheduler", "ScheduledEngine", "run"),
    ("dsms", "repro.dsms.scheduler", "ScheduledEngine", "admit"),
    ("dsms", "repro.dsms.scheduler", "ScheduledEngine", "remove"),
    ("sim", "repro.sim.driver", "SimulationDriver", "run"),
    ("sim", "repro.sim.driver", "SimulationDriver", "snapshot"),
    ("sim", "repro.sim.driver", "SimulationDriver", "restore"),
    ("sim", "repro.sim.driver", "LatencyProbe", "tick"),
    ("sim", "repro.sim.driver", "LatencyProbe", "sync"),
    ("sim", "repro.sim.subscriptions", "SubscriptionManager",
     "run_period"),
    ("sim", "repro.sim.subscriptions", "SubscriptionManager",
     "run_period_rows"),
    ("sim", "repro.sim.subscriptions", "SubscriptionManager", "expire"),
    ("sim", "repro.sim.arrivals", "ArrivalProcess", "next_block",
     "subclasses"),
    ("sim", "repro.sim.arrivals", "ArrivalProcess", "next_arrival",
     "subclasses"),
    ("sim", "repro.sim.arrivals", "ArrivalProcess", "next_arrivals",
     "subclasses"),
    ("wal", "repro.wal.log", "WriteAheadLog", "append_op"),
    ("wal", "repro.wal.log", "WriteAheadLog", "append_period"),
    ("wal", "repro.wal.log", "WriteAheadLog", "append_arrivals"),
    ("wal", "repro.wal.log", "WriteAheadLog", "sync"),
    ("wal", "repro.wal.log", "WriteAheadLog", "compact"),
    ("wal", "repro.wal.log", "WriteAheadLog", "create"),
    ("wal", "repro.wal.log", None, "scan_wal"),
    ("wal", "repro.wal.recovery", None, "recover_gateway_backend"),
    ("wal", "repro.wal.recovery", None, "gateway_wal_state"),
)


class Span:
    """One call into a layer."""

    __slots__ = ("id", "name", "layer", "phase", "start", "end",
                 "parent", "rid", "busy", "child", "active", "_resumed")

    def __init__(self, span_id, name, layer, phase, parent) -> None:
        self.id = span_id
        self.name = name
        self.layer = layer
        self.phase = phase
        self.parent = parent
        #: Spans of one request share the id of its outermost span.
        self.rid = parent.rid if parent is not None else span_id
        self.start = self.end = 0.0
        self.busy = 0.0
        self.child = 0.0
        self.active = False
        self._resumed = 0.0

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "phase": self.phase, "start": self.start, "end": self.end,
            "parent": None if self.parent is None else self.parent.id,
            "request": self.rid, "busy": self.busy,
            "self": self.self_time,
        }


class Tracer:
    """Collects spans in memory; one per benchmark run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.bytes: Counter = Counter()
        #: Label stamped on new spans ("measure", "restart", ...).
        self.phase = "measure"
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"macro_span_{id(self)}", default=None)

    # A span is open from begin() to finish(); inside that it is
    # *active* from begin()/resume() to suspend()/finish().

    def begin(self, name: str, layer: str):
        parent = self._current.get()
        span = Span(next(self._ids), name, layer, self.phase, parent)
        self.spans.append(span)
        token = self._current.set(span)
        span.active = True
        span.start = span._resumed = self.clock()
        return span, token

    def resume(self, span: Span):
        token = self._current.set(span)
        span.active = True
        span._resumed = self.clock()
        return token

    def suspend(self, span: Span, token) -> None:
        now = self.clock()
        step = now - span._resumed
        span.busy += step
        span.end = now
        span.active = False
        self._current.reset(token)
        parent = span.parent
        # Only a parent whose own frames are on the stack right now
        # had this step inside its busy time (a child stepping in
        # another task or thread did not).
        if parent is not None and parent.active:
            parent.child += step

    finish = suspend

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


class _Stepper:
    """Awaitable that drives a coroutine, billing each step to a span."""

    __slots__ = ("tracer", "coro", "name", "layer")

    def __init__(self, tracer, coro, name, layer) -> None:
        self.tracer = tracer
        self.coro = coro
        self.name = name
        self.layer = layer

    def __await__(self):
        tracer, coro = self.tracer, self.coro
        span, token = tracer.begin(self.name, self.layer)
        value = None
        error = None
        while True:
            try:
                if error is not None:
                    yielded = coro.throw(error)
                else:
                    yielded = coro.send(value)
            except StopIteration as stop:
                tracer.finish(span, token)
                return stop.value
            except BaseException:
                tracer.finish(span, token)
                raise
            tracer.suspend(span, token)
            try:
                value = yield yielded
                error = None
            except BaseException as exc:  # delivered into the coroutine
                value = None
                error = exc
            token = tracer.resume(span)


def _wrap(tracer: Tracer, fn, name: str, layer: str, count_bytes: bool):
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            return await _Stepper(tracer, fn(*args, **kwargs),
                                  name, layer)
    elif count_bytes:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = tracer.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
                tracer.bytes[layer] += len(result)
                return result
            finally:
                tracer.finish(span, token)
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = tracer.begin(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(span, token)
    traced.__macro_traced__ = True
    return traced


class Installed:
    """The patches one :func:`install` made; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value, original) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self._undo)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(tracer: Tracer, targets=TARGETS) -> Installed:
    """Wrap every target; returns the handle that unwraps them."""
    installed = Installed()
    for layer, module_name, owner_name, attr, *option in targets:
        module = importlib.import_module(module_name)
        option = option[0] if option else None
        if owner_name is None:
            original = getattr(module, attr)
            name = f"{layer}:{attr}"
            traced = _wrap(tracer, original, name, layer,
                           option == "bytes")
            # The defining module, then everyone who did
            # ``from module import attr`` before we got here.
            for other in list(sys.modules.values()):
                if (other is not None
                        and getattr(other, "__name__", "").startswith(
                            "repro")
                        and other.__dict__.get(attr) is original):
                    installed._set(other, attr, traced, original)
            continue
        owner = getattr(module, owner_name)
        owners = [owner]
        if option == "subclasses":
            owners += list(_subclasses(owner))
        for cls in owners:
            raw = cls.__dict__.get(attr)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            name = f"{layer}:{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                traced = type(raw)(_wrap(
                    tracer, raw.__func__, name, layer, False))
            else:
                traced = _wrap(tracer, raw, name, layer, False)
            installed._set(cls, attr, traced, raw)
    return installed


class Alternator:
    """Switches tracing on and off in blocks of slices within one run.

    A traced run cannot be compared with an untraced one taken earlier:
    per-op cost drifts as state grows.  Alternating blocks sample the
    same stretch of the run both ways, so the ratio of their rates is
    the wrappers' overhead and nothing else — and every block boundary
    re-proves that the wrappers come off cleanly.
    """

    def __init__(self, tracer: Tracer, traced, untraced,
                 block: int) -> None:
        self.tracer = tracer
        self.traced = traced
        self.untraced = untraced
        self.block = max(1, int(block))
        self.slices = 0
        self.installed: "Installed | None" = None

    def recorder(self, kind: str):
        """The recorder for the next region (flipping at block starts)."""
        if kind == "slice":
            self.switch((self.slices // self.block) % 2 == 1)
            self.slices += 1
        return self.traced if self.installed else self.untraced

    def switch(self, on: bool) -> None:
        if on and self.installed is None:
            self.installed = install(self.tracer)
        elif not on and self.installed is not None:
            self.installed.remove()
            self.installed = None


# ----------------------------------------------------------------------
# Per-layer metrics from a traced run
# ----------------------------------------------------------------------


def _inclusive_ms(spans, name: str) -> list[float]:
    return [span.busy * 1e3 for span in spans if span.name == name]


def layer_metrics(tracer: Tracer, recorder, reference,
                  settles: int) -> dict:
    """The span-derived per-layer metrics of one traced run.

    *recorder* holds the traced slices and settles, *reference* the
    untraced blocks interleaved with them (see :class:`Alternator`).
    """
    measured = sorted((s for s in recorder.samples
                       if s.kind in ("slice", "settle")),
                      key=lambda s: s.started)
    ops = max(1, sum(s.ops for s in recorder.of("slice")))
    wall = sum(s.raw_s for s in measured)
    # Only spans that began inside a timed region: what a workload
    # does between regions (a checkpoint, say) is in nobody's wall.
    starts = [s.started for s in measured]

    def timed(span) -> bool:
        at = bisect.bisect_right(starts, span.start) - 1
        return at >= 0 and span.start <= starts[at] + measured[at].raw_s

    spans = [span for span in tracer.spans if timed(span)]
    busy: dict = defaultdict(float)
    calls: Counter = Counter()
    for span in spans:
        busy[span.layer] += span.self_time
        calls[span.layer] += 1
    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_us_per_op"] = busy[layer] * 1e6 / ops
        out[f"{layer}.calls_per_op"] = calls[layer] / ops
    out["other.busy_us_per_op"] = (wall - sum(busy.values())) * 1e6 / ops
    settles = max(1, settles)
    for key, name in (
            ("service.prepare_ms_per_settle",
             "service:AdmissionService.prepare_period"),
            ("service.settle_ms_per_settle",
             "service:AdmissionService.settle_period"),
            ("service.execute_ms_per_settle",
             "service:AdmissionService.execute_period"),
            ("core.auction_ms_per_settle", "core:Mechanism.run")):
        out[key] = sum(_inclusive_ms(spans, name)) / settles
    builds = (_inclusive_ms(tracer.spans, "core:InstanceIndex.__init__")
              + _inclusive_ms(tracer.spans,
                              "core:InstanceIndex.from_select_columns"))
    out["core.index_build_ms"] = (
        statistics.fmean(builds) if builds else 0.0)
    compactions = _inclusive_ms(tracer.spans,
                                "wal:WriteAheadLog.compact")
    out["wal.compact_s"] = (
        statistics.fmean(compactions) / 1e3 if compactions else 0.0)
    out["serve.wire_bytes_per_op"] = tracer.bytes["serve.http"] / ops
    # Same process, same inputs, calibrated both sides: what is left
    # is what the wrappers cost.
    traced_rate = recorder.rate_p50("slice")
    untraced_rate = reference.rate_p50("slice")
    out["trace.overhead_share"] = untraced_rate / traced_rate - 1.0
    return out
