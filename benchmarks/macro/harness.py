"""What every workload shares: options, the slice meter, the run skeleton.

A workload is a class with four coroutines — ``setup`` (inputs, system
build, untimed warm-up), ``measure`` (the sliced steady state),
``restart`` (persisted state back to serving) and ``verify`` (output
checks) — driven in that order by :func:`drive` inside one child
process on one event loop.  Sync workloads simply never await.
"""

from __future__ import annotations

import gc
import inspect
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calib
import spans
from report import OUT_DIR, REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "src"))

#: ``--seconds`` the size tables of the workloads are written for.
REFERENCE_SECONDS = 20.0
#: A measured phase that overruns ``seconds`` by this factor stops
#: early (flagged ``truncated``) so a slow machine cannot blow the
#: driver's total time cap; medians over the slices done stay valid.
OVERRUN_FACTOR = 1.4
#: ...but never before this many seconds over (smoke runs are tiny).
OVERRUN_GRACE_S = 5.0
#: Slices per traced / untraced block of a traced run.
TRACE_BLOCK = 5


@dataclass
class Options:
    """One child run: which workload, which inputs, how much work."""

    workload: str
    seed: int = 0
    seconds: float = REFERENCE_SECONDS
    trace: bool = False
    smoke: bool = False
    setup_only: bool = False
    #: Parent's ``perf_counter`` at spawn and its kernel passes before.
    t0: "float | None" = None
    kernel_before: tuple = ()

    def slices(self, reference: int) -> int:
        """*reference* slices scaled to ``seconds`` — at least four,
        and one untraced plus one traced block when tracing."""
        minimum = 2 * TRACE_BLOCK if self.trace else 4
        return max(minimum,
                   round(reference * self.seconds / REFERENCE_SECONDS))


class Checks:
    """Operations attempted / failed, with the first few reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def ops(self, attempted: int, failed: int = 0,
            reason: str = "") -> None:
        self.attempted += int(attempted)
        if failed:
            self.fail(reason, count=failed)

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += int(count)
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, ok: bool, reason: str) -> bool:
        """One verification step: counts as an operation either way."""
        self.attempted += 1
        if not ok:
            self.fail(reason)
        return bool(ok)


class Meter:
    """Times regions between kernel passes and records them calibrated.

    Consecutive regions share the kernel pass between them: the pass
    after one slice is the pass before the next.
    """

    def __init__(self, kernel, recorder: calib.Recorder,
                 budget_s: float, clock=time.perf_counter,
                 alternator: "spans.Alternator | None" = None) -> None:
        self.kernel = kernel
        self.recorder = recorder
        self.alternator = alternator
        self.clock = clock
        self.budget_s = float(budget_s)
        self._last: "calib.Pass | None" = None
        self._started: "float | None" = None
        self.truncated = False

    async def _run(self, fn):
        """``fn()`` (awaited if needed) -> (result, started, seconds)."""
        started = self.clock()
        result = fn()
        if inspect.isawaitable(result):
            result = await result
        return result, started, self.clock() - started

    async def mark(self) -> calib.Pass:
        """A kernel pass; becomes the 'before' of the next region."""
        self._last = await self.kernel.arun()
        if self._started is None:
            self._started = self.clock()
        return self._last

    async def timed(self, kind: str, ops: int, fn):
        """Run ``fn()`` (awaiting it if needed) as one recorded region.

        Returns ``(result, sample)``; callers that only learn the
        operation count afterwards may set ``sample.ops``.
        """
        if self._last is None:
            await self.mark()
        recorder = (self.recorder if self.alternator is None
                    else self.alternator.recorder(kind))
        before = self._last
        result, started, raw = await self._run(fn)
        after = await self.mark()
        return result, recorder.add(kind, ops, raw, before, after,
                                    started)

    async def one_shot(self, kind: str, fn):
        """A one-shot region bracketed by several passes on each side.

        Garbage of earlier repeats is collected first, so every repeat
        meets the same heap.
        """
        gc.collect()
        before = [await self.kernel.arun()
                  for _ in range(calib.ONE_SHOT_PASSES)]
        result, started, raw = await self._run(fn)
        after = [await self.kernel.arun()
                 for _ in range(calib.ONE_SHOT_PASSES)]
        self._last = after[-1]
        return result, self.recorder.add(kind, 1, raw, before, after,
                                         started)

    def overrun(self) -> bool:
        """Whether the measured phase has blown its wall-clock cap."""
        if self._started is None:
            return False
        cap = max(self.budget_s * OVERRUN_FACTOR,
                  self.budget_s + OVERRUN_GRACE_S)
        if self.clock() - self._started > cap:
            self.truncated = True
        return self.truncated


class Workload:
    """Base class; subclasses fill in the four phases."""

    name = "workload"
    #: kind -> (cpu, echo) weights of the kernel parts that scale it.
    kernel_mix: dict = {}
    #: How many measured slices the reference size table holds.
    reference_slices = 200
    #: Periods a slice closes, for workloads with no separate settle.
    settles_per_slice = 1

    def __init__(self, options: Options) -> None:
        self.options = options
        self.seed = int(options.seed)
        self.checks = Checks()
        #: Sizes that went into this run, for the environment block.
        self.sizes: dict = {}
        #: Per-layer numbers the workload itself counts (not spans).
        self.layer: dict = {}
        self.tmp = OUT_DIR / "tmp" / f"{self.name}-{os.getpid()}"

    def repeats(self, full: int) -> int:
        """How often to repeat a one-shot phase (once in smoke mode)."""
        return 1 if self.options.smoke else int(full)

    def scratch(self, name: str) -> Path:
        """A path inside this run's scratch directory (created lazily)."""
        self.tmp.mkdir(parents=True, exist_ok=True)
        return self.tmp / name

    async def setup(self) -> None:
        raise NotImplementedError

    async def measure(self, meter: Meter, slices: int) -> None:
        raise NotImplementedError

    async def restart(self, meter: Meter) -> None:
        raise NotImplementedError

    async def verify(self) -> None:
        raise NotImplementedError

    async def close(self) -> None:
        """Stop everything the workload started; remove its scratch."""
        shutil.rmtree(self.tmp, ignore_errors=True)

    def planned_slices(self) -> int:
        return self.options.slices(self.reference_slices)


def check_outcomes(checks: Checks, outcomes, where: str) -> None:
    """Capacity never exceeded and payment <= bid on live outcomes."""
    for outcome in outcomes:
        instance = outcome.instance
        checks.check(
            outcome.used_capacity <= instance.capacity + 1e-6,
            f"{where}: load {outcome.used_capacity} over capacity "
            f"{instance.capacity}")
        checks.check(
            all(pay <= instance.query(qid).bid + 1e-9
                for qid, pay in outcome.payments.items()),
            f"{where}: a payment exceeds its bid")


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class ChildResult:
    """Everything one child run measured, as plain JSON-able data."""

    workload: str
    seed: int
    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


async def drive(workload: Workload, options: Options) -> ChildResult:
    """setup → measure → restart → verify, then summarise."""
    clock = time.perf_counter
    result = ChildResult(workload=workload.name, seed=options.seed)
    cpu = calib.CpuKernel()
    kernel = await calib.LoopKernel().open()
    tracer = alternator = None
    try:
        await workload.setup()
        ready = clock()
        after = [cpu.run() for _ in range(calib.ONE_SHOT_PASSES)]
        t0 = options.t0 if options.t0 is not None else ready
        setup = calib.Recorder(cpu.ref).add(
            "setup", 1, ready - t0, options.kernel_before, after)
        result.end_to_end["setup_s"] = setup.calibrated_s
        result.raw["setup_s"] = setup.raw_s
        if options.setup_only:
            return result

        recorder = calib.Recorder(kernel.ref, workload.kernel_mix)
        reference = None
        if options.trace:
            tracer = spans.Tracer()
            reference = calib.Recorder(kernel.ref, workload.kernel_mix)
            alternator = spans.Alternator(tracer, recorder, reference,
                                          TRACE_BLOCK)
        meter = Meter(kernel, recorder, options.seconds,
                      alternator=alternator)
        await workload.measure(meter, workload.planned_slices())
        # A restart happens in a fresh process, whose collector has no
        # old heap to walk: park the run's own objects out of its sight.
        gc.collect()
        gc.freeze()
        if alternator is not None:
            # Recovery paths are traced too (wal.replayed_records, the
            # snapshot loaders), under their own phase label.
            tracer.phase = "restart"
            alternator.switch(True)
        await workload.restart(meter)
        gc.unfreeze()
        if alternator is not None:
            alternator.switch(False)
        result.end_to_end["peak_rss_mb"] = peak_rss_mb()
        await workload.verify()
        summarise(result, workload, recorder, meter)
        if tracer is not None:
            result.per_layer.update(spans.layer_metrics(
                tracer, recorder, reference,
                settles=result.info["settle_samples"]))
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(OUT_DIR / f"spans-{workload.name}.jsonl")
    finally:
        if alternator is not None:
            alternator.switch(False)
        await workload.close()
        await kernel.close()
    result.attempted = workload.checks.attempted
    result.failed = workload.checks.failed
    result.reasons = workload.checks.reasons
    return result


def summarise(result: ChildResult, workload: Workload,
              recorder: calib.Recorder, meter: Meter) -> None:
    """Turn the recorded samples into the named metrics."""
    slices = recorder.of("slice")
    # Workloads without a separate settle step close several periods
    # inside each slice.
    if recorder.of("settle"):
        settle_kind, per_sample = "settle", 1
    else:
        settle_kind, per_sample = "slice", workload.settles_per_slice
    for target, calibrated in ((result.end_to_end, True),
                               (result.raw, False)):
        target["ops_per_s"] = recorder.rate_p50("slice", calibrated)
        target["settle_p50_ms"] = (
            recorder.seconds_p50(settle_kind, calibrated)
            * 1e3 / per_sample)
        target["restart_s"] = recorder.seconds_p50("restart", calibrated)
    scale = recorder.scale_summary()
    result.info.update({
        "sizes": workload.sizes,
        "slice_samples": len(slices),
        "settle_samples": len(recorder.of(settle_kind)) * per_sample,
        "restart_samples": len(recorder.of("restart")),
        # kind, ops, raw seconds, bracketing cpu and echo seconds:
        # enough to re-derive every timing metric offline.
        "samples": [[s.kind, s.ops, s.raw_s, s.kernel.cpu, s.kernel.echo]
                    for s in recorder.samples],
        "truncated": meter.truncated,
        "noisy": scale["noisy"],
    })
    result.per_layer = {
        **workload.layer,
        "raw.ops_per_s": result.raw["ops_per_s"],
        "raw.settle_p50_ms": result.raw["settle_p50_ms"],
        "calib.scale_p50": scale["p50"],
        "calib.scale_iqr": scale["iqr"],
    }
