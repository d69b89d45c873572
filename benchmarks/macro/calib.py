"""Calibrated time: a frozen kernel and the slice recorder built on it.

A shared 2-vCPU box drifts: the same code runs 2x slower for seconds
at a time, so raw wall-clock medians of *identical* runs disagree by a
tenth or more.  Every timed region of the macro-benchmark is therefore
bracketed by a fixed **calibration kernel** whose duration on a quiet
run of the reference box is recorded once (``CALIB_REF_S``).  A region
that took ``raw`` seconds while the kernel around it took ``k`` seconds
is reported as ``raw * (ref / k)`` — how long it would have taken had
the machine run at reference speed.

The kernel is frozen: changing it (or the reference constants) shifts
every calibrated number, which invalidates comparison with any result
recorded before the change.
"""

from __future__ import annotations

import asyncio
import gc
import json
import statistics
import time
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

#: Seconds the CPU kernel takes on a quiet run of the reference box.
CALIB_REF_S = 0.00620
#: Seconds the loopback echo part of :class:`LoopKernel` takes there.
CALIB_REF_ECHO_S = 0.00800

#: One kernel pass: seconds in the CPU part and in the echo part.
Pass = namedtuple("Pass", "cpu echo")
#: Which parts of a pass scale a region, as (cpu, echo) weights.
BOTH = (1.0, 1.0)
ECHO_ONLY = (0.0, 1.0)

LOOP_ITERATIONS = 60_000
JSON_KEYS = 2_000
SORT_FLOATS = 60_000
ECHO_ROUND_TRIPS = 150
ECHO_TIMEOUT_S = 5.0
#: Kernel passes on each side of a one-shot timing (setup, restart).
ONE_SHOT_PASSES = 3
#: A run whose per-slice scale has a wider IQR than this is flagged.
NOISY_SCALE_IQR = 0.25


class CpuKernel:
    """Pure-Python loop + JSON round trip + numpy sort, fixed inputs.

    The three parts load what the stack's layers load: the bytecode
    interpreter, the C JSON codec behind every wire document, and
    numpy's kernels behind the fast auction path and the pump.
    """

    ref = Pass(CALIB_REF_S, 0.0)

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._document = {f"key{i:05d}": [i, i * 0.5, f"v{i}"]
                          for i in range(JSON_KEYS)}
        self._floats = np.random.default_rng(12345).random(SORT_FLOATS)
        self._sorted = np.empty_like(self._floats)

    def work(self) -> None:
        x = 0
        for i in range(LOOP_ITERATIONS):
            x = (x * 31 + i) & 0xFFFF
        json.loads(json.dumps(self._document))
        # In place: a fresh 480 KB result per pass would be an mmap
        # and its page faults, which time the kernel, not the CPU.
        np.copyto(self._sorted, self._floats)
        self._sorted.sort()

    def run(self) -> Pass:
        """One kernel pass; returns how long it took.

        The collector is off for the pass: a full collection costs in
        proportion to the *process's* heap, and the kernel is there to
        measure the machine.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = self.clock()
            self.work()
            return Pass(self.clock() - started, 0.0)
        finally:
            if collecting:
                gc.enable()


class LoopKernel:
    """The CPU kernel plus line round trips over a loopback echo socket.

    The echo part runs on the *same* event loop as the system under
    test and crosses the OS kernel 600 times a pass, so it feels what
    the CPU part cannot: a stolen vCPU, a busy sibling, slow wake-ups.
    It is what the serve workloads mostly do — and, measured on this
    box, adding it also halved the run-to-run spread of the two
    in-process workloads, so every workload is bracketed by it.
    """

    ref = Pass(CALIB_REF_S, CALIB_REF_ECHO_S)

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._cpu = CpuKernel(clock)
        self._server = None
        self._reader = None
        self._writer = None
        self._echo_done = asyncio.Event()
        self._line = b"x" * 200 + b"\n"

    async def open(self) -> "LoopKernel":
        self._server = await asyncio.start_server(
            self._echo, "127.0.0.1", 0)
        port = self._server.sockets[0].getsockname()[1]
        self._reader, self._writer = await asyncio.open_connection(
            "127.0.0.1", port)
        return self

    async def _echo(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                writer.write(line)
                await writer.drain()
        finally:
            writer.close()
            self._echo_done.set()

    async def close(self) -> None:
        self._writer.close()
        await self._writer.wait_closed()
        # The server side ends on the EOF; leave no task to cancel.
        await self._echo_done.wait()
        self._server.close()
        await self._server.wait_closed()

    async def arun(self) -> Pass:
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = self.clock()
            self._cpu.work()
            middle = self.clock()
            reader, writer, line = self._reader, self._writer, self._line
            for _ in range(ECHO_ROUND_TRIPS):
                writer.write(line)
                await writer.drain()
                # A timer per round trip, as the gateway arms one per
                # request: timer programming is a VM exit, and a large
                # part of what a slow hour on a shared host slows.
                await asyncio.wait_for(reader.readline(), ECHO_TIMEOUT_S)
            return Pass(middle - started, self.clock() - middle)
        finally:
            if collecting:
                gc.enable()


def scale_of(ref: Pass, passes, weights=BOTH) -> float:
    """How much faster than reference the machine ran (1.0 = reference).

    Each pass counts as ``w_cpu * cpu + w_echo * echo``; the scale is
    the reference pass over the median pass — the mean of the two
    around a slice, and deaf to one preempted pass among the six around
    a one-shot.
    """
    w_cpu, w_echo = weights
    return (w_cpu * ref.cpu + w_echo * ref.echo) / statistics.median(
        w_cpu * p.cpu + w_echo * p.echo for p in passes)


@dataclass
class Sample:
    """One timed region with the kernel passes that bracket it."""

    kind: str
    ops: int
    raw_s: float
    scale: float
    #: Mean CPU / echo seconds of the bracketing passes (for analysis).
    kernel: Pass = Pass(0.0, 0.0)
    #: Clock reading when the region began (to match spans to it).
    started: float = 0.0

    @property
    def calibrated_s(self) -> float:
        return self.raw_s * self.scale


@dataclass
class Recorder:
    """Timed regions of one run, kept as (ops, raw, scale) samples.

    ``kind`` separates what is summarised separately: ``"slice"`` for
    the steady-state work, ``"settle"`` for period boundaries,
    ``"restart"`` / ``"setup"`` for one-shot phases.  ``mix`` says, per
    kind, which parts of the kernel scale it (default: both): a region
    is best scaled by the part that does what the region does.
    """

    ref: Pass
    mix: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)

    def add(self, kind: str, ops: int, raw_s: float,
            before, after=(), started: float = 0.0) -> Sample:
        """Record a region bracketed by kernel passes *before*/*after*
        (each one :class:`Pass` or a sequence of them)."""
        passes = _flat(before, after)
        sample = Sample(
            kind, int(ops), float(raw_s),
            scale_of(self.ref, passes, self.mix.get(kind, BOTH)),
            Pass(statistics.fmean(p.cpu for p in passes),
                 statistics.fmean(p.echo for p in passes)),
            started)
        self.samples.append(sample)
        return sample

    def of(self, kind: str) -> list:
        return [s for s in self.samples if s.kind == kind]

    def rate_p50(self, kind: str = "slice", calibrated: bool = True) -> float:
        """Median over samples of ops per (calibrated) second."""
        return statistics.median(
            s.ops / (s.calibrated_s if calibrated else s.raw_s)
            for s in self.of(kind))

    def seconds_p50(self, kind: str, calibrated: bool = True) -> float:
        """Median (calibrated) duration of the samples of *kind*."""
        return statistics.median(
            (s.calibrated_s if calibrated else s.raw_s)
            for s in self.of(kind))

    def scale_summary(self) -> dict:
        """Median and IQR of the per-slice scale, and the noisy flag."""
        scales = [s.scale for s in self.of("slice")]
        if len(scales) < 2:
            return {"p50": scales[0] if scales else 1.0, "iqr": 0.0,
                    "noisy": False}
        q1, _q2, q3 = statistics.quantiles(scales, n=4)
        iqr = q3 - q1
        return {"p50": statistics.median(scales), "iqr": iqr,
                "noisy": iqr > NOISY_SCALE_IQR}


def _flat(*sides) -> list:
    out: list = []
    for side in sides:
        if isinstance(side, Pass):
            out.append(side)
        else:
            out.extend(Pass(*p) for p in side)
    return out
