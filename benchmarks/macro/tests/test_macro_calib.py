"""Calibrated durations do not depend on how fast the machine runs."""

import asyncio
import gc

import calib
import pytest
from harness import Meter


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class FakeKernel:
    """A kernel that takes ``ref`` at speed 1 and scales with speed."""

    ref = calib.Pass(0.006, 0.004)

    def __init__(self, clock: FakeClock, machine) -> None:
        self.clock = clock
        self.machine = machine

    async def arun(self) -> calib.Pass:
        slowdown = self.machine["slowdown"]
        taken = calib.Pass(self.ref.cpu * slowdown,
                           self.ref.echo * slowdown)
        self.clock.advance(taken.cpu + taken.echo)
        return taken


def run_slices(slowdowns, work_s=0.25):
    """Calibrated slice durations when slice *i* runs at slowdowns[i]."""
    clock = FakeClock()
    machine = {"slowdown": slowdowns[0]}
    kernel = FakeKernel(clock, machine)
    recorder = calib.Recorder(kernel.ref)
    meter = Meter(kernel, recorder, budget_s=1e9, clock=clock)

    async def go():
        for slowdown in slowdowns:
            machine["slowdown"] = slowdown
            await meter.mark()
            await meter.timed(
                "slice", 100,
                lambda: clock.advance(work_s * machine["slowdown"]))

    asyncio.run(go())
    return recorder


@pytest.mark.parametrize("factor", [1.0, 2.0, 3.7, 0.5])
def test_same_slowdown_of_kernel_and_slice_cancels(factor):
    recorder = run_slices([factor] * 8)
    for sample in recorder.of("slice"):
        assert sample.calibrated_s == pytest.approx(0.25, rel=1e-9)
        assert sample.raw_s == pytest.approx(0.25 * factor, rel=1e-9)
    assert recorder.rate_p50("slice") == pytest.approx(400.0, rel=1e-9)
    assert recorder.rate_p50("slice", calibrated=False) == \
        pytest.approx(400.0 / factor, rel=1e-9)


def test_a_machine_that_drifts_mid_run_still_reads_the_same():
    steady = run_slices([1.0] * 9)
    drifting = run_slices([1.0, 1.0, 2.0, 2.0, 2.0, 1.3, 1.3, 0.8, 0.8])
    assert drifting.rate_p50("slice") == \
        pytest.approx(steady.rate_p50("slice"), rel=1e-9)
    assert drifting.scale_summary()["iqr"] > 0.25
    assert drifting.scale_summary()["noisy"]
    assert not steady.scale_summary()["noisy"]


def test_one_preempted_pass_does_not_move_a_one_shot():
    quiet = calib.Pass(0.006, 0.004)
    recorder = calib.Recorder(quiet)
    clean = recorder.add("restart", 1, 2.0, [quiet] * 3, [quiet] * 3)
    hit = recorder.add("restart", 1, 2.0,
                       [quiet, calib.Pass(0.100, 0.020), quiet],
                       [quiet] * 3)
    assert hit.calibrated_s == pytest.approx(clean.calibrated_s)
    assert clean.calibrated_s == pytest.approx(2.0)


def test_mix_picks_the_kernel_part_that_scales_a_kind():
    ref = calib.Pass(0.006, 0.004)
    # Sockets twice as slow as reference, CPU at reference speed.
    seen = calib.Pass(0.006, 0.008)
    recorder = calib.Recorder(ref, mix={"slice": calib.ECHO_ONLY})
    assert recorder.add("slice", 10, 1.0, seen, seen).scale == \
        pytest.approx(0.5)
    assert recorder.add("settle", 1, 1.0, seen, seen).scale == \
        pytest.approx(0.010 / 0.014)


def test_cpu_kernel_runs_and_leaves_the_collector_as_it_found_it():
    kernel = calib.CpuKernel()
    assert gc.isenabled()
    taken = kernel.run()
    assert taken.cpu > 0.0 and taken.echo == 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        kernel.run()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_loop_kernel_round_trips_on_the_running_loop():
    async def go():
        kernel = await calib.LoopKernel().open()
        try:
            return await kernel.arun()
        finally:
            await kernel.close()

    taken = asyncio.run(go())
    assert taken.cpu > 0.0 and taken.echo > 0.0
