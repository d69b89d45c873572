"""``sim_open``: the open-system event loop, in process.

BENCH_sim.json's configuration — GV, capacity 150, 20 ticks per period,
Poisson arrivals at 50 per tick, subscriptions on, a ``fifo`` latency
probe, the columnar pump on — run for a fixed number of periods.  The
``sim`` layer (arrivals, pump, subscriptions), the ``dsms`` scheduler
and ``core`` do the work; ``serve``, the wire codecs and ``wal`` are
bypassed, so a serving-tier change must not move this workload.
"""

from __future__ import annotations

import time

from harness import Meter, Workload, check_outcomes

from repro.dsms.streams import SyntheticStream
from repro.io import load_sim_snapshot, save_sim_snapshot
from repro.service import ServiceBuilder
from repro.sim import SimulationDriver, SubscriptionOptions

WARMUP_SHARE = 0.05
#: The checkpoint is taken this far into the measured periods.
CHECKPOINT_SHARE = 0.1
RESTART_REPEATS = 5
#: Periods the restored driver must reproduce, and periods compared
#: against per-event dispatch.
REPLAY_PERIODS = 10
DISPATCH_PERIODS = 20


class SimOpen(Workload):
    name = "sim_open"

    slice_periods = 6
    settles_per_slice = slice_periods

    def build_driver(self, pump: bool = True,
                     batch_arrivals: bool = True) -> SimulationDriver:
        service = (ServiceBuilder()
                   .with_sources(SyntheticStream("s", rate=2.0,
                                                 seed=self.seed))
                   .with_capacity(150.0)
                   .with_mechanism("GV")
                   .with_ticks_per_period(20)
                   .with_selection("fast")
                   .build())
        return SimulationDriver(
            service,
            arrivals=f"poisson:rate=50,seed={self.seed}",
            subscriptions=SubscriptionOptions(seed=self.seed),
            probe="fifo",
            batch_arrivals=batch_arrivals,
            pump=pump,
        )

    async def setup(self) -> None:
        slices = self.planned_slices()
        self.warm_periods = max(
            1, round(slices * self.slice_periods * WARMUP_SHARE))
        self.checkpoint_after = self.warm_periods + self.slice_periods * max(
            1, round(slices * CHECKPOINT_SHARE))
        self.sizes = {"slice_periods": self.slice_periods,
                      "warm_periods": self.warm_periods,
                      "checkpoint_period": self.checkpoint_after,
                      "arrival_rate": 50, "ticks_per_period": 20}
        self.driver = self.build_driver()
        self.driver.run(self.warm_periods)
        self.checkpoint = None

    def run_slice(self) -> int:
        before = self.driver.events_processed
        self.driver.run(self.slice_periods)
        return self.driver.events_processed - before

    async def measure(self, meter: Meter, slices: int) -> None:
        done = 0
        while done < slices and not meter.overrun():
            events, sample = await meter.timed("slice", 0, self.run_slice)
            sample.ops = events
            done += 1
            if (self.checkpoint is None
                    and self.driver.period >= self.checkpoint_after):
                self.take_checkpoint()
                await meter.mark()
        if self.checkpoint is None:
            self.take_checkpoint()

    def take_checkpoint(self) -> None:
        """Snapshot to disk, outside every timed slice."""
        self.checkpoint = self.scratch("sim.ckpt")
        self.checkpoint_period = self.driver.period
        started = time.perf_counter()
        save_sim_snapshot(self.driver.snapshot(), self.checkpoint)
        self.layer["io.snapshot_save_s"] = time.perf_counter() - started
        self.layer["io.snapshot_mb"] = (
            self.checkpoint.stat().st_size / 2 ** 20)

    def restart_once(self) -> SimulationDriver:
        driver = SimulationDriver.restore(
            load_sim_snapshot(self.checkpoint))
        driver.run(1)
        return driver

    async def restart(self, meter: Meter) -> None:
        for _ in range(self.repeats(RESTART_REPEATS)):
            self.restored = None    # every repeat meets the same heap
            self.restored, _sample = await meter.one_shot(
                "restart", self.restart_once)

    async def verify(self) -> None:
        checks = self.checks
        driver = self.driver
        pump = driver.metrics_snapshot()["pump"]
        rows = max(1, pump["rows"])
        self.layer["sim.pump_rows_per_block"] = (
            pump["rows"] / max(1, pump["blocks"]))
        self.layer["sim.pump_fallback_share"] = (
            pump["fallbacks"] / max(1, driver.period))
        self.layer["sim.winner_share"] = pump["winners"] / rows
        checks.ops(driver.events_processed)
        for report in driver.reports:
            for shard, result in enumerate(report.shard_results):
                check_outcomes(checks, result.outcomes.values(),
                               f"period {report.period} shard {shard}")
        # The restored driver already ran one period; a checkpoint
        # must resume byte-identically to the uninterrupted run.
        start = self.checkpoint_period
        have = min(REPLAY_PERIODS, driver.period - start)
        self.restored.run(have - 1)
        checks.check(
            have >= 1 and repr(self.restored.reports[start:start + have])
            == repr(driver.reports[start:start + have]),
            f"restored driver diverged from the original within "
            f"periods {start + 1}..{start + have}")
        # The pump is an optimisation of per-event dispatch, never a
        # different simulation.
        periods = min(DISPATCH_PERIODS, driver.period)
        oracle = self.build_driver(pump=False, batch_arrivals=False)
        checks.check(
            repr(oracle.run(periods)) == repr(driver.reports[:periods]),
            f"first {periods} periods differ from per-event dispatch")
