"""Open-system simulation: arrivals, subscriptions, SLA metrics.

The closed-loop examples submit batches in lockstep; this one runs the
*open system*: a Poisson arrival process feeds queries continuously, a
day/week/month subscription mix is auctioned per category at every
period boundary, expiring subscriptions release capacity and renew,
and a latency probe executes the admitted plans on a bounded work
budget to measure queue depth and delivery latency.  The run is
recorded into a ``repro/sim-trace`` document and replayed — the replay
reproduces the original byte-for-byte.

Run:  python examples/open_system.py
"""

import tempfile
from pathlib import Path

from repro.cloud.subscriptions import SubscriptionCategory
from repro.dsms.streams import SyntheticStream
from repro.service import ServiceBuilder
from repro.sim import SimulationDriver, SubscriptionOptions
from repro.utils.tables import format_table


def build_driver(record: bool, arrivals: object) -> SimulationDriver:
    """An open-system driver over a freshly built service."""
    return (ServiceBuilder()
            .with_sources(SyntheticStream("s", rate=4.0, seed=11))
            .with_capacity(45.0)
            .with_mechanism("CAT")
            .with_ticks_per_period(15)
            .with_scheduler("fifo")          # latency probe policy
            .with_arrivals(arrivals)
            .with_subscriptions(SubscriptionOptions(
                categories=(
                    SubscriptionCategory("day", 1, 0.45),
                    SubscriptionCategory("week", 4, 0.35),
                    SubscriptionCategory("month", 12, 0.20),
                ),
                seed=11,
            ))
            .build_simulation(record=record))


def main() -> None:
    driver = build_driver(record=True, arrivals="poisson:rate=1.2,seed=11")
    reports = driver.run(10)

    rows = [
        [r.period, len(r.admitted), len(r.rejected), len(r.expired),
         len(r.renewed), r.revenue,
         0.0 if r.engine_utilization is None else r.engine_utilization]
        for r in reports
    ]
    print(format_table(
        ["period", "admitted", "rejected", "expired", "renewed",
         "revenue", "util"],
        rows, precision=2,
        title="Open system — Poisson arrivals, day/week/month "
              "subscriptions"))
    print(f"total revenue: {driver.total_revenue():.2f}")

    # SLA view from the latency probe (admitted plans on a bounded
    # ScheduledEngine work budget).
    percentiles = driver.latency_percentiles((50.0, 95.0, 99.0))
    metrics = driver.tick_metrics()
    print(f"probe: {len(metrics)} ticks, max queue "
          f"{max(m.queued for m in metrics)}, latency "
          f"p50 {percentiles[50.0]:.1f} / p95 {percentiles[95.0]:.1f} "
          f"/ p99 {percentiles[99.0]:.1f} ticks")

    # Record → replay: the trace is the run's whole workload.
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "run.trace.npz"
        from repro.io import load_sim_trace, save_sim_trace

        save_sim_trace(driver.trace(), trace_path)
        print(f"\nrecorded {len(load_sim_trace(trace_path))} arrivals "
              f"({trace_path.stat().st_size} bytes of repro/sim-trace)")

        replay = build_driver(record=False,
                              arrivals=f"trace:path={trace_path}")
        replayed = replay.run(10)
        identical = all(
            (a.period, a.admitted, a.rejected, a.expired, a.renewed,
             a.revenue) ==
            (b.period, b.admitted, b.rejected, b.expired, b.renewed,
             b.revenue)
            for a, b in zip(reports, replayed)
        )
        print(f"replayed run identical to live run: {identical}")


if __name__ == "__main__":
    main()
