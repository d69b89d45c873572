"""A settled period keeps only what it reports.

The pump auctions each subscription category over a
:class:`~repro.sim.columnar.ColumnarSelectInstance`, and the period's
report keeps that instance for the rest of the run.  The views the
auction built on it (the fast-path index, row maps, materialized
queries) are not report content — its pickle already leaves them out
— so the boundary drops them once the winners are admitted.  This
suite pins that a settled instance holds in memory exactly what its
pickle holds, that an old report still reads (views rebuild on
demand), and that the retained memory per period stays within a
budget.
"""

import gc
import tracemalloc

import numpy as np

from repro.dsms.streams import SyntheticStream
from repro.serve.gateway import DriverBackend
from repro.service import ServiceBuilder
from repro.sim import SimulationDriver, SubscriptionOptions
from repro.sim.arrivals import synthetic_query
from repro.sim.columnar import ColumnarSelectInstance


def build_service(seed=0, ticks=20):
    """The ``sim_open`` benchmark's service: GV at capacity 150."""
    return (ServiceBuilder()
            .with_sources(SyntheticStream("s", rate=2.0, seed=seed))
            .with_capacity(150.0)
            .with_mechanism("GV")
            .with_ticks_per_period(ticks)
            .with_selection("fast")
            .build())


def build_driver(seed=0, rate=50, ticks=20):
    return SimulationDriver(
        build_service(seed, ticks),
        arrivals=f"poisson:rate={rate},seed={seed}",
        subscriptions=SubscriptionOptions(seed=seed),
        probe="fifo",
    )


def settled_outcomes(reports):
    """Every category outcome the period reports keep over a columnar
    auction instance."""
    return [outcome
            for report in reports
            for result in report.shard_results
            for outcome in result.outcomes.values()
            if isinstance(outcome.instance, ColumnarSelectInstance)]


def settled_instances(reports):
    return [outcome.instance for outcome in settled_outcomes(reports)]


def assert_holds_its_pickle(instances):
    assert instances
    for instance in instances:
        assert vars(instance).keys() == instance.__getstate__().keys()


class TestSettledInstances:
    def test_pumped_driver_keeps_no_working_views(self):
        driver = build_driver(rate=10, ticks=5)
        driver.run(6)
        assert driver.pump is True
        assert_holds_its_pickle(settled_instances(driver.reports))

    def test_gateway_tick_keeps_no_working_views(self):
        backend = DriverBackend(SimulationDriver(
            build_service(ticks=4),
            subscriptions=SubscriptionOptions(seed=2)))
        rng = np.random.default_rng(4)
        serial = 0
        for _ in range(4):
            for name in (None, None, "day", "week", "month", None):
                backend.submit(synthetic_query(rng, serial, prefix="g"),
                               category=name)
                serial += 1
            backend.tick()
        assert_holds_its_pickle(settled_instances(backend.driver.reports))

    def test_an_old_report_still_reads_the_same(self):
        """Views rebuild on demand: reading a settled instance gives
        what the auction saw."""
        driver = build_driver(rate=10, ticks=5)
        driver.run(3)
        outcome = next(outcome
                       for outcome in settled_outcomes(driver.reports)
                       if outcome.payments)
        instance = outcome.instance
        winners = sorted(outcome.payments)
        for query_id in winners:
            assert instance.query(query_id).bid >= outcome.payment(query_id)
        assert outcome.used_capacity <= instance.capacity + 1e-6
        assert len(instance.queries) == instance.num_queries
        assert "_mat_queries" in vars(instance)
        instance.forget_derived()
        assert_holds_its_pickle([instance])
        assert instance.union_load(outcome.payments) == outcome.used_capacity


def test_retained_memory_per_period_is_bounded():
    """``sim_open``'s shape (1 000 arrivals a period over the category
    auctions) retains well under 380 KB per settled period.  Keeping
    every auction's working views and a fresh owner string per row
    retained ~490 KB; without them it is ~290 KB."""
    driver = build_driver()
    driver.run(5)
    gc.collect()
    periods = 20
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        driver.run(periods)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    retained_kb = (after - before) / 1024 / periods
    assert retained_kb < 380, f"{retained_kb:.0f} KB retained per period"
