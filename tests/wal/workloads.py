"""Shared builders for the durability tests.

Every test in this package ultimately asserts the same contract: a
crashed-and-recovered run is indistinguishable from one that never
crashed.  These helpers build the deterministic workloads both sides
of that comparison run.
"""

from repro.dsms.streams import SyntheticStream
from repro.service import ServiceBuilder


def build_service(mechanism="CAT", ticks=10, capacity=40.0, rate=5.0,
                  seed=0):
    return (ServiceBuilder()
            .with_sources(SyntheticStream("s", rate=rate, seed=seed))
            .with_capacity(capacity)
            .with_mechanism(mechanism)
            .with_ticks_per_period(ticks)
            .build())


def build_driver(*, wal=None, record=False, seed=7, rate=3.0,
                 mechanism="CAT", **options):
    """A deterministic open-system driver, optionally WAL-attached."""
    from repro.sim import SimulationDriver

    driver = SimulationDriver(
        build_service(mechanism=mechanism, seed=seed),
        arrivals=f"poisson:rate={rate},seed={seed}",
        record=record, **options)
    if wal is not None:
        driver.attach_wal(wal)
    return driver


def ledger_invoices(host):
    """Every invoice in *host*'s ledgers as comparable tuples."""
    services = getattr(host, "shards", None) or [host]
    return [
        (shard, invoice.period, invoice.query_id, invoice.owner,
         invoice.amount, invoice.mechanism)
        for shard, service in enumerate(services)
        for invoice in service.ledger.invoices
    ]


def assert_no_duplicate_invoices(invoices):
    """Exactly-once billing: one invoice per (shard, period, query)."""
    keys = [(shard, period, query_id)
            for shard, period, query_id, *_ in invoices]
    assert len(keys) == len(set(keys)), (
        f"duplicate invoices after recovery: "
        f"{sorted(k for k in keys if keys.count(k) > 1)}")


def driver_fingerprint(driver):
    """Everything recovery promises to preserve, comparably.

    ``repr`` rather than the JSON codec: it is exact on floats, covers
    open-system and subscription report types alike, and any report
    field that diverges shows up in the diff.
    """
    return {
        "period": driver.period,
        "events": driver.events_processed,
        "revenue": driver.total_revenue(),
        "reports": repr(list(driver.reports)),
        "invoices": ledger_invoices(driver.host),
    }
