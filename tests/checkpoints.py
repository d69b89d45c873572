"""Three small checkpointable systems, one per stateful tier.

Shared by the checkpoint suites (cost/sharing, isolation, old files):
a driver with the pump, subscriptions and a ``fifo`` probe; a bare
service; a 4-shard cluster.  Every query is a
:func:`~repro.sim.arrivals.synthetic_query` (its predicate lives in
``repro``), so a checkpoint of any of them unpickles without importing
``tests``.

``python -m tests.checkpoints write`` rewrites the files under
``tests/data/`` — only ever from the commit whose format they pin —
and ``python -m tests.checkpoints check`` resumes each of them;
``check-batch`` resumes the one file ``write`` cannot produce (see
:data:`BATCH_TIER`).  All run under ``PYTHONHASHSEED=0``: the
subscription book sums operator
loads over a ``set``, so the last bit of a reclaimed capacity carried
inside a checkpoint depends on the hash seed of the process that wrote
it, and only a reader with the same seed continues it to the byte.

One more file set follows the same rule and has no ``write`` here at
all: ``tests/data/sim-wal.arrivals/`` is a ``sim --wal`` directory (a
segment and its genesis snapshot) written — only ever from the commit
whose format it pins — by the last build that logged ``ARRIVALS``
frames, which this build decodes and skips but cannot write.  The
command that wrote it is in ``tests/wal/test_format_compat.py``; it is
regenerated from that commit or not at all.
"""

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.cluster import FederatedAdmissionService
from repro.dsms.streams import SyntheticStream
from repro.io import (
    load_cluster_snapshot,
    load_sim_snapshot,
    load_snapshot,
    save_cluster_snapshot,
    save_sim_snapshot,
    save_snapshot,
)
from repro.service import AdmissionService, ServiceBuilder
from repro.sim import SimulationDriver, SubscriptionOptions
from repro.sim.arrivals import synthetic_query

DATA = Path(__file__).parent / "data"
#: Periods every committed checkpoint was taken after.
FIXTURE_PERIODS = 3


def batch(period: int, count: int = 4) -> list:
    """The queries submitted before *period*'s auction."""
    rng = np.random.default_rng(period)
    return [synthetic_query(rng, index, prefix=f"p{period}q")
            for index in range(count)]


def build_service(capacity: float = 8.0,
                  mechanism: str = "two-price:seed=7") -> AdmissionService:
    return (ServiceBuilder()
            .with_sources(SyntheticStream("s", rate=2.0, seed=3))
            .with_capacity(capacity)
            .with_mechanism(mechanism)
            .with_ticks_per_period(4)
            .build())


def build_cluster() -> FederatedAdmissionService:
    return FederatedAdmissionService.build(
        num_shards=4,
        sources=[SyntheticStream("s", rate=2.0, seed=3)],
        capacity=6.0,
        mechanism="CAT",
        ticks_per_period=4,
        placement="round-robin",
    )


def build_driver() -> SimulationDriver:
    return SimulationDriver(
        build_service(capacity=16.0, mechanism="GV"),
        arrivals="poisson:rate=1,seed=6",
        subscriptions=SubscriptionOptions(seed=6),
        probe="fifo",
        pump=True,
    )


def build_cluster_driver() -> SimulationDriver:
    return SimulationDriver(build_cluster(),
                            arrivals="poisson:rate=2,seed=6")


def advance(system, periods: int) -> list[str]:
    """Run *periods* more periods; each report, as its full ``repr``."""
    if isinstance(system, SimulationDriver):
        return [repr(report) for report in system.run(periods)]
    start = system.period
    return [repr(report) for report in system.run_periods(
        [batch(period) for period in range(start + 1,
                                           start + periods + 1)])]


@dataclass(frozen=True)
class Tier:
    """One stateful tier: how to build, restore, save and load it."""

    name: str
    build: Callable
    restore: Callable
    save: Callable
    load: Callable

    @property
    def fixture(self) -> Path:
        return DATA / f"{self.name}.checkpoint"


TIERS = (
    Tier("sim", build_driver, SimulationDriver.restore,
         save_sim_snapshot, load_sim_snapshot),
    Tier("service", build_service, AdmissionService.restore,
         save_snapshot, load_snapshot),
    Tier("cluster", build_cluster, FederatedAdmissionService.restore,
         save_cluster_snapshot, load_cluster_snapshot),
)


#: ``cluster-sim.batch.checkpoint``: :func:`build_cluster_driver` with
#: ``batch=True``, written by the last build that had the thread-pool
#: batch path.  Its state carries ``"batch": True``, which this build
#: neither writes nor reads — so it is not in :data:`TIERS`, and
#: ``write`` never rewrites it.
BATCH_TIER = Tier("cluster-sim.batch", build_cluster_driver,
                  SimulationDriver.restore, save_sim_snapshot,
                  load_sim_snapshot)


def write_fixtures() -> None:
    DATA.mkdir(exist_ok=True)
    for tier in TIERS:
        system = tier.build()
        advance(system, FIXTURE_PERIODS)
        tier.save(system.snapshot(), tier.fixture)
        print(f"{tier.fixture}: {tier.fixture.stat().st_size} bytes")


def check_fixtures(tiers=TIERS) -> None:
    """Each committed file resumes as the uninterrupted run continues."""
    for tier in tiers:
        uninterrupted = tier.build()
        advance(uninterrupted, FIXTURE_PERIODS)
        expected = advance(uninterrupted, 3)
        snapshot = tier.load(tier.fixture)
        resumed = tier.restore(snapshot)
        assert resumed.period == FIXTURE_PERIODS, tier.name
        assert advance(resumed, 3) == expected, tier.name
        assert ([repr(report) for report in resumed.reports]
                == [repr(report) for report in uninterrupted.reports]), \
            tier.name
        # The loaded snapshot is as reusable as a fresh one.
        assert advance(tier.restore(snapshot), 3) == expected, tier.name
        print(f"{tier.name}: resumed {tier.fixture.name}")


def check_batch_fixture() -> None:
    """The stored ``"batch": True`` is ignored, not an error."""
    assert load_sim_snapshot(BATCH_TIER.fixture).state["batch"] is True
    check_fixtures((BATCH_TIER,))


if __name__ == "__main__":
    if sys.flags.hash_randomization:
        sys.exit("run with PYTHONHASHSEED=0")
    {"write": write_fixtures, "check": check_fixtures,
     "check-batch": check_batch_fixture}[sys.argv[1]]()
