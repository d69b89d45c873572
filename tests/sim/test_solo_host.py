"""A bare service hosted by the driver or the gateway ≡ the service alone.

The driver and the gateway's ``HostBackend`` accept a bare
:class:`~repro.service.AdmissionService` as well as a federation.  A
bare service must behave there exactly as it does driven by hand:
submit each period's batch, then run the period — or idle through it
when nothing is pending and nothing is admitted.

That idle rule is the "empty period" rule.  Only a direct
``AdmissionService.run_period()`` raises ``no queries to auction``;
the hosting layers have always idled a service on the same
``pending or admitted`` test a federation uses to pick its active
shards, so periods 1 and 3 below (nothing pending, nothing admitted)
idle on every path.
"""

import hashlib
import importlib
import json
import os

import pytest

from repro.cluster import ClusterSnapshot, FederatedAdmissionService
from repro.dsms.streams import SyntheticStream
from repro.serve.gateway import (
    DriverBackend,
    HostBackend,
    make_backend,
    report_document,
)
from repro.service import ServiceBuilder, ServiceSnapshot
from repro.sim import ScheduledArrivals, SimulationDriver
from repro.sim.arrivals import Arrival
from repro.utils.validation import ValidationError
from repro.wal import WriteAheadLog
from repro.wal.recovery import gateway_wal_state, recover_gateway_backend

from tests.strategies import select_query

MECHANISMS = ("CAT", "GV", "CAR", "two-price:seed=7")
PERIODS = 12
TICKS = 4


def build_service(mechanism):
    return (ServiceBuilder()
            .with_sources(SyntheticStream("s", rate=2.0, seed=0))
            .with_capacity(20.0)
            .with_mechanism(mechanism)
            .with_ticks_per_period(TICKS)
            .build())


def batch(period):
    """What arrives before *period*'s boundary.

    Period 1 gets nothing; period 2 only queries too large to fit
    (load 200 on capacity 20), so period 3 has nothing pending and
    nothing admitted; every fourth period after that gets nothing new,
    so the running queries re-bid alone.
    """
    if period in (1, 3) or period % 4 == 3:
        return []
    if period == 2:
        return [select_query(f"big{i}", f"c{i}", bid=50.0, cost=100.0)
                for i in range(2)]
    return [select_query(f"p{period}q{i}", f"c{i % 3}",
                         bid=5.0 + 7 * ((period * 5 + i * 3) % 11),
                         cost=0.5 + 0.75 * i)
            for i in range(6)]


def by_hand(mechanism):
    """The reference: the bare service, driven directly."""
    service = build_service(mechanism)
    reports = []
    for period in range(1, PERIODS + 1):
        for query in batch(period):
            service.submit(query)
        if service.pending_ids or service.engine.admitted_ids:
            reports.append(service.run_period())
        else:
            reports.append(service.run_idle_period())
    return reports


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_driver_over_a_bare_service_matches_the_service_alone(mechanism):
    # Period p's boundary is at time (p - 1) * TICKS; its batch
    # arrives half a tick before it.
    arrivals = [Arrival(time=(period - 1) * TICKS - 0.5, query=query)
                for period in range(2, PERIODS + 1)
                for query in batch(period)]
    driver = SimulationDriver(build_service(mechanism),
                              arrivals=ScheduledArrivals(arrivals))
    reports = driver.run(PERIODS)
    expected = by_hand(mechanism)
    assert [repr(report) for report in reports] == \
        [repr(report) for report in expected]
    assert any(report.outcome.mechanism == "idle" for report in reports)
    assert any(report.rejected for report in reports)


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_host_backend_over_a_bare_service_matches_the_service_alone(
        mechanism):
    backend = HostBackend(build_service(mechanism))
    bodies = []
    for period in range(1, PERIODS + 1):
        shards = [backend.submit(query) for query in batch(period)]
        assert shards == [0] * len(shards)
        bodies.append(json.dumps(report_document(backend.tick()),
                                 sort_keys=True))
    expected = [json.dumps(report_document(report), sort_keys=True)
                for report in by_hand(mechanism)]
    assert bodies == expected
    assert backend.period == PERIODS


# ----------------------------------------------------------------------
# The names and host kinds other builds and the macro benchmark read
# ----------------------------------------------------------------------


def build_federation():
    return FederatedAdmissionService.build(
        num_shards=2,
        sources=[SyntheticStream("s", rate=2.0, seed=0)],
        capacity=20.0,
        mechanism="CAT",
        ticks_per_period=TICKS,
        placement="round-robin",
    )


def checksums(directory):
    return {path.name: hashlib.md5(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


def test_the_adapter_module_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.sim.hosts")


def test_a_host_backend_reads_its_federation_as_host_cluster():
    # benchmarks/macro/workloads/serve.py reads this name.
    cluster = build_federation()
    assert make_backend(cluster).host.cluster is cluster
    backend = make_backend(build_service("CAT"))
    assert backend.host.cluster.shards == backend.services


@pytest.mark.parametrize("build,kind,payload", [
    (lambda: build_service("CAT"), "service", ServiceSnapshot),
    (build_federation, "cluster", ClusterSnapshot),
])
def test_a_driver_saves_its_host_as_the_kind_it_was_given(
        build, kind, payload):
    driver = SimulationDriver(build(), arrivals="poisson:rate=3,seed=1")
    driver.run(2)
    state = driver.snapshot().state
    assert state["host_kind"] == kind
    assert type(state["host"]) is payload
    restored = SimulationDriver.restore(driver.snapshot())
    assert restored.host.host_state()[0] == kind
    assert restored.host.period == driver.host.period == 2
    assert repr(restored.run(2)) == repr(driver.run(2))


@pytest.mark.parametrize("build,kind", [
    (lambda: build_service("CAT"), "service"),
    (build_federation, "cluster"),
])
def test_a_gateway_wal_saves_its_host_as_the_kind_it_was_given(
        tmp_path, build, kind):
    backend = HostBackend(build())
    backend.submit(select_query("q0", "a", bid=9.0, cost=1.0))
    backend.tick()
    state = gateway_wal_state(backend)
    assert state["kind"] == "host" and state["host_kind"] == kind
    WriteAheadLog.create(tmp_path / "wal", state).close()
    fresh = HostBackend(build())
    recover_gateway_backend(tmp_path / "wal", fresh).close()
    assert fresh.cluster.host_state()[0] == kind
    assert (fresh.period, fresh.total_revenue()) == \
        (backend.period, backend.total_revenue())


def test_an_unknown_host_kind_is_refused():
    state = SimulationDriver(build_service("CAT")).snapshot()
    state.state["host_kind"] = "bogus"
    with pytest.raises(ValidationError, match="host kind 'bogus'"):
        SimulationDriver.restore(state)


def test_a_wal_with_an_unknown_host_kind_is_refused_untouched(tmp_path):
    state = gateway_wal_state(HostBackend(build_service("CAT")))
    state["host_kind"] = "bogus"
    directory = tmp_path / "wal"
    WriteAheadLog.create(directory, state).close()
    before = checksums(directory)
    with pytest.raises(ValidationError, match="host kind 'bogus'"):
        recover_gateway_backend(directory, HostBackend(build_service("CAT")))
    assert checksums(directory) == before


def host_backend():
    return HostBackend(build_service("CAT"))


def driver_backend():
    return DriverBackend(SimulationDriver(build_service("CAT")))


def host_state():
    return gateway_wal_state(host_backend())


def driver_state():
    return gateway_wal_state(driver_backend())


def bogus_host_kind_state():
    return dict(host_state(), host_kind="bogus")


@pytest.mark.parametrize("written, handed_to, message", [
    (driver_state, host_backend, "written by a driver-backed gateway"),
    (host_state, driver_backend, "written by a host-backed gateway"),
    (bogus_host_kind_state, host_backend, "host kind 'bogus'"),
], ids=["driver-to-host", "host-to-driver", "unknown-host-kind"])
def test_a_refused_wal_with_a_torn_tail_is_left_as_found(
        tmp_path, written, handed_to, message):
    """Every refusal comes before the log is reopened: the torn final
    frame a resume would cut is still there, and no handle is left
    open."""
    directory = tmp_path / "wal"
    WriteAheadLog.create(directory, written()).close()
    with open(directory / "wal-00000000.log", "ab") as segment:
        segment.write(b"\x07torn final frame")
    backend = handed_to()
    before = checksums(directory)
    open_fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(ValidationError) as refused:
        recover_gateway_backend(directory, backend)
    # The refusal is still held here, as a gateway holds the one it
    # reports, so a log its traceback reached would still be open.
    assert len(os.listdir("/proc/self/fd")) == open_fds
    assert checksums(directory) == before
    assert message in str(refused.value)
