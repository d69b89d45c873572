"""The open-system event-driven simulation runtime.

The paper's economics are temporal — queries arrive continuously,
subscribe for a period, get billed, expire, renew — and this package
is where that timeline actually runs.  :class:`SimulationDriver` is a
checkpointable discrete-event loop over an
:class:`~repro.service.AdmissionService` or a whole
:class:`~repro.cluster.FederatedAdmissionService`; arrival processes
are spec-addressable (``"poisson:rate=40"``, ``"burst"``,
``"trace:path=..."``); subscription lifecycles run Section VII's
per-category auctions as first-class period events; a latency probe
surfaces per-tick queue depth and SLA percentiles; and every run can
be recorded into a ``repro/sim-trace`` document and replayed
byte-identically.
"""

from repro.sim.arrivals import (
    Arrival,
    ArrivalProcess,
    ArrivalSpec,
    BurstArrivals,
    PoissonArrivals,
    ScheduledArrivals,
    TraceArrivals,
    make_arrivals,
    register_arrivals,
    registered_arrivals,
    resolve_arrivals,
    synthetic_query,
)
from repro.sim.driver import (
    SIM_STATE_VERSION,
    LatencyProbe,
    SimPeriodReport,
    SimSnapshot,
    SimulationDriver,
    TickMetrics,
)
from repro.sim.events import (
    ArrivalEvent,
    Event,
    EventQueue,
    ExpiryEvent,
    PeriodEvent,
    RenewalEvent,
    TickEvent,
)
from repro.sim.metrics import (
    latency_percentiles,
    metrics_snapshot,
    percentile_dict,
)
from repro.sim.subscriptions import (
    SubscriptionEntry,
    SubscriptionManager,
    SubscriptionOptions,
    SubscriptionPeriodResult,
)
from repro.sim.trace import SimTrace, TraceEntry, TraceRecorder

__all__ = [
    "Arrival",
    "ArrivalEvent",
    "ArrivalProcess",
    "ArrivalSpec",
    "BurstArrivals",
    "Event",
    "EventQueue",
    "ExpiryEvent",
    "LatencyProbe",
    "PeriodEvent",
    "PoissonArrivals",
    "RenewalEvent",
    "SIM_STATE_VERSION",
    "ScheduledArrivals",
    "SimPeriodReport",
    "SimSnapshot",
    "SimTrace",
    "SimulationDriver",
    "SubscriptionEntry",
    "SubscriptionManager",
    "SubscriptionOptions",
    "SubscriptionPeriodResult",
    "TickEvent",
    "TickMetrics",
    "TraceArrivals",
    "TraceEntry",
    "TraceRecorder",
    "latency_percentiles",
    "make_arrivals",
    "metrics_snapshot",
    "percentile_dict",
    "register_arrivals",
    "registered_arrivals",
    "resolve_arrivals",
    "synthetic_query",
]
