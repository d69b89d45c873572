"""repro — Admission Control Mechanisms for Continuous Queries in the Cloud.

A full reproduction of Chung et al. (ICDE 2010): auction-based admission
control for continuous queries submitted to a capacity-limited DSMS
"cloud", with operator sharing between queries — grown into a
composable admission *service* with pluggable mechanisms, lifecycle
hooks, and checkpoint/restore.

Packages:

* :mod:`repro.core` — the auction model and all mechanisms (CAR, CAF,
  CAF+, CAT, CAT+, GV, Two-price, Random, OPT_C), the name-based
  registry, and declarative :class:`MechanismSpec` configuration.
* :mod:`repro.service` — the public service API: an
  :class:`AdmissionService` facade assembled by a
  :class:`ServiceBuilder`, composed of an auction coordinator, a
  transition manager, a billing ledger, and a lifecycle-hook system;
  snapshot/restore included.
* :mod:`repro.cluster` — the scale-out layer: a
  :class:`FederatedAdmissionService` sharding submissions over N
  service instances via pluggable placement policies, with cross-shard
  rebalancing of rejected load, and whole-cluster checkpointing.
* :mod:`repro.sim` — the open-system event-driven simulation runtime:
  a checkpointable :class:`SimulationDriver` with a virtual clock,
  spec-addressable arrival processes (``"poisson:rate=40"``,
  ``"burst"``, ``"trace:path=..."``), subscription lifecycles
  (expiry, renewal, per-category billing), a latency probe, and
  byte-identical trace record/replay.
* :mod:`repro.serve` — the serving layer: an asyncio HTTP/JSON
  :class:`AdmissionGateway` over any service, federation, or
  simulation driver (submit/subscribe/withdraw/tick/report plus
  ``/healthz`` and ``/metrics``), hardened with per-client token
  buckets, tiered timeouts, a server-side retry budget, and graceful
  drain-then-settle shutdown; ships a seeded socket-level load
  generator.
* :mod:`repro.workload` — the Table III workload generator, including
  the operator-splitting procedure for varying the degree of sharing,
  and the lying workloads of Figure 5.
* :mod:`repro.gametheory` — the Table I property battery behind
  ``python -m repro verify``, the sybil search, and the paper's
  constructive attacks (Section V).
* :mod:`repro.dsms` — an Aurora-style stream engine that runs admitted
  queries (shared operators, connection points, transition phase),
  plus the tuple-level load shedders the paper's introduction
  contrasts admission with.
* :mod:`repro.cloud` — billing, multi-period subscriptions and
  energy-aware capacity selection (Section VII).
* :mod:`repro.experiments` — the harness behind ``python -m repro
  report`` and ``benchmarks/bench_*.py``: every table and figure of
  the evaluation.

Quickstart — one auction::

    from repro import MechanismSpec
    from repro.workload import example1

    outcome = MechanismSpec.parse("CAT").create().run(example1())
    print(outcome.winner_ids, outcome.profit)

Quickstart — a running service::

    from repro.dsms import SyntheticStream
    from repro.service import ServiceBuilder

    service = (ServiceBuilder()
        .with_sources(SyntheticStream("s", rate=5, poisson=False))
        .with_capacity(30.0)
        .with_mechanism("two-price:seed=7")
        .with_ticks_per_period(10)
        .build())
    service.submit(query)           # a repro.dsms ContinuousQuery
    report = service.run_period()   # auction → bill → transition → run
    service.save_checkpoint("svc.ckpt")   # resume later, bit-identical
"""

from repro.core import (
    CAF,
    CAFPlus,
    CAR,
    CAT,
    CATPlus,
    AuctionInstance,
    AuctionOutcome,
    GreedyByValuation,
    Mechanism,
    MechanismSpec,
    Operator,
    OptimalConstantPrice,
    PAPER_MECHANISMS,
    Query,
    RandomAdmission,
    TwoPrice,
    make_mechanism,
    mechanism_params,
    optimal_constant_pricing,
    register_mechanism,
    registered_mechanisms,
    remaining_load,
    resolve_mechanism,
    static_fair_share_load,
    total_load,
)
from repro.service import (
    AdmissionService,
    HookRegistry,
    PeriodReport,
    ServiceBuilder,
    ServiceSnapshot,
)

__version__ = "1.1.0"

__all__ = [
    "AdmissionService",
    "AuctionInstance",
    "AuctionOutcome",
    "CAF",
    "CAFPlus",
    "CAR",
    "CAT",
    "CATPlus",
    "GreedyByValuation",
    "HookRegistry",
    "Mechanism",
    "MechanismSpec",
    "Operator",
    "OptimalConstantPrice",
    "PAPER_MECHANISMS",
    "PeriodReport",
    "Query",
    "RandomAdmission",
    "ServiceBuilder",
    "ServiceSnapshot",
    "TwoPrice",
    "__version__",
    "make_mechanism",
    "mechanism_params",
    "optimal_constant_pricing",
    "register_mechanism",
    "registered_mechanisms",
    "remaining_load",
    "resolve_mechanism",
    "static_fair_share_load",
    "total_load",
]
