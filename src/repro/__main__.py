"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``        run a mechanism on one or more JSON instance files
``generate``   generate a Table III workload instance to JSON
``simulate``   run an AdmissionService for several periods (with
               optional checkpoint/resume)
``sim``        run the open-system event-driven simulation (arrival
               processes, subscription lifecycles, latency probe,
               trace record/replay, checkpoints)
``cluster``    run a sharded FederatedAdmissionService (placement
               policies, rebalancing, checkpoints)
``serve``      put an admission host on the network: the HTTP/JSON
               gateway (rate limits, retry budget, /metrics,
               graceful drain)
``report``     regenerate the paper's tables and figures
``verify``     run the Table I property-verification battery

Bad spec strings (``--scheduler warp``, ``--placement bogus``...) exit
with code 2 and a one-line ``repro: error:`` message naming the flag
and the offending spec — no tracebacks for misuse.

Mechanisms are given as *specs*: a registry name, optionally followed
by validated parameters — ``CAT``, ``two-price:seed=7``,
``two-price:seed=7,partition_mode=hash``.

Examples::

    python -m repro generate --queries 100 --sharing 8 -o wl.json
    python -m repro run CAT wl.json
    python -m repro run two-price:seed=7 wl.json -o outcome.json
    python -m repro run CAT wl1.json wl2.json wl3.json
    python -m repro simulate --mechanism CAT --periods 5
    python -m repro simulate --profile --periods 3
    python -m repro simulate --periods 3 --checkpoint svc.ckpt
    python -m repro simulate --periods 2 --resume svc.ckpt
    python -m repro sim --arrivals poisson:rate=2 --periods 10
    python -m repro sim --subscriptions --scheduler fifo --periods 10
    python -m repro sim --periods 5 --record run.trace.npz
    python -m repro sim --periods 5 --replay run.trace.npz
    python -m repro sim --shards 4 --arrivals poisson:rate=8
    python -m repro sim --periods 4 --checkpoint sim.ckpt
    python -m repro sim --periods 6 --resume sim.ckpt
    python -m repro cluster --shards 4 --periods 5
    python -m repro cluster --placement least-loaded --periods 3
    python -m repro cluster --periods 2 --checkpoint cl.ckpt
    python -m repro cluster --periods 2 --resume cl.ckpt
    python -m repro report
    python -m repro verify
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core import MechanismSpec
from repro.io import (
    load_instance,
    outcome_to_dict,
    save_instance,
    save_outcome,
)
from repro.utils.validation import ValidationError
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def _spec_with_seed(text: str, seed: "int | None") -> MechanismSpec:
    """Parse a mechanism spec, defaulting ``seed`` for mechanisms that
    take one (the historical ``--seed`` flag keeps working)."""
    spec = MechanismSpec.parse(text)
    if seed is not None and spec.accepts("seed") and "seed" not in spec.params:
        spec = spec.with_params(seed=seed)
    return spec.validate()


def _parse_spec(flag: str, text: str, parse):
    """Resolve one spec-string flag, naming flag and value on failure.

    Registry lookups raise ``KeyError`` (with the menu of known names)
    and parameter validation raises :class:`ValidationError`; either
    way the user typed a bad spec, so both become one
    :class:`ValidationError` whose message leads with the offending
    flag and spec string — which :func:`main` turns into a one-line
    stderr error and exit code 2, never a traceback.
    """
    try:
        return parse(text)
    except (ValidationError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise ValidationError(f"{flag} {text!r}: {message}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _parse_spec("mechanism", args.mechanism,
                       lambda text: _spec_with_seed(text, args.seed))
    mechanism = spec.create()
    instances = [load_instance(path) for path in args.instance]
    outcomes = mechanism.run_many(instances)
    if len(outcomes) == 1:
        document = outcome_to_dict(outcomes[0])
        if args.output:
            save_outcome(outcomes[0], args.output)
        print(json.dumps(document, indent=2))
        return 0
    documents = [
        {"instance": str(path), **outcome_to_dict(outcome)}
        for path, outcome in zip(args.instance, outcomes)
    ]
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(documents, indent=2) + "\n")
    print(json.dumps(documents, indent=2))
    return 0


def _synthetic_submissions(period, count, seed, owner_of):
    """The per-period synthetic workload shared by ``simulate`` and
    ``cluster``: derived per-period rng, so a resumed run draws the
    same bids an uninterrupted run would, instead of replaying period
    1's."""
    import numpy as np

    from repro.dsms.operators import SelectOperator
    from repro.dsms.plan import ContinuousQuery
    from repro.sim.arrivals import pass_all

    rng = np.random.default_rng([seed, period])
    for index in range(count):
        qid = f"p{period}_q{index}"
        op = SelectOperator(
            f"sel_{qid}", "s", pass_all,
            cost_per_tuple=float(np.round(rng.uniform(0.5, 2.0), 2)),
            selectivity_estimate=1.0)
        yield ContinuousQuery(
            qid, (op,), sink_id=op.op_id,
            bid=float(np.round(rng.uniform(5, 100), 2)),
            owner=owner_of(index))


def _profiled_period(service, timings: "list[dict]") -> "object":
    """One service period through the phased API, timing each phase.

    Equivalent to :meth:`AdmissionService.run_period`, with
    ``time.perf_counter`` wrapped around prepare / auction / settle /
    execute; appends the phase record to *timings* and returns the
    period report.
    """
    import time

    t0 = time.perf_counter()
    preparation = service.prepare_period()
    t1 = time.perf_counter()
    outcome = service.mechanism.run(preparation.instance)
    t2 = time.perf_counter()
    settlement = service.settle_period(preparation, outcome)
    t3 = time.perf_counter()
    report = service.execute_period(settlement)
    t4 = time.perf_counter()
    timings.append({
        "period": report.period,
        "prepare": t1 - t0,
        "auction": t2 - t1,
        "settle": t3 - t2,
        "execute": t4 - t3,
    })
    return report


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.dsms.streams import SyntheticStream
    from repro.service import AdmissionService, ServiceBuilder
    from repro.utils.tables import format_table

    if args.resume:
        service = AdmissionService.load_checkpoint(args.resume)
        start = service.period
    else:
        spec = _parse_spec(
            "--mechanism", args.mechanism,
            lambda text: _spec_with_seed(text, args.seed))
        service = (ServiceBuilder()
                   .with_sources(SyntheticStream(
                       "s", rate=args.rate, seed=args.seed))
                   .with_capacity(args.capacity)
                   .with_mechanism(spec)
                   .with_ticks_per_period(args.ticks)
                   .build())
        start = 0

    rows = []
    timings: list[dict] = []
    for period in range(start + 1, start + args.periods + 1):
        for query in _synthetic_submissions(
                period, args.queries_per_period, args.seed,
                lambda index: f"user_{index}"):
            service.submit(query)
        if args.profile:
            report = _profiled_period(service, timings)
        else:
            report = service.run_period()
        rows.append([
            report.period,
            len(report.admitted),
            len(report.rejected),
            report.revenue,
            (0.0 if report.engine_utilization is None
             else report.engine_utilization),
        ])
        if args.checkpoint:
            service.save_checkpoint(args.checkpoint)
    print(format_table(
        ["period", "admitted", "rejected", "revenue", "engine util"],
        rows, precision=2,
        title=(f"AdmissionService simulation — "
               f"{service.mechanism.name}, capacity "
               f"{service.capacity:g}")))
    print(f"total revenue: {service.total_revenue():.2f}")
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}")
    if args.profile:
        totals = {
            phase: sum(entry[phase] for entry in timings)
            for phase in ("prepare", "auction", "settle", "execute")
        }
        print(json.dumps({
            "profile": "simulate",
            "mechanism": str(service.mechanism.name),
            "periods": timings,
            "totals": totals,
        }, indent=2))
    return 0


def _parse_categories(text: str):
    """``"day=1:0.4,week=7:0.35"`` → SubscriptionCategory tuple."""
    from repro.cloud.subscriptions import (
        SubscriptionCategory,
        validate_categories,
    )
    from repro.utils.validation import ValidationError

    categories = []
    for item in text.split(","):
        name, sep, rest = item.partition("=")
        length, sep2, fraction = rest.partition(":")
        if not (sep and sep2 and name.strip()):
            raise ValidationError(
                f"cannot parse category {item!r}; expected "
                f"name=length:fraction, e.g. day=1:0.4")
        try:
            categories.append(SubscriptionCategory(
                name.strip(), int(length), float(fraction)))
        except ValueError as exc:
            raise ValidationError(
                f"cannot parse category {item!r}; expected "
                f"name=length:fraction with a whole-number length "
                f"and a numeric fraction, e.g. day=1:0.4") from exc
    return validate_categories(categories)


def _cmd_sim(args: argparse.Namespace) -> int:
    import time

    from repro.sim import ArrivalSpec, SimulationDriver
    from repro.utils.tables import format_table

    wal_log = None
    if args.wal and args.resume:
        from repro.utils.validation import ValidationError

        raise ValidationError(
            "--wal recovers from its own log directory and cannot "
            "be combined with --resume")
    if args.wal:
        from repro.wal import wal_exists

        wal_recover = wal_exists(args.wal)
    else:
        wal_recover = False

    if wal_recover:
        from repro.utils.validation import ValidationError
        from repro.wal import recover_sim_driver

        # The WAL directory fixes the simulation's configuration; the
        # workload flags on a recovering invocation are accepted (so
        # the original command line can simply be re-run after a
        # crash) but the recovered state wins.
        driver, wal_log = recover_sim_driver(
            args.wal, fsync=args.wal_fsync,
            compact_every=args.compact_every)
        if args.record and driver.recorder is None:
            raise ValidationError(
                f"WAL {args.wal!r} was created without --record, so "
                f"a recovered run cannot produce a complete trace")
        print(f"wal: recovered {args.wal} at period {driver.period} "
              f"(replayed {wal_log.stats.get('replayed', 0)} period "
              f"record(s)"
              + (", torn tail truncated)" if wal_log.stats["torn_tail"]
                 else ")"))
    elif args.resume:
        from repro.utils.validation import ValidationError

        # A checkpoint carries the whole simulation configuration;
        # flags that would change it are rejected rather than
        # silently ignored.
        conflicting = [
            flag for flag, is_set in (
                ("--replay", args.replay is not None),
                ("--arrivals", args.arrivals is not None),
                ("--subscriptions", args.subscriptions),
                ("--categories", args.categories is not None),
                ("--no-renew", args.no_renew),
                ("--max-renewals", args.max_renewals is not None),
                ("--scheduler", args.scheduler is not None),
                ("--shards", args.shards is not None),
                ("--placement", args.placement is not None),
                ("--route", args.route is not None),
                ("--mechanism", args.mechanism is not None),
                ("--capacity", args.capacity is not None),
                ("--rate", args.rate is not None),
                ("--ticks", args.ticks is not None),
                ("--seed", args.seed is not None),
                ("--probe-retention", args.probe_retention is not None),
            ) if is_set
        ]
        if conflicting:
            raise ValidationError(
                f"{', '.join(conflicting)} cannot be combined with "
                f"--resume; the checkpoint already fixes the "
                f"simulation's configuration")
        driver = SimulationDriver.load_checkpoint(args.resume)
        if args.record and driver.recorder is None:
            raise ValidationError(
                f"checkpoint {args.resume!r} was not recording, so a "
                f"resumed run cannot produce a complete trace; rerun "
                f"the original simulation with --record")
    else:
        from repro.sim import SubscriptionOptions
        from repro.utils.validation import ValidationError

        _apply_sim_defaults(args)
        if args.replay and args.arrivals:
            raise ValidationError(
                "--replay substitutes the recorded trace for the "
                "workload and cannot be combined with --arrivals")
        if args.replay:
            arrivals: "list[object]" = [f"trace:path={args.replay}"]
        else:
            from repro.utils.rng import derive_seed

            texts = args.arrivals or ["poisson:rate=2"]
            arrivals = []
            for index, text in enumerate(texts):
                spec = _parse_spec(
                    "--arrivals", text,
                    lambda t: ArrivalSpec.parse(t).validate())
                # Each process gets its own derived seed and query-id
                # prefix unless the spec pins them, so several
                # --arrivals flags never collide on ids or share an
                # RNG stream.
                if spec.accepts("seed") and "seed" not in spec.params:
                    spec = spec.with_params(seed=(
                        args.seed if len(texts) == 1
                        else derive_seed(args.seed, "arrivals", index)))
                if (len(texts) > 1 and spec.accepts("prefix")
                        and "prefix" not in spec.params):
                    spec = spec.with_params(prefix=f"s{index}a")
                arrivals.append(_parse_spec(
                    "--arrivals", text,
                    lambda _t, spec=spec: spec.validate()))
        subscriptions = None
        if args.subscriptions or args.categories:
            subscriptions = SubscriptionOptions(
                categories=(_parse_categories(args.categories)
                            if args.categories else
                            SubscriptionOptions().categories),
                auto_renew=not args.no_renew,
                max_renewals=args.max_renewals,
                seed=args.seed,
            )
        probe = None
        if args.scheduler:
            from repro.dsms.scheduler import resolve_policy

            probe = _parse_spec("--scheduler", args.scheduler,
                                resolve_policy)
        host = _build_sim_host(args)
        driver = SimulationDriver(
            host,
            arrivals=arrivals,
            subscriptions=subscriptions,
            probe=probe,
            record=bool(args.record),
            route=args.route,
            probe_retention=args.probe_retention,
        )
        if args.wal:
            from repro.wal import WriteAheadLog

            wal_log = WriteAheadLog.create(
                args.wal, driver.snapshot(), fsync=args.wal_fsync,
                compact_every=args.compact_every)
            driver.attach_wal(wal_log)

    # Under --wal, --periods is the run's total horizon: a recovered
    # invocation runs only the boundaries the crash cut short, so
    # crash + re-run converges to the same final state as one
    # uninterrupted run.
    remaining = (max(0, args.periods - driver.period)
                 if wal_log is not None else args.periods)
    started = time.perf_counter()
    rows = []
    for _ in range(remaining):
        report = driver.run(1)[0]
        rows.append(_sim_report_row(report))
        if args.checkpoint:
            driver.save_checkpoint(args.checkpoint)
    elapsed = time.perf_counter() - started

    mode = "subscriptions" if driver.managers else "re-auction"
    print(format_table(
        ["period", "admitted", "rejected", "expired", "renewed",
         "revenue", "util"],
        rows, precision=2,
        title=(f"Open-system simulation — {mode}, "
               f"{len(driver.host.services)} shard(s), "
               f"{args.periods} boundaries")))
    print(f"total revenue: {driver.total_revenue():.2f}")
    print(f"events processed: {driver.events_processed} "
          f"({driver.events_processed / elapsed:.0f}/s)")
    if driver.probes:
        snapshot = driver.metrics_snapshot()
        latency = snapshot["latency"]
        print(f"probe: mean queue {snapshot['mean_queue']:.1f}, "
              f"max queue {snapshot['max_queue']}, latency "
              f"p50 {latency['p50']:.1f} / p95 {latency['p95']:.1f} / "
              f"p99 {latency['p99']:.1f} ticks")
    if args.record:
        from repro.io import save_sim_trace

        save_sim_trace(driver.trace(), args.record)
        print(f"trace written to {args.record}")
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}")
    if wal_log is not None:
        wal_log.sync()
        final = _write_wal_final_report(driver, args.wal)
        stats = wal_log.stats_snapshot()
        wal_log.close()
        print(f"wal: {stats['records']} record(s), "
              f"{stats['compactions']} compaction(s), "
              f"{stats['fsyncs']} fsync(s), "
              f"final report {final}")
    return 0


def _write_wal_final_report(driver, wal_dir: str) -> str:
    """Write the convergence artifact the kill-matrix diffs.

    Everything durability promises to preserve, in one deterministic
    JSON document: the per-period report rows, the cumulative totals,
    and the complete billing ledger — a crashed-and-recovered run must
    produce this file byte-identical to the uninterrupted run's.
    """
    import json
    from pathlib import Path

    from repro.io import _atomic_write_text

    document = {
        "schema": "repro/wal-final-report",
        "version": 1,
        "periods": driver.period,
        "events_processed": driver.events_processed,
        "total_revenue": driver.total_revenue(),
        "rows": [_sim_report_row(report) for report in driver.reports],
        "invoices": [
            {"shard": index,
             "invoices": [[invoice.period, invoice.query_id,
                           invoice.owner, invoice.amount,
                           invoice.mechanism]
                          for invoice in service.ledger.invoices]}
            for index, service in enumerate(driver.host.services)],
    }
    path = Path(wal_dir) / "final_report.json"
    _atomic_write_text(
        path, json.dumps(document, sort_keys=True, indent=1) + "\n")
    return str(path)


def _apply_sim_defaults(args: argparse.Namespace) -> None:
    """Fill the ``sim`` parser's deferred defaults.

    The parser leaves workload settings as ``None`` so the resume
    branch can tell "explicitly set" (a conflict with the checkpoint)
    from "defaulted"; a fresh build resolves them here.
    """
    defaults = {
        "shards": 1,
        "placement": "consistent-hash",
        "route": "placement",
        "mechanism": "CAT",
        "capacity": 40.0,
        "rate": 5.0,
        "ticks": 20,
        "seed": 0,
    }
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)


def _sim_report_row(report) -> list:
    """One boundary report as a table row, whatever the host produced.

    The driver yields :class:`~repro.sim.SimPeriodReport`
    (subscription mode) or the host's own report —
    :class:`~repro.service.PeriodReport` for a service,
    :class:`~repro.cluster.ClusterReport` for a federation.  The first
    two share ``revenue``/``engine_utilization``; the cluster report
    aggregates as ``total_revenue``/``utilization``; only the
    subscription report has expiries and renewals.
    """
    from repro.cluster.reports import ClusterReport

    if isinstance(report, ClusterReport):
        revenue, utilization = report.total_revenue, report.utilization
    else:
        revenue, utilization = report.revenue, report.engine_utilization
    return [
        report.period,
        len(report.admitted),
        len(report.rejected),
        len(getattr(report, "expired", ())),
        len(getattr(report, "renewed", ())),
        revenue,
        0.0 if utilization is None else utilization,
    ]


def _build_sim_host(args: argparse.Namespace):
    from repro.dsms.streams import SyntheticStream
    from repro.service import ServiceBuilder

    spec = _parse_spec("--mechanism", args.mechanism,
                       lambda text: _spec_with_seed(text, args.seed))
    if args.shards > 1:
        from repro.cluster import FederatedAdmissionService
        from repro.cluster.placement import resolve_placement

        return FederatedAdmissionService.build(
            num_shards=args.shards,
            sources=[SyntheticStream("s", rate=args.rate,
                                     seed=args.seed)],
            capacity=args.capacity,
            mechanism=spec,
            ticks_per_period=args.ticks,
            placement=_parse_spec("--placement", args.placement,
                                  resolve_placement),
        )
    return (ServiceBuilder()
            .with_sources(SyntheticStream("s", rate=args.rate,
                                          seed=args.seed))
            .with_capacity(args.capacity)
            .with_mechanism(spec)
            .with_ticks_per_period(args.ticks)
            .build())


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import FederatedAdmissionService
    from repro.dsms.streams import SyntheticStream
    from repro.utils.tables import format_table

    if args.resume:
        cluster = FederatedAdmissionService.load_checkpoint(args.resume)
        start = cluster.period
    else:
        from repro.cluster.placement import resolve_placement

        spec = _parse_spec("--mechanism", args.mechanism,
                           lambda text: _spec_with_seed(text, args.seed))
        cluster = FederatedAdmissionService.build(
            num_shards=args.shards,
            sources=[SyntheticStream("s", rate=args.rate, seed=args.seed)],
            capacity=args.capacity,
            mechanism=spec,
            ticks_per_period=args.ticks,
            placement=_parse_spec("--placement", args.placement,
                                  resolve_placement),
            rebalance=not args.no_rebalance,
        )
        start = 0

    rows = []
    for period in range(start + 1, start + args.periods + 1):
        for query in _synthetic_submissions(
                period, args.queries_per_period, args.seed,
                lambda index: f"user_{index % max(1, args.clients)}"):
            cluster.submit(query)
        report = cluster.run_period()
        rows.append([
            report.period,
            len(report.admitted),
            len(report.rejected),
            len(report.migrated),
            report.total_revenue,
            (0.0 if report.utilization is None
             else report.utilization),
        ])
        if args.checkpoint:
            cluster.save_checkpoint(args.checkpoint)
    print(format_table(
        ["period", "admitted", "rejected", "migrated", "revenue",
         "cluster util"],
        rows, precision=2,
        title=(f"Federated cluster — {cluster.num_shards} shards, "
               f"{cluster.placement.name} placement, "
               f"capacity {cluster.shards[0].capacity:g}/shard")))
    print(f"total revenue: {cluster.total_revenue():.2f}")
    if args.checkpoint:
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _serve_target_and_config(args: argparse.Namespace):
    """Build the (backend target, gateway config) pair for ``serve``.

    Split from :func:`_cmd_serve` so tests can exercise the wiring
    without binding a socket or entering the event loop.
    """
    from repro.serve import GatewayConfig

    host = _build_sim_host(args)
    target: object = host
    if args.subscriptions or args.categories or args.scheduler:
        from repro.sim import SimulationDriver, SubscriptionOptions

        subscriptions = None
        if args.subscriptions or args.categories:
            subscriptions = SubscriptionOptions(
                categories=(_parse_categories(args.categories)
                            if args.categories else
                            SubscriptionOptions().categories),
                seed=args.seed,
            )
        probe = None
        if args.scheduler:
            from repro.dsms.scheduler import resolve_policy

            probe = _parse_spec("--scheduler", args.scheduler,
                                resolve_policy)
        target = SimulationDriver(
            host, subscriptions=subscriptions, probe=probe)
    config = GatewayConfig(
        host=args.host,
        port=args.port,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        max_inflight=args.max_inflight,
        fast_timeout=args.fast_timeout,
        slow_timeout=args.slow_timeout,
        tick_interval=args.tick_interval,
        log_path=args.log,
        quiet=args.quiet,
        wal_dir=args.wal,
        wal_fsync=args.wal_fsync,
        compact_every=args.compact_every,
        wal_group_commit=args.wal_group_commit,
        wal_group_window=args.wal_group_window,
    )
    return target, config


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import serve_forever

    target, config = _serve_target_and_config(args)
    asyncio.run(serve_forever(target, config))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    config = WorkloadConfig().scaled(args.queries)
    generator = WorkloadGenerator(config=config, seed=args.seed)
    instance = generator.instance(
        max_sharing=args.sharing,
        capacity=args.capacity,
    )
    save_instance(instance, args.output)
    print(f"wrote {instance.num_queries} queries / "
          f"{len(instance.operators)} operators "
          f"(demand {instance.total_demand():.1f}, capacity "
          f"{instance.capacity:g}) to {args.output}")
    return 0


def _cmd_report(_args: argparse.Namespace) -> int:
    from repro.experiments.report import full_report

    print(full_report().render())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.gametheory.properties import (
        render_verdicts,
        verify_properties,
    )

    verdicts = verify_properties(seed=args.seed)
    print(render_verdicts(verdicts))
    return 0 if all(v.consistent for v in verdicts) else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Admission-control auctions for continuous queries "
                    "(ICDE 2010 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run a mechanism on one or more JSON instances")
    run.add_argument("mechanism",
                     help="a mechanism spec: CAR, CAF, CAF+, CAT, CAT+, "
                          "GV, Two-price, Random, OPT_C, k-unit, "
                          "knapsack — optionally with parameters, e.g. "
                          "two-price:seed=7")
    run.add_argument("instance", nargs="+",
                     help="path(s) to instance JSON file(s); several "
                          "run as one batch")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for randomized mechanisms (unless the "
                          "spec sets one)")
    run.add_argument("-o", "--output", default=None,
                     help="also write the outcome JSON here")
    run.set_defaults(handler=_cmd_run)

    simulate = commands.add_parser(
        "simulate",
        help="run an AdmissionService over synthetic submissions")
    simulate.add_argument("--mechanism", default="CAT",
                          help="mechanism spec (default CAT)")
    simulate.add_argument("--periods", type=int, default=5)
    simulate.add_argument("--queries-per-period", type=int, default=6)
    simulate.add_argument("--capacity", type=float, default=40.0)
    simulate.add_argument("--rate", type=float, default=5.0,
                          help="stream arrival rate (tuples/tick)")
    simulate.add_argument("--ticks", type=int, default=20,
                          help="engine ticks per subscription period")
    simulate.add_argument("--profile", action="store_true",
                          help="dump per-phase (prepare/auction/"
                               "settle/execute) wall-clock timings "
                               "as JSON after the run")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--checkpoint", default=None,
                          help="write a resumable checkpoint here "
                               "after every period")
    simulate.add_argument("--resume", default=None,
                          help="resume from a checkpoint file instead "
                               "of starting fresh")
    simulate.set_defaults(handler=_cmd_simulate)

    sim = commands.add_parser(
        "sim",
        help="run the open-system event-driven simulation (arrival "
             "processes, subscriptions, latency probe, trace replay)")
    sim.add_argument("--arrivals", action="append", default=None,
                     help="arrival-process spec (repeatable; one per "
                          "shard with --route stream): "
                          "poisson:rate=2, burst:size=20,every=10, "
                          "trace:path=run.trace.json "
                          "(default poisson:rate=2)")
    sim.add_argument("--periods", type=int, default=5,
                     help="period boundaries to run")
    sim.add_argument("--subscriptions", action="store_true",
                     help="run Section VII subscription lifecycles "
                          "(per-category auctions, expiry, renewal)")
    sim.add_argument("--categories", default=None,
                     help="subscription category mix as "
                          "name=length:fraction pairs, e.g. "
                          "day=1:0.4,week=7:0.35,month=30:0.25 "
                          "(implies --subscriptions)")
    sim.add_argument("--no-renew", action="store_true",
                     help="expired subscriptions do not resubmit")
    sim.add_argument("--max-renewals", type=int, default=None,
                     help="bound on automatic renewals per query")
    sim.add_argument("--scheduler", default=None,
                     help="attach the latency probe with this "
                          "scheduling-policy spec: fifo, round-robin, "
                          "longest-queue-first, cheapest-first")
    sim.add_argument("--record", default=None,
                     help="write the run's arrival trace (the v2 "
                          ".npz container, repro/sim-trace) here")
    sim.add_argument("--replay", default=None,
                     help="replay a recorded trace instead of "
                          "generating arrivals")
    sim.add_argument("--shards", type=int, default=None,
                     help="drive a federated cluster with this many "
                          "shards (default 1: a single service)")
    sim.add_argument("--placement", default=None,
                     help="cluster placement spec (with --shards > 1; "
                          "default consistent-hash)")
    sim.add_argument("--route", choices=("placement", "stream"),
                     default=None,
                     help="arrival routing: by placement policy "
                          "(default), or arrival process i pinned to "
                          "shard i")
    sim.add_argument("--probe-retention", type=int, default=None,
                     help="keep only the most recent N probe tick "
                          "records and latency samples (default: "
                          "unbounded, exact over the whole run)")
    sim.add_argument("--mechanism", default=None,
                     help="mechanism spec (default CAT)")
    sim.add_argument("--capacity", type=float, default=None,
                     help="per-shard capacity (default 40)")
    sim.add_argument("--rate", type=float, default=None,
                     help="stream arrival rate (tuples/tick, "
                          "default 5)")
    sim.add_argument("--ticks", type=int, default=None,
                     help="engine ticks per subscription period "
                          "(default 20)")
    sim.add_argument("--seed", type=int, default=None,
                     help="base seed (default 0)")
    sim.add_argument("--checkpoint", default=None,
                     help="write a resumable simulation checkpoint "
                          "here after every period")
    sim.add_argument("--resume", default=None,
                     help="resume from a simulation checkpoint "
                          "instead of starting fresh")
    sim.add_argument("--wal", default=None, metavar="DIR",
                     help="write-ahead log directory: every settle "
                          "window is logged before the run moves on, "
                          "and re-running the same command after a "
                          "crash recovers and converges to the "
                          "uninterrupted result (--periods is the "
                          "total horizon)")
    sim.add_argument("--wal-fsync", default="batch:256",
                     metavar="POLICY",
                     help="WAL fsync policy: never, always, or "
                          "batch:N (default batch:256)")
    sim.add_argument("--compact-every", type=int, default=64,
                     metavar="PERIODS",
                     help="fold the WAL into a fresh snapshot and "
                          "truncate recovered segments every this "
                          "many periods (default 64; 0 disables)")
    sim.set_defaults(handler=_cmd_sim)

    cluster = commands.add_parser(
        "cluster",
        help="run a sharded FederatedAdmissionService over synthetic "
             "submissions")
    cluster.add_argument("--shards", type=int, default=4,
                         help="number of AdmissionService shards")
    cluster.add_argument("--placement", default="consistent-hash",
                         help="placement spec: consistent-hash, "
                              "least-loaded, round-robin — optionally "
                              "with parameters, e.g. "
                              "consistent-hash:seed=7")
    cluster.add_argument("--mechanism", default="CAT",
                         help="mechanism spec (default CAT)")
    cluster.add_argument("--periods", type=int, default=5)
    cluster.add_argument("--queries-per-period", type=int, default=12)
    cluster.add_argument("--clients", type=int, default=6,
                         help="distinct client owners submitting")
    cluster.add_argument("--capacity", type=float, default=40.0,
                         help="per-shard capacity")
    cluster.add_argument("--rate", type=float, default=5.0,
                         help="stream arrival rate (tuples/tick)")
    cluster.add_argument("--ticks", type=int, default=20,
                         help="engine ticks per subscription period")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--no-rebalance", action="store_true",
                         help="disable cross-shard migration of "
                              "rejected queries")
    cluster.add_argument("--checkpoint", default=None,
                         help="write a resumable cluster checkpoint "
                              "here after every period")
    cluster.add_argument("--resume", default=None,
                         help="resume from a cluster checkpoint "
                              "instead of starting fresh")
    cluster.set_defaults(handler=_cmd_cluster)

    serve = commands.add_parser(
        "serve",
        help="serve an admission host over HTTP/JSON (submit, "
             "withdraw, subscribe, period ticks, /metrics)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 = ephemeral; default 8080)")
    serve.add_argument("--shards", type=int, default=1,
                       help="serve a federated cluster with this many "
                            "shards (default 1: a single service)")
    serve.add_argument("--placement", default="consistent-hash",
                       help="cluster placement spec (with --shards > 1)")
    serve.add_argument("--mechanism", default="CAT",
                       help="mechanism spec (default CAT)")
    serve.add_argument("--capacity", type=float, default=40.0,
                       help="per-shard capacity (default 40)")
    serve.add_argument("--rate", type=float, default=5.0,
                       help="stream arrival rate (tuples/tick)")
    serve.add_argument("--ticks", type=int, default=20,
                       help="engine ticks per subscription period")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--subscriptions", action="store_true",
                       help="serve subscription lifecycles "
                            "(/v1/subscribe) through a simulation "
                            "driver")
    serve.add_argument("--categories", default=None,
                       help="subscription category mix, e.g. "
                            "day=1:0.4,week=7:0.35,month=30:0.25 "
                            "(implies --subscriptions)")
    serve.add_argument("--scheduler", default=None,
                       help="attach per-shard latency probes with this "
                            "scheduling-policy spec (surfaces in "
                            "/metrics)")
    serve.add_argument("--tick-interval", type=float, default=None,
                       help="run an auction period automatically every "
                            "this many seconds (default: only on "
                            "POST /v1/tick)")
    serve.add_argument("--client-rate", type=float, default=200.0,
                       help="per-client sustained requests/s before "
                            "429s (default 200)")
    serve.add_argument("--client-burst", type=float, default=50.0,
                       help="per-client burst allowance (default 50)")
    serve.add_argument("--max-inflight", type=int, default=64,
                       help="concurrent in-flight request cap "
                            "(default 64)")
    serve.add_argument("--fast-timeout", type=float, default=2.0,
                       help="data-plane request timeout, seconds")
    serve.add_argument("--slow-timeout", type=float, default=30.0,
                       help="auction-settle request timeout, seconds")
    serve.add_argument("--log", default=None,
                       help="append structured JSONL request logs here")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable stderr log")
    serve.add_argument("--wal", default=None, metavar="DIR",
                       help="write-ahead log directory: acknowledged "
                            "submissions and settles are logged "
                            "before the response goes out, and a "
                            "restarted gateway replays its log tail "
                            "(503 + /healthz recovery=replaying "
                            "until caught up)")
    serve.add_argument("--wal-fsync", default="batch:256",
                       metavar="POLICY",
                       help="WAL fsync policy: never, always, or "
                            "batch:N (default batch:256)")
    serve.add_argument("--compact-every", type=int, default=64,
                       metavar="PERIODS",
                       help="fold the WAL into a fresh snapshot "
                            "every this many settled periods "
                            "(default 64; 0 disables)")
    serve.add_argument("--wal-group-commit", action="store_true",
                       help="batch concurrent acknowledged mutations "
                            "into one fsync (leader/follower group "
                            "commit; needs --wal)")
    serve.add_argument("--wal-group-window", type=float,
                       default=0.002, metavar="SECONDS",
                       help="how long a group-commit leader waits "
                            "for followers before syncing "
                            "(default 0.002)")
    serve.set_defaults(handler=_cmd_serve)

    generate = commands.add_parser(
        "generate", help="generate a Table III workload instance")
    generate.add_argument("--queries", type=int, default=200)
    generate.add_argument("--sharing", type=int, default=8,
                          help="maximum degree of operator sharing")
    generate.add_argument("--capacity", type=float, default=None,
                          help="server capacity (default: paper ratio)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", default="instance.json")
    generate.set_defaults(handler=_cmd_generate)

    report = commands.add_parser(
        "report", help="regenerate the paper's tables and figures")
    report.set_defaults(handler=_cmd_report)

    verify = commands.add_parser(
        "verify", help="run the Table I property battery")
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code.

    Misuse — a bad spec string, conflicting flags, a malformed
    category list — prints one ``repro: error:`` line to stderr and
    exits 2, argparse-style, instead of dumping a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
