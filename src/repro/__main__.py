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

A flag several subcommands take (``--shards``, ``--wal-fsync``...) is
defined once, in :func:`_flag_groups`, and reads, defaults and
validates the same on each of them.

Examples::

    python -m repro generate --queries 100 --sharing 8 -o wl.json
    python -m repro run CAT wl.json
    python -m repro run two-price:seed=7 wl.json -o outcome.json
    python -m repro run CAT wl1.json wl2.json wl3.json
    python -m repro simulate --mechanism CAT --periods 5
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


def _build_host(args: argparse.Namespace, federate: bool, **federation):
    """The admission host the *system* (and *federation*) flags name:
    one service, or with *federate* a ``--shards``-way federation."""
    from repro.dsms.streams import SyntheticStream

    spec = _parse_spec("--mechanism", args.mechanism,
                       lambda text: _spec_with_seed(text, args.seed))
    source = SyntheticStream("s", rate=args.rate, seed=args.seed)
    if federate:
        from repro.cluster import FederatedAdmissionService
        from repro.cluster.placement import resolve_placement

        return FederatedAdmissionService.build(
            num_shards=args.shards,
            sources=[source],
            capacity=args.capacity,
            mechanism=spec,
            ticks_per_period=args.ticks,
            placement=_parse_spec("--placement", args.placement,
                                  resolve_placement),
            **federation,
        )
    from repro.service import ServiceBuilder

    return (ServiceBuilder()
            .with_sources(source)
            .with_capacity(args.capacity)
            .with_mechanism(spec)
            .with_ticks_per_period(args.ticks)
            .build())


def _build_system(args: argparse.Namespace, **renewal):
    """``(host, subscriptions, probe)`` from the *system*, *federation*
    and *lifecycle* flags — what ``sim`` simulates and ``serve`` serves.

    *renewal* carries the ``SubscriptionOptions`` only ``sim`` has
    flags for.
    """
    subscriptions = None
    if args.subscriptions or args.categories:
        from repro.sim import SubscriptionOptions

        subscriptions = SubscriptionOptions(
            categories=(_parse_categories(args.categories)
                        if args.categories else
                        SubscriptionOptions().categories),
            seed=args.seed,
            **renewal,
        )
    probe = None
    if args.scheduler:
        from repro.dsms.scheduler import resolve_policy

        probe = _parse_spec("--scheduler", args.scheduler,
                            resolve_policy)
    host = _build_host(args, federate=args.shards > 1)
    return host, subscriptions, probe


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.service import AdmissionService
    from repro.utils.tables import format_table

    if args.resume:
        service = AdmissionService.load_checkpoint(args.resume)
    else:
        service = _build_host(args, federate=False)
    start = service.period

    rows = []
    for period in range(start + 1, start + args.periods + 1):
        for query in _synthetic_submissions(
                period, args.queries_per_period, args.seed,
                lambda index: f"user_{index}"):
            service.submit(query)
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
        raise ValidationError(
            "--wal recovers from its own log directory and cannot "
            "be combined with --resume")
    if args.wal:
        from repro.wal import wal_exists

        wal_recover = wal_exists(args.wal)
    else:
        wal_recover = False

    # ``sim`` defers the defaults of everything that configures the
    # simulation (None = not given on this command line).
    workload = [action for group in _flag_groups(*_SIM_WORKLOAD)
                for action in group._actions]
    if wal_recover:
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
        # A checkpoint carries the whole simulation configuration;
        # flags that would change it are rejected rather than
        # silently ignored.
        conflicting = [action.option_strings[0] for action in workload
                       if getattr(args, action.dest) is not None]
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
        for action in workload:
            if getattr(args, action.dest) is None:
                setattr(args, action.dest, action.default)
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
        host, subscriptions, probe = _build_system(
            args, auto_renew=not args.no_renew,
            max_renewals=args.max_renewals)
        driver = SimulationDriver(
            host,
            arrivals=arrivals,
            subscriptions=subscriptions,
            probe=probe,
            record=bool(args.record),
            route=args.route,
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
               f"{len(driver.host.shards)} shard(s), "
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
            for index, service in enumerate(driver.host.shards)],
    }
    path = Path(wal_dir) / "final_report.json"
    _atomic_write_text(
        path, json.dumps(document, sort_keys=True, indent=1) + "\n")
    return str(path)


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


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import FederatedAdmissionService
    from repro.utils.tables import format_table

    if args.resume:
        cluster = FederatedAdmissionService.load_checkpoint(args.resume)
    else:
        cluster = _build_host(args, federate=True,
                              rebalance=not args.no_rebalance)
    start = cluster.period

    rows = []
    for period in range(start + 1, start + args.periods + 1):
        for query in _synthetic_submissions(
                period, args.queries_per_period, args.seed,
                lambda index: f"user_{index % args.clients}"):
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

    target, subscriptions, probe = _build_system(args)
    if subscriptions is not None or probe is not None:
        from repro.sim import SimulationDriver

        target = SimulationDriver(
            target, subscriptions=subscriptions, probe=probe)
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


#: The flag groups that configure a simulation, as ``sim`` takes them —
#: exactly what a ``sim`` checkpoint already fixes.
_SIM_WORKLOAD = ("open-system", "lifecycle", "federation", "system")


def _flag_groups(*names: str) -> "list[argparse.ArgumentParser]":
    """Fresh argparse parents for the *names*\\ d groups of flags.

    Every flag two subcommands share is defined here, once, so it
    reads, defaults and validates the same wherever it appears.  The
    parents are built anew per call, never shared between subcommands:
    ``set_defaults`` on a subcommand rewrites the defaults of the
    action objects it was built from.
    """
    def group(*parents):
        return argparse.ArgumentParser(add_help=False,
                                       parents=list(parents))

    seed = group()
    seed.add_argument("--seed", type=int, default=0,
                      help="base seed: workloads, stream sources, and "
                           "randomized mechanisms unless the spec sets "
                           "one (default 0)")
    capacity = group()
    capacity.add_argument("--capacity", type=float, default=40.0,
                          help="server capacity, per shard (default "
                               "40; generate: the paper's ratio)")
    output = group()
    output.add_argument("-o", "--output", default=None,
                        help="also write the JSON document here "
                             "(generate: default instance.json)")

    # simulate, sim, cluster, serve
    system = group(capacity, seed)
    system.add_argument("--mechanism", default="CAT",
                        help="mechanism spec (default CAT)")
    system.add_argument("--rate", type=float, default=5.0,
                        help="stream arrival rate (tuples/tick, "
                             "default 5)")
    system.add_argument("--ticks", type=int, default=20,
                        help="engine ticks per subscription period "
                             "(default 20)")

    # sim, cluster, serve
    federation = group()
    federation.add_argument("--shards", type=int, default=1,
                            help="number of AdmissionService shards "
                                 "(default 1: a single service; "
                                 "cluster: 4)")
    federation.add_argument("--placement", default="consistent-hash",
                            help="placement spec: consistent-hash, "
                                 "least-loaded, round-robin — "
                                 "optionally with parameters, e.g. "
                                 "consistent-hash:seed=7")

    # sim, serve
    lifecycle = group()
    lifecycle.add_argument("--subscriptions", action="store_true",
                           help="run Section VII subscription "
                                "lifecycles (per-category auctions, "
                                "expiry, renewal; serve: "
                                "/v1/subscribe)")
    lifecycle.add_argument("--categories", default=None,
                           help="subscription category mix as "
                                "name=length:fraction pairs, e.g. "
                                "day=1:0.4,week=7:0.35,month=30:0.25 "
                                "(implies --subscriptions)")
    lifecycle.add_argument("--scheduler", default=None,
                           help="attach per-shard latency probes with "
                                "this scheduling-policy spec: fifo, "
                                "round-robin, longest-queue-first, "
                                "cheapest-first")

    # sim, serve
    wal = group()
    wal.add_argument("--wal", default=None, metavar="DIR",
                     help="write-ahead log directory: each settle's "
                          "receipt (serve: and every acknowledged "
                          "mutation) is logged before the run moves "
                          "on, and starting again over the same "
                          "directory recovers to the uninterrupted "
                          "result (sim: --periods is the total "
                          "horizon; serve: 503 until the tail is "
                          "replayed); a directory the other command "
                          "wrote is refused untouched")
    wal.add_argument("--wal-fsync", default="batch:256",
                     metavar="POLICY",
                     help="WAL fsync policy: never, always, or "
                          "batch:N (default batch:256)")
    wal.add_argument("--compact-every", type=int, default=64,
                     metavar="PERIODS",
                     help="fold the WAL into a fresh snapshot every "
                          "this many settled periods (default 64; "
                          "0 disables)")

    # simulate, sim, cluster
    periods = group()
    periods.add_argument("--periods", type=int, default=5,
                         help="period boundaries to run (default 5)")
    periods.add_argument("--checkpoint", default=None,
                         help="write a resumable checkpoint here "
                              "after every period")
    periods.add_argument("--resume", default=None,
                         help="resume from a checkpoint file instead "
                              "of starting fresh")

    # simulate, cluster
    closed_loop = group(periods)
    closed_loop.add_argument("--queries-per-period", type=int,
                             default=6,
                             help="synthetic submissions per period "
                                  "(default 6; cluster: 12)")

    # sim alone, but part of what its checkpoints fix
    open_system = group()
    open_system.add_argument("--replay", default=None,
                             help="replay a recorded trace instead of "
                                  "generating arrivals")
    open_system.add_argument("--arrivals", action="append",
                             default=None,
                             help="arrival-process spec (repeatable; "
                                  "one per shard with --route stream): "
                                  "poisson:rate=2, "
                                  "burst:size=20,every=10, "
                                  "trace:path=run.trace.json "
                                  "(default poisson:rate=2)")
    open_system.add_argument("--no-renew", action="store_true",
                             help="expired subscriptions do not "
                                  "resubmit")
    open_system.add_argument("--max-renewals", type=int, default=None,
                             help="bound on automatic renewals per "
                                  "query")
    open_system.add_argument("--route", default="placement",
                             choices=("placement", "stream"),
                             help="arrival routing: by placement "
                                  "policy (default), or arrival "
                                  "process i pinned to shard i")

    groups = {"seed": seed, "capacity": capacity, "output": output,
              "system": system, "federation": federation,
              "lifecycle": lifecycle, "wal": wal, "periods": periods,
              "closed-loop": closed_loop, "open-system": open_system}
    return [groups[name] for name in names]


def _check_shared_flags(args: argparse.Namespace) -> None:
    """The one validator of each shared flag, on whichever subcommand
    carries it, before the handler builds anything."""
    if getattr(args, "shards", None) is not None and args.shards < 1:
        raise ValidationError(
            f"--shards must be >= 1, got {args.shards}")
    if getattr(args, "periods", 0) < 0:
        raise ValidationError(
            f"--periods must be >= 0, got {args.periods}")
    for flag in ("queries_per_period", "clients"):
        if getattr(args, flag, 1) < 1:
            raise ValidationError(
                f"--{flag.replace('_', '-')} must be >= 1, got "
                f"{getattr(args, flag)}")
    if hasattr(args, "wal_fsync"):
        from repro.wal.log import _parse_fsync

        _parse_spec("--wal-fsync", args.wal_fsync, _parse_fsync)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Admission-control auctions for continuous queries "
                    "(ICDE 2010 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run a mechanism on one or more JSON instances",
        parents=_flag_groups("seed", "output"))
    run.add_argument("mechanism",
                     help="a mechanism spec: CAR, CAF, CAF+, CAT, CAT+, "
                          "GV, Two-price, Random, OPT_C, k-unit, "
                          "knapsack — optionally with parameters, e.g. "
                          "two-price:seed=7")
    run.add_argument("instance", nargs="+",
                     help="path(s) to instance JSON file(s); several "
                          "run as one batch")
    run.set_defaults(handler=_cmd_run)

    simulate = commands.add_parser(
        "simulate",
        help="run an AdmissionService over synthetic submissions",
        parents=_flag_groups("system", "closed-loop"))
    simulate.set_defaults(handler=_cmd_simulate)

    workload = _flag_groups(*_SIM_WORKLOAD)
    sim = commands.add_parser(
        "sim",
        help="run the open-system event-driven simulation (arrival "
             "processes, subscriptions, latency probe, trace replay)",
        parents=workload + _flag_groups("periods", "wal"))
    sim.add_argument("--record", default=None,
                     help="write the run's arrival trace (the v2 "
                          ".npz container, repro/sim-trace) here")
    # Deferred defaults (None = not given): --resume refuses what the
    # checkpoint already fixes, a fresh run fills in the rest.
    sim.set_defaults(handler=_cmd_sim, **{
        action.dest: None for group in workload
        for action in group._actions})

    cluster = commands.add_parser(
        "cluster",
        help="run a sharded FederatedAdmissionService over synthetic "
             "submissions",
        parents=_flag_groups("federation", "system", "closed-loop"))
    cluster.add_argument("--clients", type=int, default=6,
                         help="distinct client owners submitting")
    cluster.add_argument("--no-rebalance", action="store_true",
                         help="disable cross-shard migration of "
                              "rejected queries")
    cluster.set_defaults(handler=_cmd_cluster, shards=4,
                         queries_per_period=12)

    serve = commands.add_parser(
        "serve",
        help="serve an admission host over HTTP/JSON (submit, "
             "withdraw, subscribe, period ticks, /metrics)",
        parents=_flag_groups("federation", "system", "lifecycle",
                             "wal"))
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port (0 = ephemeral; default 8080)")
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
    serve.set_defaults(handler=_cmd_serve)

    generate = commands.add_parser(
        "generate", help="generate a Table III workload instance",
        parents=_flag_groups("capacity", "seed", "output"))
    generate.add_argument("--queries", type=int, default=200)
    generate.add_argument("--sharing", type=int, default=8,
                          help="maximum degree of operator sharing")
    generate.set_defaults(handler=_cmd_generate, capacity=None,
                          output="instance.json")

    report = commands.add_parser(
        "report", help="regenerate the paper's tables and figures")
    report.set_defaults(handler=_cmd_report)

    verify = commands.add_parser(
        "verify", help="run the Table I property battery",
        parents=_flag_groups("seed"))
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
        _check_shared_flags(args)
        return args.handler(args)
    except (ValidationError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
