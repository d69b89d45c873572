"""The repo's macro-benchmark: one command, every metric by name.

    python benchmarks/macro/run.py                      # all workloads
    python benchmarks/macro/run.py --workload sim_open --seed 3
    python benchmarks/macro/run.py --traced             # + per-layer run
    python benchmarks/macro/run.py --smoke              # CI-sized
    python benchmarks/macro/run.py --aa 5               # A/A self-check

The benchmark driver's form is also accepted:

    run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in its own child process (``PYTHONHASHSEED=0``, one
thread per numeric library, one asyncio loop).  ``--seconds`` sizes the
work: the size tables hold what this repo does in 20 s on the reference
box, and are scaled by ``seconds / 20`` — a fixed amount of work, so
memory and settle sizes compare across commits — with a wall-clock cap
that stops a run early on a machine slow enough to overrun it.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

MACRO_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(MACRO_DIR))

import calib  # noqa: E402
import report  # noqa: E402

#: Child processes whose only job is a second and third ``setup_s``.
SETUP_REPEATS = 3
SMOKE_SECONDS = 1.0
#: The traced run of the human-facing command is a quarter as long.
TRACED_SHARE = 0.25
CHILD_TIMEOUT_S = 170


def child_main(payload: str) -> int:
    """Entry point of a workload's child process."""
    from harness import Options, drive
    from workloads import WORKLOADS

    fields = json.loads(payload)
    fields["kernel_before"] = tuple(
        calib.Pass(*p) for p in fields.get("kernel_before", ()))
    options = Options(**fields)
    workload = WORKLOADS[options.workload](options)
    result = asyncio.run(drive(workload, options))
    print(json.dumps(dataclasses.asdict(result)))
    return 0


def spawn_child(options: dict, cpu: calib.CpuKernel) -> dict:
    """Run one child to completion; returns its result document."""
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    before = [cpu.run() for _ in range(calib.ONE_SHOT_PASSES)]
    payload = json.dumps({**options, "kernel_before": before,
                          "t0": time.perf_counter()})
    done = subprocess.run(
        [sys.executable, str(MACRO_DIR / "run.py"), "--child", payload],
        env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(
            f"{options['workload']}: child exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, cpu: calib.CpuKernel) -> dict:
    """All the children of one (workload, mode) and their merged result."""
    options = {"workload": name, "seed": seed, "seconds": seconds,
               "trace": trace, "smoke": smoke}
    load_before = report.loadavg()
    setups, raw_setups = [], []
    if not trace and not smoke:
        for _ in range(SETUP_REPEATS - 1):
            extra = spawn_child({**options, "setup_only": True}, cpu)
            setups.append(extra["end_to_end"]["setup_s"])
            raw_setups.append(extra["raw"]["setup_s"])
    result = spawn_child(options, cpu)
    setups.append(result["end_to_end"]["setup_s"])
    raw_setups.append(result["raw"]["setup_s"])
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    result["raw"]["setup_s"] = statistics.median(raw_setups)
    result["info"]["setup_samples"] = len(setups)
    result["environment"] = report.environment(
        seed=seed, seconds=seconds, traced=trace, smoke=smoke,
        loadavg_before=load_before, loadavg_after=report.loadavg(),
        noisy=result["info"].get("noisy", False),
        **{key: result["info"][key] for key in (
            "sizes", "slice_samples", "settle_samples",
            "restart_samples", "setup_samples", "truncated")})
    return result


def emit(spec: dict, result: dict, trace: bool) -> dict:
    """Print one run's metrics; returns its final-line document."""
    name = result["workload"]
    if trace:
        block = report.metric_block(spec["per_layer"],
                                    result["per_layer"])
        report.print_metrics(f"{name} (traced, per layer)", block)
    else:
        block = report.metric_block(spec["end_to_end"],
                                    result["end_to_end"])
        report.print_metrics(f"{name} (end to end)", block)
        twins = {f"raw.{key}": {"value": value, "unit": block[key]["unit"]}
                 for key, value in result["raw"].items()}
        report.print_metrics(f"{name} (raw wall-clock twins)", twins)
    env = result["environment"]
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    for reason in result["reasons"]:
        print(f"  FAILED: {reason}")
    report.OUT_DIR.mkdir(parents=True, exist_ok=True)
    suffix = "traced" if trace else "e2e"
    (report.OUT_DIR / f"result-{name}-{suffix}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"], "metrics": block}


def run_aa(spec: dict, names: list, args, cpu) -> int:
    """Two interleaved sets of N runs; non-zero if they disagree."""
    sets = {"A": {name: [] for name in names},
            "B": {name: [] for name in names}}
    for index in range(args.aa):
        for label in ("A", "B"):
            for name in names:
                result = run_workload(name, args.seed + index,
                                      args.seconds, False, args.smoke,
                                      cpu)
                sets[label][name].append(result)
                print(f"aa {label}{index} {name}: "
                      f"{json.dumps(result['end_to_end'])}", flush=True)
    rows = []
    for name in names:
        rows += report.aa_rows(spec, name, sets["A"][name],
                               sets["B"][name])
    print(report.format_aa(rows))
    failures = report.aa_failures(rows)
    for row in failures:
        print(f"A/A FAILED: {row['workload']} {row['metric']} differs "
              f"by {row['diff']:+.3f} (bound {row['bound']})")
    if args.smoke:
        return 0        # timing is printed but never gated in smoke
    return 1 if failures else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="calibrated macro-benchmark of the whole stack")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="size of the measured phase, in seconds "
                             "on the reference box (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver form: 1 = the traced run only")
    parser.add_argument("--traced", action="store_true",
                        help="also do the (shorter) traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="each workload <= 3 s; checks on, timing "
                             "printed but never gated")
    parser.add_argument("--aa", type=int, default=0, metavar="N",
                        help="A/A self-check: two interleaved sets of N")
    args = parser.parse_args(argv)
    if args.child is not None:
        return child_main(args.child)

    spec = report.load_spec()
    known = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(known)}")
    names = [args.workload] if args.workload else known
    explicit_seconds = args.seconds is not None
    if args.seconds is None:
        args.seconds = (SMOKE_SECONDS if args.smoke
                        else float(spec["run_seconds"]))
    cpu = calib.CpuKernel()
    if args.aa:
        return run_aa(spec, names, args, cpu)

    modes = [bool(args.trace)] if args.trace is not None else (
        [False, True] if args.traced else [False])
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in modes:
            seconds = args.seconds
            if trace and args.trace is None and not explicit_seconds:
                seconds *= TRACED_SHARE
            result = run_workload(name, args.seed, seconds, trace,
                                  args.smoke, cpu)
            document = emit(spec, result, trace)
            final["correct"] &= document["correct"]
            final["attempted"] += document["attempted"]
            final["failed"] += document["failed"]
            prefix = "" if len(names) == 1 else f"{name}."
            for key, entry in document["metrics"].items():
                final["metrics"][report.check_name(prefix + key)] = entry
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
