"""Metric names, the printer, the environment block, the A/A table.

``BENCHMARK.json`` at the repo root is the one place metric names,
units, directions and bounds are written down; everything here reads
it, so the command's output cannot drift from the contract.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
#: The one place the benchmark writes (git-ignored).
OUT_DIR = REPO_ROOT / "benchmarks" / "out" / "macro"

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: End-to-end metrics that are timings (have a ``raw.*`` twin).
TIMING_METRICS = ("setup_s", "ops_per_s", "settle_p50_ms", "restart_s")


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def check_name(name: str) -> str:
    """Metric names are letters, digits, ``_``, ``.`` and ``-`` only."""
    if not isinstance(name, str) or not _NAME.match(name):
        raise ValueError(
            f"bad metric name {name!r}: use at most 64 of "
            f"[A-Za-z0-9_.-], starting with a letter or digit")
    return name


def metric_block(definitions: list, values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every defined metric.

    A layer a workload bypasses reports 0 for its counters; a missing
    *end-to-end* value is a bug and raises.
    """
    block = {}
    for definition in definitions:
        name = check_name(definition["name"])
        if name not in values and "bound" in definition:
            raise KeyError(f"end-to-end metric {name!r} was not measured")
        block[name] = {"value": float(values.get(name, 0.0)),
                       "unit": definition["unit"]}
    return block


def print_metrics(title: str, block: dict, out=sys.stdout) -> None:
    """Every metric by name with its unit, one per line."""
    width = max((len(check_name(name)) for name in block), default=0)
    print(f"== {title}", file=out)
    for name, entry in block.items():
        print(f"  {name:<{width}}  {entry['value']:>16.6f} "
              f"{entry['unit']}", file=out)


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def loadavg() -> list:
    try:
        return [round(value, 2) for value in os.getloadavg()]
    except OSError:
        return []


def environment(**extra) -> dict:
    """The machine a number came from; no number is read without it."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        **extra,
    }


# ----------------------------------------------------------------------
# A/A: two interleaved sets of runs of the same code
# ----------------------------------------------------------------------


def spread(values: list) -> float:
    """IQR over median, as the acceptance check computes it."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def aa_rows(spec: dict, workload: str, set_a: list, set_b: list) -> list:
    """One row per end-to-end metric (+ its ``raw.*`` twin).

    *set_a* / *set_b* are lists of child-result dicts; ``diff`` is B's
    median relative to A's.  Only the calibrated rows are gated.
    """
    rows = []
    for definition in spec["end_to_end"]:
        name = definition["name"]
        twins = [("end_to_end", name)]
        if name in TIMING_METRICS:
            twins.append(("raw", name))
        for source, key in twins:
            a = [run[source][key] for run in set_a]
            b = [run[source][key] for run in set_b]
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = (med_b - med_a) / med_a
            rows.append({
                "workload": workload,
                "metric": name if source == "end_to_end" else f"raw.{name}",
                "median_a": med_a, "median_b": med_b, "diff": diff,
                "spread_a": spread(a), "spread_b": spread(b),
                "bound": definition["bound"],
                "gated": source == "end_to_end",
            })
    return rows


def format_aa(rows: list) -> str:
    header = (f"{'workload':<14} {'metric':<18} {'median A':>12} "
              f"{'median B':>12} {'diff':>8} {'IQR/med A':>10} "
              f"{'IQR/med B':>10} {'bound':>6}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['workload']:<14} {row['metric']:<18} "
            f"{row['median_a']:>12.4f} {row['median_b']:>12.4f} "
            f"{row['diff']:>+8.3f} {row['spread_a']:>10.3f} "
            f"{row['spread_b']:>10.3f} {row['bound']:>6.2f}")
    return "\n".join(lines)


def aa_failures(rows: list) -> list:
    """Gated rows whose medians disagree by more than the bound."""
    return [row for row in rows
            if row["gated"] and abs(row["diff"]) > row["bound"]]
