"""The metric printer, the contract file, and the A/A table."""

import io

import pytest
import report


@pytest.mark.parametrize("name", [
    "a/b", "", "x y", "café", "a" * 65, "-lead", ".lead", "a:b",
    "ops_per_s\n", None, 7,
])
def test_printer_rejects_names_outside_the_alphabet(name):
    with pytest.raises(ValueError):
        report.check_name(name)
    with pytest.raises(ValueError):
        report.print_metrics("t", {name: {"value": 1.0, "unit": "s"}},
                             out=io.StringIO())
    with pytest.raises(ValueError):
        report.metric_block([{"name": name, "unit": "s"}], {})


@pytest.mark.parametrize("name", [
    "ops_per_s", "serve.http.busy_us_per_op", "p99-ms", "9lives", "a"])
def test_printer_accepts_the_contract_alphabet(name):
    assert report.check_name(name) == name


def test_print_metrics_names_every_metric_with_its_unit():
    out = io.StringIO()
    report.print_metrics("demo", {
        "ops_per_s": {"value": 1234.5, "unit": "1/s"},
        "setup_s": {"value": 0.75, "unit": "s"}}, out=out)
    text = out.getvalue()
    assert "ops_per_s" in text and "1/s" in text
    assert "setup_s" in text and "0.750000 s" in text


def test_metric_block_defaults_layers_and_insists_on_end_to_end():
    layer = report.metric_block(
        [{"name": "wal.bytes_per_op", "unit": "B", "better": "lower"}], {})
    assert layer == {"wal.bytes_per_op": {"value": 0.0, "unit": "B"}}
    with pytest.raises(KeyError):
        report.metric_block(
            [{"name": "ops_per_s", "unit": "1/s", "better": "higher",
              "bound": 0.1}], {})


def test_benchmark_json_is_within_the_contract():
    spec = report.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/macro"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        report.check_name(name)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])
    runs = 4 + 22 * len(spec["workloads"])
    assert 1 <= spec["run_seconds"] <= 60
    assert runs * spec["run_seconds"] < 3420


def fake_run(ops, raw_ops):
    timings = {"setup_s": 1.0, "settle_p50_ms": 5.0, "restart_s": 2.0}
    return {"end_to_end": {**timings, "ops_per_s": ops,
                           "peak_rss_mb": 100.0},
            "raw": {**timings, "ops_per_s": raw_ops}}


def test_aa_table_gates_calibrated_medians_only():
    spec = report.load_spec()
    set_a = [fake_run(1000.0 + i, 900.0) for i in range(5)]
    set_b = [fake_run(1001.0 + i, 700.0) for i in range(5)]
    rows = report.aa_rows(spec, "demo", set_a, set_b)
    metrics = [row["metric"] for row in rows]
    assert "ops_per_s" in metrics and "raw.ops_per_s" in metrics
    assert "raw.peak_rss_mb" not in metrics
    # The raw twin moved by 22 % but is printed, not gated.
    assert report.aa_failures(rows) == []
    assert "raw.ops_per_s" in report.format_aa(rows)

    drifted = [fake_run(1400.0 + i, 900.0) for i in range(5)]
    failures = report.aa_failures(
        report.aa_rows(spec, "demo", set_a, drifted))
    assert [row["metric"] for row in failures] == ["ops_per_s"]


def test_spread_is_iqr_over_median():
    assert report.spread([10.0]) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 12.0, 8.0, 10.0, 10.0, 10.0]
    assert report.spread(values) == pytest.approx(0.05)
