"""The ``python -m repro sim`` subcommand."""

import pytest

from repro.__main__ import _parse_categories, main
from repro.io import load_sim_trace
from repro.utils.validation import ValidationError

FAST_NO_ARRIVALS = ["--periods", "3", "--ticks", "5", "--rate", "2"]
FAST = [*FAST_NO_ARRIVALS, "--arrivals", "poisson:rate=1"]


class TestSim:
    def test_open_system_run(self, capsys):
        assert main(["sim", *FAST]) == 0
        out = capsys.readouterr().out
        assert "Open-system simulation" in out
        assert "re-auction" in out
        assert "events processed" in out

    def test_subscriptions_with_probe(self, capsys):
        assert main(["sim", *FAST, "--subscriptions",
                     "--scheduler", "fifo"]) == 0
        out = capsys.readouterr().out
        assert "subscriptions" in out
        assert "probe:" in out
        assert "p95" in out

    def test_custom_categories_imply_subscriptions(self, capsys):
        assert main(["sim", *FAST, "--categories",
                     "short=1:0.6,long=2:0.4"]) == 0
        assert "subscriptions" in capsys.readouterr().out

    def test_record_then_replay_matches(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.npz"
        assert main(["sim", *FAST, "--subscriptions",
                     "--record", str(trace_path)]) == 0
        recorded = capsys.readouterr().out
        assert len(load_sim_trace(trace_path)) > 0

        # --replay replaces the workload, so --arrivals must go.
        assert main(["sim", *FAST, "--subscriptions",
                     "--replay", str(trace_path)]) == 2
        assert "repro: error:" in capsys.readouterr().err
        assert main(["sim", *FAST_NO_ARRIVALS, "--subscriptions",
                     "--replay", str(trace_path)]) == 0
        replayed = capsys.readouterr().out

        def table_lines(text):
            return [line for line in text.splitlines()
                    if line.strip() and line.split()[0].isdigit()]

        assert table_lines(recorded) == table_lines(replayed)

    def test_recorded_traces_are_pickle_free_and_wire_safe(
            self, tmp_path, capsys):
        """CLI recordings hold nothing but ``'select'`` rows.

        The CLI's synthetic workloads are all single-select plans over
        the public ``pass_all`` predicate, so every recorded entry
        round-trips through the gateway wire codec, which carries no
        other plan shape.
        """
        from repro.io import (
            ServeRequest,
            serve_request_from_dict,
            serve_request_to_dict,
        )

        trace_path = tmp_path / "run.trace.npz"
        assert main(["sim", *FAST, "--subscriptions",
                     "--record", str(trace_path)]) == 0
        capsys.readouterr()
        arrivals = load_sim_trace(trace_path).entries
        assert arrivals, "recording produced no arrivals"

        # Every recorded plan survives the gateway boundary.
        for entry in arrivals:
            wire = serve_request_to_dict(
                ServeRequest(op="submit", query=entry.query))
            assert wire["query"]["plan"] == "select"
            parsed = serve_request_from_dict(wire)
            assert parsed.query.query_id == entry.query.query_id

    def test_checkpoint_resume_continues_the_run(self, tmp_path,
                                                 capsys):
        ckpt = tmp_path / "sim.ckpt"
        assert main(["sim", *FAST, "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["sim", "--periods", "2", "--resume",
                     str(ckpt)]) == 0
        out = capsys.readouterr().out
        # Resumed boundaries continue the numbering (4 and 5).
        assert any(line.split()[:1] == ["4"]
                   for line in out.splitlines())
        assert any(line.split()[:1] == ["5"]
                   for line in out.splitlines())

    def test_cluster_mode_with_stream_routing(self, capsys):
        assert main(["sim", "--periods", "2", "--ticks", "4",
                     "--shards", "2", "--route", "stream",
                     "--arrivals", "poisson:rate=1,prefix=s0",
                     "--arrivals", "poisson:rate=1,prefix=s1"]) == 0
        assert "2 shard(s)" in capsys.readouterr().out

    def test_resume_rejects_mode_changing_flags(self, tmp_path,
                                                capsys):
        ckpt = tmp_path / "sim.ckpt"
        assert main(["sim", *FAST, "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["sim", "--periods", "1", "--resume", str(ckpt),
                     "--subscriptions", "--shards", "3"]) == 2
        message = capsys.readouterr().err
        assert "--subscriptions" in message
        assert "--shards" in message
        # Workload settings are conflicts too, not silent no-ops.
        assert main(["sim", "--periods", "1", "--resume", str(ckpt),
                     "--mechanism", "CAF", "--capacity", "999"]) == 2
        message = capsys.readouterr().err
        assert "--mechanism" in message
        assert "--capacity" in message

    def test_resume_rejects_record_on_non_recording_checkpoint(
            self, tmp_path, capsys):
        ckpt = tmp_path / "sim.ckpt"
        assert main(["sim", *FAST, "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["sim", "--periods", "1", "--resume", str(ckpt),
                     "--record", str(tmp_path / "t.json")]) == 2
        assert "not recording" in capsys.readouterr().err

    def test_bad_spec_strings_exit_2_naming_the_spec(self, capsys):
        cases = [
            (["sim", *FAST_NO_ARRIVALS, "--arrivals", "nope:x=1"],
             "--arrivals 'nope:x=1'"),
            (["sim", *FAST, "--scheduler", "warp"],
             "--scheduler 'warp'"),
            (["sim", *FAST, "--mechanism", "VCG"],
             "--mechanism 'VCG'"),
            (["sim", *FAST, "--shards", "2", "--placement", "pin"],
             "--placement 'pin'"),
        ]
        for argv, needle in cases:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.count("\n") == 1, err
            assert err.startswith("repro: error:"), err
            assert needle in err, err

    def test_multiple_arrivals_get_distinct_default_prefixes(
            self, capsys):
        assert main(["sim", "--periods", "2", "--ticks", "4",
                     "--shards", "2", "--route", "stream",
                     "--arrivals", "poisson:rate=1",
                     "--arrivals", "poisson:rate=1"]) == 0
        assert "2 shard(s)" in capsys.readouterr().out

    def test_seed_defaults_into_arrival_spec(self, capsys):
        def deterministic(text):
            # Drop the wall-clock events/sec line.
            return [line for line in text.splitlines()
                    if not line.startswith("events processed")]

        assert main(["sim", *FAST, "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["sim", *FAST, "--seed", "5"]) == 0
        second = capsys.readouterr().out
        assert deterministic(first) == deterministic(second)


class TestCategoryParsing:
    def test_parses_pairs(self):
        categories = _parse_categories("day=1:0.4,week=7:0.35")
        assert [c.name for c in categories] == ["day", "week"]
        assert categories[0].length_days == 1
        assert categories[1].capacity_fraction == 0.35

    def test_rejects_malformed_items(self):
        with pytest.raises(ValidationError):
            _parse_categories("day:1=0.4")
        with pytest.raises(ValidationError):
            _parse_categories("day")

    def test_rejects_overflowing_fractions_naming_them(self):
        with pytest.raises(ValidationError) as excinfo:
            _parse_categories("a=1:0.8,b=1:0.9")
        assert "a=0.8" in str(excinfo.value)
