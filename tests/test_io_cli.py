"""Serialization and CLI tests."""

import json

import pytest

from repro.core import make_mechanism
from repro.io import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
    save_outcome,
)
from repro.utils.validation import ValidationError
from repro.workload import example1
from repro.__main__ import main


class TestInstanceSerialization:
    def test_round_trip(self, tmp_path):
        instance = example1()
        path = tmp_path / "instance.json"
        save_instance(instance, path)
        loaded = load_instance(path)
        assert loaded.capacity == instance.capacity
        assert loaded.num_queries == instance.num_queries
        for query in instance.queries:
            again = loaded.query(query.query_id)
            assert again.bid == query.bid
            assert again.operator_ids == query.operator_ids

    def test_valuation_and_owner_preserved(self):
        from repro.core.model import AuctionInstance, Operator, Query

        instance = AuctionInstance(
            {"a": Operator("a", 1.0)},
            (Query("q", ("a",), bid=3.0, valuation=9.0, owner="alice"),),
            capacity=5.0)
        loaded = instance_from_dict(instance_to_dict(instance))
        assert loaded.query("q").true_value == 9.0
        assert loaded.query("q").owner_id == "alice"

    def test_malformed_document(self):
        with pytest.raises(ValidationError):
            instance_from_dict({"capacity": 1.0})
        with pytest.raises(ValidationError):
            instance_from_dict({
                "capacity": 1.0, "operators": {"a": 1.0},
                "queries": [{"operators": ["a"]}],  # missing id/bid
            })

    def test_outcome_document(self, tmp_path):
        outcome = make_mechanism("CAT").run(example1())
        path = tmp_path / "outcome.json"
        save_outcome(outcome, path)
        document = json.loads(path.read_text())
        assert document["mechanism"] == "CAT"
        assert document["payments"]["q1"] == pytest.approx(50.0)
        assert document["metrics"]["profit"] == pytest.approx(110.0)


class TestCLI:
    def test_generate_then_run(self, tmp_path, capsys):
        instance_path = tmp_path / "wl.json"
        assert main(["generate", "--queries", "30", "--sharing", "4",
                     "--seed", "3", "-o", str(instance_path)]) == 0
        assert instance_path.exists()
        assert main(["run", "CAT", str(instance_path)]) == 0
        out = capsys.readouterr().out
        assert '"mechanism": "CAT"' in out

    def test_run_writes_outcome(self, tmp_path):
        instance_path = tmp_path / "wl.json"
        save_instance(example1(), instance_path)
        outcome_path = tmp_path / "out.json"
        assert main(["run", "CAF", str(instance_path),
                     "-o", str(outcome_path)]) == 0
        document = json.loads(outcome_path.read_text())
        assert document["payments"]["q1"] == pytest.approx(30.0)

    def test_run_randomized_with_seed(self, tmp_path, capsys):
        instance_path = tmp_path / "wl.json"
        save_instance(example1(), instance_path)
        assert main(["run", "Two-price", str(instance_path),
                     "--seed", "5"]) == 0

    def test_serve_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["serve", "--workers", "2"])
        assert refused.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["sim", "--pump"], "--pump"),
        (["run", "CAT", "wl.json", "--selection", "fast"], "--selection"),
        (["simulate", "--selection", "fast"], "--selection"),
        (["cluster", "--selection", "fast"], "--selection"),
    ])
    def test_path_selection_flags_are_gone(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["serve", "--wal-group-commit"], "--wal-group-commit"),
        (["serve", "--wal-group-window", "0"], "--wal-group-window"),
        (["simulate", "--profile"], "--profile"),
        (["sim", "--probe-retention", "5"], "--probe-retention"),
    ])
    def test_guarantee_and_unset_knob_flags_are_gone(self, argv, flag,
                                                     capsys):
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["sim", "--shards", "0"], "--shards"),
        (["serve", "--shards", "-3"], "--shards"),
        (["sim", "--periods", "-2"], "--periods"),
        (["simulate", "--periods", "-2"], "--periods"),
        (["sim", "--wal-fsync", "bogus"], "--wal-fsync 'bogus'"),
    ])
    def test_shared_flags_validate_the_same_everywhere(self, argv, flag,
                                                       capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith("repro: error:"), captured.err
        assert flag in captured.err

    @pytest.mark.parametrize("argv,flag", [
        (["cluster", "--periods", "1", "--queries-per-period", "-3"],
         "--queries-per-period"),
        (["simulate", "--queries-per-period", "0"],
         "--queries-per-period"),
        (["cluster", "--clients", "0"], "--clients"),
        (["cluster", "--clients", "-5"], "--clients"),
    ], ids=["cluster-queries", "simulate-queries", "clients-0",
            "clients-negative"])
    def test_closed_loop_flags_below_one_are_refused(self, argv, flag,
                                                     capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro: error: {flag} must be >= 1, got {argv[-1]}\n")

    @pytest.mark.parametrize("argv", [
        ["sim", "--ticks", "0", "--periods", "3",
         "--arrivals", "poisson:rate=2"],
        ["simulate", "--ticks", "-2", "--periods", "2"],
    ], ids=["sim-zero", "simulate-negative"])
    def test_a_period_below_one_tick_is_refused(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"repro: error: ticks_per_period must be >= 1, got {argv[2]}\n")

    def test_verify_command(self, capsys, monkeypatch):
        # Shrink the battery via a tiny seed-compatible call by
        # patching the defaults.
        import repro.gametheory.properties as properties

        original = properties.verify_properties

        def small(seed=0, **_kwargs):
            return original(num_instances=1, num_queries=20,
                            users_per_instance=2, attack_attempts=2,
                            seed=seed)

        monkeypatch.setattr(
            "repro.gametheory.properties.verify_properties", small)
        assert main(["verify", "--seed", "1"]) == 0
        assert "Table I" in capsys.readouterr().out
