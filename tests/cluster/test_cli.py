"""The ``python -m repro cluster`` subcommand."""

import pytest

from repro.__main__ import main

pytestmark = pytest.mark.cluster


def run_cli(args, capsys):
    assert main(args) == 0
    return capsys.readouterr().out


def test_cluster_simulation_renders_table(capsys):
    out = run_cli(["cluster", "--shards", "3", "--periods", "2",
                   "--ticks", "3", "--seed", "1"], capsys)
    assert "3 shards" in out
    assert "consistent-hash placement" in out
    assert "migrated" in out
    assert "total revenue:" in out


def test_cluster_placement_spec(capsys):
    out = run_cli(["cluster", "--shards", "2", "--periods", "1",
                   "--ticks", "3", "--placement", "least-loaded"], capsys)
    assert "least-loaded placement" in out


def test_cluster_checkpoint_resume_matches_uninterrupted(
        tmp_path, capsys):
    checkpoint = str(tmp_path / "cluster.ckpt")
    base = ["cluster", "--shards", "2", "--ticks", "3", "--seed", "2"]
    uninterrupted = run_cli(base + ["--periods", "3"], capsys)

    run_cli(base + ["--periods", "2", "--checkpoint", checkpoint], capsys)
    resumed = run_cli(base + ["--periods", "1", "--resume", checkpoint],
                      capsys)
    # The resumed third period reports the same totals.
    assert uninterrupted.splitlines()[-1] == resumed.splitlines()[-1]
    final_row = [line for line in uninterrupted.splitlines()
                 if line.strip().startswith("3")][-1]
    assert final_row in resumed


def test_cluster_no_rebalance_flag(capsys):
    seed = ["cluster", "--shards", "2", "--periods", "2", "--ticks", "3",
            "--capacity", "8", "--seed", "6"]
    with_rebalance = run_cli(seed, capsys)
    without = run_cli(seed + ["--no-rebalance"], capsys)
    assert "migrated" in with_rebalance and "migrated" in without