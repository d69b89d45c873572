"""Option census: every knob is counted, so the next one is a visible diff.

Each number below is pinned to what the tree holds.  A change that
raises one fails here first, and the failure says what ROADMAP's
ground rule asks of it.
"""

import argparse
import dataclasses
import inspect

import pytest

import repro.__main__ as cli
from repro.dsms.scheduler import ScheduledEngine
from repro.serve import GatewayConfig, run_load
from repro.sim import SimulationDriver
from repro.wal.groupcommit import GroupCommitter

RULE = ("an option stays only when two callers that are not tests or "
        "examples need different values (ROADMAP, ground rules): name "
        "the two callers in the change that raises this count, or make "
        "the value a constant")


def subcommands() -> dict:
    [subparsers] = [action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    return subparsers.choices


def test_each_flag_is_defined_once_and_the_counts_are_pinned():
    definitions: dict = {}
    for command in subcommands().values():
        for action in command._actions:
            if action.option_strings and action.dest != "help":
                definitions.setdefault(action.option_strings[-1], set()).add(
                    (type(action), action.type, action.help,
                     action.metavar, action.choices, action.nargs))
    forked = sorted(flag for flag, seen in definitions.items()
                    if len(seen) > 1)
    assert not forked, f"defined differently per subcommand: {forked}"
    counts = {
        "distinct CLI options": len(definitions),
        "add_argument call sites":
            inspect.getsource(cli).count(".add_argument("),
        "GatewayConfig fields": len(dataclasses.fields(GatewayConfig)),
        "SimulationDriver parameters":
            len(inspect.signature(SimulationDriver).parameters),
        "ScheduledEngine parameters":
            len(inspect.signature(ScheduledEngine).parameters),
    }
    # Every option plus run's two positionals is one call site.
    assert counts == {
        "distinct CLI options": 38,
        "add_argument call sites": 40,
        "GatewayConfig fields": 22,
        "SimulationDriver parameters": 9,
        "ScheduledEngine parameters": 5,
    }, RULE


@pytest.mark.parametrize("call", [
    lambda: GatewayConfig(wal_group_commit=True),
    lambda: GatewayConfig(wal_group_window=0.0),
    lambda: GroupCommitter(None, window=0.0),
    lambda: SimulationDriver(None, lookahead=8),
    lambda: SimulationDriver(None, probe_retention=5),
    lambda: ScheduledEngine([], 1.0, max_latency_samples=4),
    lambda: run_load("127.0.0.1", 1, client_prefix="x"),
], ids=["wal_group_commit", "wal_group_window", "window", "lookahead",
        "probe_retention", "max_latency_samples", "client_prefix"])
def test_removed_keywords_are_type_errors(call):
    with pytest.raises(TypeError, match="unexpected keyword"):
        call()


def test_lookahead_is_still_written_to_checkpoints():
    from tests.checkpoints import build_driver

    assert build_driver().snapshot().state["lookahead"] == 64
