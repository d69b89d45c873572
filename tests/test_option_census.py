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
import repro.sim.subscriptions as sim_subscriptions
from repro.sim import (
    SimulationDriver,
    SubscriptionManager,
    SubscriptionOptions,
)
from repro.wal import (
    WriteAheadLog,
    recover_gateway_backend,
    recover_sim_driver,
    records,
)
from repro.wal.groupcommit import GroupCommitter
from repro.wal.log import WalScan

RULE = ("an option stays only when two callers that are not tests or "
        "examples need different values (ROADMAP, ground rules): name "
        "the two callers in the change that raises this count, or make "
        "the value a constant")

RECORD_RULE = ("the log holds what recovery reads (ROADMAP, ground "
               "rules): a record kind is written only if WalScan.tail() "
               "or WalScan.checkpoint() returns it to a replay that "
               "uses it — name the reader in the change that adds a "
               "writer, or do not write the record")


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
        "SubscriptionOptions fields":
            len(dataclasses.fields(SubscriptionOptions)),
        "SimulationDriver parameters":
            len(inspect.signature(SimulationDriver).parameters),
        "ScheduledEngine parameters":
            len(inspect.signature(ScheduledEngine).parameters),
        **{f"{name} parameters": len(inspect.signature(call).parameters)
           for name, call in [
               ("WriteAheadLog", WriteAheadLog),
               ("WriteAheadLog.create", WriteAheadLog.create),
               ("WriteAheadLog.resume", WriteAheadLog.resume),
               ("recover_sim_driver", recover_sim_driver),
               ("recover_gateway_backend", recover_gateway_backend)]},
    }
    # Every option plus run's two positionals is one call site.
    assert counts == {
        "distinct CLI options": 38,
        "add_argument call sites": 40,
        "GatewayConfig fields": 22,
        "SubscriptionOptions fields": 4,
        "SimulationDriver parameters": 8,
        "ScheduledEngine parameters": 4,
        # directory (+ state / scan / backend), fsync, compact_every.
        "WriteAheadLog parameters": 3,
        "WriteAheadLog.create parameters": 4,
        "WriteAheadLog.resume parameters": 4,
        "recover_sim_driver parameters": 3,
        "recover_gateway_backend parameters": 4,
    }, RULE


@pytest.mark.parametrize("call", [
    lambda: GatewayConfig(wal_group_commit=True),
    lambda: GatewayConfig(wal_group_window=0.0),
    lambda: GroupCommitter(None, window=0.0),
    lambda: SimulationDriver(None, lookahead=8),
    lambda: SimulationDriver(None, probe_retention=5),
    lambda: SimulationDriver(None, allow_idle=False),
    lambda: ScheduledEngine([], 1.0, max_latency_samples=4),
    lambda: ScheduledEngine([], 1.0, keep_latency_samples=True),
    lambda: run_load("127.0.0.1", 1, client_prefix="x"),
    lambda: WriteAheadLog.resume("d", keep_kinds=()),
    lambda: WalScan("d", [], []).tail(keep_kinds=()),
    lambda: WriteAheadLog("d", segment_bytes=1),
    lambda: recover_sim_driver("d", segment_bytes=1),
    lambda: WriteAheadLog.create("d", "state", period=1),
    lambda: WriteAheadLog("d").append_period(
        period=1, events=1, revenue=0.0, arrivals=0),
    lambda: SubscriptionOptions(mechanism="CAT"),
], ids=["wal_group_commit", "wal_group_window", "window", "lookahead",
        "probe_retention", "allow_idle", "max_latency_samples",
        "keep_latency_samples",
        "client_prefix",
        "resume-keep_kinds", "tail-keep_kinds", "segment_bytes",
        "recover-segment_bytes", "create-period", "arrivals",
        "subscription-mechanism"])
def test_removed_keywords_are_type_errors(call):
    with pytest.raises(TypeError, match="unexpected keyword"):
        call()


def test_the_bare_instance_subscription_scheduler_is_gone():
    with pytest.raises(ImportError):
        from repro.cloud import SubscriptionScheduler  # noqa: F401


def test_the_forked_count_mode_drains_are_gone():
    """Count mode drains run-length queues in one loop
    (``_execute_tick_counts``); a second drain is a visible diff."""
    for name in ("_drain_counts", "_tick_counts_fresh"):
        assert not hasattr(ScheduledEngine, name)


def test_section_vii_settles_once():
    """The object and the columnar boundary only build candidates; one
    ``_settle`` bills, books and admits them, so a second settle loop
    is a visible diff."""
    source = inspect.getsource(sim_subscriptions)
    assert source.count("bill_outcome") == 1
    assert source.count("SubscriptionEntry(") == 1
    assert not hasattr(SubscriptionManager, "_deduplicated_active_plans")


def test_the_write_only_record_family_is_gone():
    assert not hasattr(WriteAheadLog, "append_arrivals")
    for name in ("encode_arrivals", "decode_arrivals", "pack_arrays",
                 "unpack_arrays"):
        assert not hasattr(records, name)
    for name in ("torn_segment", "torn_offset", "snapshots"):
        assert name not in {f.name for f in dataclasses.fields(WalScan)}


def test_every_record_kind_written_is_a_kind_recovery_reads(tmp_path):
    """The record census: drive every public writer of
    ``WriteAheadLog`` once; the kinds on disk are exactly the kinds
    ``WalScan.tail()`` and ``WalScan.checkpoint()`` hand a recovery."""
    from repro.wal import scan_wal

    writers = sorted(name for name in vars(WriteAheadLog)
                     if name.startswith("append_"))
    assert writers == ["append_op", "append_period"], RECORD_RULE
    log = WriteAheadLog.create(tmp_path / "wal", "state", fsync="never")
    log.append_op({"op": "x"})
    log.append_period(period=1, events=0, revenue=0.0)
    log.compact("state", 1)
    log.append_op({"op": "y"})
    log.append_period(period=2, events=0, revenue=0.0)
    log.close()
    scan = scan_wal(tmp_path / "wal")
    written = {record.kind for record in scan.records}
    read = {record.kind for record in scan.tail()} | {
        scan.checkpoint().kind}
    assert written == read == set(records.RECORD_KINDS), RECORD_RULE


def test_lookahead_is_still_written_to_checkpoints():
    from tests.checkpoints import build_driver

    assert build_driver().snapshot().state["lookahead"] == 64


def test_allow_idle_is_still_written_and_ignored_on_restore():
    from tests.checkpoints import build_driver

    snapshot = build_driver().snapshot()
    assert snapshot.state["allow_idle"] is True
    state = dict(snapshot.state, allow_idle=False)
    restored = SimulationDriver.restore(
        type(snapshot)(version=snapshot.version, state=state))
    assert not hasattr(restored, "allow_idle")
