"""The log format, pinned both ways.

*Backwards:* ``tests/data/sim-wal.arrivals/`` is a ``sim --wal``
directory written by the last build that logged arrivals (the commit
before the ``ARRIVALS`` record was retired), killed before period 4's
receipt so that it ends ``[..., ARRIVALS, PERIOD, ARRIVALS]``::

    PYTHONHASHSEED=0 REPRO_CRASHPOINT=driver.settle.before-period-record:4 \\
        python -m repro sim --subscriptions --scheduler fifo \\
        --arrivals poisson:rate=5 --mechanism GV --capacity 30 --rate 2 \\
        --ticks 10 --seed 11 --periods 8 --compact-every 0 \\
        --wal tests/data/sim-wal.arrivals

This build must scan it untorn, recover it and finish byte-identical
to its own uninterrupted run, skipping the frames nobody ever read and
cutting none of them.  (See :mod:`tests.checkpoints` for why the child
runs under ``PYTHONHASHSEED=0`` and why the directory is never
rewritten.)

*Forwards:* what this build writes holds exactly what a recovery
reads — a receipt per boundary, a checkpoint per compaction.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.utils.validation import ValidationError
from repro.wal import records as rec, scan_wal

pytestmark = pytest.mark.wal

REPO = Path(__file__).resolve().parent.parent.parent
FIXTURE = REPO / "tests" / "data" / "sim-wal.arrivals"
FIXTURE_ARGS = [
    "sim", "--subscriptions", "--scheduler", "fifo",
    "--arrivals", "poisson:rate=5", "--mechanism", "GV",
    "--capacity", "30", "--rate", "2", "--ticks", "10", "--seed", "11",
    "--periods", "8", "--compact-every", "0"]
#: Genesis, period 1 (an empty window wrote no arrivals frame), two
#: full windows, and the orphan: period 4's arrivals without a receipt.
FIXTURE_KINDS = [rec.RECORD_CHECKPOINT, rec.RECORD_PERIOD,
                 rec.RECORD_ARRIVALS, rec.RECORD_PERIOD,
                 rec.RECORD_ARRIVALS, rec.RECORD_PERIOD,
                 rec.RECORD_ARRIVALS]


def run_sim(wal_dir):
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])}
    env.pop("REPRO_CRASHPOINT", None)
    return subprocess.run(
        [sys.executable, "-m", "repro", *FIXTURE_ARGS,
         "--wal", str(wal_dir)],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120)


def kinds(wal_dir):
    scan = scan_wal(wal_dir)
    assert not scan.torn
    return [record.kind for record in scan.records]


def test_directory_with_arrivals_frames_recovers_byte_identically(
        tmp_path):
    assert kinds(FIXTURE) == FIXTURE_KINDS
    reference = run_sim(tmp_path / "uninterrupted")
    assert reference.returncode == 0, reference.stderr

    wal_dir = tmp_path / "wal"
    shutil.copytree(FIXTURE, wal_dir)
    resumed = run_sim(wal_dir)
    assert resumed.returncode == 0, resumed.stderr
    assert "at period 3 (replayed 3 period record(s))" in resumed.stdout
    assert ((wal_dir / "final_report.json").read_bytes()
            == (tmp_path / "uninterrupted"
                / "final_report.json").read_bytes())
    # Periods 4..8 were appended after the orphan frame, which stays.
    assert kinds(wal_dir) == FIXTURE_KINDS + [rec.RECORD_PERIOD] * 5
    assert kinds(tmp_path / "uninterrupted") == (
        [rec.RECORD_CHECKPOINT] + [rec.RECORD_PERIOD] * 8)


def test_retired_kind_decodes_but_is_never_encoded():
    with pytest.raises(ValidationError, match="retired"):
        rec.encode_frame(rec.RECORD_ARRIVALS, b"columns")
    assert rec.RECORD_ARRIVALS not in rec.RECORD_KINDS
    segment = (FIXTURE / "wal-00000000.log").read_bytes()
    frames = list(rec.iter_frames(segment))
    assert [kind for kind, *_ in frames] == FIXTURE_KINDS
    assert frames[-1][3] == len(segment)


def test_a_sim_log_holds_receipts_and_checkpoints_only(tmp_path):
    from repro.wal import WriteAheadLog
    from tests.wal.workloads import build_driver

    options = {"mechanism": "GV", "subscriptions": True, "probe": "fifo",
               "pump": True, "record": True}
    driver = build_driver(**options)
    log = WriteAheadLog.create(tmp_path / "wal", driver.snapshot(),
                               fsync="never", compact_every=2)
    driver.attach_wal(log)
    driver.run(5)
    log.close()
    assert len(driver.trace()) > 0
    assert set(kinds(tmp_path / "wal")) == {rec.RECORD_CHECKPOINT,
                                            rec.RECORD_PERIOD}
    [receipt] = [rec.decode_json(record.body, "period")
                 for record in scan_wal(tmp_path / "wal").tail()]
    assert sorted(receipt) == ["events", "period", "queue", "revenue"]
