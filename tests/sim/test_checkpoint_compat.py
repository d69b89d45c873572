"""Checkpoint files written before history was shared still resume.

``tests/data/*.checkpoint`` were written by the commit *before*
snapshots started sharing their immutable records (``python -m
tests.checkpoints write`` there): one file per stateful tier, each
taken after three periods.  The on-disk format did not change, so each
must load, restore and continue byte-identically to an uninterrupted
run on this commit — in a child process, because the comparison is
exact only under the hash seed the files were written with (see
:mod:`tests.checkpoints`).
"""

import os
import subprocess
import sys

from repro import io
from repro.cluster.federation import CLUSTER_STATE_VERSION
from repro.service.service import SNAPSHOT_STATE_VERSION
from repro.sim.driver import SIM_STATE_VERSION
from tests.checkpoints import TIERS

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run_checkpoints(command):
    env = {**os.environ, "PYTHONHASHSEED": "0",
           "PYTHONPATH": os.pathsep.join([os.path.join(REPO, "src"), REPO])}
    return subprocess.run(
        [sys.executable, "-m", "tests.checkpoints", command],
        capture_output=True, text=True, env=env, cwd=REPO, timeout=120)


def test_old_files_resume_byte_identically():
    done = run_checkpoints("check")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("resumed") == len(TIERS)


def test_checkpoint_written_with_batch_resumes_sequentially():
    """A cluster driver checkpoint the parent build wrote with
    ``batch=True`` continues as an uninterrupted run on this build."""
    done = run_checkpoints("check-batch")
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("resumed") == 1


def test_versions_and_envelopes_are_unchanged():
    assert (SIM_STATE_VERSION, SNAPSHOT_STATE_VERSION,
            CLUSTER_STATE_VERSION) == (2, 1, 1)
    assert (io.SIM_SNAPSHOT_SCHEMA, io.SIM_SNAPSHOT_VERSION) == (
        "repro/sim-snapshot", 1)
    assert (io.SNAPSHOT_SCHEMA, io.SNAPSHOT_VERSION) == (
        "repro/service-snapshot", 1)
    assert (io.CLUSTER_SNAPSHOT_SCHEMA, io.CLUSTER_SNAPSHOT_VERSION) == (
        "repro/cluster-snapshot", 1)
