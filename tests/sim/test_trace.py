"""Trace codec and the versioned repro/sim-trace schema."""

import numpy as np
import pytest

from repro.dsms.operators import ProjectOperator, SelectOperator
from repro.dsms.plan import ContinuousQuery
from repro.io import (
    SIM_TRACE_SCHEMA,
    SIM_TRACE_VERSION,
    load_sim_trace,
    save_sim_trace,
    sim_trace_from_arrays,
    sim_trace_from_dict,
    sim_trace_to_arrays,
)
from repro.sim.arrivals import TraceArrivals, synthetic_query
from repro.sim.trace import (
    SimTrace,
    TraceEntry,
    TraceRecorder,
    decode_query,
    encode_query,
)
from repro.utils.validation import ValidationError


def _keep(_t):
    return True


class TestQueryCodec:
    def test_synthetic_queries_use_the_compact_encoding(self):
        query = synthetic_query(np.random.default_rng(0), 4,
                                stream="quotes")
        encoded = encode_query(query)
        assert encoded["plan"] == "select"
        decoded = decode_query(encoded)
        assert decoded.query_id == query.query_id
        assert decoded.bid == query.bid
        assert decoded.owner == query.owner
        assert decoded.operator_ids == query.operator_ids
        assert (decoded.operators[0].cost_per_tuple
                == query.operators[0].cost_per_tuple)

    def test_plans_without_a_select_form_are_refused(self):
        select = SelectOperator("sel", "s", _keep)
        project = ProjectOperator("proj", "sel", ("a",))
        query = ContinuousQuery("fancy", (select, project),
                                sink_id="proj", bid=9.0)
        with pytest.raises(ValidationError, match="'fancy'"):
            encode_query(query)
        recorder = TraceRecorder()
        with pytest.raises(ValidationError, match="'fancy'"):
            recorder.record(1.0, query, None)
        assert len(recorder.trace()) == 0

    def test_unknown_plan_encoding_rejected(self):
        with pytest.raises(ValidationError):
            decode_query({"plan": "yaml", "id": "x"})

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValidationError):
            decode_query({"plan": "select", "id": "x"})


class TestSchema:
    def _trace(self):
        recorder = TraceRecorder()
        rng = np.random.default_rng(1)
        recorder.record(1.5, synthetic_query(rng, 0), "day", stream=0)
        recorder.record(2.5, synthetic_query(rng, 1), None, stream=1)
        return recorder.trace()

    def test_roundtrip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "run.trace.npz"
        save_sim_trace(trace, path)
        loaded = load_sim_trace(path)
        assert isinstance(loaded, SimTrace)
        assert len(loaded) == 2
        first = loaded.entries[0]
        assert isinstance(first, TraceEntry)
        assert first.time == 1.5
        assert first.category == "day"
        assert first.query.query_id == trace.entries[0].query.query_id
        assert loaded.entries[1].stream == 1

    def test_replay_through_trace_arrivals(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "run.trace.npz"
        save_sim_trace(trace, path)
        process = TraceArrivals(path=str(path))
        replayed = [process.next_arrival() for _ in range(2)]
        assert process.next_arrival() is None
        assert [a.time for a in replayed] == [1.5, 2.5]
        assert replayed[0].category == "day"

    def test_arrivals_outside_the_columns_rejected(self):
        """Parent-written containers hold two more arrays, for plans
        pickled beside the columns: empty loads, anything else must
        not replay with those rows silently missing."""
        trace = self._trace()
        arrays = sim_trace_to_arrays(trace)
        arrays["opaque_rows"] = np.empty(0, dtype=np.int64)
        arrays["opaque_queries"] = np.empty(0, dtype="U1")
        assert sim_trace_from_arrays(arrays) == trace
        arrays["opaque_rows"] = np.asarray([1], dtype=np.int64)
        with pytest.raises(ValidationError, match="opaque_rows"):
            sim_trace_from_arrays(arrays)

    def test_schema_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            sim_trace_from_dict({"schema": "repro/other", "version": 1,
                                 "arrivals": []})

    def test_version_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            sim_trace_from_dict({"schema": SIM_TRACE_SCHEMA,
                                 "version": 99, "arrivals": []})

    def test_non_object_rejected(self):
        with pytest.raises(ValidationError):
            sim_trace_from_dict([])

    def test_arrivals_must_be_an_array(self):
        with pytest.raises(ValidationError):
            sim_trace_from_dict({"schema": SIM_TRACE_SCHEMA,
                                 "version": SIM_TRACE_VERSION,
                                 "arrivals": {}})


class TestSimSnapshotEnvelope:
    def test_envelope_roundtrip_and_validation(self, tmp_path):
        from repro.io import load_sim_snapshot, save_sim_snapshot

        path = tmp_path / "sim.ckpt"
        save_sim_snapshot({"hello": 1}, path)
        assert load_sim_snapshot(path) == {"hello": 1}

        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a pickle")
        with pytest.raises(ValidationError):
            load_sim_snapshot(bad)

    def test_wrong_schema_rejected(self, tmp_path):
        import pickle

        from repro.io import load_sim_snapshot

        path = tmp_path / "weird.ckpt"
        path.write_bytes(pickle.dumps({"schema": "repro/other",
                                       "version": 1, "snapshot": None}))
        with pytest.raises(ValidationError):
            load_sim_snapshot(path)
