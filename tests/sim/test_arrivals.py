"""Arrival processes: specs, determinism, resumability."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.arrivals import (
    Arrival,
    ArrivalSpec,
    BurstArrivals,
    PoissonArrivals,
    ScheduledArrivals,
    make_arrivals,
    registered_arrivals,
    resolve_arrivals,
    synthetic_query,
)
from repro.sim.trace import as_select_plan
from repro.utils.validation import ValidationError


def drain(process, count):
    out = []
    for _ in range(count):
        arrival = process.next_arrival()
        if arrival is None:
            break
        out.append(arrival)
    return out


class TestSpecs:
    def test_parse_roundtrip(self):
        spec = ArrivalSpec.parse("poisson:rate=40,seed=7")
        assert spec.name == "poisson"
        assert spec.params == {"rate": 40, "seed": 7}
        assert str(spec) == "poisson:rate=40,seed=7"

    def test_registry_menu_on_unknown_name(self):
        with pytest.raises(KeyError) as excinfo:
            ArrivalSpec.parse("flood:rate=1").validate()
        assert "poisson" in str(excinfo.value)
        assert "burst" in str(excinfo.value)
        assert "trace" in str(excinfo.value)

    def test_unknown_parameter_names_the_menu(self):
        with pytest.raises(ValidationError) as excinfo:
            ArrivalSpec.parse("poisson:rate=1,cadence=3").validate()
        assert "cadence" in str(excinfo.value)
        assert "rate" in str(excinfo.value)

    def test_accepts_and_with_params(self):
        spec = ArrivalSpec.parse("poisson:rate=1")
        assert spec.accepts("seed")
        assert not spec.accepts("cadence")
        assert spec.with_params(seed=9).params["seed"] == 9

    def test_resolve_forms(self):
        assert isinstance(resolve_arrivals("poisson:rate=2"),
                          PoissonArrivals)
        assert isinstance(
            resolve_arrivals(ArrivalSpec.parse("burst")), BurstArrivals)
        live = PoissonArrivals(rate=1.0)
        assert resolve_arrivals(live) is live
        with pytest.raises(ValidationError):
            resolve_arrivals(42)

    def test_registered_names(self):
        names = set(registered_arrivals())
        assert {"poisson", "burst", "trace"} <= names

    def test_make_arrivals_validates_kwargs(self):
        with pytest.raises(ValidationError):
            make_arrivals("poisson", rate=1.0, nope=2)


class TestPoisson:
    def test_deterministic_given_seed(self):
        a = drain(PoissonArrivals(rate=2.0, seed=5), 20)
        b = drain(PoissonArrivals(rate=2.0, seed=5), 20)
        assert [(x.time, x.query.query_id, x.query.bid) for x in a] == \
               [(x.time, x.query.query_id, x.query.bid) for x in b]

    def test_times_strictly_increase(self):
        times = [a.time for a in drain(PoissonArrivals(rate=3.0), 50)]
        assert all(later > earlier
                   for earlier, later in zip(times, times[1:]))

    def test_limit_exhausts(self):
        process = PoissonArrivals(rate=1.0, limit=3)
        assert len(drain(process, 10)) == 3
        assert process.next_arrival() is None

    def test_pickle_resumes_the_same_stream(self):
        process = PoissonArrivals(rate=2.0, seed=1)
        drain(process, 7)
        clone = pickle.loads(pickle.dumps(process))
        tail_a = drain(process, 10)
        tail_b = drain(clone, 10)
        assert [(x.time, x.query.query_id) for x in tail_a] == \
               [(x.time, x.query.query_id) for x in tail_b]

    def test_rate_must_be_positive(self):
        with pytest.raises(ValidationError):
            PoissonArrivals(rate=0.0)

    def test_query_ids_use_prefix(self):
        arrivals = drain(PoissonArrivals(rate=1.0, prefix="s2a"), 3)
        assert [a.query.query_id for a in arrivals] == \
               ["s2a0", "s2a1", "s2a2"]


class TestBurst:
    def test_bursts_share_a_time(self):
        arrivals = drain(BurstArrivals(size=3, every=10.0), 7)
        times = [a.time for a in arrivals]
        assert times == [10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 30.0]

    def test_limit(self):
        assert len(drain(BurstArrivals(size=4, every=5.0, limit=6),
                         20)) == 6

    def test_validation(self):
        with pytest.raises(ValidationError):
            BurstArrivals(size=0)
        with pytest.raises(ValidationError):
            BurstArrivals(every=0.0)


class TestScheduled:
    def test_yields_in_order(self):
        queries = [synthetic_query(_rng(), i) for i in range(3)]
        process = ScheduledArrivals([
            Arrival(time=1.0, query=queries[0]),
            Arrival(time=1.0, query=queries[1]),
            Arrival(time=4.0, query=queries[2]),
        ])
        assert [a.time for a in drain(process, 5)] == [1.0, 1.0, 4.0]
        assert process.next_arrival() is None

    def test_rejects_time_regressions(self):
        queries = [synthetic_query(_rng(), i) for i in range(2)]
        with pytest.raises(ValidationError):
            ScheduledArrivals([
                Arrival(time=2.0, query=queries[0]),
                Arrival(time=1.0, query=queries[1]),
            ])


class TestTraceProcess:
    def test_requires_exactly_one_source(self):
        from repro.sim.arrivals import TraceArrivals

        with pytest.raises(ValidationError):
            TraceArrivals()
        with pytest.raises(ValidationError):
            TraceArrivals(trace=object(), path="x")

    def test_rejects_non_trace_objects(self):
        from repro.sim.arrivals import TraceArrivals

        with pytest.raises(ValidationError):
            TraceArrivals(trace=object())


def _rng():
    import numpy as np

    return np.random.default_rng(0)


def _trace(rows=40):
    """A multi-stream trace with same-time stream changes to cut at."""
    from repro.sim.trace import SimTrace, TraceColumns

    rng = _rng()
    columns = TraceColumns()
    for index in range(rows):
        query = synthetic_query(rng, index, prefix="t")
        columns.append_select(
            float(index // 3), as_select_plan(query),
            ("day", None, "week")[index % 3], (index // 2) % 2)
    return SimTrace(columns)


def _processes():
    """name → factory of a fresh row process with small blocks."""
    from repro.sim.arrivals import TraceArrivals

    def trace():
        process = TraceArrivals(trace=_trace())
        process._block = 6
        return process

    return {
        "poisson": lambda: PoissonArrivals(rate=2.0, seed=4, block=7,
                                           limit=40),
        "burst": lambda: BurstArrivals(size=3, every=2.0, seed=4,
                                       block=5, limit=37),
        "trace": trace,
    }


def block_rows(block):
    return [(block.ids[row], float(block.times[row]),
             float(block.costs[row]), float(block.bids[row]),
             block.owners[row],
             None if block.categories is None else block.categories[row],
             None if block.streams is None else block.stream_at(row, 0))
            for row in range(len(block))]


def object_rows(arrivals):
    return [(a.query.query_id, a.time, a.query.cost, a.query.bid,
             a.query.owner, a.category, a.stream) for a in arrivals]


def drain_blocks(process):
    rows = []
    while (block := process.next_block()) is not None:
        rows.extend(block_rows(block))
    return rows


class TestOneProducer:
    """The object stream is a view of the blocks: any interleaving of
    the three reads, with pickle round-trips anywhere, yields exactly
    the rows ``next_block()`` alone yields."""

    @pytest.mark.parametrize("name", ["poisson", "burst", "trace"])
    @given(reads=st.lists(st.one_of(
        st.just(("one",)), st.just(("block",)), st.just(("pickle",)),
        st.tuples(st.just("many"), st.integers(0, 9))), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_any_interleaving_reads_the_block_stream(self, name, reads):
        make = _processes()[name]
        expected = drain_blocks(make())
        process = make()
        rows = []
        for read in reads:
            if read[0] == "one":
                arrival = process.next_arrival()
                rows.extend(object_rows([arrival] if arrival else []))
            elif read[0] == "many":
                rows.extend(object_rows(process.next_arrivals(read[1])))
            elif read[0] == "block":
                block = process.next_block()
                rows.extend(block_rows(block) if block else [])
            else:
                process = pickle.loads(pickle.dumps(process))
        rows.extend(drain_blocks(process))
        assert rows == expected
        assert process.next_arrival() is None
        assert process.next_arrivals(5) == []

    def test_object_batches_end_at_block_ends_and_stream_cuts(self):
        process = _processes()["trace"]()
        batches = []
        while arrivals := process.next_arrivals(64):
            batches.append([(a.time, a.stream) for a in arrivals])
        for batch in batches:
            assert len(batch) <= 6
            assert all(later[0] > earlier[0] or later[1] == earlier[1]
                       for earlier, later in zip(batch, batch[1:]))
        assert sum(map(len, batches)) == 40

    @pytest.mark.parametrize("name", ["poisson", "burst"])
    @pytest.mark.parametrize("consumed", [0, 3, None],
                             ids=["unread", "mid-buffer", "spent"])
    def test_the_parent_layout_continues_the_stream(self, name, consumed):
        """A state pickled by builds that buffered ``Arrival`` objects
        (``_buffer`` + ``_cursor``) resumes at its cursor row."""
        make = _processes()[name]
        expected = drain_blocks(make())
        process = make()
        block = process.next_block()
        cursor = len(block) if consumed is None else consumed
        state = dict(vars(process), _buffer=block.arrivals(),
                     _cursor=cursor)
        resumed = type(process).__new__(type(process))
        resumed.__setstate__(pickle.loads(pickle.dumps(state)))
        assert (resumed._parked is None) == (cursor == len(block))
        rows = object_rows(resumed.next_arrivals(2))
        rows.extend(drain_blocks(resumed))
        assert rows == expected[cursor:]


class TestSyntheticQuery:
    def test_shape_and_ranges(self):
        query = synthetic_query(_rng(), 3, stream="quotes", clients=2)
        assert query.query_id == "a3"
        assert query.owner == "user_1"
        assert query.operators[0].inputs == ("quotes",)
        assert 5.0 <= query.bid <= 100.0
        assert 0.5 <= query.operators[0].cost_per_tuple <= 2.0
