"""Selection paths: resolution, the observed default, service threading."""

import pytest

from repro.core import CAT, CAFPlus, make_mechanism
from repro.core.fastpath import InstanceIndex
from repro.core.model import AuctionInstance
from repro.core.selection import (
    FastSelection,
    ReferenceSelection,
    SelectionPath,
    resolve_selection,
)
from repro.utils.validation import ValidationError


def cold_instance():
    return AuctionInstance.build(
        {"a": 1.0, "b": 2.0}, {"q0": ["a"], "q1": ["a", "b"]},
        {"q0": 5.0, "q1": 3.0}, capacity=1.5)


class TestResolve:
    def test_accepts_all_forms(self):
        live = FastSelection()
        assert resolve_selection(live) is live
        assert isinstance(resolve_selection("fast"), FastSelection)
        assert isinstance(resolve_selection("reference"),
                          ReferenceSelection)

    def test_rejects_other_types(self):
        with pytest.raises(ValidationError, match="selection path"):
            resolve_selection(42)

    def test_spec_grammar_and_registry_are_gone(self):
        with pytest.raises(KeyError, match="fast, reference"):
            resolve_selection("fast:strict=true")
        with pytest.raises(ImportError):
            from repro.core import SelectionSpec  # noqa: F401
        import repro.core.selection as module
        for name in ("register_selection", "make_selection",
                     "registered_selections", "default_selection"):
            assert not hasattr(module, name)


class TestObservedDefault:
    """With nothing pinned, ``run`` picks the path from what it sees."""

    def test_cold_instance_kernel_only_for_superlinear_references(self):
        assert CAT().selection is None
        flagged = {name for name in ("CAR", "CAF", "CAF+", "CAT", "CAT+",
                                     "GV", "two-price", "Random", "OPT_C")
                   if make_mechanism(name).superlinear_reference}
        assert flagged == {"CAR", "CAF+", "CAT+"}
        instance = cold_instance()
        CAT().run(instance)
        assert getattr(instance, "_fastpath_cache", None) is None
        CAFPlus().run(instance)
        assert isinstance(instance._fastpath_cache, InstanceIndex)

    def test_cached_index_switches_any_mechanism_to_the_kernel(self):
        instance, mechanism = cold_instance(), CAT()
        assert mechanism._selection_path(None, instance).name == "reference"
        InstanceIndex.of(instance)
        assert mechanism._selection_path(None, instance).name == "fast"
        # A per-call override or a pinned path still wins.
        assert mechanism._selection_path(
            "reference", instance).name == "reference"
        mechanism.use_selection("reference")
        assert mechanism._selection_path(None, instance).name == "reference"

    def test_columnar_instance_takes_the_kernel_and_builds_winners_only(
            self):
        """The pump's instance holds its columns: GV selects off them
        and no loser ever becomes a query object."""
        from repro.core import GreedyByValuation
        from repro.sim.columnar import ColumnarSelectInstance

        n = 6
        instance = ColumnarSelectInstance._from_rows(
            ids=[f"q{i}" for i in range(n)],
            ops=[f"sel_q{i}" for i in range(n)], inputs=["s"] * n,
            costs=[1.0] * n, selectivities=[1.0] * n,
            bids=[float(10 + i) for i in range(n)], loads=[2.0] * n,
            valuations=None, owners=[None] * n, objs=None, capacity=5.0)
        outcome = GreedyByValuation().run(instance)
        assert outcome.winner_ids == {"q5", "q4"}
        assert "_mat_queries" not in instance.__dict__
        assert instance.__dict__.get("_row_cache") is None


class TestMechanismThreading:
    def test_use_selection_pins_and_returns_self(self):
        mechanism = CAT()
        assert mechanism.use_selection("fast") is mechanism
        assert isinstance(mechanism.selection, SelectionPath)
        assert mechanism.selection.name == "fast"

    def test_use_selection_fails_fast_on_bad_spec(self):
        with pytest.raises(KeyError):
            CAT().use_selection("warp-speed")

    def test_run_override_beats_pinned_path(self):
        instance = AuctionInstance.build(
            {"a": 1.0}, {"q0": ["a"]}, {"q0": 5.0}, capacity=10.0)
        mechanism = make_mechanism("Random", seed=0).use_selection(
            FastSelection(strict=True))
        # The pinned strict path raises; the per-call override works.
        with pytest.raises(ValidationError):
            mechanism.run(instance)
        outcome = mechanism.run(instance, selection="reference")
        assert outcome.mechanism == "Random"


class TestServiceThreading:
    def make_builder(self):
        from repro.dsms.streams import SyntheticStream
        from repro.service import ServiceBuilder

        return (ServiceBuilder()
                .with_sources(SyntheticStream("s", rate=2, seed=1))
                .with_capacity(20.0)
                .with_mechanism("CAT"))

    def test_builder_with_selection_pins_the_mechanism(self):
        service = self.make_builder().with_selection("fast").build()
        assert service.mechanism.selection.name == "fast"

    def test_builder_default_leaves_mechanism_default(self):
        service = self.make_builder().build()
        assert service.mechanism.selection is None

    def test_config_without_selection_leaves_live_mechanism_pinned(self):
        from repro.dsms.streams import SyntheticStream
        from repro.service import ServiceBuilder

        mechanism = CAT().use_selection("fast")
        service = (ServiceBuilder()
                   .with_capacity(20.0)
                   .with_sources(SyntheticStream("s", rate=2, seed=1))
                   .with_mechanism(mechanism)
                   .build())
        assert service.mechanism.selection.name == "fast"

    def test_selection_survives_snapshot_restore(self):
        from repro.service import AdmissionService

        service = self.make_builder().with_selection("fast").build()
        restored = AdmissionService.restore(service.snapshot())
        assert restored.mechanism.selection.name == "fast"

    def test_federation_build_takes_no_selection(self):
        from repro.cluster import FederatedAdmissionService
        from repro.dsms.streams import SyntheticStream

        with pytest.raises(TypeError, match="selection"):
            FederatedAdmissionService.build(
                num_shards=2,
                sources=[SyntheticStream("s", rate=2, seed=1)],
                capacity=20.0,
                mechanism="CAT",
                selection="fast",
            )
