"""The selection-path registry, specs, and service/config threading."""

import pytest

from repro.core import CAT, make_mechanism
from repro.core.selection import (
    FastSelection,
    ReferenceSelection,
    SelectionPath,
    SelectionSpec,
    default_selection,
    make_selection,
    registered_selections,
    resolve_selection,
)
from repro.utils.validation import ValidationError


class TestRegistry:
    def test_ships_reference_and_fast(self):
        names = set(registered_selections())
        assert {"reference", "fast"} <= names

    def test_make_selection_is_case_insensitive(self):
        assert isinstance(make_selection("FAST"), FastSelection)
        assert isinstance(make_selection("Reference"),
                          ReferenceSelection)

    def test_unknown_name_lists_the_menu(self):
        with pytest.raises(KeyError, match="fast"):
            make_selection("bogus")

    def test_unknown_parameter_lists_the_menu(self):
        with pytest.raises(ValidationError, match="strict"):
            make_selection("fast", bogus=1)


class TestSpec:
    def test_parse_and_str_round_trip(self):
        spec = SelectionSpec.parse("fast:strict=true")
        assert spec.name == "fast"
        assert spec.params == {"strict": True}
        assert str(spec) == "fast:strict=True"
        assert str(SelectionSpec.parse("reference")) == "reference"

    def test_validate_rejects_typos(self):
        with pytest.raises(KeyError):
            SelectionSpec.parse("fastt").validate()
        with pytest.raises(ValidationError):
            SelectionSpec.parse("fast:stricct=true").validate()

    def test_create(self):
        path = SelectionSpec.parse("fast:strict=true").create()
        assert isinstance(path, FastSelection)
        assert path._strict is True


class TestResolve:
    def test_accepts_all_forms(self):
        live = FastSelection()
        assert resolve_selection(live) is live
        assert isinstance(resolve_selection("fast"), FastSelection)
        assert isinstance(
            resolve_selection(SelectionSpec("reference")),
            ReferenceSelection)

    def test_rejects_other_types(self):
        with pytest.raises(ValidationError, match="selection path"):
            resolve_selection(42)

    def test_default_is_reference(self):
        assert isinstance(default_selection(), ReferenceSelection)
        assert CAT().selection is None


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
        from repro.core.model import AuctionInstance

        instance = AuctionInstance.build(
            {"a": 1.0}, {"q0": ["a"]}, {"q0": 5.0}, capacity=10.0)
        mechanism = make_mechanism("Random", seed=0).use_selection(
            "fast:strict=true")
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

    def test_config_carries_and_validates_selection(self):
        from repro.service import ServiceBuilder, ServiceConfig

        config = ServiceConfig(capacity=20.0, selection="fast")
        assert config.selection_spec().name == "fast"
        assert config.with_selection("reference").selection == "reference"
        with pytest.raises(KeyError):
            ServiceConfig(capacity=20.0, selection="warp")
        from repro.dsms.streams import SyntheticStream

        service = (ServiceBuilder(config)
                   .with_sources(SyntheticStream("s", rate=2, seed=1))
                   .build())
        assert service.mechanism.selection.name == "fast"

    def test_config_without_selection_leaves_live_mechanism_pinned(self):
        from repro.core import CAT
        from repro.dsms.streams import SyntheticStream
        from repro.service import ServiceBuilder, ServiceConfig

        mechanism = CAT().use_selection("fast")
        service = (ServiceBuilder(ServiceConfig(capacity=20.0))
                   .with_sources(SyntheticStream("s", rate=2, seed=1))
                   .with_mechanism(mechanism)
                   .build())
        assert service.mechanism.selection.name == "fast"

    def test_selection_survives_snapshot_restore(self):
        from repro.service import AdmissionService

        service = self.make_builder().with_selection("fast").build()
        restored = AdmissionService.restore(service.snapshot())
        assert restored.mechanism.selection.name == "fast"

    def test_federation_build_threads_selection(self):
        from repro.cluster import FederatedAdmissionService
        from repro.dsms.streams import SyntheticStream

        cluster = FederatedAdmissionService.build(
            num_shards=2,
            sources=[SyntheticStream("s", rate=2, seed=1)],
            capacity=20.0,
            mechanism="CAT",
            selection="fast",
        )
        for shard in cluster.shards:
            assert shard.mechanism.selection.name == "fast"
