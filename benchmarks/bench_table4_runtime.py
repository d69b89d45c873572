"""Table IV: mechanism runtimes.

Times each mechanism on one representative instance with
pytest-benchmark (the statistically careful measurement) and also
regenerates the paper-style mean table for the artifact directory.
The assertion targets are the paper's gap structure, not its absolute
Java-on-Xeon milliseconds.
"""

import pytest
from conftest import write_artifact

from repro.experiments.harness import TABLE4_MECHANISMS, mechanism_factory
from repro.experiments.runtime import table4_runtime


@pytest.fixture(scope="module")
def instance(scale):
    generator = scale.generators()[0]
    return generator.instance(
        max_sharing=8, capacity=scale.scaled_capacity(15_000.0))


@pytest.mark.parametrize("name", TABLE4_MECHANISMS)
def test_mechanism_runtime(benchmark, name, instance):
    # The paper's algorithm, not the array kernel a skip-over
    # mechanism (or any mechanism on a warm index) would pick itself.
    mechanism = mechanism_factory(name, 0)
    outcome = benchmark(mechanism.run, instance, selection="reference")
    assert outcome.used_capacity <= instance.capacity + 1e-6


def test_table4_regeneration(scale):
    table = table4_runtime(scale, degrees=(1, 8), repetitions=1)
    write_artifact("table4_runtime.txt", table.render())
    # The skip-over mechanisms are the slow group, as in the paper.
    assert table.mean_ms["CAF+"] > 10 * table.mean_ms["CAF"]
    assert table.mean_ms["CAT+"] > 10 * table.mean_ms["CAT"]
