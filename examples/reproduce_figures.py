"""Regenerate every table and figure of the paper's Section VI.

Equivalent to ``python -m repro report``; scale is configurable
with environment variables:

    REPRO_SETS=5 REPRO_QUERIES=500 python examples/reproduce_figures.py

At a reduced scale capacities shrink proportionally, so the
capacity-to-demand ratios match the paper's.

Run:  python examples/reproduce_figures.py
"""

from repro.experiments import full_report

if __name__ == "__main__":
    print(full_report().render())
