"""Stock-market monitoring: the full admission-service loop.

The paper's motivating application (Section II): traders submit
continuous queries over a stock-quote stream and a news stream.  Hot
operators — the high-value-trade filter and the public-company news
filter — are shared by many traders; each trader adds a private join.
The service runs a CAT admission auction at the start of each
subscription period, transitions the engine (holding tuples at the
connection points), executes the admitted queries, and bills winners.

Built on the composable ``repro.service`` API: the service is
assembled by a ``ServiceBuilder``, and the billing audit trail is read
from each period's report.

Run:  python examples/stock_monitoring.py
"""

import numpy as np

from repro.dsms import (
    ContinuousQuery,
    JoinOperator,
    SelectOperator,
    news_stories,
    stock_quotes,
)
from repro.service import ServiceBuilder
from repro.utils.tables import format_table


def shared_filters():
    """The hot shared subnetwork (fresh objects per query; the engine
    merges them by operator id)."""
    high_value = SelectOperator(
        "sel_high_value", "quotes",
        lambda t: t.value("volume") > 5_000,
        cost_per_tuple=0.3, selectivity_estimate=0.5)
    public_news = SelectOperator(
        "sel_public_news", "news",
        lambda t: t.value("public"),
        cost_per_tuple=0.4, selectivity_estimate=0.8)
    return high_value, public_news


def trader_query(index: int, bid: float) -> ContinuousQuery:
    """A trader's CQ: shared filters + a private symbol/company join."""
    high_value, public_news = shared_filters()
    join = JoinOperator(
        f"join_trader_{index}",
        "sel_high_value", "sel_public_news",
        left_key=lambda t: t.value("symbol"),
        right_key=lambda t: t.value("company"),
        window=4, cost_per_tuple=0.5, selectivity_estimate=0.2)
    return ContinuousQuery(
        query_id=f"trader_{index}",
        operators=(high_value, public_news, join),
        sink_id=join.op_id,
        bid=bid,
        owner=f"trader_{index}",
    )


def main() -> None:
    rng = np.random.default_rng(7)
    audit: list[str] = []

    service = (ServiceBuilder()
               .with_sources(stock_quotes(rate=20, seed=1),
                             news_stories(rate=6, seed=2))
               .with_capacity(30.0)
               .with_mechanism("CAT")
               .with_ticks_per_period(40)
               .build())

    rows = []
    next_trader = 0
    for period in range(1, 4):
        arrivals = int(rng.integers(4, 8))
        for _ in range(arrivals):
            bid = float(np.round(rng.uniform(5, 100), 2))
            service.submit(trader_query(next_trader, bid))
            next_trader += 1
        report = service.run_period()
        audit.append(
            f"  period {report.period}: billed "
            f"{len(report.outcome.winner_ids)} winners, "
            f"${report.revenue:.2f} ({report.outcome.mechanism})")
        rows.append([
            period,
            arrivals,
            len(report.admitted),
            len(report.rejected),
            report.revenue,
            f"{100 * (report.engine_utilization or 0):.0f}%",
        ])

    print(format_table(
        ["period", "new submissions", "admitted", "rejected",
         "revenue", "engine util"],
        rows, precision=2,
        title="Stock-monitoring admission service, CAT auction"))
    print()
    print(f"total revenue: ${service.total_revenue():.2f}")
    print("billing audit trail:")
    print("\n".join(audit))

    print()
    loads = service.measured_loads()
    shared = {op: round(load, 2) for op, load in loads.items()
              if op.startswith("sel_")}
    print(f"measured shared-operator loads (work/tick): {shared}")
    alerts = sum(len(r) for r in service.engine.results.values())
    print(f"alerts delivered across all traders: {alerts}")


if __name__ == "__main__":
    main()
