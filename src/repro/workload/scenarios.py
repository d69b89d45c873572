"""Hand-built scenario instances: the paper's Example 1 and the
application workloads its introduction motivates.

These are small, fully-determined instances used by the worked-example
tests, the quickstart, and the domain examples (stock-market
monitoring, sensor-network environmental monitoring, personalized Web
alerts).
"""

from __future__ import annotations

from repro.core.model import AuctionInstance, Operator, Query
from repro.utils.rng import spawn_rng
from repro.workload.zipf import BoundedZipf


def example1() -> AuctionInstance:
    """The paper's Example 1 (Figures 1–2).

    Three queries on a server of capacity 10: ``q1 = {A, B}``,
    ``q2 = {A, C}`` (sharing operator A), ``q3 = {D, E}``.  Loads:
    A=4, B=1, C=2, D=5, E=5.  The bids reproduce the worked numbers of
    Sections IV-A/B/C — priorities 11/12/10 under CAR and CAT,
    18.34/18/10 under CAF — i.e. ``b1=55, b2=72, b3=100``:

    * CAR admits q2 then q1; payments $10 and $60 ($10/unit of
      remaining load).
    * CAF admits q1 then q2; payments $30 and $40.
    * CAT admits q2 then q1; payments $50 and $60.
    """
    return AuctionInstance.build(
        operator_loads={"A": 4.0, "B": 1.0, "C": 2.0, "D": 5.0, "E": 5.0},
        query_specs={"q1": ("A", "B"), "q2": ("A", "C"), "q3": ("D", "E")},
        bids={"q1": 55.0, "q2": 72.0, "q3": 100.0},
        capacity=10.0,
    )


def stock_monitoring(
    num_traders: int = 40,
    capacity: float = 120.0,
    seed: int = 7,
) -> AuctionInstance:
    """A stock-market monitoring tenant mix (the paper's Section I/II
    motivating application).

    A few *hot* shared operators — selections over a stock-quote stream
    and a news-story stream, index aggregates — are shared by many
    traders' queries; each trader adds a private join or window with her
    own parameters.  Bids follow a skewed (Zipf) willingness-to-pay.
    """
    rng = spawn_rng(seed)
    operators: dict[str, float] = {
        # Hot shared subnetwork over stream s1 (quotes) and s2 (news).
        "sel_high_value_trades": 6.0,
        "sel_public_companies": 4.0,
        "agg_index_1min": 5.0,
        "agg_index_5min": 3.0,
        "sel_sec_filings": 2.0,
    }
    shared_ids = list(operators)
    query_specs: dict[str, list[str]] = {}
    bids: dict[str, float] = {}
    bid_dist = BoundedZipf(100, 0.5)
    for trader in range(num_traders):
        qid = f"trader{trader}"
        picks = rng.choice(len(shared_ids),
                           size=int(rng.integers(1, 4)), replace=False)
        ops = [shared_ids[int(i)] for i in picks]
        private_op = f"join_portfolio_{trader}"
        operators[private_op] = float(rng.integers(1, 5))
        ops.append(private_op)
        query_specs[qid] = ops
        bids[qid] = float(bid_dist.sample(rng))
    return AuctionInstance.build(
        operator_loads=operators,
        query_specs=query_specs,
        bids=bids,
        capacity=capacity,
    )


def sensor_network(
    num_subscribers: int = 30,
    num_sensors: int = 6,
    capacity: float = 40.0,
    seed: int = 11,
) -> AuctionInstance:
    """Environmental monitoring over a sensor network.

    Per-sensor cleaning/windowing operators are shared by every
    subscriber watching that sensor; subscribers add private threshold
    alarms.  Sensor popularity is Zipf-distributed, so a few sensors are
    heavily shared — the regime where fair-share and total-load
    mechanisms diverge.
    """
    rng = spawn_rng(seed)
    operators: dict[str, float] = {}
    for sensor in range(num_sensors):
        operators[f"clean_s{sensor}"] = 2.0
        operators[f"window_s{sensor}"] = 3.0
    popularity = BoundedZipf(num_sensors, 1.0)
    bid_dist = BoundedZipf(50, 0.5)
    query_specs: dict[str, list[str]] = {}
    bids: dict[str, float] = {}
    for sub in range(num_subscribers):
        sensor = int(popularity.sample(rng)) - 1
        alarm = f"alarm_{sub}"
        operators[alarm] = 1.0
        query_specs[f"sub{sub}"] = [
            f"clean_s{sensor}", f"window_s{sensor}", alarm]
        bids[f"sub{sub}"] = float(bid_dist.sample(rng))
    return AuctionInstance.build(
        operator_loads=operators,
        query_specs=query_specs,
        bids=bids,
        capacity=capacity,
    )


def web_alerts(
    num_users: int = 25,
    capacity: float = 25.0,
    seed: int = 13,
) -> AuctionInstance:
    """Personalized and customized Web alerts (Section I).

    A crawl/diff pipeline is shared by everyone; topic filters are
    shared by interest groups; each user adds a private notification
    operator with negligible load.
    """
    rng = spawn_rng(seed)
    topics = ["sports", "finance", "weather", "politics", "tech"]
    operators: dict[str, float] = {"crawl_diff": 10.0}
    for topic in topics:
        operators[f"filter_{topic}"] = 3.0
    bid_dist = BoundedZipf(30, 0.5)
    query_specs: dict[str, list[str]] = {}
    bids: dict[str, float] = {}
    for user in range(num_users):
        topic = topics[int(rng.integers(0, len(topics)))]
        notify = f"notify_{user}"
        operators[notify] = 0.5
        query_specs[f"user{user}"] = ["crawl_diff", f"filter_{topic}", notify]
        bids[f"user{user}"] = float(bid_dist.sample(rng))
    return AuctionInstance.build(
        operator_loads=operators,
        query_specs=query_specs,
        bids=bids,
        capacity=capacity,
    )


def table2_instance(epsilon: float = 1e-3) -> AuctionInstance:
    """The Table II instance: the sybil attack that defeats CAT+.

    Users 1 and 2 are real (valuations 100 and 89, total loads 1 and
    0.9 on a capacity-1 server); "user 3" is user 2's fake with
    valuation ``100ε + ε`` and load ``ε``.  Without the fake, CAT+
    serves user 1 only; with it, user 2 and the fake win, user 2 pays
    0, and the fake pays ``100ε``.
    """
    operators = {
        "o1": Operator("o1", 1.0),
        "o2": Operator("o2", 0.9),
        "o3": Operator("o3", epsilon),
    }
    queries = (
        Query("u1", ("o1",), bid=100.0, owner="user1"),
        Query("u2", ("o2",), bid=89.0, owner="user2"),
        Query("u3", ("o3",), bid=100.0 * epsilon + epsilon,
              valuation=0.0, owner="user2"),
    )
    return AuctionInstance(operators, queries, capacity=1.0)
