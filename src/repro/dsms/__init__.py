"""Aurora-style DSMS simulator: streams, operators, shared plans,
the tick engine with connection points, scheduling, load estimation,
and the tuple-level load shedders admission control is contrasted
with (the paper's introduction)."""

from repro.dsms.backend import ScalarBackend
from repro.dsms.engine import ConnectionPoint, StreamEngine
from repro.dsms.load import (
    LoadMeter,
    auction_instance_from_catalog,
    estimate_operator_loads,
)
from repro.dsms.metrics import EngineReport
from repro.dsms.operators import (
    AggregateOperator,
    JoinOperator,
    MapOperator,
    ProjectOperator,
    SelectOperator,
    StreamOperator,
    UnionOperator,
)
from repro.dsms.plan import ContinuousQuery, QueryPlanCatalog
from repro.dsms.scheduler import (
    CheapestFirstPolicy,
    LatencyStats,
    LongestQueueFirstPolicy,
    RoundRobinPolicy,
    ScheduledEngine,
    SchedulingPolicy,
)
from repro.dsms.shedding import (
    PriorityShedder,
    RandomShedder,
    SheddingComparison,
    SheddingEngine,
    TupleShedder,
    run_shedding_comparison,
)
from repro.dsms.streams import (
    ReplayStream,
    StreamSource,
    SyntheticStream,
    news_stories,
    sensor_readings,
    stock_quotes,
)
from repro.dsms.tuples import StreamTuple

__all__ = [
    "AggregateOperator",
    "CheapestFirstPolicy",
    "ConnectionPoint",
    "ContinuousQuery",
    "EngineReport",
    "JoinOperator",
    "LatencyStats",
    "LongestQueueFirstPolicy",
    "LoadMeter",
    "MapOperator",
    "PriorityShedder",
    "ProjectOperator",
    "QueryPlanCatalog",
    "RandomShedder",
    "ReplayStream",
    "RoundRobinPolicy",
    "ScalarBackend",
    "ScheduledEngine",
    "SchedulingPolicy",
    "SelectOperator",
    "SheddingComparison",
    "SheddingEngine",
    "StreamEngine",
    "TupleShedder",
    "StreamOperator",
    "StreamSource",
    "StreamTuple",
    "SyntheticStream",
    "UnionOperator",
    "auction_instance_from_catalog",
    "estimate_operator_loads",
    "news_stories",
    "run_shedding_comparison",
    "sensor_readings",
    "stock_quotes",
]
