"""Aurora-style DSMS simulator: streams, operators, shared plans,
the tick engine with connection points, and load estimation."""

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
from repro.dsms.builder import QueryBuilder
from repro.dsms.plan import ContinuousQuery, QueryPlanCatalog
from repro.dsms.scheduler import (
    CheapestFirstPolicy,
    LatencyStats,
    LongestQueueFirstPolicy,
    RoundRobinPolicy,
    ScheduledEngine,
    SchedulingPolicy,
)
from repro.dsms.sharing_detector import (
    CanonicalizationReport,
    canonicalize,
    operator_signature,
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
from repro.dsms.windows import (
    DistinctOperator,
    SlidingAggregateOperator,
    TopKOperator,
)

__all__ = [
    "AggregateOperator",
    "CanonicalizationReport",
    "CheapestFirstPolicy",
    "ConnectionPoint",
    "ContinuousQuery",
    "DistinctOperator",
    "EngineReport",
    "JoinOperator",
    "LatencyStats",
    "LongestQueueFirstPolicy",
    "LoadMeter",
    "MapOperator",
    "PriorityShedder",
    "ProjectOperator",
    "QueryBuilder",
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
    "SlidingAggregateOperator",
    "StreamEngine",
    "TopKOperator",
    "TupleShedder",
    "StreamOperator",
    "StreamSource",
    "StreamTuple",
    "SyntheticStream",
    "UnionOperator",
    "auction_instance_from_catalog",
    "canonicalize",
    "estimate_operator_loads",
    "news_stories",
    "operator_signature",
    "run_shedding_comparison",
    "sensor_readings",
    "stock_quotes",
]
