"""Runtime: deployment, trace caching, streaming, async serving."""

from repro.runtime.deploy import Workload, prepare_workload, run_workload
from repro.runtime.loadgen import (
    OpenLoopReport,
    onoff_arrivals,
    poisson_arrivals,
    run_open_loop,
)
from repro.runtime.server import (
    DecisionServer,
    ServerConfig,
    ServerOverloadedError,
    ServerStats,
    low_latency_gc,
)
from repro.runtime.shard import (
    RouterConfig,
    ShardReport,
    ShardRouter,
    ShardSnapshot,
    ShardSpec,
)
from repro.runtime.serving import (
    CachedDecision,
    CacheStats,
    DecisionCache,
    feature_keys_batch,
)
from repro.runtime.streaming import (
    StreamingRunResult,
    streaming_degree_sum,
    streaming_sssp_bf,
)
from repro.runtime.trace_cache import cache_dir, clear_cache, load_trace, store_trace

__all__ = [
    "CachedDecision",
    "CacheStats",
    "DecisionCache",
    "DecisionServer",
    "OpenLoopReport",
    "RouterConfig",
    "ServerConfig",
    "ServerOverloadedError",
    "ServerStats",
    "ShardReport",
    "ShardRouter",
    "ShardSnapshot",
    "ShardSpec",
    "StreamingRunResult",
    "Workload",
    "cache_dir",
    "clear_cache",
    "feature_keys_batch",
    "load_trace",
    "low_latency_gc",
    "onoff_arrivals",
    "poisson_arrivals",
    "prepare_workload",
    "run_open_loop",
    "run_workload",
    "store_trace",
    "streaming_degree_sum",
    "streaming_sssp_bf",
]
