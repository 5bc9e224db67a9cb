"""Constrained routing over physical clusters.

Implements the path-finding substrate of the paper:

* :mod:`~repro.routing.dijkstra` — latency tables and the memoizing
  :class:`~repro.routing.dijkstra.LatencyOracle` (Algorithm 1's ``ar``
  estimate);
* :mod:`~repro.routing.astar_prune` — the generic multi-constraint
  K-shortest-paths A*Prune of Liu & Ramakrishnan (paper reference [8]);
* :mod:`~repro.routing.bottleneck_prune` — the paper's modified
  1-constrained A*Prune maximizing bottleneck bandwidth (Algorithm 1);
* :mod:`~repro.routing.dfs` — the depth-first baseline routers used by
  the R and HS heuristics;
* :mod:`~repro.routing.cache` — the memoized routing layer (latency
  labels + residual-epoch-keyed path results) the Networking stage and
  the retrying baselines route through;
* :mod:`~repro.routing.compiled` — index-space kernels over the
  cluster's :class:`~repro.core.arrays.CompiledTopology`, the only
  route path the cache runs; the dict-space routers above remain as
  the reference they are tested against
  (:mod:`repro.conformance.reference`).
"""

from repro.routing.astar_prune import (
    Constraint,
    KPath,
    Metric,
    astar_prune,
    k_shortest_latency_paths,
)
from repro.routing.bottleneck_prune import BottleneckPath, bottleneck_route
from repro.routing.cache import RoutingCache
from repro.routing.compiled import (
    CompiledLatencyOracle,
    bottleneck_route_compiled,
    bottleneck_route_labels_compiled,
    compiled_latency_table,
)
from repro.routing.dfs import backtracking_dfs, random_walk_dfs
from repro.routing.graph import RoutingGraph
from repro.routing.labels import bottleneck_route_labels
from repro.routing.dijkstra import LatencyOracle, latency_table, shortest_latency_path

__all__ = [
    "latency_table",
    "shortest_latency_path",
    "LatencyOracle",
    "Metric",
    "Constraint",
    "KPath",
    "astar_prune",
    "k_shortest_latency_paths",
    "BottleneckPath",
    "RoutingCache",
    "RoutingGraph",
    "bottleneck_route",
    "bottleneck_route_labels",
    "random_walk_dfs",
    "backtracking_dfs",
    "CompiledLatencyOracle",
    "compiled_latency_table",
    "bottleneck_route_compiled",
    "bottleneck_route_labels_compiled",
]
