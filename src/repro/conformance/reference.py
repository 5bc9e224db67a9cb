"""The dict-space reference routers behind the production route memo.

Every mapper routes through the index-space kernels of
:mod:`repro.routing.compiled`.  The original user-space routers —
:func:`~repro.routing.bottleneck_prune.bottleneck_route` (Algorithm 1)
and :func:`~repro.routing.labels.bottleneck_route_labels` over a
:class:`~repro.routing.graph.RoutingGraph` and the state's dict-shaped
``bw_table`` — stay as the readable reference those kernels must
reproduce byte for byte.  :class:`ReferenceRoutingCache` runs them
behind the same memo, so the whole pipeline reaches them through its
existing seam::

    hmn_map(cluster, venv, config, cache=ReferenceRoutingCache(cluster))

must digest equal to ``hmn_map(cluster, venv, config)`` — sharded
configs included, where the stitch router then runs its pure-Python
batch driver instead of the C kernel.  The differential fuzzer and the
equivalence tests compare exactly that.
"""

from __future__ import annotations

from repro.routing.bottleneck_prune import bottleneck_route
from repro.routing.cache import RoutingCache
from repro.routing.dijkstra import LatencyOracle
from repro.routing.graph import RoutingGraph
from repro.routing.labels import bottleneck_route_labels

__all__ = ["ReferenceRoutingCache"]


class ReferenceRoutingCache(RoutingCache):
    """A :class:`~repro.routing.cache.RoutingCache` whose misses run the
    dict-space routers over its own
    :class:`~repro.routing.dijkstra.LatencyOracle` and
    :class:`~repro.routing.graph.RoutingGraph`.

    Memo, telemetry and the ``route.query`` span are inherited; only
    the kernel calls differ — route misses and, on the sharded path,
    the stitch router's wave batches.  Build a fresh one per
    comparison: a shared memo would serve later runs from earlier
    results.
    """

    engine = "dict"

    __slots__ = ("graph",)

    def __init__(self, cluster, *, max_paths: int = 65_536) -> None:
        super().__init__(cluster, max_paths=max_paths)
        self.oracle = LatencyOracle(cluster)
        self.graph = RoutingGraph(cluster)

    def _kernel(self, state, origin, destination, *, router, max_expansions, **query):
        query.update(oracle=self.oracle, graph=self.graph, bw_table=state.bw_table)
        if router == "label_setting":
            return bottleneck_route_labels(self.cluster, origin, destination, **query)
        return bottleneck_route(
            self.cluster, origin, destination, max_expansions=max_expansions, **query
        )

    def batch_kernel(self) -> None:
        """``None``: the stitch router runs its Python reference driver."""
        return None
