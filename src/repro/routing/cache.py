"""Memoized routing layer: latency labels plus epoch-keyed path results.

The Networking stage issues one constrained-shortest-path query per
virtual link; Figure 1 of the paper attributes most of the mapping time
to exactly this work.  Two layers of it are reusable:

* **Latency labels** (the ``ar`` tables of Algorithm 1) depend only on
  the topology, never on residual bandwidth — one Dijkstra per distinct
  destination serves every query of a mapping, and every retry of a
  retrying mapper.  The label layer is one shared
  :class:`~repro.routing.compiled.CompiledLatencyOracle`, which feeds
  :attr:`label_tables`.
* **Path results** depend on the residual-bandwidth table, which
  :class:`~repro.core.state.ClusterState` versions with a
  :attr:`~repro.core.state.ClusterState.bw_epoch` token: every
  reservation/release that changes a residual installs a globally
  fresh token, and a token is only ever shared by states whose tables
  are identical.  A query key ``(epoch, origin, destination, demand,
  latency bound, router)`` therefore *proves* that a cached result is
  exactly what the router would recompute — including the failure case,
  which is negatively cached.  Retrying mappers (the RA baseline) hit
  this layer on every retry's first routes: each fresh
  :class:`ClusterState` starts at epoch 0, where the residual graph is
  the full-capacity graph regardless of which try built it.

Every miss runs the index-space kernels of
:mod:`repro.routing.compiled` over the state's flat
:attr:`~repro.core.state.ClusterState.bw_array` — in C when the kernel
loads, in the index-space Python loop otherwise.  The original
user-space routers (:mod:`~repro.routing.bottleneck_prune`,
:mod:`~repro.routing.labels`) give byte-identical results and stay as
the test reference:
:class:`repro.conformance.reference.ReferenceRoutingCache` overrides
:meth:`RoutingCache._kernel` to run them, and reaches any mapper
through ``hmn_map(cache=...)``; its :meth:`~RoutingCache.batch_kernel`
also sends the sharded mapper's stitch router to the Python twin of
the batched C kernel.  ``kernel_seconds`` accumulates wall time spent
inside route kernels (cache misses only), surfaced as
``Mapping.meta["timings"]["route_kernel_s"]``.

``hit_rate`` aggregates both layers; the per-layer counters stay
visible in :meth:`RoutingCache.stats` so benchmark reports can tell
label reuse (dominant within one mapping) from path reuse (dominant
across retries).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Hashable

from repro import obs
from repro.errors import ModelError, RoutingError
from repro.routing.bottleneck_prune import BottleneckPath
from repro.routing.compiled import (
    CompiledLatencyOracle,
    bottleneck_route_compiled,
    bottleneck_route_labels_compiled,
)

if TYPE_CHECKING:  # pragma: no cover
    import ctypes

    from repro.core.arrays import CompiledTopology
    from repro.core.state import ClusterState

__all__ = ["RoutingCache"]

NodeId = Hashable


class RoutingCache:
    """Per-cluster routing memo shared by every query against it.

    Parameters
    ----------
    cluster:
        The physical cluster all cached work belongs to.
    max_paths:
        Bound on stored path entries; when exceeded, the oldest half of
        the memo is dropped (stale epochs die first since entries are
        inserted in query order).
    """

    #: ``engine`` label on the metrics and spans of this cache's queries.
    engine = "compiled"

    __slots__ = (
        "cluster",
        "oracle",
        "max_paths",
        "_topo",
        "_paths",
        "_failures",
        "path_queries",
        "path_hits",
        "kernel_seconds",
    )

    def __init__(self, cluster, *, max_paths: int = 65_536) -> None:
        self.cluster = cluster
        #: The latency-label oracle; built with the compiled topology
        #: on the first routed query.
        self.oracle: CompiledLatencyOracle | None = None
        self._topo: "CompiledTopology | None" = None
        self.max_paths = max_paths
        self._paths: dict[tuple, BottleneckPath] = {}
        self._failures: dict[tuple, str] = {}
        self.path_queries = 0
        self.path_hits = 0
        self.kernel_seconds = 0.0

    def route(
        self,
        state: "ClusterState",
        origin: NodeId,
        destination: NodeId,
        *,
        bandwidth: float,
        latency_bound: float,
        router: str = "algorithm1",
        max_expansions: int = 2_000_000,
    ) -> BottleneckPath:
        """Bottleneck-route over *state*'s residual graph, memoized.

        Exactly equivalent to calling
        :func:`~repro.routing.bottleneck_prune.bottleneck_route` (or the
        label-setting variant, per *router*) with *state*'s live
        residual table: a cached entry is only served while
        ``state.bw_epoch`` still names the residual table it was
        computed against.  Infeasibility is cached too, re-raised as a
        fresh :class:`~repro.errors.RoutingError`.

        When the process recorder is enabled, every query emits a
        ``route.query`` span (engine, router, cache hit/miss, labels
        expanded, bottleneck) and feeds the routing counters; disabled,
        this wrapper costs one attribute check before the uninstrumented
        fast path below.
        """
        rec = obs.OBS
        if not rec.enabled:
            return self._route(
                state,
                origin,
                destination,
                bandwidth=bandwidth,
                latency_bound=latency_bound,
                router=router,
                max_expansions=max_expansions,
            )
        hits_before = self.path_hits
        kernel_before = self.kernel_seconds
        with rec.span(
            "route.query",
            origin=str(origin),
            destination=str(destination),
            engine=self.engine,
            router=router,
        ) as sp:
            try:
                result = self._route(
                    state,
                    origin,
                    destination,
                    bandwidth=bandwidth,
                    latency_bound=latency_bound,
                    router=router,
                    max_expansions=max_expansions,
                )
            except RoutingError:
                sp.set(cache_hit=self.path_hits > hits_before, feasible=False)
                rec.count("repro_route_queries_total", outcome="infeasible")
                raise
            cache_hit = self.path_hits > hits_before
            sp.set(
                cache_hit=cache_hit,
                expansions=result.expansions,
                bottleneck=result.bottleneck,
                hops=len(result.nodes) - 1,
            )
            rec.count(
                "repro_route_queries_total",
                outcome="hit" if cache_hit else "miss",
            )
            if not cache_hit:
                rec.observe(
                    "repro_route_kernel_seconds", self.kernel_seconds - kernel_before
                )
            return result

    def _route(
        self,
        state: "ClusterState",
        origin: NodeId,
        destination: NodeId,
        *,
        bandwidth: float,
        latency_bound: float,
        router: str = "algorithm1",
        max_expansions: int = 2_000_000,
    ) -> BottleneckPath:
        """The uninstrumented query path (memo lookup + kernel call)."""
        if state.cluster is not self.cluster:
            raise ModelError("state belongs to a different cluster than this cache")
        key = (state.bw_epoch, origin, destination, bandwidth, latency_bound, router)
        self.path_queries += 1
        cached = self._paths.get(key)
        if cached is not None:
            self.path_hits += 1
            return cached
        failure = self._failures.get(key)
        if failure is not None:
            self.path_hits += 1
            err = RoutingError((origin, destination))
            err.args = (failure,)  # replay the original message verbatim
            raise err

        t0 = time.perf_counter()
        try:
            result = self._kernel(
                state,
                origin,
                destination,
                bandwidth=bandwidth,
                latency_bound=latency_bound,
                router=router,
                max_expansions=max_expansions,
            )
        except RoutingError as exc:
            self.kernel_seconds += time.perf_counter() - t0
            self._remember(self._failures, key, str(exc))
            raise
        self.kernel_seconds += time.perf_counter() - t0
        self._remember(self._paths, key, result)
        return result

    def _kernel(
        self,
        state: "ClusterState",
        origin: NodeId,
        destination: NodeId,
        *,
        bandwidth: float,
        latency_bound: float,
        router: str,
        max_expansions: int,
    ) -> BottleneckPath:
        """One uncached query: the index-space kernel for *router*."""
        topo = self._topo
        if topo is None:
            topo = self._topo = state.topology
            self.oracle = CompiledLatencyOracle(topo)
        elif topo is not state.topology:
            raise ModelError(
                "state's compiled topology differs from this cache's "
                "(cluster topology changed?); build a fresh RoutingCache"
            )
        if router == "label_setting":
            return bottleneck_route_labels_compiled(
                topo, state.bw_array, origin, destination,
                bandwidth=bandwidth, latency_bound=latency_bound, oracle=self.oracle,
            )
        return bottleneck_route_compiled(
            topo, state.bw_array, origin, destination,
            bandwidth=bandwidth, latency_bound=latency_bound, oracle=self.oracle,
            max_expansions=max_expansions,
        )

    def batch_kernel(self) -> "ctypes.CDLL | None":
        """The batched stitch router's kernel (:mod:`repro.shard.stitch`):
        the C library when it loads, else ``None`` for its Python twin."""
        # Lazy: the repro.shard package imports the pipeline, which
        # imports this module.
        from repro.shard._kernel import load_stitch_kernel

        return load_stitch_kernel()

    def drop_stale(self, epoch: int) -> int:
        """Drop every memo entry not keyed by *epoch*; returns the count.

        Epoch tokens are globally unique and never reused
        (:attr:`~repro.core.state.ClusterState.bw_epoch`), so stale
        entries can never be *served* again — they are not a correctness
        hazard, only dead weight.  In a one-shot mapping that weight is
        bounded by ``max_paths`` and harmless; in a long-lived admission
        service every tenant departure retires an epoch, and the dead
        entries would crowd live ones out of the ``max_paths`` budget
        (the eviction sweep drops the oldest half indiscriminately).
        The service calls this after each release with the
        post-release epoch, keeping the memo all-live.
        """
        dropped = 0
        for memo in (self._paths, self._failures):
            stale = [key for key in memo if key[0] != epoch]
            for key in stale:
                del memo[key]
            dropped += len(stale)
        return dropped

    def _remember(self, table: dict, key: tuple, value) -> None:
        if len(self._paths) + len(self._failures) >= self.max_paths:
            for memo in (self._paths, self._failures):
                drop = len(memo) // 2
                for stale in list(memo)[:drop]:
                    del memo[stale]
        table[key] = value

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    @property
    def label_queries(self) -> int:
        return self.oracle.queries if self.oracle is not None else 0

    @property
    def label_hits(self) -> int:
        oracle = self.oracle
        return oracle.queries - oracle.misses if oracle is not None else 0

    @property
    def label_tables(self) -> int:
        """Distinct destination latency tables held."""
        return self.oracle.cached_destinations if self.oracle is not None else 0

    @property
    def hit_rate(self) -> float:
        """Fraction of all queries (labels + paths) served from memory."""
        total = self.label_queries + self.path_queries
        if total == 0:
            return 0.0
        return (self.label_hits + self.path_hits) / total

    def stats(self) -> dict:
        """JSON-ready counters for ``Mapping.meta`` / benchmark reports."""
        return {
            "label_queries": self.label_queries,
            "label_hits": self.label_hits,
            "path_queries": self.path_queries,
            "path_hits": self.path_hits,
            "hit_rate": self.hit_rate,
            "kernel_seconds": self.kernel_seconds,
        }

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__}: {len(self._paths)} paths, "
            f"{self.label_tables} label tables, "
            f"hit rate {self.hit_rate:.1%}>"
        )
