"""Stitch cross-pod virtual links through corridor subgraphs.

The sharded mapper places guests pod-by-pod; this module runs the
Networking stage for it.  Instead of searching the full 100k-node
graph per link, links are grouped into **waves** by their *contracted
route* — the fewest-hop path between their endpoint pods over the
contracted inter-pod graph (nodes: pods and spine classes, edges:
"some physical link crosses between these groups").  All links of a
wave share one **corridor region**: the union of the route's groups,
materialised once as a local CSR.  A wave is routed by a single call
into the batched C kernel (``_stitchkernel.c``) — or its bit-identical
pure-Python twin — which runs a capacity-filtered
minimum-latency Dijkstra per link and subtracts each found path's
demand from the corridor's residual array so later links of the wave
see it.  Found paths are then replayed onto the global
:class:`~repro.core.state.ClusterState` through
:meth:`~repro.core.state.ClusterState.reserve_path`, whose atomic
capacity check is the safety net for any corridor-level bookkeeping
bug.

Minimum-latency (not bottleneck) search is deliberate: the paper's
Eq. 10 objective is CPU-only, so the Networking stage only has to
*satisfy* the bandwidth/latency constraints, and the cheapest-latency
feasible path is the exact test for "a feasible path exists within the
bound".  Links whose corridor comes up dry get an **adaptive** second
chance: the corridor is widened once — the route's groups plus their
highest-capacity contracted-graph neighbors
(:meth:`StitchPlanner.widen`) — before the surviving failures join the
full-graph rescue batch after all waves settle.  Corridors therefore
only ever cost a retry, never a spurious failure, and the widening
keeps the expensive full-graph pass rare even on saturated substrates.

Which of the two batch drivers runs is the routing cache's choice
(:meth:`~repro.routing.cache.RoutingCache.batch_kernel`): the
production :class:`~repro.routing.cache.RoutingCache` hands over the C
kernel whenever it loads, and the test reference
:class:`~repro.conformance.reference.ReferenceRoutingCache` always
selects the Python twin, which is also the only driver on a machine
without a C compiler.
"""

from __future__ import annotations

import ctypes
import logging
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Hashable, Sequence

import numpy as np

from repro import obs
from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.core.vlink import VLinkKey
from repro.errors import RoutingError
from repro.hmn.config import HMNConfig
from repro.hmn.ordering import ordered_vlinks
from repro.routing.cache import RoutingCache
from repro.shard.partition import Partition

__all__ = [
    "Region",
    "build_region",
    "StitchPlanner",
    "Stitcher",
    "stitch_networking",
    "WIDEN_MAX_GROUPS",
]

logger = logging.getLogger(__name__)

NodeId = Hashable

_BW_EPS = 1e-9
_LAT_EPS = 1e-9

#: Cap on how many neighbor groups :meth:`StitchPlanner.widen` grafts
#: onto a dry corridor.  Keeps a widened region a *corridor* (a few
#: pods), not a stealth full-graph pass; the full graph remains the
#: final rescue tier.
WIDEN_MAX_GROUPS = 8


@dataclass(frozen=True)
class Region:
    """A corridor subgraph in local CSR form.

    ``node_g[l]`` is the global (compiled-topology) node index of local
    node *l*; ``edge_g[e]`` the global edge index of local edge *e* —
    the gather index for pulling residual bandwidth out of
    ``state.bw_array`` and the scatter key for replaying reservations.
    """

    node_g: np.ndarray  # int64, sorted ascending
    local_of: dict[int, int]
    adj_off: np.ndarray  # int64, n_nodes + 1
    adj_nbr: np.ndarray  # int64
    adj_edge: np.ndarray  # int64 (local edge ids)
    adj_lat: np.ndarray  # float64
    edge_g: np.ndarray  # int64

    @property
    def n_nodes(self) -> int:
        return len(self.node_g)

    @property
    def n_edges(self) -> int:
        return len(self.edge_g)

    def gather_bw(self, state: ClusterState) -> np.ndarray:
        """A private copy of the region's residual bandwidths."""
        table = np.frombuffer(state.bw_array, dtype=np.float64)
        return np.ascontiguousarray(table[self.edge_g])


def build_region(topo, node_indices: Sequence[int]) -> Region:
    """Cut the induced subgraph over *node_indices* out of the compiled
    topology's CSR, renumbering nodes and edges to a dense local space.
    """
    node_g = np.asarray(sorted(set(int(i) for i in node_indices)), dtype=np.int64)
    g_off = np.frombuffer(topo.adj_offsets, dtype=np.int64)
    g_nbr = np.frombuffer(topo.adj_nodes, dtype=np.int64)
    g_edge = np.frombuffer(topo.adj_edges, dtype=np.int64)
    g_lat = np.frombuffer(topo.adj_lat, dtype=np.float64)

    loc = np.full(topo.n_nodes, -1, dtype=np.int64)
    loc[node_g] = np.arange(len(node_g), dtype=np.int64)

    starts = g_off[node_g]
    counts = g_off[node_g + 1] - starts
    bounds = np.concatenate(([0], np.cumsum(counts)))
    total = int(bounds[-1])
    if total:
        # Ragged arange: all CSR positions of the member rows, in order.
        pos = np.repeat(starts - bounds[:-1], counts) + np.arange(total, dtype=np.int64)
        nbr_local_all = loc[g_nbr[pos]]
        keep = nbr_local_all >= 0
        kept_cum = np.concatenate(([0], np.cumsum(keep)))
        adj_off = np.ascontiguousarray(kept_cum[bounds])
        adj_nbr = np.ascontiguousarray(nbr_local_all[keep])
        adj_lat = np.ascontiguousarray(g_lat[pos][keep])
        edge_global = g_edge[pos][keep]
        edge_g, adj_edge = np.unique(edge_global, return_inverse=True)
        adj_edge = np.ascontiguousarray(adj_edge.astype(np.int64))
        edge_g = np.ascontiguousarray(edge_g.astype(np.int64))
    else:
        adj_off = np.zeros(len(node_g) + 1, dtype=np.int64)
        adj_nbr = np.zeros(0, dtype=np.int64)
        adj_lat = np.zeros(0, dtype=np.float64)
        adj_edge = np.zeros(0, dtype=np.int64)
        edge_g = np.zeros(0, dtype=np.int64)

    local_of = {int(g): i for i, g in enumerate(node_g)}
    return Region(
        node_g=node_g,
        local_of=local_of,
        adj_off=adj_off,
        adj_nbr=adj_nbr,
        adj_edge=adj_edge,
        adj_lat=adj_lat,
        edge_g=edge_g,
    )


# ----------------------------------------------------------------------
# batch drivers: pure Python and C, bit-identical by contract
# ----------------------------------------------------------------------
def _route_batch_py(
    adj_off, adj_nbr, adj_edge, adj_lat, bw, src, dst, need, bound
) -> tuple[list[list[int] | None], int]:
    """Reference driver: the exact semantics ``sk_route_batch`` must
    reproduce (heap keys ``(dist, seq)``, CSR-order expansion, strict
    relaxation, ``bw + 1e-9 < need`` feasibility, ``nd > bound + 1e-9``
    pruning).  Mutates *bw* in place for found paths, like the kernel.
    """
    paths: list[list[int] | None] = []
    pops = 0
    inf = float("inf")
    for q in range(len(src)):
        s = int(src[q])
        d = int(dst[q])
        if s == d:
            paths.append([s])
            continue
        nd_need = float(need[q])
        nd_bound = float(bound[q])
        dist: dict[int, float] = {s: 0.0}
        parent: dict[int, tuple[int, int]] = {}
        visited: set[int] = set()
        seq = 0
        heap: list[tuple[float, int, int]] = [(0.0, seq, s)]
        seq += 1
        reached = False
        while heap:
            du, _, u = heappop(heap)
            if u in visited:
                continue
            visited.add(u)
            pops += 1
            if u == d:
                reached = True
                break
            du = dist[u]
            for a in range(int(adj_off[u]), int(adj_off[u + 1])):
                e = int(adj_edge[a])
                if bw[e] + _BW_EPS < nd_need:
                    continue
                nd = du + float(adj_lat[a])
                if nd > nd_bound + _LAT_EPS:
                    continue
                v = int(adj_nbr[a])
                if v in visited:
                    continue
                if nd < dist.get(v, inf):
                    dist[v] = nd
                    parent[v] = (u, e)
                    heappush(heap, (nd, seq, v))
                    seq += 1
        if not reached:
            paths.append(None)
            continue
        path = [d]
        v = d
        while v != s:
            u, e = parent[v]
            bw[e] -= nd_need
            path.append(u)
            v = u
        path.reverse()
        paths.append(path)
    return paths, pops


def _route_batch_c(
    lib, adj_off, adj_nbr, adj_edge, adj_lat, bw, src, dst, need, bound, n_nodes
) -> tuple[list[list[int] | None], int]:
    """Drive ``sk_route_batch``, growing the output buffer and
    re-invoking on the remaining queries whenever it fills up."""

    def ptr(a):
        return ctypes.c_void_p(a.ctypes.data)

    n_q = len(src)
    paths: list[list[int] | None] = []
    pops = np.zeros(1, dtype=np.int64)
    done = 0
    # A path never revisits a node, so n_nodes slots always fit one
    # query — the retry loop is guaranteed to progress.
    out_cap = max(64, 16 * n_q, int(n_nodes))
    while done < n_q:
        rem = n_q - done
        out_nodes = np.empty(out_cap, dtype=np.int64)
        out_off = np.empty(rem + 1, dtype=np.int64)
        status = np.empty(rem, dtype=np.int64)
        completed = int(
            lib.sk_route_batch(
                ptr(adj_off),
                ptr(adj_nbr),
                ptr(adj_edge),
                ptr(adj_lat),
                ptr(bw),
                ctypes.c_int64(int(n_nodes)),
                ptr(src[done:]),
                ptr(dst[done:]),
                ptr(need[done:]),
                ptr(bound[done:]),
                ctypes.c_int64(rem),
                ptr(out_nodes),
                ctypes.c_int64(out_cap),
                ptr(out_off),
                ptr(status),
                ptr(pops),
            )
        )
        if completed <= 0 and rem > 0:
            raise MemoryError("stitch kernel made no progress (allocation failure)")
        for q in range(completed):
            if status[q] == 0:
                paths.append([int(x) for x in out_nodes[out_off[q] : out_off[q + 1]]])
            else:
                paths.append(None)
        done += completed
        out_cap *= 2
    return paths, int(pops[0])


# ----------------------------------------------------------------------
# the planner: contracted graph, corridor selection, adaptive widening
# ----------------------------------------------------------------------
class StitchPlanner:
    """Corridor selection over the contracted inter-pod graph.

    Groups = pods plus spine classes.  The contracted graph has an edge
    between two groups whenever any physical link crosses them; routes
    over it are fewest-hop and cached, as are the corridor regions they
    induce.  The planner also remembers the *cut* — the global edge ids
    crossing each contracted pair — which is what makes
    :meth:`widen` capacity-aware: when a corridor runs dry, the
    neighbors grafted on are the ones with the most residual bandwidth
    actually connecting them to the route, not just any adjacency.
    """

    def __init__(self, state: ClusterState, partition: Partition) -> None:
        self.state = state
        self.partition = partition
        topo = state.topology
        self.topo = topo
        n_pods = partition.n_pods

        # group id per global node index; pods first, spine classes after
        group = np.full(topo.n_nodes, -1, dtype=np.int64)
        self._group_nodes: list[list[int]] = [[] for _ in range(n_pods + len(partition.spine_classes))]
        for h, p in partition.pod_of.items():
            g = topo.node_index[h]
            group[g] = p
            self._group_nodes[p].append(g)
        for sw, p in partition.switch_pod.items():
            g = topo.node_index[sw]
            group[g] = p
            self._group_nodes[p].append(g)
        for c, comp in enumerate(partition.spine_classes):
            for sw in comp:
                g = topo.node_index[sw]
                group[g] = n_pods + c
                self._group_nodes[n_pods + c].append(g)
        self.node_group = group
        self.n_groups = len(self._group_nodes)

        # contracted adjacency + per-pair cut edges, from the global
        # edge list in one vectorized pass
        g_nbr = np.frombuffer(topo.adj_nodes, dtype=np.int64)
        g_off = np.frombuffer(topo.adj_offsets, dtype=np.int64)
        g_edge = np.frombuffer(topo.adj_edges, dtype=np.int64)
        src_rep = np.repeat(
            np.arange(topo.n_nodes, dtype=np.int64), np.diff(g_off)
        )
        ga = group[src_rep]
        gb = group[g_nbr]
        cross = ga != gb
        adj: list[set[int]] = [set() for _ in range(self.n_groups)]
        for a, b in zip(ga[cross].tolist(), gb[cross].tolist()):
            adj[a].add(b)
        self._contracted_adj = [tuple(sorted(s)) for s in adj]

        self._cut_edges: dict[tuple[int, int], np.ndarray] = {}
        lo = np.minimum(ga[cross], gb[cross])
        hi = np.maximum(ga[cross], gb[cross])
        ee = g_edge[cross]
        if len(ee):
            order = np.lexsort((hi, lo))
            lo, hi, ee = lo[order], hi[order], ee[order]
            starts = np.concatenate(
                ([0], np.flatnonzero((np.diff(lo) != 0) | (np.diff(hi) != 0)) + 1)
            )
            ends = np.concatenate((starts[1:], [len(ee)]))
            for s, e in zip(starts.tolist(), ends.tolist()):
                self._cut_edges[(int(lo[s]), int(hi[s]))] = np.unique(ee[s:e])

        self._route_cache: dict[tuple[int, int], tuple[int, ...] | None] = {}
        self._region_cache: dict[tuple[int, ...], Region] = {}
        self._full_region: Region | None = None

    # -- contracted routing -------------------------------------------
    def contracted_route(self, ga: int, gb: int) -> tuple[int, ...] | None:
        """Fewest-hop group sequence from *ga* to *gb* (inclusive)."""
        if ga == gb:
            return (ga,)
        key = (ga, gb) if ga <= gb else (gb, ga)
        hit = self._route_cache.get(key, _MISS)
        if hit is not _MISS:
            route = hit
        else:
            from collections import deque

            parent = {key[0]: -1}
            queue = deque([key[0]])
            route = None
            while queue:
                u = queue.popleft()
                if u == key[1]:
                    seq = [u]
                    while parent[seq[-1]] != -1:
                        seq.append(parent[seq[-1]])
                    route = tuple(reversed(seq))
                    break
                for v in self._contracted_adj[u]:
                    if v not in parent:
                        parent[v] = u
                        queue.append(v)
            self._route_cache[key] = route
        if route is None:
            return None
        return route if route[0] == ga else tuple(reversed(route))

    # -- regions ------------------------------------------------------
    def region_for(self, route: tuple[int, ...]) -> Region:
        key = tuple(sorted(set(route)))
        region = self._region_cache.get(key)
        if region is None:
            members: list[int] = []
            for g in key:
                members.extend(self._group_nodes[g])
            region = build_region(self.topo, members)
            self._region_cache[key] = region
        return region

    def full_region(self) -> Region:
        if self._full_region is None:
            self._full_region = build_region(
                self.topo, range(self.topo.n_nodes)
            )
        return self._full_region

    # -- adaptive widening --------------------------------------------
    def cut_capacity(self, ga: int, gb: int) -> float:
        """Residual bandwidth crossing between groups *ga* and *gb*
        right now (sum over the cut's edges on the live state)."""
        key = (ga, gb) if ga <= gb else (gb, ga)
        edges = self._cut_edges.get(key)
        if edges is None or not len(edges):
            return 0.0
        table = np.frombuffer(self.state.bw_array, dtype=np.float64)
        return float(np.sum(table[edges]))

    def widen(self, route: tuple[int, ...]) -> tuple[int, ...] | None:
        """One adaptive widening step for a dry corridor.

        Returns the widened group set — the route's groups plus up to
        :data:`WIDEN_MAX_GROUPS` contracted-graph neighbors, ranked by
        the residual bandwidth connecting each neighbor to the route
        (capacity-aware, read off the live state) — or ``None`` when no
        neighbor with positive connecting capacity exists, i.e. when
        widening could not change the answer.
        """
        members = set(route)
        ranked: list[tuple[float, int]] = []
        for g in members:
            for n in self._contracted_adj[g]:
                if n in members:
                    continue
                cap = sum(self.cut_capacity(n, g2) for g2 in route if g2 != n)
                if cap > _BW_EPS:
                    ranked.append((-cap, n))
        if not ranked:
            return None
        ranked.sort()
        seen: set[int] = set()
        extra: list[int] = []
        for _, n in ranked:
            if n in seen:
                continue
            seen.add(n)
            extra.append(n)
            if len(extra) >= WIDEN_MAX_GROUPS:
                break
        return tuple(sorted(members | set(extra)))


# ----------------------------------------------------------------------
# the stitcher
# ----------------------------------------------------------------------
class Stitcher:
    """Wave-routing engine over a partitioned substrate.

    Owns the batch driver and the routing statistics; corridor
    *selection* (contracted routes, regions, adaptive widening) is
    the job of a :class:`StitchPlanner` (``self.planner``).  *kernel*
    is the loaded C library, or ``None`` for the Python driver.
    """

    def __init__(
        self, state: ClusterState, partition: Partition, kernel: "ctypes.CDLL | None"
    ) -> None:
        self.state = state
        self.topo = state.topology
        self.planner = StitchPlanner(state, partition)
        self.kernel = kernel
        self.stats = {
            "waves": 0,
            "links_routed": 0,
            "links_colocated": 0,
            "widened_links": 0,
            "fallback_links": 0,
            "stitch_pops": 0,
            "stitch_kernel": self.kernel is not None,
        }

    # -- wave routing -------------------------------------------------
    def _drive(self, region: Region, bw, src, dst, need, bound):
        if self.kernel is not None:
            return _route_batch_c(
                self.kernel,
                region.adj_off,
                region.adj_nbr,
                region.adj_edge,
                region.adj_lat,
                bw,
                src,
                dst,
                need,
                bound,
                region.n_nodes,
            )
        return _route_batch_py(
            region.adj_off,
            region.adj_nbr,
            region.adj_edge,
            region.adj_lat,
            bw,
            src,
            dst,
            need,
            bound,
        )

    def route_wave(self, region: Region, links) -> list[tuple[NodeId, ...] | None]:
        """Route *links* (``(src_host, dst_host, vbw, vlat)`` tuples)
        through *region* in order, reserving found paths on the global
        state.  Returns the global node-id path per link (``None`` for
        links the corridor could not satisfy)."""
        n = len(links)
        src = np.empty(n, dtype=np.int64)
        dst = np.empty(n, dtype=np.int64)
        need = np.empty(n, dtype=np.float64)
        bound = np.empty(n, dtype=np.float64)
        for i, (a, b, vbw, vlat) in enumerate(links):
            src[i] = region.local_of[self.topo.node_index[a]]
            dst[i] = region.local_of[self.topo.node_index[b]]
            need[i] = vbw
            bound[i] = vlat
        bw = region.gather_bw(self.state)
        paths, pops = self._drive(region, bw, src, dst, need, bound)
        self.stats["stitch_pops"] += pops
        nodes = self.topo.nodes
        out: list[tuple[NodeId, ...] | None] = []
        for i, local_path in enumerate(paths):
            if local_path is None:
                out.append(None)
                continue
            node_path = tuple(nodes[int(region.node_g[l])] for l in local_path)
            self.state.reserve_path(node_path, float(need[i]))
            out.append(node_path)
        return out


_MISS = object()


def stitch_networking(
    state: ClusterState,
    venv: VirtualEnvironment,
    config: HMNConfig,
    partition: Partition,
    cache: RoutingCache | None = None,
) -> tuple[dict[VLinkKey, tuple[NodeId, ...]], dict]:
    """Networking stage of the sharded mapper (drop-in for
    :func:`repro.hmn.networking.run_networking`'s return shape).

    Links are bucketed by contracted route, waves are processed in
    descending total-demand order, and corridor failures escalate
    through two tiers: one adaptive widening of the dry corridor
    (:meth:`StitchPlanner.widen`), then a full-graph rescue batch once
    every wave has settled.  Raises
    :class:`~repro.errors.RoutingError` only when even the full graph
    has no feasible path — the same heuristic-failure contract as the
    monolithic stage.  *cache* picks the batch driver
    (:meth:`~repro.routing.cache.RoutingCache.batch_kernel`); a fresh
    :class:`~repro.routing.cache.RoutingCache` is used when omitted.
    """
    if cache is None:
        cache = RoutingCache(state.cluster)
    stitcher = Stitcher(state, partition, cache.batch_kernel())
    planner = stitcher.planner
    paths: dict[VLinkKey, tuple[NodeId, ...]] = {}
    retries: list = []  # (link, src_host, dst_host)

    # Bucket inter-host links by contracted route; preserve the
    # config's vbw ordering inside each bucket.
    waves: dict[tuple[int, ...], list] = {}
    for link in ordered_vlinks(venv, config):
        a = state.host_of(link.a)
        b = state.host_of(link.b)
        if a == b:
            paths[link.key] = (a,)
            stitcher.stats["links_colocated"] += 1
            continue
        ga = int(planner.node_group[stitcher.topo.node_index[a]])
        gb = int(planner.node_group[stitcher.topo.node_index[b]])
        route = planner.contracted_route(ga, gb)
        if route is None:
            retries.append((link, a, b))
            continue
        waves.setdefault(route, []).append((link, a, b))

    # Heaviest corridors first: they are the most contended, and
    # routing them before lighter traffic mirrors the paper's
    # descending-vbw discipline at wave granularity.
    order = sorted(
        waves.items(),
        key=lambda kv: (-sum(link.vbw for link, _, _ in kv[1]), kv[0]),
    )
    rec = obs.OBS
    dry_waves: list[tuple[tuple[int, ...], list]] = []
    for route, bucket in order:
        region = planner.region_for(route)
        with rec.span(
            "shard.wave",
            route_len=len(route),
            links=len(bucket),
            region_nodes=region.n_nodes,
        ):
            routed = stitcher.route_wave(
                region, [(a, b, link.vbw, link.vlat) for link, a, b in bucket]
            )
        stitcher.stats["waves"] += 1
        dry: list = []
        for (link, a, b), node_path in zip(bucket, routed):
            if node_path is None:
                dry.append((link, a, b))
            else:
                paths[link.key] = node_path
                stitcher.stats["links_routed"] += 1
        if dry:
            dry_waves.append((route, dry))

    # Tier 2: widen each dry corridor once — the route's groups plus
    # their highest-residual-capacity contracted neighbors — before
    # conceding the full graph.  Processed in the same wave order, so
    # the escalation sequence is a deterministic function of the
    # workload.
    for route, dry in dry_waves:
        wide = planner.widen(route)
        if wide is None or set(wide) == set(route):
            retries.extend(dry)
            continue
        region = planner.region_for(wide)
        with rec.span(
            "shard.corridor_widen",
            route_len=len(route),
            groups=len(wide),
            links=len(dry),
            region_nodes=region.n_nodes,
        ):
            routed = stitcher.route_wave(
                region, [(a, b, link.vbw, link.vlat) for link, a, b in dry]
            )
        stitcher.stats["waves"] += 1
        for (link, a, b), node_path in zip(dry, routed):
            if node_path is None:
                retries.append((link, a, b))
            else:
                paths[link.key] = node_path
                stitcher.stats["links_routed"] += 1
                stitcher.stats["widened_links"] += 1

    if retries:
        # Full-graph rescue pass, one batch, after all corridor
        # reservations are visible globally.  One summary line instead
        # of per-link noise: at 100k scale the rescue batch is the
        # thing worth knowing about, not its members.
        logger.warning(
            "shard stitch: %d link(s) (total vbw %.3f) exhausted their "
            "corridor and widened corridor; routing over the full graph",
            len(retries),
            sum(link.vbw for link, _, _ in retries),
        )
        retries.sort(key=lambda t: (-t[0].vbw, t[0].key))
        region = planner.full_region()
        with rec.span("shard.wave", route_len=0, links=len(retries), fallback=True):
            routed = stitcher.route_wave(
                region, [(a, b, link.vbw, link.vlat) for link, a, b in retries]
            )
        stitcher.stats["waves"] += 1
        for (link, a, b), node_path in zip(retries, routed):
            if node_path is None:
                raise RoutingError(
                    (a, b),
                    f"no bandwidth-feasible path within {link.vlat:.3f} ms "
                    f"(vbw={link.vbw:.3f}, full-graph fallback)",
                )
            paths[link.key] = node_path
            stitcher.stats["links_routed"] += 1
            stitcher.stats["fallback_links"] += 1

    stitcher.stats["fallback_rate"] = (
        stitcher.stats["fallback_links"] / max(1, stitcher.stats["links_routed"])
    )

    if rec.enabled:
        rec.count("repro_links_routed_total", stitcher.stats["links_routed"], engine="sharded")
        rec.count("repro_links_colocated_total", stitcher.stats["links_colocated"], engine="sharded")
        rec.count("repro_stitch_waves_total", stitcher.stats["waves"])
        rec.count("repro_stitch_widened_total", stitcher.stats["widened_links"])
        rec.count("repro_stitch_fallback_total", stitcher.stats["fallback_links"])
        rec.gauge("repro_stitch_fallback_rate", stitcher.stats["fallback_rate"])

    stats = {
        "links_routed": stitcher.stats["links_routed"],
        "links_colocated": stitcher.stats["links_colocated"],
        "routing_calls": stitcher.stats["links_routed"],
        "router_expansions": stitcher.stats["stitch_pops"],
        "cache_hit_rate": 0.0,
        "route_kernel_s": 0.0,
        "stitch": dict(stitcher.stats),
    }
    return paths, stats
