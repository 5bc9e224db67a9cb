"""Tests for corridor regions and the batched stitch router.

Covers the C-kernel/pure-Python parity contract, capacity and latency
feasibility at the epsilon boundaries, the output-buffer retry path,
contracted routing over the inter-pod graph, and the full-graph rescue
of corridor failures.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ClusterState,
    Guest,
    Host,
    PhysicalCluster,
    PhysicalLink,
    VirtualEnvironment,
    VirtualLink,
)
from repro.conformance import ReferenceRoutingCache, digest
from repro.hmn import HMNConfig, hmn_map
from repro.routing.cache import RoutingCache
from repro.shard import partition_cluster, stitch as stitch_mod
from repro.shard._kernel import load_stitch_kernel
from repro.shard.stitch import (
    Stitcher,
    _route_batch_c,
    _route_batch_py,
    build_region,
    stitch_networking,
)
from repro.topology import switched_cluster, torus_cluster
from repro.topology.fattree import fat_tree_cluster
from repro.workload import LOW_LEVEL, generate_virtual_environment

KERNEL = load_stitch_kernel()
needs_kernel = pytest.mark.skipif(KERNEL is None, reason="no C compiler available")


def full_region(cluster):
    state = ClusterState(cluster)
    topo = state.topology
    return state, topo, build_region(topo, range(topo.n_nodes))


def line_cluster(n, bw=100.0, lat=1.0):
    c = PhysicalCluster(name=f"line{n}")
    for i in range(n):
        c.add_host(Host(i, proc=100.0, mem=1024, stor=100.0))
    for i in range(n - 1):
        c.add_link(PhysicalLink(i, i + 1, bw=bw, lat=lat))
    return c


class TestBuildRegion:
    def test_full_region_mirrors_topology(self):
        cluster = torus_cluster(3, 3, seed=0)
        state, topo, region = full_region(cluster)
        assert region.n_nodes == topo.n_nodes
        assert region.n_edges == topo.n_edges
        # Every physical edge appears exactly once in edge_g.
        assert sorted(region.edge_g.tolist()) == list(range(topo.n_edges))
        # CSR row sizes match the compiled topology's.
        np.testing.assert_array_equal(
            np.diff(region.adj_off),
            np.diff(np.frombuffer(topo.adj_offsets, dtype=np.int64)),
        )

    def test_subregion_keeps_only_internal_edges(self):
        cluster = line_cluster(4)
        state, topo, _ = full_region(cluster)
        sub = build_region(topo, [topo.node_index[0], topo.node_index[1]])
        assert sub.n_nodes == 2
        assert sub.n_edges == 1  # only the 0-1 link is internal
        assert sub.adj_off.tolist() == [0, 1, 2]

    def test_isolated_member_gets_empty_row(self):
        cluster = line_cluster(3)
        state, topo, _ = full_region(cluster)
        sub = build_region(topo, [topo.node_index[0], topo.node_index[2]])
        assert sub.n_edges == 0
        assert sub.adj_off.tolist() == [0, 0, 0]


class TestPythonDriver:
    def test_routes_min_latency_and_reserves(self):
        cluster = line_cluster(4, bw=10.0, lat=2.0)
        state, topo, region = full_region(cluster)
        bw = region.gather_bw(state)
        paths, pops = _route_batch_py(
            region.adj_off, region.adj_nbr, region.adj_edge, region.adj_lat,
            bw,
            np.array([0], dtype=np.int64), np.array([3], dtype=np.int64),
            np.array([4.0]), np.array([100.0]),
        )
        assert paths == [[0, 1, 2, 3]]
        assert pops > 0
        np.testing.assert_allclose(bw, [6.0, 6.0, 6.0])

    def test_capacity_filter_blocks_thin_links(self):
        cluster = line_cluster(3, bw=5.0)
        state, topo, region = full_region(cluster)
        bw = region.gather_bw(state)
        paths, _ = _route_batch_py(
            region.adj_off, region.adj_nbr, region.adj_edge, region.adj_lat,
            bw,
            np.array([0], dtype=np.int64), np.array([2], dtype=np.int64),
            np.array([5.5]), np.array([100.0]),
        )
        assert paths == [None]
        np.testing.assert_allclose(bw, [5.0, 5.0])  # nothing reserved

    def test_capacity_epsilon_boundary_admits_exact_fit(self):
        cluster = line_cluster(3, bw=5.0)
        state, topo, region = full_region(cluster)
        bw = region.gather_bw(state)
        paths, _ = _route_batch_py(
            region.adj_off, region.adj_nbr, region.adj_edge, region.adj_lat,
            bw,
            np.array([0], dtype=np.int64), np.array([2], dtype=np.int64),
            np.array([5.0]), np.array([100.0]),
        )
        assert paths == [[0, 1, 2]]

    def test_latency_bound_prunes(self):
        cluster = line_cluster(4, lat=3.0)
        state, topo, region = full_region(cluster)
        bw = region.gather_bw(state)
        paths, _ = _route_batch_py(
            region.adj_off, region.adj_nbr, region.adj_edge, region.adj_lat,
            bw,
            np.array([0, 0], dtype=np.int64), np.array([3, 3], dtype=np.int64),
            np.array([1.0, 1.0]), np.array([8.9, 9.0]),
        )
        assert paths[0] is None  # needs 9ms, bound 8.9
        assert paths[1] == [0, 1, 2, 3]  # exactly at the bound

    def test_same_endpoint_is_trivial(self):
        cluster = line_cluster(2)
        state, topo, region = full_region(cluster)
        bw = region.gather_bw(state)
        paths, pops = _route_batch_py(
            region.adj_off, region.adj_nbr, region.adj_edge, region.adj_lat,
            bw,
            np.array([1], dtype=np.int64), np.array([1], dtype=np.int64),
            np.array([999.0]), np.array([0.0]),
        )
        assert paths == [[1]]
        assert pops == 0

    def test_earlier_queries_starve_later_ones(self):
        cluster = line_cluster(3, bw=10.0)
        state, topo, region = full_region(cluster)
        bw = region.gather_bw(state)
        paths, _ = _route_batch_py(
            region.adj_off, region.adj_nbr, region.adj_edge, region.adj_lat,
            bw,
            np.array([0, 0], dtype=np.int64), np.array([2, 2], dtype=np.int64),
            np.array([6.0, 6.0]), np.array([100.0, 100.0]),
        )
        assert paths[0] == [0, 1, 2]
        assert paths[1] is None  # only 4.0 left on each link


@needs_kernel
class TestKernelParity:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_batches_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        cluster = (
            torus_cluster(4, 4, seed=seed)
            if seed % 2
            else switched_cluster(12, seed=seed)
        )
        state, topo, region = full_region(cluster)
        hosts = [topo.node_index[h] for h in cluster.host_ids]
        n = 40
        src = np.array(rng.choice(hosts, n), dtype=np.int64)
        dst = np.array(rng.choice(hosts, n), dtype=np.int64)
        need = rng.uniform(0.1, 400.0, n)
        bound = rng.uniform(1.0, 60.0, n)
        bw_py = region.gather_bw(state)
        bw_c = bw_py.copy()
        p_py, pops_py = _route_batch_py(
            region.adj_off, region.adj_nbr, region.adj_edge, region.adj_lat,
            bw_py, src, dst, need, bound,
        )
        p_c, pops_c = _route_batch_c(
            KERNEL,
            region.adj_off, region.adj_nbr, region.adj_edge, region.adj_lat,
            bw_c, src, dst, need, bound, region.n_nodes,
        )
        assert p_py == p_c
        assert pops_py == pops_c
        np.testing.assert_array_equal(bw_py, bw_c)

    def test_output_buffer_overflow_retries(self):
        # 12 queries x ~99-hop paths >> the initial buffer guess, so
        # the driver must re-invoke the kernel for the tail queries.
        cluster = line_cluster(100, bw=1000.0)
        state, topo, region = full_region(cluster)
        n = 12
        src = np.zeros(n, dtype=np.int64)
        dst = np.full(n, 99, dtype=np.int64)
        need = np.full(n, 1.0)
        bound = np.full(n, 1e9)
        bw_c = region.gather_bw(state)
        p_c, _ = _route_batch_c(
            KERNEL,
            region.adj_off, region.adj_nbr, region.adj_edge, region.adj_lat,
            bw_c, src, dst, need, bound, region.n_nodes,
        )
        bw_py = region.gather_bw(state)
        p_py, _ = _route_batch_py(
            region.adj_off, region.adj_nbr, region.adj_edge, region.adj_lat,
            bw_py, src, dst, need, bound,
        )
        assert p_c == p_py
        assert all(p is not None and len(p) == 100 for p in p_c)
        np.testing.assert_array_equal(bw_py, bw_c)


class TestStitcher:
    def test_contracted_route_crosses_spine(self):
        cluster = fat_tree_cluster(4, seed=0)
        part = partition_cluster(cluster)
        state = ClusterState(cluster)
        planner = Stitcher(state, part, KERNEL).planner
        route = planner.contracted_route(0, 2)
        # pod -> core spine class -> pod (no pod-to-pod links exist)
        assert len(route) == 3
        assert route[0] == 0 and route[-1] == 2
        assert route[1] >= part.n_pods  # a spine class id
        region = planner.region_for(route)
        # Corridor holds both pods' hosts+switches plus all cores.
        per_pod_nodes = cluster.n_hosts // 4 + 4  # 4 hosts + 2 edge + 2 agg
        assert region.n_nodes == 2 * per_pod_nodes + 4

    def test_route_reversal_is_consistent(self):
        cluster = fat_tree_cluster(4, seed=0)
        part = partition_cluster(cluster)
        planner = Stitcher(ClusterState(cluster), part, KERNEL).planner
        ab = planner.contracted_route(1, 3)
        ba = planner.contracted_route(3, 1)
        assert ab == tuple(reversed(ba))


def _two_guest_venv(vbw, vlat):
    venv = VirtualEnvironment(name="pair")
    venv.add_guest(Guest(0, vproc=1.0, vmem=1, vstor=1.0))
    venv.add_guest(Guest(1, vproc=1.0, vmem=1, vstor=1.0))
    venv.add_vlink(VirtualLink(0, 1, vbw=vbw, vlat=vlat))
    return venv


class TestStitchNetworking:
    def test_corridor_failure_widens_to_neighbor_pod(self):
        # Triangle of hosts: the direct pod0-pod1 link is too thin, the
        # detour through pod2 is not.  The fewest-hop contracted route
        # ignores pod2, but the adaptive widening grafts it on (it is
        # the highest-capacity neighbor), so the link routes in the
        # widened corridor and never reaches the full-graph rescue.
        c = PhysicalCluster(name="triangle")
        for i in range(3):
            c.add_host(Host(i, proc=100.0, mem=1024, stor=100.0))
        c.add_link(PhysicalLink(0, 1, bw=1.0, lat=1.0))
        c.add_link(PhysicalLink(0, 2, bw=100.0, lat=1.0))
        c.add_link(PhysicalLink(1, 2, bw=100.0, lat=1.0))
        part = partition_cluster(c, 3)
        venv = _two_guest_venv(vbw=10.0, vlat=50.0)
        state = ClusterState(c)
        state.place(venv.guest(0), 0)
        state.place(venv.guest(1), 1)
        paths, stats = stitch_networking(state, venv, HMNConfig(), part)
        assert paths[(0, 1)] == (0, 2, 1)
        assert stats["stitch"]["widened_links"] == 1
        assert stats["stitch"]["fallback_links"] == 0
        assert stats["stitch"]["fallback_rate"] == 0.0
        assert state.residual_bw(0, 2) == pytest.approx(90.0)

    def test_widened_corridor_failure_falls_back_to_full_graph(self):
        # Five single-host pods on a ring: 0-1 is too thin, and the
        # widened corridor for route (0, 1) — the endpoints plus their
        # immediate neighbors 2 and 4 — contains no alternative path
        # either (2 and 4 only connect through 3).  Only the full-graph
        # rescue can route this, and the counters must say so.
        c = PhysicalCluster(name="ring5")
        for i in range(5):
            c.add_host(Host(i, proc=100.0, mem=1024, stor=100.0))
        c.add_link(PhysicalLink(0, 1, bw=1.0, lat=1.0))
        c.add_link(PhysicalLink(0, 2, bw=100.0, lat=1.0))
        c.add_link(PhysicalLink(2, 3, bw=100.0, lat=1.0))
        c.add_link(PhysicalLink(3, 4, bw=100.0, lat=1.0))
        c.add_link(PhysicalLink(4, 1, bw=100.0, lat=1.0))
        part = partition_cluster(c, 5)
        venv = _two_guest_venv(vbw=10.0, vlat=50.0)
        state = ClusterState(c)
        state.place(venv.guest(0), 0)
        state.place(venv.guest(1), 1)
        paths, stats = stitch_networking(state, venv, HMNConfig(), part)
        assert paths[(0, 1)] == (0, 2, 3, 4, 1)
        assert stats["stitch"]["widened_links"] == 0
        assert stats["stitch"]["fallback_links"] == 1
        assert stats["stitch"]["fallback_rate"] == pytest.approx(1.0)
        for u, v in ((0, 2), (2, 3), (3, 4), (4, 1)):
            assert state.residual_bw(u, v) == pytest.approx(90.0)

    def test_planner_widen_is_capacity_aware(self):
        # pod0-pod1 dry; neighbors 2 (fat cut) and 3 (thin cut) are both
        # adjacent to the route.  widen() must rank 2 before 3 and skip
        # neighbors with zero connecting capacity entirely.
        c = PhysicalCluster(name="star")
        for i in range(5):
            c.add_host(Host(i, proc=100.0, mem=1024, stor=100.0))
        c.add_link(PhysicalLink(0, 1, bw=1.0, lat=1.0))
        c.add_link(PhysicalLink(0, 2, bw=100.0, lat=1.0))
        c.add_link(PhysicalLink(1, 2, bw=100.0, lat=1.0))
        c.add_link(PhysicalLink(0, 3, bw=5.0, lat=1.0))
        c.add_link(PhysicalLink(3, 4, bw=100.0, lat=1.0))
        part = partition_cluster(c, 5)
        state = ClusterState(c)
        from repro.shard.stitch import StitchPlanner

        planner = StitchPlanner(state, part)
        topo = state.topology
        g = {h: int(planner.node_group[topo.node_index[h]]) for h in range(5)}
        wide = planner.widen((g[0], g[1]))
        # 2 and 3 both connect to the route; 4 does not touch it.
        assert wide is not None
        assert set(wide) == {g[0], g[1], g[2], g[3]}
        assert planner.cut_capacity(g[0], g[2]) == pytest.approx(100.0)
        assert planner.cut_capacity(g[0], g[3]) == pytest.approx(5.0)
        assert planner.cut_capacity(g[0], g[4]) == 0.0
        # Exhaust the fat cut: capacity ranking reads the live state.
        state.reserve_path((0, 2), 100.0)
        assert planner.cut_capacity(g[0], g[2]) == pytest.approx(0.0)

    def test_infeasible_link_raises_routing_error(self):
        from repro.errors import RoutingError

        c = line_cluster(2, bw=1.0)
        part = partition_cluster(c, 2)
        venv = _two_guest_venv(vbw=10.0, vlat=50.0)
        state = ClusterState(c)
        state.place(venv.guest(0), 0)
        state.place(venv.guest(1), 1)
        with pytest.raises(RoutingError):
            stitch_networking(state, venv, HMNConfig(), part)

    def test_colocated_links_cost_nothing(self):
        c = line_cluster(2)
        part = partition_cluster(c, 2)
        venv = _two_guest_venv(vbw=10.0, vlat=50.0)
        state = ClusterState(c)
        state.place(venv.guest(0), 0)
        state.place(venv.guest(1), 0)
        paths, stats = stitch_networking(state, venv, HMNConfig(), part)
        assert paths[(0, 1)] == (0,)
        assert stats["links_colocated"] == 1
        assert state.residual_bw(0, 1) == pytest.approx(100.0)

    def test_stitch_kernel_chosen_by_cache(self):
        cluster = fat_tree_cluster(4, seed=5)
        part = partition_cluster(cluster)
        venv = _two_guest_venv(vbw=1.0, vlat=60.0)
        results = []
        for cache in (RoutingCache(cluster), ReferenceRoutingCache(cluster)):
            state = ClusterState(cluster)
            state.place(venv.guest(0), cluster.host_ids[0])
            state.place(venv.guest(1), cluster.host_ids[-1])
            paths, stats = stitch_networking(state, venv, HMNConfig(), part, cache)
            reference = isinstance(cache, ReferenceRoutingCache)
            assert stats["stitch"]["stitch_kernel"] == (KERNEL is not None and not reference)
            results.append(paths)
        assert results[0] == results[1]


class TestReferenceCacheOnShardedPath:
    """``hmn_map(cache=ReferenceRoutingCache(...))`` reaches the stitch
    router on both sharded branches: it runs the Python batch driver,
    and the mapping digests equal the default run's."""

    @pytest.mark.parametrize("redundancy", [0, 1], ids=["plain", "redundant"])
    def test_reference_cache_runs_python_stitch(self, redundancy, monkeypatch):
        cluster = fat_tree_cluster(4, seed=7, lat=1.0)
        venv = generate_virtual_environment(
            28, workload=LOW_LEVEL, density=2.4 / 27, seed=7
        )
        config = HMNConfig(shard=4, redundancy=redundancy)
        py_calls = []
        real_py = stitch_mod._route_batch_py

        def spy(*args):
            py_calls.append(args)
            return real_py(*args)

        monkeypatch.setattr(stitch_mod, "_route_batch_py", spy)
        ref = hmn_map(cluster, venv, config, cache=ReferenceRoutingCache(cluster))
        assert py_calls
        assert ref.meta["shard"]["stitch_kernel"] is False

        n_ref = len(py_calls)
        default = hmn_map(cluster, venv, config)
        assert default.meta["shard"]["stitch_kernel"] is (KERNEL is not None)
        if KERNEL is not None:
            assert len(py_calls) == n_ref  # production ran the C kernel only
        assert digest(cluster, venv, ref) == digest(cluster, venv, default)
