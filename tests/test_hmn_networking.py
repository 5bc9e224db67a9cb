"""Unit tests for the HMN Networking stage."""

from __future__ import annotations

import pytest

from repro.core import (
    ClusterState,
    Guest,
    Host,
    PhysicalCluster,
    VirtualEnvironment,
    VirtualLink,
)
from repro.errors import RoutingError
from repro.hmn import HMNConfig, run_networking


def place(state, venv, assignment):
    for gid, host in assignment.items():
        state.place(venv.guest(gid), host)


def two_guests(vbw=10.0, vlat=100.0):
    v = VirtualEnvironment()
    v.add_guest(Guest(0, vproc=1.0, vmem=1, vstor=1.0))
    v.add_guest(Guest(1, vproc=1.0, vmem=1, vstor=1.0))
    v.add_vlink(VirtualLink(0, 1, vbw=vbw, vlat=vlat))
    return v


class TestBasicRouting:
    def test_colocated_links_get_trivial_path(self, line3):
        v = two_guests()
        state = ClusterState(line3)
        place(state, v, {0: 1, 1: 1})
        paths, stats = run_networking(state, v, HMNConfig())
        assert paths[(0, 1)] == (1,)
        assert stats["links_colocated"] == 1
        assert stats["links_routed"] == 0

    def test_inter_host_path_reserves_bandwidth(self, line3):
        v = two_guests(vbw=100.0)
        state = ClusterState(line3)
        place(state, v, {0: 0, 1: 2})
        paths, _ = run_networking(state, v, HMNConfig())
        assert paths[(0, 1)] == (0, 1, 2)
        assert state.residual_bw(0, 1) == pytest.approx(900.0)
        assert state.residual_bw(1, 2) == pytest.approx(900.0)

    def test_bottleneck_choice_under_load(self, diamond):
        """High-bandwidth links are routed first and grab the wide path,
        pushing later links onto the narrow one."""
        v = VirtualEnvironment()
        for i in range(4):
            v.add_guest(Guest(i, vproc=1.0, vmem=1, vstor=1.0))
        v.add_vlink(VirtualLink(0, 1, vbw=800.0, vlat=100.0))  # routed first
        v.add_vlink(VirtualLink(2, 3, vbw=90.0, vlat=100.0))
        state = ClusterState(diamond)
        place(state, v, {0: 0, 1: 3, 2: 0, 3: 3})
        paths, _ = run_networking(state, v, HMNConfig())
        assert paths[(0, 1)] == (0, 2, 3)  # wide bottom path
        # Bottom path residual is 200, top path is 100: the second link
        # still prefers the bottom (greater bottleneck).
        assert paths[(2, 3)] == (0, 2, 3)
        # A third 150-unit link would have to take the top path.

    def test_failure_propagates(self, line3):
        v = two_guests(vbw=2000.0)  # exceeds every physical link
        state = ClusterState(line3)
        place(state, v, {0: 0, 1: 2})
        with pytest.raises(RoutingError):
            run_networking(state, v, HMNConfig())

    def test_latency_bound_respected(self, line3):
        v = two_guests(vlat=7.0)  # 2 hops x 5 ms > 7 ms
        state = ClusterState(line3)
        place(state, v, {0: 0, 1: 2})
        with pytest.raises(RoutingError):
            run_networking(state, v, HMNConfig())


class TestOrderingEffect:
    def test_desc_order_wins_scarce_bandwidth(self, diamond):
        """With capacity for only one link on the wide path, descending
        order gives it to the high-bandwidth link (the paper's
        rationale); ascending order starves it."""
        v = VirtualEnvironment()
        for i in range(4):
            v.add_guest(Guest(i, vproc=1.0, vmem=1, vstor=1.0))
        v.add_vlink(VirtualLink(0, 1, vbw=950.0, vlat=100.0))
        v.add_vlink(VirtualLink(2, 3, vbw=60.0, vlat=100.0))

        def routed_paths(order):
            state = ClusterState(diamond)
            place(state, v, {0: 0, 1: 3, 2: 0, 3: 3})
            paths, _ = run_networking(state, v, HMNConfig(link_order=order))
            return paths

        desc = routed_paths("vbw_desc")
        assert desc[(0, 1)] == (0, 2, 3)
        assert desc[(2, 3)] == (0, 1, 3)  # pushed to the narrow path

        # Ascending order lets the 60-unit link shave the wide path to
        # 940 residual, and the 950-unit link then fits nowhere: the
        # whole mapping fails.  Exactly the paper's argument for
        # "starting from guests whose links have high-bandwidth".
        with pytest.raises(RoutingError):
            routed_paths("vbw_asc")

    def test_latency_metric_ablation(self, diamond):
        v = two_guests(vbw=10.0)
        state = ClusterState(diamond)
        place(state, v, {0: 0, 1: 3})
        paths, _ = run_networking(state, v, HMNConfig(routing_metric="latency"))
        assert paths[(0, 1)] == (0, 1, 3)  # min latency, not max bottleneck


class TestSwitchTraversal:
    def test_paths_may_cross_switches(self, star4):
        v = two_guests()
        state = ClusterState(star4)
        place(state, v, {0: 0, 1: 3})
        paths, _ = run_networking(state, v, HMNConfig())
        assert paths[(0, 1)] == (0, "hub", 3)
