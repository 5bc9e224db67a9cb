"""Sharded-vs-monolithic equivalence and quality battery.

Three layers of proof that sharding changes *scale*, not *semantics*:

1. **Decision equivalence** (property-tested): on a pod-only view of
   any cluster, the vectorized :func:`pod_hosting`/:func:`pod_migration`
   pick exactly the placements the reference stages pick — placement by
   placement, including failure cases.
2. **Byte identity**: ``shard="off"`` and ``shard="auto"`` below the
   size floor produce digest-identical mappings (all pre-existing
   results are untouched by the sharding subsystem's existence).
3. **Bounded quality**: on dual-run sizes the sharded objective stays
   within the documented ratio of the monolithic one, and the sharded
   mapping always satisfies every constraint.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import mapping_digest
from repro.core import ClusterState, validate_mapping
from repro.errors import MappingError, PlacementError
from repro.hmn import HMNConfig, hmn_map
from repro.hmn.hosting import run_hosting
from repro.hmn.migration import run_migration
from repro.hmn.ordering import ordered_vlinks
from repro.shard import (
    SHARD_QUALITY_RATIO,
    SHARD_QUALITY_SLACK,
    PodState,
    pod_hosting,
    pod_migration,
    shard_map,
)
from repro.topology import random_cluster, switched_cluster, torus_cluster
from repro.topology.fattree import fat_tree_cluster
from repro.workload import HIGH_LEVEL, LOW_LEVEL, generate_virtual_environment

TOPOLOGY_BUILDERS = (
    lambda seed: torus_cluster(3, 4, seed=seed),
    lambda seed: switched_cluster(12, seed=seed),
    lambda seed: random_cluster(10, density=0.3, seed=seed),
    lambda seed: fat_tree_cluster(4, seed=seed),
)


@st.composite
def pod_instance(draw):
    builder = TOPOLOGY_BUILDERS[draw(st.integers(0, len(TOPOLOGY_BUILDERS) - 1))]
    cluster = builder(draw(st.integers(0, 10_000)))
    n_guests = draw(st.integers(2, 30))
    workload = draw(st.sampled_from([HIGH_LEVEL, LOW_LEVEL]))
    venv = generate_virtual_environment(
        n_guests, workload=workload, seed=draw(st.integers(0, 10_000))
    )
    return cluster, venv


def reference_hosting(cluster, venv, config):
    state = ClusterState(cluster)
    try:
        run_hosting(state, venv, config)
    except PlacementError as exc:
        return state, exc
    return state, None


def pod_view_hosting(cluster, venv, config):
    pod = PodState.from_state(ClusterState(cluster), cluster.host_ids)
    links = ordered_vlinks(venv, config)
    guest_ids = [g.id for g in venv.guests()]
    try:
        pod_hosting(pod, venv, links, guest_ids, config)
    except PlacementError as exc:
        return pod, exc
    return pod, None


class TestDecisionEquivalence:
    """pod_* stages == reference stages on a single-pod view."""

    @settings(max_examples=60, deadline=None)
    @given(pod_instance())
    def test_hosting_identical(self, instance):
        cluster, venv = instance
        config = HMNConfig()
        state, ref_err = reference_hosting(cluster, venv, config)
        pod, pod_err = pod_view_hosting(cluster, venv, config)
        if ref_err is not None:
            assert pod_err is not None and pod_err.args[0] == ref_err.args[0]
            return
        assert pod_err is None
        expected = {g.id: state.host_of(g.id) for g in venv.guests()}
        assert pod.assignment() == expected

    @settings(max_examples=40, deadline=None)
    @given(pod_instance())
    def test_migration_identical(self, instance):
        cluster, venv = instance
        config = HMNConfig()
        state, ref_err = reference_hosting(cluster, venv, config)
        pod, pod_err = pod_view_hosting(cluster, venv, config)
        if ref_err is not None or pod_err is not None:
            return
        ref_stats = run_migration(state, venv, config)
        pod_stats = pod_migration(pod, venv, config)
        expected = {g.id: state.host_of(g.id) for g in venv.guests()}
        assert pod.assignment() == expected
        assert pod_stats["migrations"] == ref_stats["migrations"]
        assert pod_stats["iterations"] == ref_stats["iterations"]
        assert pod_stats["objective_after"] == pytest.approx(
            ref_stats["objective_after"], abs=1e-9
        )

    @settings(max_examples=20, deadline=None)
    @given(
        pod_instance(),
        st.sampled_from(["max_vproc", "min_intra_bw"]),
        st.sampled_from(["loaded_min_residual", "strict_min_residual", "max_usage"]),
    )
    def test_migration_identical_under_ablations(self, instance, policy, origin):
        cluster, venv = instance
        config = HMNConfig(migration_policy=policy, migration_origin=origin)
        state, ref_err = reference_hosting(cluster, venv, config)
        pod, pod_err = pod_view_hosting(cluster, venv, config)
        if ref_err is not None or pod_err is not None:
            return
        run_migration(state, venv, config)
        pod_migration(pod, venv, config)
        expected = {g.id: state.host_of(g.id) for g in venv.guests()}
        assert pod.assignment() == expected


class TestShardOffByteIdentity:
    def test_off_equals_auto_below_floor(self):
        cluster = torus_cluster(4, 5, seed=8)
        venv = generate_virtual_environment(30, seed=8)
        off = hmn_map(cluster, venv, HMNConfig(shard="off"))
        auto = hmn_map(cluster, venv, HMNConfig(shard="auto"))
        assert mapping_digest(cluster, venv, off) == mapping_digest(cluster, venv, auto)
        assert off.mapper == auto.mapper == "hmn"

    def test_default_config_is_auto(self):
        assert HMNConfig().shard == "auto"

    def test_shard_survives_config_round_trip(self):
        config = HMNConfig(shard=6)
        assert HMNConfig.from_dict(config.describe()).shard == 6


class TestShardedQuality:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_objective_within_documented_ratio(self, seed):
        cluster = fat_tree_cluster(6, seed=seed)  # 54 hosts
        venv = generate_virtual_environment(80, seed=seed)
        mono = hmn_map(cluster, venv, HMNConfig(shard="off"))
        sharded = hmn_map(cluster, venv, HMNConfig(shard=3))
        validate_mapping(cluster, venv, sharded)
        assert sharded.mapper == "hmn-sharded"
        bound = (
            mono.meta["objective"] * SHARD_QUALITY_RATIO + SHARD_QUALITY_SLACK
        )
        assert sharded.meta["objective"] <= bound

    def test_stage_reports_present(self):
        cluster = fat_tree_cluster(4, seed=4)
        venv = generate_virtual_environment(24, seed=4)
        mapping = hmn_map(cluster, venv, HMNConfig(shard=4))
        names = [s.name for s in mapping.stages]
        assert names == ["partition", "hosting", "migration", "networking"]
        timings = mapping.meta["timings"]
        for key in (
            "partition_s", "hosting_s", "migration_s", "networking_s",
            "total_s", "routing_calls", "router_expansions",
            "cache_hit_rate", "engine", "route_kernel_s",
        ):
            assert key in timings
        assert mapping.meta["shard"]["n_pods"] == 4

    @settings(max_examples=25, deadline=None)
    @given(pod_instance(), st.integers(2, 4))
    def test_sharded_output_always_valid(self, instance, n_pods):
        cluster, venv = instance
        try:
            mapping = shard_map(cluster, venv, HMNConfig(), n_pods=n_pods)
        except MappingError:
            return
        report = validate_mapping(cluster, venv, mapping, raise_on_error=False)
        assert report.ok, str(report)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_guest_failed_then_placed_in_pod_is_not_rescued(self, workers):
        """Guest 0 fails one pair in its pod, is placed later in the same
        pod, and must not be placed a second time by the overflow rescue
        (it used to raise ModelError 'guest 0 is already placed')."""
        cluster = torus_cluster(3, 4, seed=6)
        venv = generate_virtual_environment(26, workload=HIGH_LEVEL, seed=2)
        config = HMNConfig(shard_workers=workers)
        mapping = shard_map(cluster, venv, config, n_pods=4)
        validate_mapping(cluster, venv, mapping)
        assert mapping.meta["shard"]["n_workers"] == workers

    def test_shared_state_restored_on_failure(self):
        cluster = switched_cluster(6, seed=2)
        venv = generate_virtual_environment(400, seed=2)  # hopeless overload
        state = ClusterState(cluster)
        before = state.objective()
        with pytest.raises(MappingError):
            shard_map(cluster, venv, HMNConfig(), state=state, n_pods=2)
        assert state.objective() == before
        assert all(not state.guests_on(h) for h in cluster.host_ids)
