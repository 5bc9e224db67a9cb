"""Tests for :mod:`repro.tenancy`: one tenant record, one release, one
evacuation rule, shared by the admission service and the chaos operator.

The headline property is the round trip: admitting tenants and then
releasing all of them returns the shared cluster to its pristine state,
replicas and backup paths included, through ``ServiceCore`` and through
``ChaosOperator`` departures alike, for every ``HMNConfig`` knob that
changes what a tenant holds.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClusterState, Guest, Mapping, VirtualEnvironment
from repro.hmn import HMNConfig, hmn_map
from repro.redundancy import BackupLedger
from repro.resilience import ChaosOperator, FaultEvent
from repro.service import MapRequest, ServiceCore
from repro.tenancy import Tenant, evacuate, release, severed
from repro.topology import paper_switched, paper_torus, star_cluster, torus_cluster
from repro.workload import LOW_LEVEL, generate_virtual_environment


def tenant_venv(t: int, n: int, seed: int) -> VirtualEnvironment:
    return generate_virtual_environment(
        n, workload=LOW_LEVEL, density=0.1, seed=seed, id_offset=t * 100_000
    )


def assert_pristine(state: ClusterState, ledger: BackupLedger) -> None:
    """Nothing placed, nothing reserved, residuals back to capacity.

    Memory is integral and must match exactly.  Storage, CPU and
    bandwidth are float residuals updated by ``-=``/``+=``, which drift
    by about 9e-13 over one admit/release round, so they are compared
    within 1e-9; bit-exactness waits for exact residual arithmetic
    (integer fixed-point residuals, an open ROADMAP item).
    """
    fresh = ClusterState(state.cluster)
    assert state.n_placed == 0
    assert ledger.total_reserved == 0
    for h in state.cluster.host_ids:
        assert state.residual_mem(h) == fresh.residual_mem(h)
        assert math.isclose(state.residual_stor(h), fresh.residual_stor(h), abs_tol=1e-9)
        assert math.isclose(state.residual_proc(h), fresh.residual_proc(h), abs_tol=1e-9)
    for u, v in state.cluster.link_keys:
        assert math.isclose(state.residual_bw(u, v), fresh.residual_bw(u, v), abs_tol=1e-9)


# ----------------------------------------------------------------------
# the replica/backup leak through the service
# ----------------------------------------------------------------------
class TestReleaseFreesRedundancy:
    """Three 60-guest tenants at k=1 on the paper clusters: before the
    shared release, 180 replica guests stayed placed after every tenant
    left, and with backup paths on the torus backup bandwidth stayed
    reserved on 80 edges."""

    @pytest.mark.parametrize("backup_paths", [False, True])
    @pytest.mark.parametrize("make", [paper_torus, paper_switched], ids=["torus", "switched"])
    def test_service_release_leaves_nothing(self, make, backup_paths):
        cluster = make(seed=2009)
        core = ServiceCore(
            cluster, config=HMNConfig(redundancy=1, backup_paths=backup_paths)
        )
        for t in range(3):
            decision = core.admit(MapRequest(tenant=t, venv=tenant_venv(t, 60, seed=t)))
            assert decision.admitted
        assert core.state.n_placed == 360  # 180 primaries + 180 standbys
        for t in range(3):
            assert core.release(t)
        assert_pristine(core.state, core.ledger)

    def test_release_returns_backup_and_primary_edges(self):
        cluster = paper_torus(seed=2009)
        state = ClusterState(cluster)
        ledger = BackupLedger(state)
        venv = tenant_venv(0, 30, seed=4)
        config = HMNConfig(redundancy=1, backup_paths=True)
        mapping = hmn_map(cluster, venv, config, state=state, backup_ledger=ledger)
        rec = Tenant.admitted(0, venv, mapping)
        assert rec.replicas and rec.backups
        expected = {
            e
            for nodes in [*mapping.paths.values(), *(b.nodes for b in rec.backups.values())]
            for e in zip(nodes, nodes[1:])
        }
        released = release(state, rec, ledger)
        assert {frozenset(e) for e in released} == {frozenset(e) for e in expected}
        assert not rec.replicas and not rec.backups
        assert_pristine(state, ledger)


# ----------------------------------------------------------------------
# the round-trip property, through the service and the chaos operator
# ----------------------------------------------------------------------
configs = st.builds(
    lambda engine, shard, k, backup_paths, router, migration: HMNConfig(
        engine=engine,
        shard=shard,
        shard_workers=1,
        redundancy=k,
        backup_paths=backup_paths,
        router=router,
        migration_enabled=migration,
    ),
    st.sampled_from(["dict", "compiled"]),
    st.sampled_from(["off", 2]),
    st.integers(0, 2),
    st.booleans(),
    st.sampled_from(["algorithm1", "label_setting"]),
    st.booleans(),
)
tenant_sets = st.lists(
    st.tuples(st.integers(4, 12), st.integers(0, 10_000)), min_size=1, max_size=3
)


@pytest.fixture(scope="module")
def substrate():
    return torus_cluster(2, 4, seed=31)


class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(config=configs, tenants=tenant_sets)
    def test_service_admit_then_release_is_pristine(self, substrate, config, tenants):
        core = ServiceCore(substrate, config=config)
        for t, (n, seed) in enumerate(tenants):
            core.admit(MapRequest(tenant=t, venv=tenant_venv(t, n, seed)))
        for t in range(len(tenants)):
            core.release(t)
        assert_pristine(core.state, core.ledger)

    @settings(max_examples=25, deadline=None)
    @given(config=configs, tenants=tenant_sets)
    def test_chaos_admit_then_depart_is_pristine(self, substrate, config, tenants):
        venvs = [tenant_venv(t, n, seed) for t, (n, seed) in enumerate(tenants)]
        op = ChaosOperator(substrate, make_venv=lambda i, rng: venvs[i], config=config)
        seq = 0
        for kind in ("tenant_arrive", "tenant_depart"):
            for t in range(len(venvs)):
                op.apply(FaultEvent(time=float(seq), seq=seq, kind=kind, target=t))
                seq += 1
        assert not op.live_tenants
        assert_pristine(op.state, op._ledger)


# ----------------------------------------------------------------------
# the one evacuation rule
# ----------------------------------------------------------------------
class TestEvacuate:
    def test_severed_names_displaced_guests_and_cut_links(self):
        cluster = torus_cluster(2, 4, seed=5)
        venv = tenant_venv(0, 12, seed=8)
        mapping = hmn_map(cluster, venv)
        victim = mapping.hosts_used()[0]
        displaced, touched = severed(mapping, leaving={victim}, dead={victim})
        assert displaced == sorted(mapping.guests_on(victim))
        for key, nodes in mapping.paths.items():
            cut = key[0] in displaced or key[1] in displaced or victim in nodes
            assert (key in touched) == cut
        assert touched == sorted(touched)

    def test_largest_vproc_first_then_guest_id(self):
        """Displaced guests go largest ``vproc`` first, guest id on ties,
        each onto the most idle host that fits."""
        cluster = star_cluster(3, seed=1)
        hosts = sorted(cluster.host_ids, key=str)
        src = hosts[0]
        venv = VirtualEnvironment(name="evac")
        for gid, vproc in ((7, 10.0), (3, 10.0), (5, 30.0)):
            venv.add_guest(Guest(gid, vproc=vproc, vmem=64, vstor=1.0))
        order = []

        class SpyState(ClusterState):
            def place(self, guest, host_id):
                order.append(guest.id)
                super().place(guest, host_id)

        state = SpyState(cluster)
        for g in venv.guests():
            state.place(g, src)
        order.clear()
        mapping = Mapping(
            assignments={g.id: src for g in venv.guests()}, paths={}, mapper="test"
        )
        (done,) = evacuate(state, [(venv, mapping)], HMNConfig(), leaving={src})
        assert order == [5, 3, 7]
        assert done.displaced == (3, 5, 7)
        assert src not in done.mapping.assignments.values()
        assert done.mapping.mapper == "test+evacuate"

    def test_dead_node_blackholes_are_lifted(self):
        """Re-routing avoids a dead node by reserving its links' residual
        bandwidth for the duration; afterwards those links are free."""
        cluster = torus_cluster(2, 4, seed=5)
        venv = tenant_venv(0, 16, seed=3)
        state = ClusterState(cluster)
        mapping = hmn_map(cluster, venv, state=state)
        victim = mapping.hosts_used()[0]
        (done,) = evacuate(
            state, [(venv, mapping)], HMNConfig(), leaving={victim}, dead={victim}
        )
        for nodes in done.mapping.paths.values():
            assert victim not in nodes
        for nbr in cluster.neighbors(victim):
            assert math.isclose(
                state.residual_bw(victim, nbr), cluster.link(victim, nbr).bw, abs_tol=1e-9
            )


def test_resilience_does_not_import_service():
    code = (
        "import sys, repro.resilience.operator; "
        "sys.exit('repro.service' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
