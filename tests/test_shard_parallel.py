"""The process-parallel shard pipeline (:mod:`repro.shard.parallel`).

The headline contract: the mapping digest is a function of the
instance, never of the worker count — ``shard_workers=N`` must be
byte-identical to the serial path for every N, through crashes,
retries, and the inline fallback included.
"""

import dataclasses
import os
import time

import pytest

from repro import api
from repro.conformance import ReferenceRoutingCache, digest
from repro.core.state import ClusterState
from repro.core.validate import validate_mapping
from repro.errors import ConfigError
from repro.hmn.config import HMNConfig
from repro.hmn.pipeline import hmn_map
from repro.shard.parallel import SharedSubstrate, resolve_shard_workers
from repro.topology import fat_tree_cluster
from repro.workload import LOW_LEVEL, generate_virtual_environment


def _instance(k=4, n_guests=28, seed=7):
    cluster = fat_tree_cluster(k, seed=seed, lat=1.0)
    venv = generate_virtual_environment(
        n_guests, workload=LOW_LEVEL, density=2.4 / (n_guests - 1), seed=seed
    )
    return cluster, venv


def _map_digest(cluster, venv, cache=None, **overrides):
    config = HMNConfig(shard=4, **overrides)
    mapping = hmn_map(cluster, venv, config, cache=cache)
    return digest(cluster, venv, mapping), mapping


# ----------------------------------------------------------------------
# resolve_shard_workers
# ----------------------------------------------------------------------
class TestResolveShardWorkers:
    def test_auto_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_WORKERS", raising=False)
        assert resolve_shard_workers("auto", n_pods=8) == 1

    def test_auto_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "3")
        assert resolve_shard_workers("auto", n_pods=8) == 3

    def test_bad_environment_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "lots")
        with pytest.raises(ConfigError):
            resolve_shard_workers("auto", n_pods=8)

    def test_clamped_to_pod_count(self):
        assert resolve_shard_workers(16, n_pods=3) == 3

    def test_explicit_integer_passes_through(self):
        assert resolve_shard_workers(2, n_pods=8) == 2

    def test_config_field_validation(self):
        with pytest.raises(ConfigError):
            HMNConfig(shard_workers=0)
        with pytest.raises(ConfigError):
            HMNConfig(shard_workers="many")
        assert HMNConfig(shard_workers=4).shard_workers == 4
        assert HMNConfig().shard_workers == "auto"


# ----------------------------------------------------------------------
# shared substrate
# ----------------------------------------------------------------------
class TestSharedSubstrate:
    def test_publish_matches_state(self):
        cluster, venv = _instance()
        state = ClusterState(cluster)
        # A non-trivial snapshot: place a few guests first.
        guests = list(venv.guests())[:5]
        hosts = cluster.host_ids
        for g, h in zip(guests, hosts):
            state.place(g, h)
        sub = SharedSubstrate.publish(state)
        try:
            topo = state.topology
            for row, h in enumerate(topo.nodes[: topo.n_hosts]):
                assert sub.mem[row] == state.residual_mem(h)
                assert sub.stor[row] == state.residual_stor(h)
                assert sub.cpu[row] == state.cpu.residual(h)
                assert bool(sub.blocked[row]) == state.is_blocked(h)
            assert sub.bw.tolist() == list(state.bw_array)
        finally:
            sub.close()
            sub.unlink()

    def test_pod_state_value_identical_to_from_state(self):
        from repro.shard.partition import partition_cluster
        from repro.shard.vectorized import PodState

        cluster, venv = _instance()
        state = ClusterState(cluster)
        part = partition_cluster(cluster, 4)
        sub = SharedSubstrate.publish(state)
        try:
            topo = state.topology
            import numpy as np

            for pod_hosts in part.pods:
                rows = np.array(
                    [topo.host_index[h] for h in pod_hosts], dtype=np.int64
                )
                a = PodState.from_state(state, pod_hosts)
                b = sub.pod_state(topo.nodes[: topo.n_hosts], rows)
                assert a.ids == b.ids
                assert a.mem.tolist() == b.mem.tolist()
                assert a.stor.tolist() == b.stor.tolist()
                assert a.res.tolist() == b.res.tolist()
                assert a.tracker.running_sum == b.tracker.running_sum
                assert a.tracker.running_sumsq == b.tracker.running_sumsq
        finally:
            sub.close()
            sub.unlink()


# ----------------------------------------------------------------------
# digest identity: serial vs parallel
# ----------------------------------------------------------------------
class TestParallelDigestIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_byte_identical_to_serial(self, workers):
        cluster, venv = _instance()
        d_serial, m_serial = _map_digest(cluster, venv, shard_workers=1)
        d_par, m_par = _map_digest(cluster, venv, shard_workers=workers)
        assert d_par == d_serial
        assert m_par.assignments == m_serial.assignments
        assert m_par.paths == m_serial.paths
        assert m_par.meta["shard"]["n_workers"] == min(workers, 4)
        validate_mapping(cluster, venv, m_par)

    def test_byte_identical_without_kernel(self):
        cluster, venv = _instance()
        d_serial, _ = _map_digest(
            cluster, venv, ReferenceRoutingCache(cluster), shard_workers=1
        )
        d_par, m_par = _map_digest(
            cluster, venv, ReferenceRoutingCache(cluster), shard_workers=2
        )
        assert d_par == d_serial
        assert m_par.meta["shard"]["stitch_kernel"] is False

    def test_auto_env_engages_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WORKERS", "2")
        cluster, venv = _instance()
        d_par, m_par = _map_digest(cluster, venv)  # shard_workers="auto"
        monkeypatch.delenv("REPRO_SHARD_WORKERS")
        d_serial, _ = _map_digest(cluster, venv)
        assert m_par.meta["shard"]["n_workers"] == 2
        assert d_par == d_serial

    def test_migration_disabled_round_trip(self):
        cluster, venv = _instance()
        d_serial, _ = _map_digest(cluster, venv, shard_workers=1, migration_enabled=False)
        d_par, m_par = _map_digest(cluster, venv, shard_workers=2, migration_enabled=False)
        assert d_par == d_serial
        assert m_par.mapper == "hmn-sharded-nomigration"


# ----------------------------------------------------------------------
# crash tolerance
# ----------------------------------------------------------------------
class TestCrashTolerance:
    @pytest.mark.parametrize("kind", ["hosting", "migration"])
    def test_worker_crash_recovers_inline(self, kind, monkeypatch):
        # Every worker attempting pod 1's task dies; after the retry
        # budget the parent runs the task inline and the mapping is
        # still byte-identical to the serial path.
        cluster, venv = _instance()
        d_serial, _ = _map_digest(cluster, venv, shard_workers=1)
        monkeypatch.setenv("REPRO_SHARD_TEST_CRASH", f"{kind}:1")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "1")
        d_par, m_par = _map_digest(cluster, venv, shard_workers=2)
        assert d_par == d_serial
        shard_meta = m_par.meta["shard"]
        assert shard_meta["inline_tasks"] == 1
        assert shard_meta["worker_failures"] == 2  # first try + one retry
        validate_mapping(cluster, venv, m_par)

    def test_worker_timeout_recovers_inline(self, monkeypatch):
        # Every worker attempting pod 1's hosting task hangs; each
        # attempt is terminated at its deadline and the worker replaced,
        # then the parent runs the task inline (where it does not hang).
        from repro.shard import parallel

        cluster, venv = _instance()
        d_serial, _ = _map_digest(cluster, venv, shard_workers=1)
        parent, run_task = os.getpid(), parallel._run_task

        def hang_in_worker(substrate, venv, config, host_ids, task):
            if os.getpid() != parent and task[:2] == ("hosting", 1):
                time.sleep(600)
            return run_task(substrate, venv, config, host_ids, task)

        monkeypatch.setattr(parallel, "_run_task", hang_in_worker)
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "1")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "1")
        t0 = time.monotonic()
        d_par, m_par = _map_digest(cluster, venv, shard_workers=2)
        assert time.monotonic() - t0 < 60.0
        assert d_par == d_serial
        shard_meta = m_par.meta["shard"]
        assert shard_meta["inline_tasks"] == 1
        assert shard_meta["worker_failures"] == 2


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
class TestParallelTracing:
    def test_worker_spans_adopted_under_stage_spans(self):
        from repro.obs import recording, validate_trace

        cluster, venv = _instance()
        with recording() as tracer:
            config = HMNConfig(shard=4, shard_workers=2)
            hmn_map(cluster, venv, config)
        assert validate_trace(tracer.spans) == []
        pods = [s for s in tracer.spans if s["name"] == "shard.pod"]
        assert pods, "pod spans must survive the worker boundary"
        assert all(s["pid"] != os.getpid() for s in pods)
        by_id = {s["id"]: s for s in tracer.spans}
        parent_names = {by_id[s["parent"]]["name"] for s in pods}
        assert parent_names <= {"shard.hosting", "shard.migration"}
        assert any(s["name"] == "shard.pool" for s in tracer.spans)

    def test_api_facade_exports(self):
        assert api.resolve_shard_workers is resolve_shard_workers
        assert "resolve_shard_workers" in api.__all__
