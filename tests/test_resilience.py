"""Tests for the chaos engine (:mod:`repro.resilience`).

Three layers:

* **FailureModel** — traces are deterministic, physically consistent
  discrete-event histories (recoveries follow their faults, nothing
  fails twice without recovering, dead-fraction ceilings hold).
* **ChaosOperator** — the master robustness invariant, checked
  property-style across random seeds: after *every* fault and repair,
  every surviving mapping still satisfies Eqs. 1-9 (``selfcheck=True``
  re-validates the full live set after each event and raises on any
  violation).
* **Determinism** — same seed, same result, byte for byte: across
  repeat runs and across worker processes.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.resilience import (
    EVENT_KINDS,
    ChaosOperator,
    FailureModel,
    FaultEvent,
    RepairPolicy,
    run_chaos,
    survivability,
)
from repro.topology import switched_cluster, torus_cluster
from repro.workload import paper_clusters

SEED = 2009


@pytest.fixture(scope="module")
def torus():
    return torus_cluster(2, 4, seed=SEED)


@pytest.fixture(scope="module")
def switched():
    return switched_cluster(8, seed=SEED)


# ----------------------------------------------------------------------
# FailureModel
# ----------------------------------------------------------------------


class TestFailureModelValidation:
    def test_negative_rate_rejected(self, torus):
        with pytest.raises(ModelError):
            FailureModel(torus, host_crash_rate=-1.0)

    def test_nonpositive_mttr_rejected(self, torus):
        with pytest.raises(ModelError):
            FailureModel(torus, host_mttr=0.0)

    def test_bad_degrade_band_rejected(self, torus):
        with pytest.raises(ModelError):
            FailureModel(torus, degrade_floor=0.8, degrade_ceiling=0.3)
        with pytest.raises(ModelError):
            FailureModel(torus, degrade_ceiling=1.0)

    def test_bad_dead_fraction_rejected(self, torus):
        with pytest.raises(ModelError):
            FailureModel(torus, max_dead_fraction=1.0)

    def test_all_rates_zero_rejected(self, torus):
        with pytest.raises(ModelError):
            FailureModel(
                torus,
                arrival_rate=0.0,
                host_crash_rate=0.0,
                switch_fail_rate=0.0,
                link_degrade_rate=0.0,
            )

    def test_empty_trace_rejected(self, torus):
        with pytest.raises(ModelError):
            FailureModel(torus).trace(0)


class TestFailureModelTraces:
    def test_exact_length_and_sequence(self, torus):
        trace = FailureModel(torus).trace(200, seed=SEED)
        assert len(trace) == 200
        assert [e.seq for e in trace] == list(range(200))
        times = [e.time for e in trace]
        assert times == sorted(times)
        assert all(e.kind in EVENT_KINDS for e in trace)

    def test_same_seed_same_trace(self, torus):
        model = FailureModel(torus)
        assert model.trace(150, seed=SEED) == model.trace(150, seed=SEED)
        assert model.trace(150, seed=SEED) != model.trace(150, seed=SEED + 1)

    def test_physical_consistency(self, switched):
        """Nothing fails twice before recovering; recoveries and
        departures always follow a matching fault/arrival."""
        model = FailureModel(
            switched,
            host_crash_rate=0.5,
            link_degrade_rate=0.5,
            max_dead_fraction=0.5,
        )
        down_hosts: set = set()
        degraded: set = set()
        tenants: set = set()
        n_hosts = len(switched.host_ids)
        for event in model.trace(500, seed=SEED):
            if event.kind == "host_crash":
                assert event.target not in down_hosts
                down_hosts.add(event.target)
                assert len(down_hosts) <= int(0.5 * n_hosts)
                assert len(down_hosts) < n_hosts
            elif event.kind == "host_recover":
                assert event.target in down_hosts
                down_hosts.discard(event.target)
            elif event.kind == "link_degrade":
                assert event.target not in degraded
                assert 0.0 < event.factor < 1.0
                degraded.add(event.target)
            elif event.kind == "link_restore":
                assert event.target in degraded
                degraded.discard(event.target)
            elif event.kind == "tenant_arrive":
                assert event.target not in tenants
                tenants.add(event.target)
            elif event.kind == "tenant_depart":
                assert event.target in tenants
                tenants.discard(event.target)

    def test_no_switch_events_without_switches(self, torus):
        trace = FailureModel(torus, switch_fail_rate=10.0).trace(300, seed=SEED)
        assert not any("switch" in e.kind for e in trace)

    def test_single_switch_protected_by_dead_fraction(self):
        # The paper's switched cluster has one switch; killing it would
        # partition every host, so the default ceiling forbids it.
        cluster = paper_clusters(seed=SEED)["switched"]
        trace = FailureModel(cluster, switch_fail_rate=10.0).trace(300, seed=SEED)
        assert not any("switch" in e.kind for e in trace)

    def test_cascade_switch_failures_fire(self):
        # Three cascade switches with a 0.34 ceiling: exactly one may
        # be down at a time.
        cluster = switched_cluster(40, ports=16, seed=SEED)
        model = FailureModel(cluster, switch_fail_rate=1.0, max_dead_fraction=0.34)
        trace = model.trace(400, seed=SEED)
        fails = [e for e in trace if e.kind == "switch_fail"]
        assert fails
        down: set = set()
        for event in trace:
            if event.kind == "switch_fail":
                down.add(event.target)
                assert len(down) <= 1
            elif event.kind == "switch_recover":
                down.discard(event.target)

    def test_event_to_dict_round_trips_json(self, torus):
        event = FaultEvent(1.5, 0, "link_degrade", torus.link_keys[0], 0.4)
        doc = json.loads(json.dumps(event.to_dict()))
        assert doc["kind"] == "link_degrade"
        assert doc["factor"] == 0.4


# ----------------------------------------------------------------------
# ChaosOperator: the self-healing invariant
# ----------------------------------------------------------------------


class TestRepairPolicy:
    def test_validation(self):
        with pytest.raises(ModelError):
            RepairPolicy(max_attempts=0)
        with pytest.raises(ModelError):
            RepairPolicy(backoff=-0.1)


class TestChaosRuns:
    def test_model_for_other_cluster_rejected(self, torus, switched):
        with pytest.raises(ModelError, match="different cluster"):
            run_chaos(torus, model=FailureModel(switched))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), switched_topo=st.booleans())
    def test_survivors_always_valid(self, seed, switched_topo):
        """The master invariant: with ``selfcheck=True`` every live
        mapping is re-validated against Eqs. 1-9 (plus no guest on a
        dead host, no path through a dead node) after *every* event —
        any violation raises out of ``run_chaos``."""
        cluster = (
            switched_cluster(8, seed=seed)
            if switched_topo
            else torus_cluster(2, 4, seed=seed)
        )
        model = FailureModel(
            cluster,
            host_crash_rate=0.4,
            link_degrade_rate=0.4,
            max_dead_fraction=0.4,
        )
        result = run_chaos(
            cluster, n_events=40, seed=seed, model=model, selfcheck=True
        )
        assert result.n_events == 40
        assert result.validations > 0
        assert result.final_guests >= 0

    @pytest.mark.slow
    def test_figure1_cluster_1000_events(self):
        """The acceptance run: 1000 events of tenant churn, host
        crashes and link degradations on the Figure 1 torus, with the
        full live set validated after every event."""
        cluster = paper_clusters(seed=SEED)["torus"]
        model = FailureModel(cluster, host_crash_rate=0.15, link_degrade_rate=0.2)
        result = run_chaos(
            cluster, n_events=1000, seed=SEED, model=model, selfcheck=True
        )
        assert result.n_events == 1000
        assert result.admitted > 0
        assert result.validations > 0
        # Accounting closes: everything admitted either departed, was
        # shed, or is still alive at the end.
        assert (
            result.admitted
            == result.departed + result.shed + result.final_tenants
        )

    def test_switch_failure_healing(self):
        """Losing one cascade switch triggers repairs (re-placement
        away from the partition or graceful shedding) and the run still
        passes every validation."""
        cluster = switched_cluster(40, ports=16, seed=SEED)
        model = FailureModel(
            cluster, switch_fail_rate=0.3, max_dead_fraction=0.34
        )
        result = run_chaos(
            cluster, n_events=300, seed=SEED, model=model, selfcheck=True
        )
        triggers = {r.trigger for r in result.repairs}
        assert "switch_fail" in triggers

    def test_shedding_can_be_disabled(self, switched):
        policy = RepairPolicy(shed=False)
        model = FailureModel(switched, host_crash_rate=0.5, max_dead_fraction=0.5)
        result = run_chaos(
            switched, n_events=80, seed=SEED, model=model, policy=policy,
            selfcheck=True,
        )
        assert result.shed == 0

    def test_survivability_metrics(self, switched):
        result = run_chaos(switched, n_events=120, seed=SEED, selfcheck=True)
        summary = survivability(result)
        assert 0.0 <= summary["availability"] <= 1.0
        assert 0.0 <= summary["acceptance_ratio"] <= 1.0
        assert summary["guests_alive_peak"] >= summary["guests_alive_mean"] >= 0
        assert summary["repairs"] == len(result.repairs)
        assert summary["objective_drift"] >= 0.0

    def test_operator_exposes_live_state(self, switched):
        operator = ChaosOperator(switched, seed=SEED)
        trace = FailureModel(switched).trace(60, seed=SEED)
        result = operator.run(trace)
        assert len(operator.live_tenants) == result.final_tenants
        placed = sum(
            len(m.assignments) for m in operator.live_tenants.values()
        )
        assert placed == result.final_guests


# ----------------------------------------------------------------------
# Determinism: repeat runs, worker processes
# ----------------------------------------------------------------------


def _chaos_json(seed: int) -> str:
    """Run one chaos experiment and return its canonical JSON (used
    both in-process and from worker processes)."""
    cluster = paper_clusters(seed=SEED)["switched"]
    model = FailureModel(cluster, host_crash_rate=0.2, link_degrade_rate=0.2)
    result = run_chaos(
        cluster,
        n_events=120,
        seed=seed,
        model=model,
        selfcheck=True,
    )
    return json.dumps(result.to_dict(include_wall=False), sort_keys=True)


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        assert _chaos_json(11) == _chaos_json(11)

    def test_different_seeds_differ(self):
        assert _chaos_json(11) != _chaos_json(12)

    def test_worker_processes_byte_identical(self):
        """Two subprocesses and the parent all produce the same bytes —
        chaos runs survive process-pool execution (``workers>1``)."""
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_chaos_json, 11) for _ in range(2)]
            remote = [f.result(timeout=300) for f in futures]
        assert remote[0] == remote[1] == _chaos_json(11)
