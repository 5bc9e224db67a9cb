"""Determinism tests for the parallel batch runner.

The contract of :class:`~repro.analysis.runner.BatchRunner` is that the
pool is invisible in the results: a ``workers=4`` sweep over a fixed
seed must return byte-identical result tables to ``workers=1`` — same
records, same order, same rendered tables — differing only in the
wall-clock fields (which measure real time and therefore cannot be
deterministic).  Run on a Table 2/3-style suite: both paper topologies,
two grid scenarios, two repetitions, a failure-prone retrying mapper.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.analysis import (
    BatchRunner,
    CellSpec,
    expand_cells,
    records_to_dicts,
    render_table2,
)
from repro.api import run_grid
from repro.baselines import register_mapper
from repro.errors import ConfigError, ModelError
from repro.simulator import ExperimentSpec
from repro.topology import switched_cluster, torus_cluster
from repro.workload import HIGH_LEVEL, Scenario

SCENARIOS = [
    Scenario(ratio=2.5, density=0.05, workload=HIGH_LEVEL),
    Scenario(ratio=5.0, density=0.05, workload=HIGH_LEVEL),
]
MAPPERS = ["hmn", "random+astar"]
MAPPER_KWARGS = {"random+astar": {"max_tries": 3}}
SPEC = ExperimentSpec(compute_seconds=100.0, comm_seconds=5.0)


def small_clusters(seed):
    """Table 2/3 shape at test scale: both topologies, shared seed."""
    return {
        "torus": torus_cluster(2, 4, seed=seed),
        "switched": switched_cluster(8, seed=seed),
    }


def serialized(records) -> str:
    """Records as JSON with the wall-clock fields nulled.

    ``records_to_dicts`` already excludes ``extra`` (whose stage/timing
    entries are wall times); ``map_seconds``/``sim_seconds`` are the
    only remaining nondeterministic fields.
    """
    rows = records_to_dicts(records)
    for row in rows:
        row["map_seconds"] = None
        row["sim_seconds"] = None
    return json.dumps(rows, sort_keys=True)


def sweep(workers: int):
    return run_grid(
        small_clusters,
        SCENARIOS,
        MAPPERS,
        reps=2,
        base_seed=2009,
        spec=SPEC,
        mapper_kwargs=MAPPER_KWARGS,
        workers=workers,
    )


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial_records(self):
        return sweep(workers=1)

    @pytest.fixture(scope="class")
    def parallel_records(self):
        return sweep(workers=4)

    def test_byte_identical_records(self, serial_records, parallel_records):
        assert serialized(parallel_records) == serialized(serial_records)

    def test_byte_identical_table2(self, serial_records, parallel_records):
        # Table 2 renders objectives and failure counts (no wall times),
        # so even the rendered artifact must match byte for byte.
        assert render_table2(parallel_records) == render_table2(serial_records)

    def test_record_order_is_expansion_order(self, serial_records, parallel_records):
        keys = [(r.scenario, r.cluster, r.mapper, r.rep) for r in parallel_records]
        assert keys == [(r.scenario, r.cluster, r.mapper, r.rep) for r in serial_records]
        cells = expand_cells(
            small_clusters, SCENARIOS, MAPPERS, reps=2, base_seed=2009,
            spec=SPEC, mapper_kwargs=MAPPER_KWARGS,
        )
        assert keys == [(c.scenario.label, c.cluster_name, c.mapper, c.rep) for c in cells]

    def test_makespans_deterministic(self, serial_records, parallel_records):
        # The DES is seeded; its simulated makespan (unlike its wall
        # time) must survive process-pool execution exactly.
        for serial, parallel in zip(serial_records, parallel_records):
            assert parallel.makespan == serial.makespan


class TestBatchRunner:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ModelError):
            BatchRunner(0)

    def test_rejects_duplicate_keys(self):
        cells = expand_cells(
            small_clusters, SCENARIOS[:1], ["hmn"], reps=1, base_seed=1, simulate=False,
        )
        with pytest.raises(ModelError, match="duplicate"):
            BatchRunner(2).run(cells + cells)

    def test_progress_called_once_per_cell(self):
        cells = expand_cells(
            small_clusters, SCENARIOS[:1], MAPPERS, reps=1, base_seed=1,
            simulate=False, mapper_kwargs=MAPPER_KWARGS,
        )
        seen = []
        records = BatchRunner(2, progress=seen.append).run(cells)
        assert len(seen) == len(cells)
        # Completion order may differ from spec order; the set must not.
        assert {id(r) for r in seen} == {id(r) for r in records}

    def test_spec_execute_matches_run_cell_path(self):
        spec = expand_cells(
            small_clusters, SCENARIOS[:1], ["hmn"], reps=1, base_seed=7, simulate=False,
        )[0]
        assert isinstance(spec, CellSpec)
        record = spec.execute()
        assert record.ok
        assert (record.scenario, record.cluster, record.mapper, record.rep) == (
            spec.scenario.label, spec.cluster_name, spec.mapper, spec.rep,
        )
        # Serial BatchRunner returns exactly what execute() computes.
        again = BatchRunner(1).run([spec])[0]
        assert serialized([again]) == serialized([record])


# ----------------------------------------------------------------------
# Crash tolerance: a crashed or hung worker must not kill the grid
# ----------------------------------------------------------------------

# Registered at import time so fork-started worker processes inherit
# them through the registry.
def _crash_mapper(cluster, venv, *, seed=None, **kwargs):
    os._exit(13)


def _hang_mapper(cluster, venv, *, seed=None, **kwargs):
    time.sleep(600)


def _boom_mapper(cluster, venv, *, seed=None, **kwargs):
    raise RuntimeError("boom")


register_mapper("test-crash", _crash_mapper, overwrite=True)
register_mapper("test-hang", _hang_mapper, overwrite=True)
register_mapper("test-boom", _boom_mapper, overwrite=True)


def hostile_cells(mappers):
    return expand_cells(
        small_clusters, SCENARIOS[:1], list(mappers), reps=1, base_seed=2009,
        simulate=False, mapper_kwargs=MAPPER_KWARGS,
    )


class TestCrashTolerance:
    def test_validation(self):
        with pytest.raises(ModelError):
            BatchRunner(1, timeout=0.0)
        with pytest.raises(ModelError):
            BatchRunner(1, retries=-1)

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "7.5")
        monkeypatch.setenv("REPRO_CELL_RETRIES", "3")
        runner = BatchRunner(2)
        assert runner.timeout == 7.5
        assert runner.retries == 3
        # Unset / non-positive means "no timeout".
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "0")
        assert BatchRunner(2).timeout is None

    @pytest.mark.parametrize(
        "name, raw",
        [
            ("REPRO_CELL_TIMEOUT", "abc"),
            ("REPRO_CELL_RETRIES", "-1"),
            ("REPRO_CELL_RETRIES", "two"),
        ],
    )
    def test_env_bad_values_name_the_variable(self, monkeypatch, name, raw):
        # One parser serves both worker-pool clients: the batch runner
        # and the sharded pipeline's pod pool reject the same values.
        from repro.core.state import ClusterState
        from repro.hmn.config import HMNConfig
        from repro.shard.parallel import PodPool
        from repro.workload import generate_virtual_environment

        monkeypatch.setenv(name, raw)
        with pytest.raises(ConfigError, match=name):
            BatchRunner(2)
        cluster = switched_cluster(8, seed=1)
        venv = generate_virtual_environment(6, density=0.4, seed=1)
        with pytest.raises(ConfigError, match=name):
            PodPool(ClusterState(cluster), venv, HMNConfig(), 2)

    def test_serial_path_rejects_duplicate_keys(self):
        cells = hostile_cells(["hmn"])
        with pytest.raises(ModelError, match="duplicate"):
            BatchRunner(1).run(cells + cells)

    def test_serial_retries_then_error_record(self):
        cells = hostile_cells(["test-boom", "hmn"])
        records = BatchRunner(1, retries=1).run(cells)
        by_mapper = {r.mapper: r for r in records}
        boom = [r for r in records if r.mapper == "test-boom"][0]
        assert not boom.ok
        assert boom.failure == "RetriesExhaustedError:RuntimeError: boom"
        assert all(r.ok for r in records if r.mapper == "hmn")
        assert len(by_mapper["hmn"].scenario) > 0  # real records alongside

    def test_crash_and_hang_do_not_kill_the_grid(self):
        """The acceptance scenario: a grid with one crashing and one
        hanging cell finishes, files error records for those two and
        correct records for everything else."""
        cells = hostile_cells(["hmn", "test-crash", "test-hang", "random+astar"])
        t0 = time.monotonic()
        records = BatchRunner(3, timeout=2.0, retries=1).run(cells)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0  # nobody waited for the 600s sleep
        assert len(records) == len(cells)
        # Results stay in spec order even though completion interleaves.
        assert [r.mapper for r in records] == [c.mapper for c in cells]
        for record in records:
            if record.mapper == "test-crash":
                assert not record.ok
                assert record.failure == (
                    "RetriesExhaustedError:WorkerCrash(exitcode=13)"
                )
            elif record.mapper == "test-hang":
                assert not record.ok
                assert record.failure == "RetriesExhaustedError:Timeout(2s)"
            else:
                assert record.ok, record.failure

    def test_process_path_matches_serial_for_healthy_cells(self):
        cells = hostile_cells(["hmn", "random+astar"])
        serial = BatchRunner(1).run(cells)
        parallel = BatchRunner(2, timeout=120.0).run(cells)
        assert serialized(parallel) == serialized(serial)
