"""Experiment batch runner — the harness behind Tables 2-3 and Figure 1.

One **cell** of the paper's experiment grid is (scenario, cluster,
heuristic, repetition): generate the repetition's virtual environment,
run the heuristic, validate the mapping (a mapper bug must surface as a
failure, never as a fake success), then simulate the emulated
experiment over it.  :func:`run_grid` sweeps any subset of the grid and
returns flat :class:`RunRecord` rows; :func:`aggregate` folds them into
per-cell means and failure counts, which the table renderers consume.

Seeding: every cell derives its streams from
``derive(base_seed, scenario_label, rep, ...)`` so records are
reproducible independently of execution order, and — as in the paper —
all heuristics of the same (scenario, rep) see the **same** virtual
environment.

Execution: cells are expanded into picklable :class:`CellSpec` work
items and handed to a :class:`BatchRunner`, which either runs them
serially (``workers=1``) or fans them out over the library's one
crash-tolerant :class:`~repro._workers.WorkerPool` (persistent worker
processes, one pool per :meth:`BatchRunner.run`) and returns the
records in the deterministic cell order — so a parallel sweep returns
byte-for-byte the same records as a serial one, modulo wall-clock
fields.

Fault tolerance is the pool's one retry rule: a cell that crashes its
worker process, raises an unexpected exception, or exceeds the per-cell
``timeout`` is retried a capped number of times and then filed as an
``ok=False`` record carrying ``RetriesExhaustedError:<reason>`` — one
bad cell can no longer kill the whole grid.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping as TMapping, Sequence

from repro import obs
from repro._workers import Outcome, WorkerPool, resolve_budget
from repro.baselines.registry import get_mapper
from repro.core.cluster import PhysicalCluster
from repro.core.validate import validate_mapping
from repro.errors import MappingError, ModelError, ValidationError
from repro.seeding import derive
from repro.simulator.experiment import run_experiment
from repro.simulator.workload_model import ExperimentSpec
from repro.workload.scenario import Scenario

__all__ = [
    "RunRecord",
    "CellSpec",
    "CellStats",
    "BatchRunner",
    "run_cell",
    "expand_cells",
    "run_grid",
    "aggregate",
]


@dataclass(frozen=True, slots=True)
class RunRecord:
    """One (scenario, cluster, mapper, repetition) outcome."""

    scenario: str
    cluster: str
    mapper: str
    rep: int
    ok: bool
    #: Eq. 10 value of the produced mapping (None on failure).
    objective: float | None = None
    #: Wall seconds the mapper took.
    map_seconds: float | None = None
    #: Wall seconds the DES experiment simulation took (Table 3 metric).
    sim_seconds: float | None = None
    #: Simulated experiment execution time (correlation-study metric).
    makespan: float | None = None
    #: Virtual links in the instance / routed inter-host.
    n_vlinks: int = 0
    n_routed: int = 0
    failure: str = ""
    extra: TMapping[str, object] = field(default_factory=dict)


def run_cell(
    cluster: PhysicalCluster,
    cluster_name: str,
    scenario: Scenario,
    mapper_name: str,
    rep: int,
    *,
    base_seed: int = 0,
    spec: ExperimentSpec | None = None,
    simulate: bool = True,
    mapper_kwargs: TMapping[str, object] | None = None,
) -> RunRecord:
    """Execute one grid cell and return its record.

    Mapper failures (any :class:`~repro.errors.MappingError`) become
    ``ok=False`` records carrying the failure class name; mapping
    *validation* failures also count as failures (and name the violated
    constraint), so no invalid mapping can contribute statistics.
    """
    try:
        venv = scenario.build_venv(cluster, seed=derive(base_seed, scenario.label, rep, "venv"))
    except ModelError:
        # No aggregate-feasible instance exists for this host draw: the
        # cell is unmappable by construction for every heuristic.
        return RunRecord(
            scenario=scenario.label,
            cluster=cluster_name,
            mapper=mapper_name,
            rep=rep,
            ok=False,
            failure="InfeasibleInstance",
        )
    mapper = get_mapper(mapper_name)
    mapper_seed = derive(base_seed, scenario.label, rep, "mapper", mapper_name)
    kwargs = dict(mapper_kwargs or {})
    if isinstance(kwargs.get("config"), TMapping):
        # JSON-friendly cell specs: a config dict round-trips through
        # HMNConfig.from_dict so grids can be described without
        # importing the dataclass in the submitting layer.
        from repro.hmn.config import HMNConfig

        kwargs["config"] = HMNConfig.from_dict(kwargs["config"])

    t0 = time.perf_counter()
    try:
        mapping = mapper(cluster, venv, seed=mapper_seed, **kwargs)
    except MappingError as exc:
        return RunRecord(
            scenario=scenario.label,
            cluster=cluster_name,
            mapper=mapper_name,
            rep=rep,
            ok=False,
            map_seconds=time.perf_counter() - t0,
            n_vlinks=venv.n_vlinks,
            failure=type(exc).__name__,
        )
    map_seconds = time.perf_counter() - t0

    try:
        validate_mapping(cluster, venv, mapping)
    except ValidationError as exc:
        return RunRecord(
            scenario=scenario.label,
            cluster=cluster_name,
            mapper=mapper_name,
            rep=rep,
            ok=False,
            map_seconds=map_seconds,
            n_vlinks=venv.n_vlinks,
            failure=f"ValidationError:{exc.constraint}",
        )

    sim_seconds = None
    makespan = None
    if simulate:
        result = run_experiment(
            cluster,
            venv,
            mapping,
            spec,
            rng=derive(base_seed, scenario.label, rep, "experiment"),
        )
        sim_seconds = result.wall_seconds
        makespan = result.makespan

    n_routed = sum(1 for p in mapping.paths.values() if len(p) > 1)
    extra: dict[str, object] = {"stages": {s.name: s.elapsed_s for s in mapping.stages}}
    timings = mapping.meta.get("timings")
    if timings:
        extra["timings"] = dict(timings)
        if "cache_hit_rate" in timings:
            extra["cache_hit_rate"] = timings["cache_hit_rate"]
    return RunRecord(
        scenario=scenario.label,
        cluster=cluster_name,
        mapper=mapper_name,
        rep=rep,
        ok=True,
        objective=mapping.objective(cluster, venv),
        map_seconds=map_seconds,
        sim_seconds=sim_seconds,
        makespan=makespan,
        n_vlinks=venv.n_vlinks,
        n_routed=n_routed,
        extra=extra,
    )


@dataclass(frozen=True)
class CellSpec:
    """One grid cell as a self-contained, picklable work item.

    Everything a worker process needs is carried by value (the cluster
    object, the scenario, the experiment spec), so a spec can be
    executed in any process with no shared state.  Its :attr:`key`
    identifies the cell independently of execution order — the merge
    key of :class:`BatchRunner`.
    """

    cluster: PhysicalCluster
    cluster_name: str
    scenario: Scenario
    mapper: str
    rep: int
    base_seed: int = 0
    spec: ExperimentSpec | None = None
    simulate: bool = True
    mapper_kwargs: TMapping[str, object] | None = None

    @property
    def key(self) -> tuple:
        """Deterministic identity: (seed, scenario, rep, cluster, mapper)."""
        return (self.base_seed, self.scenario.label, self.rep, self.cluster_name, self.mapper)

    def execute(self) -> RunRecord:
        """Run this cell in the current process."""
        return run_cell(
            self.cluster,
            self.cluster_name,
            self.scenario,
            self.mapper,
            self.rep,
            base_seed=self.base_seed,
            spec=self.spec,
            simulate=self.simulate,
            mapper_kwargs=self.mapper_kwargs,
        )


def _execute_cell(specs: Sequence[CellSpec], index: int) -> RunRecord:
    """Worker-pool task function: run cell *index* of the batch.

    The batch is the pool's fixed context, so a fork-started worker
    inherits every spec and only an index crosses the pipe per cell.
    """
    return specs[index].execute()


def _error_record(spec: CellSpec, reason: str) -> RunRecord:
    """The ``ok=False`` record filed when a cell exhausts its attempts."""
    return RunRecord(
        scenario=spec.scenario.label,
        cluster=spec.cluster_name,
        mapper=spec.mapper,
        rep=spec.rep,
        ok=False,
        failure=f"RetriesExhaustedError:{reason}",
    )


class BatchRunner:
    """Executes a batch of :class:`CellSpec` work items, optionally in
    parallel, tolerating crashed and hung cells.

    Parameters
    ----------
    workers:
        ``1`` (default) runs everything serially in-process — no
        subprocess, no pickling, bit-identical to the historical serial
        runner (unless a *timeout* forces the preemptible path, below).
        ``> 1`` runs up to that many cells concurrently on persistent
        worker processes, started per :meth:`run` call; cells are fully
        independent (per-cell derived seeding, no shared stream state),
        so the records are identical to a serial run except for
        wall-clock fields, which measure the same work under whatever
        CPU contention the fan-out creates.  A worker that dies takes
        only its own cell attempt down, never the batch: it is
        replaced and the cell retried.
    progress:
        Optional callback invoked with each finished
        :class:`RunRecord` — in submission order when serial, in
        completion order when parallel.
    timeout:
        Per-cell wall-clock budget in seconds (default: the
        ``REPRO_CELL_TIMEOUT`` environment variable, unset/non-positive
        meaning no limit).  Any timeout — even with ``workers=1`` —
        routes cells through worker processes, since an in-process cell
        cannot be preempted; a cell past its deadline has its worker
        terminated and replaced, and counts as a failed attempt.
    retries:
        How many times a crashed/hung/raising cell is re-attempted
        before an error record is filed (default: the
        ``REPRO_CELL_RETRIES`` environment variable, else 1).  The
        record reuses :class:`~repro.errors.RetriesExhaustedError` as
        its failure label: ``RetriesExhaustedError:<reason>``.

    The output list follows the input spec order, never the completion
    order.  Duplicate ``(base seed, scenario, rep, cluster, mapper)``
    keys are rejected up front on every path.
    """

    __slots__ = ("workers", "progress", "timeout", "retries")

    def __init__(
        self,
        workers: int = 1,
        *,
        progress: Callable[[RunRecord], None] | None = None,
        timeout: float | None = None,
        retries: int | None = None,
    ) -> None:
        if workers < 1:
            raise ModelError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.progress = progress
        self.timeout, self.retries = resolve_budget(timeout, retries)

    def run(self, specs: Sequence[CellSpec]) -> list[RunRecord]:
        """Execute all *specs*, returning records in spec order."""
        specs = list(specs)
        keys = [spec.key for spec in specs]
        if len(set(keys)) != len(keys):
            raise ModelError("duplicate cell keys in batch; cells must be distinct")

        with obs.OBS.span(
            "batch.run", n_cells=len(specs), workers=self.workers, retries=self.retries
        ):
            if not specs or (self.workers == 1 and self.timeout is None):
                return self._run_serial(specs)
            return self._run_pool(specs)

    def _cell_attrs(self, spec: CellSpec, attempt: int) -> dict:
        return {
            "scenario": spec.scenario.label,
            "cluster": spec.cluster_name,
            "mapper": spec.mapper,
            "rep": spec.rep,
            "attempt": attempt,
            "timeout": self.timeout,
        }

    # ------------------------------------------------------------------
    # serial path (in-process, preserves historical bit-identity)
    # ------------------------------------------------------------------
    def _run_serial(self, specs: list[CellSpec]) -> list[RunRecord]:
        rec = obs.OBS
        records = []
        for spec in specs:
            record = None
            for attempt in range(self.retries + 1):
                with rec.span("batch.cell", **self._cell_attrs(spec, attempt)) as sp:
                    try:
                        record = spec.execute()
                        sp.set(ok=record.ok, worker_pid=os.getpid())
                        break
                    except Exception as exc:
                        sp.set(ok=False, error=type(exc).__name__, worker_pid=os.getpid())
                        if attempt >= self.retries:
                            record = _error_record(spec, f"{type(exc).__name__}: {exc}")
            records.append(record)
            if self.progress is not None:
                self.progress(record)
        return records

    # ------------------------------------------------------------------
    # worker-pool path (parallel and/or preemptible)
    # ------------------------------------------------------------------
    def _run_pool(self, specs: list[CellSpec]) -> list[RunRecord]:
        records: list[RunRecord | None] = [None] * len(specs)

        def settle(index: int, outcome: Outcome) -> None:
            records[index] = (
                outcome.value if outcome.ok else _error_record(specs[index], outcome.value)
            )
            if self.progress is not None:
                self.progress(records[index])

        with WorkerPool(
            _execute_cell,
            (specs,),
            min(self.workers, len(specs)),
            timeout=self.timeout,
            retries=self.retries,
        ) as pool:
            outcomes = pool.run(range(len(specs)), on_done=settle)
        self._merge_traces(specs, records, outcomes)
        return records

    def _merge_traces(
        self, specs: list[CellSpec], records: list[RunRecord], outcomes: list[Outcome]
    ) -> None:
        """Adopt worker spans into the parent trace, cell by cell.

        Each attempt becomes one ``batch.cell`` span in the parent
        (worker pid, attempt, outcome) with the worker's own spans
        re-parented beneath it — so a parallel sweep's trace holds the
        same span multiset as a serial one, modulo pids and clocks.
        """
        rec = obs.OBS
        if not rec.enabled:
            return
        for spec, record, outcome in zip(specs, records, outcomes):
            for attempt, pid, error, spans in outcome.attempts:
                with rec.span(
                    "batch.cell",
                    ok=record.ok if error is None else False,
                    worker_pid=pid,
                    **self._cell_attrs(spec, attempt),
                    **({} if error is None else {"error": error}),
                ) as sp:
                    rec.adopt(spans, parent=sp.id)


def expand_cells(
    clusters,
    scenarios: Sequence[Scenario],
    mappers: Sequence[str],
    *,
    reps: int = 1,
    base_seed: int = 0,
    spec: ExperimentSpec | None = None,
    simulate: bool = True,
    mapper_kwargs: TMapping[str, TMapping[str, object]] | None = None,
) -> list[CellSpec]:
    """Expand a grid description into its :class:`CellSpec` work items.

    *clusters* is either a fixed ``{name: PhysicalCluster}`` mapping or
    a callable ``seed -> {name: PhysicalCluster}`` invoked once per
    (scenario, repetition); cluster construction always happens here,
    in the submitting process, so the expansion is identical no matter
    where the cells later execute.
    """
    out: list[CellSpec] = []
    for scenario in scenarios:
        for rep in range(reps):
            if callable(clusters):
                rep_clusters = clusters(derive(base_seed, scenario.label, rep, "hosts"))
            else:
                rep_clusters = clusters
            for cluster_name, cluster in rep_clusters.items():
                for mapper_name in mappers:
                    out.append(
                        CellSpec(
                            cluster=cluster,
                            cluster_name=cluster_name,
                            scenario=scenario,
                            mapper=mapper_name,
                            rep=rep,
                            base_seed=base_seed,
                            spec=spec,
                            simulate=simulate,
                            mapper_kwargs=(mapper_kwargs or {}).get(mapper_name),
                        )
                    )
    return out


def run_grid(
    clusters,
    scenarios: Sequence[Scenario],
    mappers: Sequence[str],
    *,
    reps: int = 1,
    base_seed: int = 0,
    spec: ExperimentSpec | None = None,
    simulate: bool = True,
    mapper_kwargs: TMapping[str, TMapping[str, object]] | None = None,
    progress=None,
    workers: int = 1,
    timeout: float | None = None,
    retries: int | None = None,
) -> list[RunRecord]:
    """Sweep the experiment grid; returns one record per cell.

    *clusters* is either a fixed ``{name: PhysicalCluster}`` mapping, or
    a callable ``seed -> {name: PhysicalCluster}`` invoked once per
    (scenario, repetition) — the paper's setup, where each test draws a
    fresh random host set and builds both topologies over it (pass
    :func:`repro.workload.paper_clusters`).

    *mapper_kwargs* optionally maps mapper name -> extra keyword
    arguments (e.g. retry budgets).  *progress*, if given, is called
    with each finished :class:`RunRecord` — hook for long sweeps.

    ``workers > 1`` fans cells out over :class:`BatchRunner` worker
    processes; records come back in the deterministic cell order
    regardless of completion order, identical to a serial run except
    for the wall-clock fields (``map_seconds`` etc.), which measure the
    same work but under whatever CPU contention the fan-out creates.
    Use ``workers=1`` for timing-sensitive sweeps like Figure 1.

    *timeout*/*retries* bound each cell's wall clock and re-attempts
    (see :class:`BatchRunner`); a cell past its budget is filed as an
    error record instead of stalling or failing the sweep.
    """
    cells = expand_cells(
        clusters,
        scenarios,
        mappers,
        reps=reps,
        base_seed=base_seed,
        spec=spec,
        simulate=simulate,
        mapper_kwargs=mapper_kwargs,
    )
    return BatchRunner(workers, progress=progress, timeout=timeout, retries=retries).run(cells)


@dataclass(frozen=True, slots=True)
class CellStats:
    """Aggregated outcomes of one (scenario, cluster, mapper) cell."""

    scenario: str
    cluster: str
    mapper: str
    runs: int
    failures: int
    mean_objective: float | None
    mean_map_seconds: float | None
    mean_sim_seconds: float | None
    mean_makespan: float | None

    @property
    def all_failed(self) -> bool:
        return self.failures == self.runs


def _mean_or_none(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def aggregate(records: Iterable[RunRecord]) -> dict[tuple[str, str, str], CellStats]:
    """Fold records into per-cell statistics keyed by
    ``(scenario, cluster, mapper)``.  Means cover successful runs only,
    as in the paper (failed runs contribute to the failure count)."""
    buckets: dict[tuple[str, str, str], list[RunRecord]] = {}
    for r in records:
        buckets.setdefault((r.scenario, r.cluster, r.mapper), []).append(r)
    out: dict[tuple[str, str, str], CellStats] = {}
    for key, rows in buckets.items():
        ok_rows = [r for r in rows if r.ok]
        out[key] = CellStats(
            scenario=key[0],
            cluster=key[1],
            mapper=key[2],
            runs=len(rows),
            failures=len(rows) - len(ok_rows),
            mean_objective=_mean_or_none([r.objective for r in ok_rows if r.objective is not None]),
            mean_map_seconds=_mean_or_none(
                [r.map_seconds for r in ok_rows if r.map_seconds is not None]
            ),
            mean_sim_seconds=_mean_or_none(
                [r.sim_seconds for r in ok_rows if r.sim_seconds is not None]
            ),
            mean_makespan=_mean_or_none([r.makespan for r in ok_rows if r.makespan is not None]),
        )
    return out


def records_to_dicts(records: Iterable[RunRecord]) -> list[dict]:
    """JSON-ready representation of a record list (for persisting runs)."""
    out = []
    for r in records:
        d = {
            "scenario": r.scenario,
            "cluster": r.cluster,
            "mapper": r.mapper,
            "rep": r.rep,
            "ok": r.ok,
            "objective": r.objective,
            "map_seconds": r.map_seconds,
            "sim_seconds": r.sim_seconds,
            "makespan": r.makespan,
            "n_vlinks": r.n_vlinks,
            "n_routed": r.n_routed,
            "failure": r.failure,
        }
        out.append(d)
    return out


__all__.append("records_to_dicts")
