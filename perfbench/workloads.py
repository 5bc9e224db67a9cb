"""The four canonical workloads.

Each workload builds its inputs from the workload seed alone, in three
phases the runner times separately:

``setup``
    Build the substrate and (for the service) open the service and its
    store: everything between the workload's start and its first
    request being ready to send.  The compiled kernels are loaded once
    per process before the first setup (:func:`load_kernels`).
``generate``
    Draw the virtual environments and arrival schedule.  Never timed
    into any end-to-end metric.
``run_pass``
    Send every request once and check the outputs (the check is outside
    the timed regions).

See ``README.md`` beside this file for why each workload exists.
"""

from __future__ import annotations

import asyncio
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.api import map_virtual_env
from repro.core.cluster import PhysicalCluster
from repro.core.venv import VirtualEnvironment
from repro.errors import MappingError, ModelError
from repro.hmn.config import HMNConfig
from repro.routing._cbuild import load_kernel
from repro.seeding import derive
from repro.service import MapRequest, ServiceCore, ServiceHandle, open_service
from repro.shard._kernel import load_stitch_kernel
from repro.topology import fat_tree_cluster
from repro.workload import LOW_LEVEL, generate_virtual_environment, paper_clusters, paper_scenarios

from gate import GateError, check_mapping, combine

__all__ = [
    "WORKLOADS", "KernelUnavailable", "PassResult", "SLO_S", "load_kernels", "make_workloads",
]

#: Latency limit behind ``slo_ratio``: decided within this many seconds
#: of the request's due time.
SLO_S = 0.5


@dataclass
class PassResult:
    """What one pass over a workload's requests produced."""

    #: Per sent request: seconds from its due time to its decision.
    latencies: list[float] = field(default_factory=list)
    #: Per operation, in send order: seconds the system spent serving
    #: it (the timed region).
    service_s: list[float] = field(default_factory=list)
    #: Virtual links of successfully mapped / admitted environments.
    vlinks_ok: int = 0
    sent: int = 0
    #: Requests that ended without a mapping (MappingError, rejection).
    failures: int = 0
    #: Service only: tenants the service rejected.
    rejected: int = 0
    #: Instances with no aggregate-feasible draw; never sent.
    infeasible: int = 0
    objectives: list[float] = field(default_factory=list)
    slo_met: int = 0
    #: Ordered per-request outcomes; their hash is the pass digest.
    outcomes: list[Any] = field(default_factory=list)
    #: Largest lateness of a send against its due time.
    lag_max_s: float = 0.0
    #: Service only: tenant -> send time, for queue-wait accounting.
    sent_at: dict[Any, float] = field(default_factory=dict)
    store_bytes: int = 0
    #: Batch only: per request, its Mapping or failure class name.
    mappings: list[Any] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return combine(self.outcomes)

    @property
    def busy_s(self) -> float:
        return sum(self.service_s)


class KernelUnavailable(RuntimeError):
    """A compiled kernel could not be loaded.

    The pure-Python fallbacks produce the same outputs, so the
    correctness gate cannot tell; a run that silently timed the other
    engine would measure something else than its workload claims."""


def load_kernels() -> float:
    """Load the Algorithm-1 route kernel and the stitch kernel; return
    the seconds it took.  Both are memoized per process, so only the
    first call in a process pays (and may run the C compiler)."""
    t0 = time.perf_counter()
    missing = [
        name
        for name, loader in (("route", load_kernel), ("stitch", load_stitch_kernel))
        if loader() is None
    ]
    if missing:
        raise KernelUnavailable(f"compiled {' and '.join(missing)} kernel unavailable")
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# closed-loop batch workloads
# ----------------------------------------------------------------------
@dataclass
class BatchRequest:
    cluster: PhysicalCluster
    #: ``None`` when no aggregate-feasible instance exists for the draw.
    venv: VirtualEnvironment | None
    config: HMNConfig


class BatchWorkload:
    """Closed loop: one ``map_virtual_env`` call at a time, each on a
    fresh state; a request is due when the previous one completes."""

    reusable = True
    #: Passes a run makes at least, however long they take, so each
    #: operation's median has three samples.
    min_passes = 3

    def __init__(self, name: str) -> None:
        self.name = name

    def setup(self, seed: int, topology_s: list[float]) -> Any:
        raise NotImplementedError

    def generate(self, seed: int, env: Any, seconds: float) -> list[BatchRequest]:
        raise NotImplementedError

    def reference(self, env: Any, requests: list[BatchRequest]) -> None:
        return None

    def digest_key(self, seed: int, requests: list[BatchRequest]) -> str:
        """Key of this run's recorded digest in ``expected.json``."""
        return str(seed)

    def close(self, env: Any) -> None:
        pass

    def run_pass(
        self, env, requests: list[BatchRequest], recorder=None, first: PassResult | None = None
    ) -> PassResult:
        """Map every request once.  The first pass of a run validates and
        digests each mapping; later passes must reproduce *first*'s
        mappings exactly, which is cheaper than validating again."""
        out = PassResult()
        results: list[tuple[Any, float]] = []
        prev_end = None
        for i, req in enumerate(requests):
            if req.venv is None:
                continue
            if recorder is not None:
                recorder.set_request(i)
            t0 = time.perf_counter()
            if prev_end is not None:
                out.lag_max_s = max(out.lag_max_s, t0 - prev_end)
            try:
                result = map_virtual_env(req.cluster, req.venv, config=req.config)
            except MappingError as exc:
                result = type(exc).__name__
            prev_end = time.perf_counter()
            results.append((result, prev_end - t0))

        # -- outside the timed region: counts and the correctness gate --
        done = iter(results)
        for i, req in enumerate(requests):
            if req.venv is None:
                out.infeasible += 1
                out.outcomes.append("infeasible")
                out.mappings.append(None)
                continue
            result, seconds = next(done)
            out.mappings.append(result)
            out.sent += 1
            out.service_s.append(seconds)
            out.latencies.append(seconds)
            if isinstance(result, str):
                out.failures += 1
                out.outcomes.append(f"failed:{result}")
                continue
            if first is None:
                out.outcomes.append(check_mapping(req.cluster, req.venv, result))
            elif same_mapping(result, first.mappings[i]):
                out.outcomes.append(first.outcomes[i])
            else:
                raise GateError(f"request {i}: mapping differs from the run's first pass")
            out.vlinks_ok += req.venv.n_vlinks
            out.objectives.append(result.meta["objective"])
            if seconds <= SLO_S:
                out.slo_met += 1
        if first is not None:
            out.mappings = []  # checked against *first*; keep memory flat
        return out


def same_mapping(a, b) -> bool:
    return (
        not isinstance(b, str)
        and a.assignments == b.assignments
        and a.paths == b.paths
        and a.meta["objective"] == b.meta["objective"]
    )


def _timed(topology_s: list[float], build, *args, **kwargs):
    t0 = time.perf_counter()
    result = build(*args, **kwargs)
    topology_s.append(time.perf_counter() - t0)
    return result


#: Repetitions of the paper grid per pass.  With one repetition's 32
#: cells a seed's figure depends on which few cells fail or draw large
#: instances: ten seeds mapped interleaved in one process, so that they
#: share the host's speed, spread by 6% (interquartile range over the
#: median).  Two repetitions halve that variance.
PAPER_GRID_REPS = 2


class PaperGrid(BatchWorkload):
    """All 16 paper scenarios on both 40-host clusters, Table-2 seeding,
    :data:`PAPER_GRID_REPS` repetitions."""

    def setup(self, seed, topology_s):
        return [
            (s, rep, _timed(topology_s, paper_clusters, derive(seed, s.label, rep, "hosts")))
            for rep in range(PAPER_GRID_REPS)
            for s in paper_scenarios()
        ]

    def generate(self, seed, env, seconds):
        config = HMNConfig()
        requests = []
        for scenario, rep, clusters in env:
            for cluster in (clusters["torus"], clusters["switched"]):
                try:
                    venv = scenario.build_venv(
                        cluster, seed=derive(seed, scenario.label, rep, "venv")
                    )
                except ModelError:
                    venv = None
                requests.append(BatchRequest(cluster, venv, config))
        return requests


class FatTree(BatchWorkload):
    """One sparse (~2.4 average degree) environment on a 1 ms-hop fat tree."""

    def __init__(self, name: str, k: int, n_guests: int, config: HMNConfig) -> None:
        super().__init__(name)
        self.k = k
        self.n_guests = n_guests
        self.config = config

    def setup(self, seed, topology_s):
        return _timed(
            topology_s, fat_tree_cluster, self.k,
            seed=derive(seed, self.name, "hosts"), lat=1.0, allow_giant=True,
        )

    def generate(self, seed, env, seconds):
        venv = generate_virtual_environment(
            self.n_guests,
            density=2.4 / (self.n_guests - 1),
            seed=derive(seed, self.name, "venv"),
        )
        return [BatchRequest(env, venv, self.config)]


# ----------------------------------------------------------------------
# open-loop service workload
# ----------------------------------------------------------------------
#: Offered load: about three quarters of closed-loop capacity on a
#: 2-core x86 box, so queues form and drain.
RATE_PER_S = 8.0
#: Mean tenant lifetime, in arrivals (geometric).
MEAN_LIFETIME = 8.0
#: Seed of the service's host draw, independent of the workload seed.
TESTBED_SEED = 2009


@dataclass
class ChurnTrace:
    venvs: list[VirtualEnvironment]
    #: Due time of arrival *i*, seconds after the schedule starts.
    offsets: list[float]
    #: ``(kind, tenant, arrival index it is due with)`` in send order.
    ops: list[tuple[str, int, int]]


@dataclass
class ServiceEnv:
    cluster: PhysicalCluster
    handle: ServiceHandle
    #: Holds the ``open_service`` context; closing it stops the service.
    stack: ExitStack
    store: Path
    store_bytes: int = 0


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """*n* uniform draws in [0, 1), one in each stratum [i/n, (i+1)/n),
    in random order."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


class ServiceChurn:
    """Open-loop Poisson tenants against a live ``MappingService``."""

    reusable = False
    #: One pass is the whole arrival schedule, which spans *seconds*.
    min_passes = 1

    def __init__(self, name: str, workdir: Path) -> None:
        self.name = name
        self.workdir = workdir

    def setup(self, seed, topology_s) -> ServiceEnv:
        # One fixed testbed: the seed varies the tenant traffic only.
        cluster = _timed(
            topology_s, paper_clusters, derive(TESTBED_SEED, self.name, "hosts")
        )["torus"]
        self.workdir.mkdir(parents=True, exist_ok=True)
        store = self.workdir / f"{self.name}-{os.getpid()}.store"
        store.unlink(missing_ok=True)
        stack = ExitStack()
        handle = stack.enter_context(
            open_service(cluster, config=HMNConfig(), n_workers=1, store=str(store))
        )
        return ServiceEnv(cluster, handle, stack, store)

    def close(self, env: ServiceEnv) -> None:
        """Stop the service and its loop thread; remember the store size."""
        try:
            env.stack.close()
            env.store_bytes = env.store.stat().st_size
        finally:
            env.store.unlink(missing_ok=True)

    def generate(self, seed, env, seconds) -> ChurnTrace:
        # The arrival schedule spans about *seconds*.
        n = max(1, round(RATE_PER_S * seconds))
        # Gaps (exponential), lifetimes (geometric) and sizes (uniform)
        # are stratified draws: the seed decides which tenant gets which
        # value, not the mix, so runs on different seeds offer the same
        # load and their figures can be compared within the bounds.
        gaps = -np.log1p(-_stratified(derive(seed, self.name, "gaps"), n)) / RATE_PER_S
        lifetimes = np.maximum(1, np.ceil(
            np.log1p(-_stratified(derive(seed, self.name, "lifetimes"), n))
            / np.log1p(-1.0 / MEAN_LIFETIME)
        )).astype(int)
        sizes = 100 + np.floor(_stratified(derive(seed, self.name, "sizes"), n) * 300).astype(int)
        venvs = [
            generate_virtual_environment(
                int(sizes[i]), workload=LOW_LEVEL, density=0.02,
                seed=derive(seed, self.name, "venv", i), id_offset=i * 100_000,
            )
            for i in range(n)
        ]
        departing: dict[int, list[int]] = {}
        for j, life in enumerate(lifetimes):
            departing.setdefault(j + int(life), []).append(j)
        ops = []
        for i in range(n):
            ops.extend(("release", j, i) for j in departing.get(i, ()))
            ops.append(("admit", i, i))
        return ChurnTrace(venvs, list(np.cumsum(gaps)), ops)

    def digest_key(self, seed: int, trace: ChurnTrace) -> str:
        # The trace length follows --seconds.
        return f"{seed}/{len(trace.venvs)}"

    def reference(self, env: ServiceEnv, trace: ChurnTrace) -> list:
        """The decision sequence of a sequential ``ServiceCore`` drive
        over the same operations; every admitted mapping is validated."""
        core = ServiceCore(env.cluster, config=HMNConfig())
        decisions: list = []
        for kind, tenant, _ in trace.ops:
            if kind == "release":
                decisions.append(["release", tenant, core.release(tenant)])
                continue
            venv = trace.venvs[tenant]
            decision = core.admit(MapRequest(tenant=tenant, venv=venv))
            if decision.admitted:
                check_mapping(env.cluster, venv, core.live_tenants[tenant])
            decisions.append(decision.to_dict())
        return decisions

    def run_pass(
        self, env: ServiceEnv, trace: ChurnTrace, recorder=None, first: PassResult | None = None
    ) -> PassResult:
        handle = env.handle
        loop = handle._loop  # the service's event loop, for releases
        n_ops = len(trace.ops)
        sent_at = [0.0] * n_ops
        done_at = [0.0] * n_ops
        futures = []

        def stamp(k):
            def callback(_future):
                done_at[k] = time.perf_counter()
            return callback

        out = PassResult()
        start = time.perf_counter() + 0.05
        for k, (kind, tenant, at) in enumerate(trace.ops):
            due = start + trace.offsets[at]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent_at[k] = now = time.perf_counter()
            out.lag_max_s = max(out.lag_max_s, now - due)
            if kind == "admit":
                out.sent_at[tenant] = now
                future = handle.submit_nowait(MapRequest(tenant=tenant, venv=trace.venvs[tenant]))
            else:
                future = asyncio.run_coroutine_threadsafe(handle.service.release(tenant), loop)
            future.add_done_callback(stamp(k))
            futures.append(future)
        results = [f.result(timeout=120) for f in futures]
        handle.drain()
        # The callbacks run on the loop thread; wait for the last stamp.
        deadline = time.monotonic() + 10
        while not all(done_at) and time.monotonic() < deadline:
            time.sleep(0.001)
        if not all(done_at):
            raise RuntimeError("decision timestamps missing")

        # -- outside the timed region -----------------------------------
        # Tickets are decided one at a time in send order, so ticket k
        # is served from max(its send, ticket k-1's decision) to its own
        # decision; the sum is the service's busy time.
        prev_done = 0.0
        for k, ((kind, tenant, at), result) in enumerate(zip(trace.ops, results)):
            out.service_s.append(done_at[k] - max(sent_at[k], prev_done))
            prev_done = done_at[k]
            if kind == "release":
                out.outcomes.append(["release", tenant, result])
                continue
            out.outcomes.append(result.to_dict())
            latency = done_at[k] - (start + trace.offsets[at])
            out.sent += 1
            out.latencies.append(latency)
            if result.admitted:
                out.vlinks_ok += trace.venvs[tenant].n_vlinks
                out.objectives.append(result.objective)
                if latency <= SLO_S:
                    out.slo_met += 1
            else:
                out.failures += 1
                out.rejected += 1
        self.close(env)
        out.store_bytes = env.store_bytes
        return out


def make_workloads(workdir: Path) -> dict[str, Any]:
    return {
        "paper-grid": PaperGrid("paper-grid"),
        "mono-fat-tree-1024": FatTree(
            "mono-fat-tree-1024", 16, 1500, HMNConfig(router="label_setting", shard="off"),
        ),
        "sharded-fat-tree-8k": FatTree(
            "sharded-fat-tree-8k", 32, 6000, HMNConfig(shard="auto", shard_workers=1),
        ),
        "service-churn": ServiceChurn("service-churn", workdir),
    }


WORKLOADS = (
    "paper-grid",
    "mono-fat-tree-1024",
    "sharded-fat-tree-8k",
    "service-churn",
)
