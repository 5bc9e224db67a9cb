"""Process-parallel execution of the sharded pod stages.

The shard pipeline's Hosting and Migration stages are embarrassingly
parallel: every pod works on a disjoint host set against its own
:class:`~repro.shard.vectorized.PodState`, and the only cross-pod step
(the overflow rescue) runs in the parent between the two stages.  This
module exploits that:

* :class:`SharedSubstrate` publishes the substrate's flat arrays — the
  :class:`~repro.core.arrays.ArrayState` residual vectors (memory,
  storage, CPU, bandwidth), the blocked-host mask, and the compiled
  CSR topology — into one :mod:`multiprocessing.shared_memory` segment,
  **once** per ``shard_map`` call.  Workers read pod rows straight out
  of the segment; per-task payloads stay at "a few index arrays", not
  "the cluster".
* :class:`PodPool` is a thin client of the library's one crash-tolerant
  :class:`~repro._workers.WorkerPool`, started once per ``shard_map``
  call with the substrate as fixed context.  Pod workers follow that
  pool's one rule: per-task deadlines (``REPRO_CELL_TIMEOUT``), and a
  crashed, hung or raising attempt re-tried up to
  ``REPRO_CELL_RETRIES`` times.  Because a pod task is a pure function
  of the published substrate, a task that exhausts its attempts runs
  **inline** in the parent, byte-identical to what the worker would
  have produced.  A dying worker can therefore slow a mapping down,
  but never change it and never fail it.

**Determinism is the contract.**  Workers never touch shared residuals;
they return their pod's placement/move log and the parent replays it
onto its own pod states in pod-id order — exactly the serial code
path's order — so the mapping digest is byte-identical for any worker
count (pinned by the golden corpus, ``tests/test_shard_parallel.py``,
and a conformance fuzzer arm).

With tracing enabled, each task runs under a fresh worker-side
:class:`~repro.obs.trace.Tracer` and ships its finished span list back
with the result; the parent adopts them in pod-id order, so a parallel
trace holds the same ``shard.pod`` span multiset as a serial one.
"""

from __future__ import annotations

import os
from typing import Hashable, Sequence

import numpy as np

from repro import obs
from repro._workers import WorkerPool, resolve_budget
from repro.errors import ConfigError, ModelError
from repro.hmn.config import HMNConfig
from repro.shard.vectorized import PodState, pod_hosting, pod_migration

__all__ = ["SharedSubstrate", "PodPool", "resolve_shard_workers"]

NodeId = Hashable


def resolve_shard_workers(workers: "int | str", n_pods: int) -> int:
    """Resolve ``HMNConfig.shard_workers`` to an effective pool size.

    ``"auto"`` reads ``REPRO_SHARD_WORKERS`` and falls back to ``1``
    (serial).  The result is clamped to *n_pods* — more workers than
    pods would only idle.  ``1`` means "run the serial code path"; the
    mapping is byte-identical either way.
    """
    if workers == "auto":
        raw = os.environ.get("REPRO_SHARD_WORKERS", "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ConfigError(
                    f"REPRO_SHARD_WORKERS must be an integer, got {raw!r}"
                ) from None
        else:
            workers = 1
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError(
            f"shard_workers must be 'auto' or an integer >= 1, got {workers!r}"
        )
    return max(1, min(workers, n_pods))


# ----------------------------------------------------------------------
# shared-memory substrate snapshot
# ----------------------------------------------------------------------
class SharedSubstrate:
    """A read-only snapshot of the substrate's flat arrays in one
    :class:`multiprocessing.shared_memory.SharedMemory` segment.

    Blocks (all little-endian, C-contiguous):

    ``mem``/``stor``/``cpu``
        Per-host residual memory (int64), storage, CPU (float64) in
        compiled host-row order — what
        :meth:`~repro.shard.vectorized.PodState.from_state` would
        gather host by host.
    ``blocked``
        Per-host blocked mask (uint8).
    ``bw``
        Per-edge residual bandwidth (float64) — the live
        ``ClusterState.bw_array`` at publication time.
    ``adj_off``/``adj_nodes``/``adj_edges``/``adj_lat``
        The compiled topology's CSR, verbatim.

    The segment is written once by :meth:`publish` and never mutated;
    workers slice pod rows out of it with zero copies of the cluster
    object.  Pickling a ``SharedSubstrate`` (spawn-context workers)
    re-attaches by segment name; fork-context workers inherit the
    mapping and skip the attach entirely.
    """

    _FIELDS = (
        "mem", "stor", "cpu", "blocked", "bw",
        "adj_off", "adj_nodes", "adj_edges", "adj_lat",
    )

    def __init__(self, shm, spec: dict, *, owner: bool) -> None:
        self._shm = shm
        self.spec = spec
        self._owner = owner
        for key, dtype_str, count, offset in spec["blocks"]:
            view = np.frombuffer(
                shm.buf, dtype=np.dtype(dtype_str), count=count, offset=offset
            )
            view.flags.writeable = False
            setattr(self, key, view)

    @classmethod
    def publish(cls, state) -> "SharedSubstrate":
        """Snapshot *state*'s flat arrays into a fresh segment."""
        from multiprocessing import shared_memory

        topo = state.topology
        arrays = state.arrays
        hosts = topo.nodes[: topo.n_hosts]
        blocks = {
            "mem": np.frombuffer(arrays.mem, dtype=np.int64),
            "stor": np.frombuffer(arrays.stor, dtype=np.float64),
            "cpu": np.frombuffer(arrays.cpu, dtype=np.float64),
            "blocked": np.array(
                [state.is_blocked(h) for h in hosts], dtype=np.uint8
            ),
            "bw": np.frombuffer(arrays.bw, dtype=np.float64),
            "adj_off": np.frombuffer(topo.adj_offsets, dtype=np.int64),
            "adj_nodes": np.frombuffer(topo.adj_nodes, dtype=np.int64),
            "adj_edges": np.frombuffer(topo.adj_edges, dtype=np.int64),
            "adj_lat": np.frombuffer(topo.adj_lat, dtype=np.float64),
        }
        layout = []
        offset = 0
        for key in cls._FIELDS:
            arr = blocks[key]
            layout.append((key, arr.dtype.str, len(arr), offset))
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        for (key, _, _, off), arr in zip(layout, (blocks[k] for k in cls._FIELDS)):
            dst = np.frombuffer(shm.buf, dtype=arr.dtype, count=len(arr), offset=off)
            dst[:] = arr
        spec = {"name": shm.name, "blocks": layout}
        return cls(shm, spec, owner=True)

    @classmethod
    def _attach(cls, spec: dict) -> "SharedSubstrate":
        """Attach to an existing segment by name (spawn-context path)."""
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(name=spec["name"])
        # The attach registered the segment with this process's resource
        # tracker, which would unlink it when the worker exits; only the
        # publishing parent owns the segment's lifetime.
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker quirks are best-effort
            pass
        return cls(shm, spec, owner=False)

    def __reduce__(self):
        return (SharedSubstrate._attach, (self.spec,))

    def pod_state(self, host_ids: Sequence[NodeId], rows: np.ndarray) -> PodState:
        """Build the pod view for *rows* (compiled host-row indices) —
        value-identical to ``PodState.from_state`` on the publishing
        state."""
        ids = [host_ids[int(r)] for r in rows]
        return PodState(
            ids,
            self.mem[rows],
            self.stor[rows],
            self.cpu[rows],
            self.blocked[rows].astype(bool),
        )

    def close(self) -> None:
        """Drop the views and close the mapping (workers and parent)."""
        for key in self._FIELDS:
            if hasattr(self, key):
                delattr(self, key)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external view
            pass

    def unlink(self) -> None:
        """Free the segment (publisher only; call after :meth:`close`)."""
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------
def _run_task(
    substrate: SharedSubstrate,
    venv,
    config: HMNConfig,
    host_ids: Sequence[NodeId],
    task: tuple,
):
    """Execute one pod task against the shared substrate.

    Pure: reads the substrate snapshot, builds a private
    :class:`PodState`, runs the stage, and returns the decision log —
    identical in any process, which is what makes the inline fallback
    sound.
    """
    kind, pod_id = task[0], task[1]
    rec = obs.OBS
    if kind == "hosting":
        _, _, rows, links, guest_ids = task
        pod = substrate.pod_state(host_ids, rows)
        failures: list[int] = []
        with rec.span(
            "shard.pod", stage="hosting", pod=pod_id,
            hosts=pod.n_hosts, guests=len(guest_ids),
        ):
            stats = pod_hosting(
                pod, venv, links, guest_ids, config, failures=failures
            )
        # dict order == insertion order == placement order: the exact
        # operation sequence the parent must replay for bit-identity.
        return (list(pod.placed.items()), stats, failures)
    if kind == "migration":
        _, _, rows, placements = task
        pod = substrate.pod_state(host_ids, rows)
        for g, pos in placements:
            pod.place(venv.guest(g), pos)
        moves: list[tuple[int, int]] = []
        with rec.span("shard.pod", stage="migration", pod=pod_id):
            stats = pod_migration(pod, venv, config, move_log=moves)
        return (moves, stats)
    raise ModelError(f"unknown pod task kind {kind!r}")


def _pod_task(
    substrate: SharedSubstrate,
    venv,
    config: HMNConfig,
    host_ids: Sequence[NodeId],
    task: tuple,
):
    """The worker pool's task function: :func:`_run_task` in a worker.

    Test hook: ``REPRO_SHARD_TEST_CRASH="<kind>:<pod>"`` makes the
    worker hard-exit on that task, exercising the crash -> retry ->
    inline-fallback path end to end.  Only workers run this function;
    the parent's inline run calls :func:`_run_task` directly, so the
    mapping still succeeds.
    """
    if os.environ.get("REPRO_SHARD_TEST_CRASH") == f"{task[0]}:{task[1]}":
        os._exit(23)
    return _run_task(substrate, venv, config, host_ids, task)


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class PodPool:
    """The pod-stage client of :class:`~repro._workers.WorkerPool`.

    Created once per ``shard_map`` call (both stages reuse the same
    workers and the same published substrate).  :attr:`stats` counts
    ``tasks``, failed worker attempts (``worker_failures``) and tasks
    run inline after exhausting their attempts (``inline_tasks``).
    See the module docstring for the determinism contract.
    """

    def __init__(
        self,
        state,
        venv,
        config: HMNConfig,
        workers: int,
        *,
        timeout: float | None = None,
        retries: int | None = None,
    ) -> None:
        if workers < 2:
            raise ModelError(f"PodPool needs >= 2 workers, got {workers}")
        timeout, retries = resolve_budget(timeout, retries)
        topo = state.topology
        self.substrate = SharedSubstrate.publish(state)
        self._context = (self.substrate, venv, config, topo.nodes[: topo.n_hosts])
        self.stats = {"tasks": 0, "worker_failures": 0, "inline_tasks": 0}
        try:
            self._pool = WorkerPool(
                _pod_task, self._context, workers, timeout=timeout, retries=retries
            )
        except BaseException:
            self._free_substrate()
            raise

    def run(self, tasks: Sequence[tuple]) -> list[tuple[object, list]]:
        """Execute *tasks* (one per pod) and return ``(payload, spans)``
        pairs **in task order**, regardless of completion order.

        A task whose attempts are exhausted runs inline in the parent:
        the task is deterministic, so the parent reproduces the
        worker's payload — or properly raises the same exception.
        Inline spans nest under the active stage span, so the returned
        span list is empty.
        """
        self.stats["tasks"] += len(tasks)
        out: list[tuple[object, list]] = []
        for task, outcome in zip(tasks, self._pool.run(tasks)):
            self.stats["worker_failures"] += sum(
                a.error is not None for a in outcome.attempts
            )
            if outcome.ok:
                out.append((outcome.value, outcome.attempts[-1].spans))
            else:
                self.stats["inline_tasks"] += 1
                out.append((_run_task(*self._context, task), []))
        return out

    def _free_substrate(self) -> None:
        self.substrate.close()
        self.substrate.unlink()

    def close(self) -> None:
        """Shut workers down and free the shared segment."""
        self._pool.close()
        self._free_substrate()

    def __enter__(self) -> "PodPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
