"""Crash-tolerant worker processes: one pool, one retry rule, one
environment parser.

Two parts of the library run work in worker processes, and both are
thin clients of :class:`WorkerPool`: the experiment grid's
:class:`~repro.analysis.runner.BatchRunner` (one task per grid cell)
and the sharded pipeline's :class:`~repro.shard.parallel.PodPool` (one
task per pod stage).  The pool knows nothing about cells or pods:

* Workers are **persistent** for the pool's lifetime.  Each is started
  from a top-level task function plus fixed context arguments and runs
  ``fn(*context, task)`` for every task it receives.
* **One retry rule.**  A failed attempt is a crash (the process
  sentinel is readable and the pipe empty: ``WorkerCrash(exitcode=N)``),
  a deadline overrun (the worker is terminated and replaced:
  ``Timeout(<t>s)``) or an in-task exception (``<Exc>: <msg>``).  It is
  retried up to ``retries`` times; after that the caller gets the
  failure reason.  A crashed or timed-out worker is replaced, so the
  next task runs on a fresh process.
* :meth:`WorkerPool.run` returns one :class:`Outcome` per task, **in
  task order** whatever the completion order, each with its attempt
  log ``(attempt, pid, error label, spans)``.
* With the parent's recorder enabled, every task runs under its own
  fresh :class:`~repro.obs.trace.Tracer` and its finished spans ride
  back with the attempt, so a reused worker never ships or keeps an
  earlier task's spans.  The caller adopts them in task order.

``REPRO_CELL_TIMEOUT`` (seconds) and ``REPRO_CELL_RETRIES`` set the
default budget of every pool; :func:`resolve_budget` parses them once
and names the variable on a bad value.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple

from repro import obs
from repro.errors import ConfigError, ModelError

__all__ = ["resolve_budget", "Attempt", "Outcome", "WorkerPool"]

TIMEOUT_ENV = "REPRO_CELL_TIMEOUT"
RETRIES_ENV = "REPRO_CELL_RETRIES"


def resolve_budget(
    timeout: float | None = None, retries: int | None = None
) -> tuple[float | None, int]:
    """The ``(timeout, retries)`` budget of a worker pool.

    An explicit argument must be valid (a positive *timeout*,
    non-negative *retries*; :class:`ModelError` otherwise).  A ``None``
    argument falls back to its environment variable:
    ``REPRO_CELL_TIMEOUT`` (unset, non-positive or infinite means no
    limit) and ``REPRO_CELL_RETRIES`` (unset means 1).  A non-numeric
    value or negative retries raise :class:`ConfigError` naming the
    variable.
    """
    if timeout is None:
        raw = os.environ.get(TIMEOUT_ENV, "").strip()
        if raw:
            try:
                value = float(raw)
            except ValueError:
                raise ConfigError(
                    f"{TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
                ) from None
            timeout = value if 0 < value < math.inf else None
    elif not timeout > 0:
        raise ModelError(f"timeout must be positive, got {timeout}")
    if retries is None:
        raw = os.environ.get(RETRIES_ENV, "").strip() or "1"
        try:
            retries = int(raw)
        except ValueError:
            retries = -1  # rejected below, like a negative count
        if retries < 0:
            raise ConfigError(
                f"{RETRIES_ENV} must be a non-negative integer, got {raw!r}"
            )
    elif retries < 0:
        raise ModelError(f"retries must be non-negative, got {retries}")
    return timeout, retries


class Attempt(NamedTuple):
    """One attempt at a task, as the parent saw it."""

    attempt: int
    pid: int
    #: ``None`` when the task returned; else ``"WorkerCrash"``,
    #: ``"Timeout"`` or the raised exception's class name.
    error: str | None
    #: The attempt's spans (empty unless traced; a crashed or timed-out
    #: worker ships none).
    spans: list


@dataclass(frozen=True, slots=True)
class Outcome:
    """A task's final result: its payload when *ok*, else the failure
    reason of its last attempt, plus every attempt in order."""

    ok: bool
    value: Any
    attempts: list[Attempt]


def _serve(conn, fn: Callable, context: tuple) -> None:
    """Worker loop: run ``fn(*context, task)`` for each received
    ``(task, trace)`` until the ``None`` sentinel or a closed pipe.

    An exception is reported as data (the parent decides about
    retries); a hard crash (``os._exit``, segfault, OOM kill) leaves the
    pipe empty and shows as the process sentinel.
    """
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message is None:
                break
            task, trace = message
            tracer = obs.Tracer() if trace else None
            obs.set_recorder(tracer)
            spans = tracer.spans if tracer is not None else []
            try:
                conn.send((None, fn(*context, task), spans))
            except Exception as exc:
                name = type(exc).__name__
                conn.send((name, f"{name}: {exc}", spans))
    finally:
        conn.close()


class _Worker:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn


class WorkerPool:
    """*workers* persistent processes running ``fn(*context, task)``.

    *fn* must be a top-level function and *context* picklable under a
    non-fork start method.  *timeout* (seconds per attempt, ``None`` for
    no limit) and *retries* come from :func:`resolve_budget`.  Use as a
    context manager, or call :meth:`close`.
    """

    def __init__(
        self,
        fn: Callable,
        context: tuple,
        workers: int,
        *,
        timeout: float | None,
        retries: int,
    ) -> None:
        import multiprocessing as mp

        if workers < 1:
            raise ModelError(f"a worker pool needs >= 1 worker, got {workers}")
        self._ctx = mp.get_context()
        self._fn = fn
        self._context = context
        self.timeout = timeout
        self.retries = retries
        self._workers: list[_Worker] = []
        try:
            for _ in range(workers):
                self._workers.append(self._spawn())
        except BaseException:
            self.close()
            raise

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_serve, args=(child_conn, self._fn, self._context), daemon=True
        )
        proc.start()
        child_conn.close()  # the child holds the live end
        return _Worker(proc, parent_conn)

    @staticmethod
    def _reap(worker: _Worker) -> None:
        worker.proc.join(timeout=1.0)
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join()
        worker.conn.close()

    def _replace(self, worker: _Worker) -> None:
        self._reap(worker)
        self._workers.remove(worker)
        self._workers.append(self._spawn())

    def run(
        self,
        tasks: Iterable,
        on_done: Callable[[int, Outcome], None] | None = None,
    ) -> list[Outcome]:
        """Run every task; return their outcomes **in task order**.

        *on_done*, if given, is called with ``(index, outcome)`` as each
        task settles, in completion order.
        """
        from multiprocessing.connection import wait as mp_wait

        tasks = list(tasks)
        trace = obs.OBS.enabled
        outcomes: list[Outcome | None] = [None] * len(tasks)
        logs: list[list[Attempt]] = [[] for _ in tasks]
        pending: deque[tuple[int, int]] = deque((i, 0) for i in range(len(tasks)))
        inflight: dict[_Worker, tuple[int, int, float | None]] = {}

        def attempt_done(worker: _Worker, index: int, attempt: int, reply: tuple) -> None:
            error, value, spans = reply
            logs[index].append(Attempt(attempt, worker.proc.pid, error, spans))
            if error is not None and attempt < self.retries:
                pending.append((index, attempt + 1))
                return
            outcomes[index] = Outcome(error is None, value, logs[index])
            if on_done is not None:
                on_done(index, outcomes[index])

        while pending or inflight:
            idle = [w for w in self._workers if w not in inflight]
            while pending and idle:
                index, attempt = pending.popleft()
                worker = idle.pop()
                worker.conn.send((tasks[index], trace))
                deadline = None if self.timeout is None else time.monotonic() + self.timeout
                inflight[worker] = (index, attempt, deadline)

            wait_for: float | None = None
            if self.timeout is not None:
                soonest = min(deadline for _, _, deadline in inflight.values())
                wait_for = max(soonest - time.monotonic(), 0.0)
            # A readable pipe means a reply (or EOF from a dead worker);
            # a readable sentinel alone means the worker died cold.
            ready = set(
                mp_wait(
                    [w.conn for w in inflight] + [w.proc.sentinel for w in inflight],
                    wait_for,
                )
            )
            now = time.monotonic()
            for worker, (index, attempt, deadline) in list(inflight.items()):
                timed_out = False
                if worker.conn in ready:
                    try:
                        reply = worker.conn.recv()
                    except EOFError:
                        reply = None
                elif worker.proc.sentinel in ready and not worker.conn.poll():
                    reply = None
                elif deadline is not None and now >= deadline:
                    worker.proc.terminate()
                    reply, timed_out = None, True
                else:
                    continue
                del inflight[worker]
                if reply is None:
                    self._replace(worker)
                    if timed_out:
                        reply = ("Timeout", f"Timeout({self.timeout:g}s)", [])
                    else:
                        exitcode = worker.proc.exitcode
                        reply = ("WorkerCrash", f"WorkerCrash(exitcode={exitcode})", [])
                attempt_done(worker, index, attempt, reply)
        return outcomes

    def close(self) -> None:
        """Shut every worker down (idle ones exit on the sentinel)."""
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            self._reap(worker)
        self._workers.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
