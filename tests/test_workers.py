"""The shared crash-tolerant worker pool (:mod:`repro._workers`).

Both the batch runner and the sharded pod stages run on this pool, so
its persistent-worker paths are pinned here directly: a hung task is
terminated and its worker replaced, a raising or crashing task is
retried and then reported, outcomes come back in task order whatever
the completion order, and a reused traced worker ships each task's
spans exactly once.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import obs
from repro._workers import WorkerPool


def _task(tag, task):
    """Module-level task function; *tag* is the pool's fixed context."""
    kind, arg = task
    if kind == "sleep":
        time.sleep(arg)
    elif kind == "hang":
        time.sleep(600)
    elif kind == "boom":
        raise RuntimeError(f"boom {arg}")
    elif kind == "crash":
        os._exit(arg)
    elif kind == "span":
        with obs.OBS.span("task", n=arg):
            pass
    return (tag, arg, os.getpid())


def _pool(workers=1, *, timeout=None, retries=0):
    return WorkerPool(_task, ("ctx",), workers, timeout=timeout, retries=retries)


def test_hung_task_terminated_and_next_task_runs_on_replacement():
    t0 = time.monotonic()
    with _pool(timeout=1.0) as pool:
        hung, after = pool.run([("hang", 0), ("echo", 1)])
    assert time.monotonic() - t0 < 60.0  # nobody waited for the 600 s sleep
    assert not hung.ok
    assert hung.value == "Timeout(1s)"
    assert [a.error for a in hung.attempts] == ["Timeout"]
    assert after.ok
    tag, arg, pid = after.value
    assert (tag, arg) == ("ctx", 1)
    assert pid == after.attempts[0].pid != hung.attempts[0].pid


@pytest.mark.parametrize(
    "task, reason, label",
    [
        (("boom", 7), "RuntimeError: boom 7", "RuntimeError"),
        (("crash", 9), "WorkerCrash(exitcode=9)", "WorkerCrash"),
    ],
)
def test_failed_attempts_retried_then_reported(task, reason, label):
    with _pool(retries=2) as pool:
        failed, healthy = pool.run([task, ("echo", 2)])
    assert not failed.ok
    assert failed.value == reason
    assert [(a.attempt, a.error) for a in failed.attempts] == [
        (0, label), (1, label), (2, label)
    ]
    assert healthy.ok and healthy.value[:2] == ("ctx", 2)
    pids = {a.pid for a in failed.attempts}
    if label == "WorkerCrash":
        assert len(pids) == 3  # every crashed worker was replaced
    else:
        # An in-task exception leaves the worker alive and reused.
        assert pids == {healthy.attempts[0].pid}


def test_outcomes_in_task_order_when_completed_out_of_order():
    finished = []
    with _pool(workers=2) as pool:
        outcomes = pool.run(
            [("sleep", 0.6), ("sleep", 0.0), ("sleep", 0.0)],
            on_done=lambda index, _outcome: finished.append(index),
        )
    assert finished[-1] == 0  # the slow task settled last ...
    assert [o.value[1] for o in outcomes] == [0.6, 0.0, 0.0]  # ... but comes first


def test_reused_worker_ships_each_tasks_spans_once():
    with obs.recording(), _pool() as pool:
        first, second = pool.run([("span", 1), ("span", 2)])
    assert first.value[2] == second.value[2]  # one worker ran both tasks
    for n, outcome in ((1, first), (2, second)):
        (attempt,) = outcome.attempts
        assert [(s["name"], s["attrs"]["n"]) for s in attempt.spans] == [("task", n)]
    with _pool() as pool:
        (untraced,) = pool.run([("span", 3)])
    assert untraced.attempts[0].spans == []


def test_pool_needs_a_worker():
    from repro.errors import ModelError

    with pytest.raises(ModelError):
        _pool(workers=0)
