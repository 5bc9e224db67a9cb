"""The traced run's span ledger, recorded from outside the program.

:class:`Recorder` wraps public entry points of the mapper's modules
(:data:`LAYER_PATCHES`) for the extent of a traced pass.  Each call
through a wrapper records one span: name, layer, start, end, parent
span and the request it serves.  Spans stay in memory and are written
out once the run ends.

A layer's time is its spans' *self* time: duration minus the part
covered by direct child spans.  Spans whose layer is ``None`` (the
pipeline glue in ``hmn_map`` itself) are what no layer claims; their
self time is reported as ``other``, so nothing hides between layers.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = ["Span", "Recorder", "LAYER_PATCHES", "self_times", "layer_totals"]

#: ``(owner, attribute, span name, layer)``.  *owner* is a module path,
#: or ``module:Class`` for a method.  ``hmn_map`` is patched where each
#: caller looks it up (the API facade and the service core).
LAYER_PATCHES: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.api", "hmn_map", "hmn.map", None),
    ("repro.service.core", "hmn_map", "hmn.map", None),
    ("repro.hmn.pipeline", "run_hosting", "hmn.hosting", "hmn.hosting"),
    ("repro.hmn.pipeline", "run_migration", "hmn.migration", "hmn.migration"),
    ("repro.hmn.pipeline", "run_networking", "hmn.networking", "hmn.networking"),
    ("repro.shard.mapper", "shard_map", "shard.map", "shard"),
    ("repro.shard.mapper", "partition_cluster", "shard.partition", "shard"),
    ("repro.shard.mapper", "pod_hosting", "shard.pod_hosting", "hmn.hosting"),
    ("repro.shard.mapper", "pod_migration", "shard.pod_migration", "hmn.migration"),
    ("repro.shard.mapper", "stitch_networking", "shard.stitch", "hmn.networking"),
    ("repro.routing.cache:RoutingCache", "route", "routing.route", "routing"),
    ("repro.core.state:ClusterState", "reserve_path", "state.reserve_path", "core.state"),
    ("repro.core.state:ClusterState", "release_path", "state.release_path", "core.state"),
    ("repro.core.state:ClusterState", "copy", "state.copy", "core.state"),
    ("repro.service.core:ServiceCore", "admit", "service.admit", "service"),
    ("repro.service.core:ServiceCore", "release", "service.release", "service"),
    ("repro.service.store:ExperimentStore", "append", "store.append", "service.store"),
)


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    layer: str | None
    start: float
    end: float
    request: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _request_of(name: str, args: tuple) -> Any:
    """The request a service entry point serves (its tenant)."""
    if name == "service.admit":
        return args[1].tenant
    if name == "service.release":
        return args[1]
    return None


class Recorder:
    """Collects spans from wrapped entry points while installed.

    Span stacks are per thread: the service decides on its event-loop
    thread while the open-loop generator runs on the main thread.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Every :class:`~repro.core.mapping.Mapping` returned through a
        #: wrapped ``hmn_map``, for the program's own stage counters.
        self.mappings: list[Any] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- span recording -------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
        return local

    def set_request(self, request: Any) -> None:
        """Name the request that spans opened on this thread serve."""
        self._state().request = request

    def call(self, name: str, layer: str | None, fn: Callable, *args, **kwargs):
        local = self._state()
        stack = local.stack
        request = _request_of(name, args) if not stack else None
        if request is not None:
            local.request = request
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, layer, t0, t1, local.request))
        if name == "hmn.map":
            self.mappings.append(result)
        return result

    def wrap(self, name: str, layer: str | None, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patch lifetime -------------------------------------------------
    def install(self, patches: Iterable[tuple[str, str, str, str | None]] = LAYER_PATCHES):
        if self._saved:
            raise RuntimeError("recorder already installed")
        try:
            for owner_path, attr, name, layer in patches:
                owner = _owner(owner_path)
                original = (
                    owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                )
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, layer, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output ---------------------------------------------------------
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.id, "parent": s.parent, "name": s.name,
                            "layer": s.layer, "start": s.start, "end": s.end,
                            "request": s.request,
                        },
                        default=str,
                    )
                    + "\n"
                )


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    spans = list(spans)
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out


def layer_totals(spans: Iterable[Span]) -> tuple[dict[str | None, float], float]:
    """``({layer: summed self time}, summed root duration)``.

    Layer ``None`` collects what no layer claims.  Roots are spans whose
    parent is not among *spans*.
    """
    spans = list(spans)
    ids = {s.id for s in spans}
    selfs = self_times(spans)
    totals: dict[str | None, float] = defaultdict(float)
    root_total = 0.0
    for s in spans:
        totals[s.layer] += selfs[s.id]
        if s.parent is None or s.parent not in ids:
            root_total += s.duration
    return dict(totals), root_total
