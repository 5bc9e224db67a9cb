"""The RA baseline: random placement + modified A*Prune routing.

One of the paper's two "mixed strategies" (Section 5): "the random
algorithm has been used to map guests to hosts and the modified
A*Prune has been used to map the link".  It isolates the Networking
stage's contribution — the paper's Table 2 shows RA succeeding almost
everywhere the full HMN does, which is the evidence for "the main
responsible for the success in finding a mapping ... is the A*Prune
algorithm".

Routing is deterministic given a placement, so a retry only redraws
the placement.  Virtual links are routed in descending-``vbw`` order,
the same order HMN's Networking stage uses, so the comparison isolates
*placement* quality, not link ordering.

All tries route through one shared
:class:`~repro.routing.cache.RoutingCache`: the latency labels are
topology-only and amortize across every query, and the epoch-keyed path
memo pays off on retries — every fresh :class:`ClusterState` starts at
bandwidth epoch 0 (the full-capacity residual graph), so the first
routes of a retry replay earlier tries' results instead of re-searching.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cluster import PhysicalCluster
from repro.core.mapping import Mapping, StageReport
from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.core.vlink import VLinkKey
from repro.errors import MappingError, RetriesExhaustedError
from repro.baselines.placement import random_placement
from repro.routing.cache import RoutingCache
from repro.seeding import rng_from

__all__ = ["random_astar_map"]

DEFAULT_MAX_TRIES = 50


def random_astar_map(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    *,
    seed: int | np.random.Generator | None = None,
    max_tries: int = DEFAULT_MAX_TRIES,
    max_route_expansions: int = 2_000_000,
) -> Mapping:
    """Map *venv* onto *cluster* with the paper's RA baseline.

    Raises :class:`~repro.errors.RetriesExhaustedError` when every
    placement draw leads to an unroutable link.
    """
    rng = rng_from(seed)
    # Labels + path memo; shared across tries.
    cache = RoutingCache(cluster)
    links = sorted(venv.vlinks(), key=lambda e: (-e.vbw, e.key))
    t0 = time.perf_counter()
    failures = 0
    for attempt in range(1, max_tries + 1):
        state = ClusterState(cluster)
        try:
            random_placement(state, venv, rng)
            paths: dict[VLinkKey, tuple] = {}
            for link in links:
                src = state.host_of(link.a)
                dst = state.host_of(link.b)
                if src == dst:
                    paths[link.key] = (src,)
                    continue
                result = cache.route(
                    state,
                    src,
                    dst,
                    bandwidth=link.vbw,
                    latency_bound=link.vlat,
                    max_expansions=max_route_expansions,
                )
                state.reserve_path(result.nodes, link.vbw)
                paths[link.key] = result.nodes
        except MappingError:
            failures += 1
            continue
        elapsed = time.perf_counter() - t0
        return Mapping(
            assignments=state.assignments,
            paths=paths,
            mapper="random+astar",
            stages=(
                StageReport(
                    "random+astar",
                    elapsed,
                    {
                        "tries": attempt,
                        "failed_tries": failures,
                        "cache_hit_rate": cache.hit_rate,
                    },
                ),
            ),
            meta={
                "objective": state.objective(),
                "max_tries": max_tries,
                "timings": {
                    "random+astar_s": elapsed,
                    "total_s": elapsed,
                    "cache_hit_rate": cache.hit_rate,
                    "route_kernel_s": cache.kernel_seconds,
                },
            },
        )
    raise RetriesExhaustedError(max_tries)
