"""Incremental remapping: grow an experiment, survive a host failure.

The paper frames mapping as one-shot ("the goal is to find a mapping
starting from a state where there are no virtual machines mapped",
contrasting with GAPVEE's remapping of a live system).  Operating a
testbed needs two incremental operations the one-shot pipeline does
not cover, built here on the same stages:

* :func:`extend_mapping` — the tester grows the emulated system (new
  guests and/or virtual links).  Existing placements and paths are
  **pinned** — live VMs are not disturbed — and only the delta is
  placed (Hosting rule against the residual state) and routed
  (Algorithm 1 against residual bandwidth).
* :func:`evacuate_host` — a host fails or is drained for maintenance.
  Its guests are re-placed on the surviving hosts, every virtual link
  with at least one re-placed endpoint **or a path through the lost
  host** is re-routed, and everything else stays put.
* :func:`evacuate_switch` — a pure forwarding node fails.  No guest is
  displaced (switches host nothing), but every path transiting the
  switch is re-routed around it.

All return a complete new :class:`~repro.core.mapping.Mapping` for the
whole virtual environment (validating against Eqs. 1-9 as usual) plus
a change summary, and raise the usual
:class:`~repro.errors.MappingError` subclasses when the delta cannot
be accommodated.

The continuous, multi-tenant version of these one-shot repairs — a
fault *trace* replayed against a live shared state with retry, backoff
and load shedding — lives in :mod:`repro.resilience`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Hashable

from repro.core.cluster import PhysicalCluster
from repro.core.mapping import Mapping, StageReport
from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.core.vlink import VLinkKey
from repro.errors import ModelError
from repro.hmn.config import HMNConfig
from repro.hmn.hosting import run_hosting
from repro.hmn.networking import run_networking
from repro.tenancy import evacuate

__all__ = ["RemapSummary", "extend_mapping", "evacuate_host", "evacuate_switch"]

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class RemapSummary:
    """What an incremental operation actually changed."""

    guests_placed: tuple[int, ...]
    links_rerouted: tuple[VLinkKey, ...]
    guests_kept: int
    links_kept: int


def _restore_state(
    cluster: PhysicalCluster, venv: VirtualEnvironment, mapping: Mapping
) -> ClusterState:
    """Rebuild the allocation state a mapping implies."""
    state = ClusterState(cluster)
    for guest in venv.guests():
        if guest.id in mapping.assignments:
            state.place(guest, mapping.host_of(guest.id))
    for key, nodes in mapping.paths.items():
        if venv.has_vlink(*key) and len(nodes) > 1:
            state.reserve_path(nodes, venv.vlink(*key).vbw)
    return state


def extend_mapping(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    mapping: Mapping,
    config: HMNConfig | None = None,
) -> tuple[Mapping, RemapSummary]:
    """Map the part of *venv* that *mapping* does not cover yet.

    *venv* is the **grown** virtual environment: it contains every
    previously mapped guest/link plus the new ones.  Old guests keep
    their hosts; old links between two old guests keep their paths;
    new guests are placed by the Hosting rule against the residual
    capacities, and every uncovered link is routed by the Networking
    stage.
    """
    if config is None:
        config = HMNConfig()
    missing_guests = [g for g in venv.guests() if g.id not in mapping.assignments]
    for gid in mapping.assignments:
        if gid not in venv:
            raise ModelError(
                f"guest {gid!r} of the existing mapping is absent from the grown "
                "virtual environment; extend_mapping only adds, never removes"
            )

    state = _restore_state(cluster, venv, mapping)

    # Place the delta with the Hosting rule: build a sub-venv of the new
    # guests plus their links (links to old guests count for affinity
    # only when both ends are new; peer-join handles the rest naturally
    # because old guests are already placed in the state).
    t0 = time.perf_counter()
    delta = VirtualEnvironment(name=f"{venv.name}+delta")
    for g in missing_guests:
        delta.add_guest(g)
    for e in venv.vlinks():
        if e.a in delta and e.b in delta:
            delta.add_vlink(e)
    placed_order: list[int] = []
    if missing_guests:
        run_hosting(state, delta, config)  # may raise PlacementError
        placed_order = [g.id for g in missing_guests]
        # Pull new guests toward their already-placed peers when possible:
        # run_hosting cannot see links into the old set, so apply the
        # paper's 'join your peer' rule as a post-pass improvement.
        for g in missing_guests:
            for link in venv.vlinks_of(g.id):
                other = link.other(g.id)
                if other in delta:
                    continue
                peer_host = state.host_of(other)
                if state.host_of(g.id) != peer_host and state.fits(g, peer_host):
                    state.move(g.id, peer_host)
                    break
    hosting_elapsed = time.perf_counter() - t0

    # Route every link not already carrying a pinned path.
    new_ids = {g.id for g in missing_guests}
    pinned: dict[VLinkKey, tuple[NodeId, ...]] = {
        key: nodes
        for key, nodes in mapping.paths.items()
        if venv.has_vlink(*key) and key[0] not in new_ids and key[1] not in new_ids
    }
    to_route = VirtualEnvironment(name=f"{venv.name}+links")
    for g in venv.guests():
        to_route.add_guest(g)
    for e in venv.vlinks():
        if e.key not in pinned:
            to_route.add_vlink(e)

    t0 = time.perf_counter()
    new_paths, networking_stats = run_networking(state, to_route, config)
    networking_elapsed = time.perf_counter() - t0

    paths = dict(pinned)
    paths.update(new_paths)
    combined = Mapping(
        assignments={g.id: state.host_of(g.id) for g in venv.guests()},
        paths=paths,
        mapper=f"{mapping.mapper}+extend" if mapping.mapper else "extend",
        stages=(
            StageReport("extend-hosting", hosting_elapsed, {"new_guests": len(missing_guests)}),
            StageReport("extend-networking", networking_elapsed, networking_stats),
        ),
        meta={"objective": state.objective(), "config": config.describe()},
    )
    summary = RemapSummary(
        guests_placed=tuple(placed_order),
        links_rerouted=tuple(sorted(new_paths)),
        guests_kept=venv.n_guests - len(missing_guests),
        links_kept=len(pinned),
    )
    return combined, summary


def evacuate_host(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    mapping: Mapping,
    failed_host: NodeId,
    config: HMNConfig | None = None,
    *,
    dead: bool = True,
) -> tuple[Mapping, RemapSummary]:
    """Re-place the guests of *failed_host* and re-route around it.

    ``dead=True`` (default) models a failed machine: besides moving its
    guests, no re-routed path may transit it (its incident links are
    blocked during re-routing — other surviving paths that already
    avoid the host are untouched).  ``dead=False`` models a *drain* for
    maintenance: guests leave, but the host keeps forwarding, so
    transit paths stay put.  Displaced guests go largest ``vproc``
    first (guest id on ties) onto the most idle surviving host that
    fits — :func:`repro.tenancy.evacuate`, the chaos operator's heal
    rule.  Raises :class:`~repro.errors.PlacementError` when the
    survivors cannot absorb the displaced guests.
    """
    if failed_host not in cluster:
        raise ModelError(f"{failed_host!r} is not a node of this cluster")
    if cluster.is_switch(failed_host):
        raise ModelError(
            f"{failed_host!r} is a switch, not a host; switches displace no "
            "guests — use evacuate_switch (or the switch-failure handling in "
            "repro.resilience) to re-route around a lost forwarding node"
        )
    return _evacuate(
        cluster, venv, mapping, config,
        leaving=frozenset({failed_host}),
        dead=frozenset({failed_host}) if dead else frozenset(),
        meta={"evacuated_host": failed_host},
    )


def evacuate_switch(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    mapping: Mapping,
    failed_switch: NodeId,
    config: HMNConfig | None = None,
) -> tuple[Mapping, RemapSummary]:
    """Re-route every virtual link whose path transits *failed_switch*.

    The forwarding-node counterpart of :func:`evacuate_host`: a switch
    hosts no guests, so nothing is displaced — but every path through
    it is dead and must find a detour that avoids the switch (its
    incident links are blocked during re-routing, exactly as a dead
    host's are).  Raises :class:`~repro.errors.RoutingError` when some
    severed link admits no detour in the residual bandwidth.
    """
    if failed_switch not in cluster:
        raise ModelError(f"{failed_switch!r} is not a node of this cluster")
    if cluster.is_host(failed_switch):
        raise ModelError(
            f"{failed_switch!r} is a host, not a switch; its guests must be "
            "re-placed — use evacuate_host"
        )
    return _evacuate(
        cluster, venv, mapping, config,
        dead=frozenset({failed_switch}),
        meta={"evacuated_switch": failed_switch},
    )


def _evacuate(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    mapping: Mapping,
    config: HMNConfig | None,
    *,
    leaving: frozenset[NodeId] = frozenset(),
    dead: frozenset[NodeId],
    meta: dict,
) -> tuple[Mapping, RemapSummary]:
    """One tenant through :func:`repro.tenancy.evacuate` on the state
    *mapping* implies."""
    state = _restore_state(cluster, venv, mapping)
    (done,) = evacuate(
        state,
        [(venv, mapping)],
        config if config is not None else HMNConfig(),
        leaving=leaving,
        dead=dead,
    )
    combined = dataclasses.replace(done.mapping, meta={**done.mapping.meta, **meta})
    summary = RemapSummary(
        guests_placed=done.displaced,
        links_rerouted=done.rerouted,
        guests_kept=venv.n_guests - len(done.displaced),
        links_kept=venv.n_vlinks - len(done.rerouted),
    )
    return combined, summary
