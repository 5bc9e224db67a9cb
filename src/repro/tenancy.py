"""One tenant's whole allocation on a shared cluster state.

The paper's HMN maps one virtual environment onto an empty cluster.
This repo runs HMN for many tenants on one shared
:class:`~repro.core.state.ClusterState`, driven from two places: the
admission service (:mod:`repro.service`) and the chaos operator
(:mod:`repro.resilience`).  Both keep their tenants here, so they agree
on what a tenant holds and on how it leaves:

* :class:`Tenant` — the record: the venv, its mapping, the standby
  replicas and the backup paths held in a shared
  :class:`~repro.redundancy.ledger.BackupLedger`.  Backups are part of
  the tenant's allocation, as in Yang et al.'s reliable placement.
* :func:`release` — the one way out: frees replicas, ledger backups,
  primary placements and primary-path bandwidth, the exact inverse of
  admitting the mapping with ``hmn_map(..., state=..., backup_ledger=...)``.
* :func:`evacuate` — the one repair rule: guests leave a set of hosts
  (largest ``vproc`` first, guest id on ties, onto the most idle host
  that fits), and every virtual link they carried, or whose path
  crosses a dead node or a broken edge, is re-routed by the Networking
  stage.  :func:`~repro.extensions.remap.evacuate_host`,
  :func:`~repro.extensions.remap.evacuate_switch` and the chaos
  operator's heal loop are all calls into it.

None of these functions is transactional on its own; callers wrap them
in :func:`~repro.resilience.transactions.joint_transaction` with the
ledger as a rider.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Hashable, Sequence

from repro.core.link import EdgeKey, edge_key
from repro.core.mapping import Mapping, StageReport
from repro.core.state import ClusterState, path_edges
from repro.core.venv import VirtualEnvironment
from repro.core.vlink import VLinkKey
from repro.errors import PlacementError
from repro.hmn.config import HMNConfig
from repro.hmn.networking import run_networking
from repro.redundancy.ledger import BackupLedger, RiskKey
from repro.redundancy.stage import redundancy_records, risks_of_path

__all__ = [
    "Backup",
    "Tenant",
    "Evacuated",
    "drop_replicas",
    "drop_backups",
    "release",
    "severed",
    "evacuate",
]

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class Backup:
    """One backup path held in the ledger for a tenant's vlink.

    ``risks`` are the shared-risk keys the ledger admitted it under,
    kept so retirement subtracts exactly what admission added, even
    after the primary was re-routed.
    """

    nodes: tuple[NodeId, ...]
    vbw: float
    risks: frozenset[RiskKey]


@dataclass(eq=False)
class Tenant:
    """A live tenant: its environment, mapping and redundancy."""

    tenant: Hashable
    venv: VirtualEnvironment
    mapping: Mapping
    #: the service's commit index for the admitting request
    request_id: int | None = None
    #: guest id -> surviving standby replicas as (replica_id, host)
    replicas: dict[int, list[tuple[int, NodeId]]] = field(default_factory=dict)
    #: vlink key -> backup path held in the ledger
    backups: dict[VLinkKey, Backup] = field(default_factory=dict)

    @classmethod
    def admitted(
        cls,
        tenant: Hashable,
        venv: VirtualEnvironment,
        mapping: Mapping,
        *,
        request_id: int | None = None,
    ) -> "Tenant":
        """The record of a freshly admitted *mapping*, its replicas and
        backups read back from ``mapping.meta["redundancy"]``."""
        replicas, backups, _disjoint = redundancy_records(mapping)
        return cls(
            tenant=tenant,
            venv=venv,
            mapping=mapping,
            request_id=request_id,
            replicas=replicas,
            backups={
                key: Backup(nodes, venv.vlink(*key).vbw, risks_of_path(mapping.paths[key]))
                for key, nodes in backups.items()
            },
        )

    @property
    def total_vbw(self) -> float:
        """Aggregate vlink demand (the operator's shedding key)."""
        return self.venv.total_vbw()

    @property
    def backup_vbw(self) -> float:
        """Aggregate demand of held backups (the degradation order key)."""
        return sum(b.vbw for b in self.backups.values())

    @property
    def replica_count(self) -> int:
        return sum(len(v) for v in self.replicas.values())


def drop_replicas(state: ClusterState, rec: Tenant) -> None:
    """Unplace every standby replica *rec* still holds."""
    for gid in sorted(rec.replicas):
        for rid, _host in rec.replicas[gid]:
            if state.is_placed(rid):
                state.unplace(rid)
    rec.replicas = {}


def drop_backups(ledger: BackupLedger, rec: Tenant) -> set[EdgeKey]:
    """Retire every backup *rec* holds; returns the edges they used."""
    released: set[EdgeKey] = set()
    for key in sorted(rec.backups):
        bk = rec.backups[key]
        ledger.remove(bk.nodes, bk.vbw, bk.risks)
        released.update(path_edges(bk.nodes))
    rec.backups = {}
    return released


def release(
    state: ClusterState,
    rec: Tenant,
    ledger: BackupLedger,
    *,
    cache=None,
) -> set[EdgeKey]:
    """Return a departing tenant's whole allocation to *state*.

    Frees, in order, the standby replicas, the ledger backups, the
    primary placements and the primary-path bandwidth.  Returns every
    edge whose reservation shrank, for callers that mask faults on top
    of the shared state.

    When the admitting :class:`~repro.routing.cache.RoutingCache` is
    passed, its memo is pruned to the post-release epoch.  That is
    hygiene, not correctness: epochs are never reused, so a stale entry
    is never served, but in a long-lived service the dead entries
    would crowd live ones out of the cache's ``max_paths`` budget.
    """
    drop_replicas(state, rec)
    released = drop_backups(ledger, rec)
    venv = rec.venv
    for guest in venv.guests():
        state.unplace(guest.id)
    for key, nodes in rec.mapping.paths.items():
        if len(nodes) > 1:
            state.release_path(nodes, venv.vlink(*key).vbw)
            released.update(path_edges(nodes))
    if cache is not None:
        cache.drop_stale(state.bw_epoch)
    return released


def severed(
    mapping: Mapping,
    *,
    leaving: Collection[NodeId] = frozenset(),
    dead: Collection[NodeId] = frozenset(),
    broken: Collection[EdgeKey] = frozenset(),
) -> tuple[list[int], list[VLinkKey]]:
    """What a fault takes from one mapping.

    Returns the guests placed on *leaving* hosts (ascending id) and the
    vlinks to re-route (ascending key): those with a leaving endpoint,
    and those whose path crosses a *dead* node or a *broken* edge.
    """
    displaced = sorted(g for g, h in mapping.assignments.items() if h in leaving)
    moved = set(displaced)
    touched = [
        key
        for key, nodes in sorted(mapping.paths.items())
        if key[0] in moved
        or key[1] in moved
        or any(n in dead for n in nodes)
        or (broken and any(e in broken for e in path_edges(nodes)))
    ]
    return displaced, touched


@dataclass(frozen=True, slots=True)
class Evacuated:
    """One tenant's outcome of :func:`evacuate`."""

    mapping: Mapping
    displaced: tuple[int, ...]
    rerouted: tuple[VLinkKey, ...]


def evacuate(
    state: ClusterState,
    tenants: Sequence[tuple[VirtualEnvironment, Mapping]],
    config: HMNConfig,
    *,
    leaving: Collection[NodeId] = frozenset(),
    dead: Collection[NodeId] = frozenset(),
    broken: Collection[EdgeKey] = frozenset(),
    cache=None,
    on_released: Callable[[set[EdgeKey]], None] | None = None,
) -> list[Evacuated]:
    """Move guests off *leaving* hosts and re-route what a fault severed.

    *tenants* are ``(venv, mapping)`` pairs whose allocations live in
    *state*.  For each, :func:`severed` names the displaced guests and
    the vlinks to re-route; all of them are unplaced and released first.
    *on_released* then sees the released edges (the chaos operator
    re-masks them before anything is re-placed).  Tenant by tenant,
    displaced guests go largest ``vproc`` first (guest id on ties) onto
    the most idle host that fits and is not leaving, and the severed
    vlinks are re-routed by the Networking stage.  While re-routing, the
    links of every *dead* node are blackholed so no new path crosses
    one; a drained host (leaving but not dead) keeps forwarding.

    Returns one :class:`Evacuated` per tenant, whose mapping carries
    the mapper suffix ``+evacuate``.  Raises
    :class:`~repro.errors.PlacementError` or
    :class:`~repro.errors.RoutingError` with *state* half-changed, so
    callers that must survive the failure run this inside a
    transaction.
    """
    plans: list[tuple[VirtualEnvironment, Mapping, list[int], list[VLinkKey]]] = []
    released: set[EdgeKey] = set()
    for venv, mapping in tenants:
        displaced, touched = severed(mapping, leaving=leaving, dead=dead, broken=broken)
        for g in displaced:
            state.unplace(g)
        for key in touched:
            nodes = mapping.paths[key]
            if len(nodes) > 1:
                state.release_path(nodes, venv.vlink(*key).vbw)
                released.update(path_edges(nodes))
        plans.append((venv, mapping, displaced, touched))
    if on_released is not None:
        on_released(released)

    # New paths need bw > 0, so reserving out a dead node's residual
    # link bandwidth keeps every re-route off it.
    blocked: list[tuple[EdgeKey, float]] = []
    for node in sorted(dead, key=repr):
        for nbr in state.cluster.neighbors(node):
            e = edge_key(node, nbr)
            residual = state.residual_bw(*e)
            if residual > 0:
                state.reserve_path(e, residual)
                blocked.append((e, residual))
    try:
        out = []
        for venv, mapping, displaced, touched in plans:
            t0 = time.perf_counter()
            for gid in sorted(displaced, key=lambda g: (-venv.guest(g).vproc, g)):
                guest = venv.guest(gid)
                for h in state.cpu.hosts_by_residual_descending():
                    if h not in leaving and state.fits(guest, h):
                        state.place(guest, h)
                        break
                else:
                    raise PlacementError(
                        gid, "no surviving host can absorb the displaced guest"
                    )
            placement_s = time.perf_counter() - t0

            reroute = VirtualEnvironment(name=f"{venv.name}-evacuate")
            for g in venv.guests():
                reroute.add_guest(g)
            for key in touched:
                reroute.add_vlink(venv.vlink(*key))
            t0 = time.perf_counter()
            new_paths, stats = run_networking(state, reroute, config, cache=cache)
            networking_s = time.perf_counter() - t0

            paths = {k: n for k, n in mapping.paths.items() if k not in new_paths}
            paths.update(new_paths)
            mapper = mapping.mapper
            if not mapper.endswith("+evacuate"):
                mapper = f"{mapper}+evacuate" if mapper else "evacuate"
            out.append(
                Evacuated(
                    mapping=Mapping(
                        assignments={g.id: state.host_of(g.id) for g in venv.guests()},
                        paths=paths,
                        mapper=mapper,
                        stages=(
                            StageReport(
                                "evacuate-placement", placement_s,
                                {"displaced": len(displaced)},
                            ),
                            StageReport("evacuate-networking", networking_s, stats),
                        ),
                        meta={"objective": state.objective()},
                    ),
                    displaced=tuple(displaced),
                    rerouted=tuple(touched),
                )
            )
    finally:
        for e, residual in blocked:
            state.release_path(e, residual)
    return out
