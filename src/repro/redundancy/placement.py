"""k-redundant guest placement with failure-domain anti-affinity.

A replica is a **cold standby**: it holds real memory and storage on
its host (hard guarantees — activation must never fail for capacity)
but zero CPU, so the Eq. 10 load-balance objective and every residual
the conformance digests cover are untouched until a failover actually
promotes it.  Replicas live in the shared
:class:`~repro.core.state.ClusterState` under synthetic negative
guest ids (:func:`replica_id`), safely disjoint from real guests
(workload generators only mint non-negative ids) and from other
replicas of the same guest.

Placement is greedy and deterministic: guests in id order, replica
hosts scanned most-idle-first (the evacuation rule), preferring hosts
whose failure domain differs from the primary's *and* every earlier
replica's ("strict" anti-affinity), then relaxing to any other host
("relaxed") before recording the guest as uncovered.  Fuerst, Pacut
and Schmid prove replica selection NP-hard in general — greedy over
the domain structure is the tractable regime their hardness results
leave open.
"""

from __future__ import annotations

from typing import Hashable, Mapping as TMapping, Sequence

from repro.core.guest import Guest
from repro.core.state import ClusterState
from repro.core.venv import VirtualEnvironment
from repro.errors import ModelError

__all__ = ["REPLICA_STRIDE", "replica_id", "replica_guest", "plan_replicas"]

NodeId = Hashable

#: Replica-id stride: guest ``g`` owns replica ids
#: ``-(g * STRIDE + 1) .. -(g * STRIDE + STRIDE)``; redundancy is
#: capped at ``STRIDE - 1`` by ``HMNConfig``, so ids never collide.
REPLICA_STRIDE = 8


def replica_id(guest_id: int, index: int) -> int:
    """Synthetic id of replica *index* (0-based) of *guest_id*."""
    if guest_id < 0:
        raise ModelError(f"cannot replicate replica id {guest_id}")
    if not 0 <= index < REPLICA_STRIDE:
        raise ModelError(f"replica index {index} outside [0, {REPLICA_STRIDE})")
    return -(guest_id * REPLICA_STRIDE + index + 1)


def replica_guest(guest: Guest, index: int) -> Guest:
    """The cold-standby stand-in for *guest*: same memory/storage
    footprint, zero CPU until activation."""
    return Guest(
        id=replica_id(guest.id, index),
        vproc=0.0,
        vmem=guest.vmem,
        vstor=guest.vstor,
        name=f"{guest.name or guest.id}~r{index}",
    )


def plan_replicas(
    state: ClusterState,
    venv: VirtualEnvironment,
    k: int,
    have: TMapping[int, Sequence[tuple[int, NodeId]]] | None = None,
) -> tuple[dict[int, list[tuple[int, NodeId]]], dict]:
    """Place standby replicas until every guest of *venv* has ``k``
    (best-effort).

    *have* optionally gives each guest's surviving ``(replica_id,
    host)`` list — the chaos operator's top-up after a failover spent
    some; new replicas take the guest's free replica indices, lowest
    first, and avoid the hosts and domains of the primary and every
    surviving replica.

    Mutates *state* (replica placements consume memory/storage).
    Returns ``(replicas, stats)``: ``replicas[guest_id]`` lists the
    guest's surviving then new ``(replica_id, host)`` pairs; *stats*
    counts strict / relaxed / uncovered placements.  Guests left with
    no replica at all are absent — redundancy degrades, it never fails
    the mapping.
    """
    have = have or {}
    domains = state.failure_domains
    replicas: dict[int, list[tuple[int, NodeId]]] = {}
    strict = relaxed = uncovered = 0
    for gid in sorted(venv.guest_ids):
        placed = list(have.get(gid, ()))
        if len(placed) < k:
            guest = venv.guest(gid)
            used_hosts = {state.host_of(gid)} | {h for _rid, h in placed}
            used_domains = {domains.domain_of(h) for h in used_hosts}
            used_idx = {(-rid - 1) - gid * REPLICA_STRIDE for rid, _h in placed}
            free_idx = (i for i in range(REPLICA_STRIDE) if i not in used_idx)
            order = state.cpu.hosts_by_residual_descending()
            while len(placed) < k:
                # Every index shares the guest's footprint: when one finds
                # no host, none of the remaining ones can.
                stand_in = replica_guest(guest, next(free_idx))
                choice = None
                for h in order:
                    if h in used_hosts or not state.fits(stand_in, h):
                        continue
                    if domains.domain_of(h) not in used_domains:
                        choice = (h, True)
                        break
                    if choice is None:
                        choice = (h, False)
                if choice is None:
                    uncovered += k - len(placed)
                    break
                host, was_strict = choice
                state.place(stand_in, host)
                placed.append((stand_in.id, host))
                used_hosts.add(host)
                used_domains.add(domains.domain_of(host))
                if was_strict:
                    strict += 1
                else:
                    relaxed += 1
        if placed:
            replicas[gid] = placed
    return replicas, {
        "replicas_strict": strict,
        "replicas_relaxed": relaxed,
        "replicas_uncovered": uncovered,
    }
