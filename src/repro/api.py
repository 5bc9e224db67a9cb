"""The stable public API of :mod:`repro`.

One import surface for everything an emulator front-end or experiment
script needs — mapping, sweeping, chaos runs, persistence, configs and
observability — with semantic-versioning stability guarantees that the
deep module paths do not carry:

* names exported here (see ``__all__``) only change at a major version;
* deep imports (``repro.hmn.pipeline.hmn_map`` etc.) keep working but
  are implementation layout, free to move between minor versions;
* JSON persistence has one spelling, :func:`save` and the typed
  ``load_*`` readers; :func:`run_grid` is the runner's own function,
  re-exported (``repro.analysis.run_grid`` is the same object).

Quickstart::

    from repro import api

    cluster = api.load_cluster("lab.json")
    venv = api.load_venv("exp-42.json")
    mapping = api.map_virtual_env(cluster, venv, config=api.HMNConfig.paper())
    api.save(mapping, "exp-42.mapping.json")

Everything here is also re-exported at the package root, so
``from repro import map_virtual_env`` works too.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping as TMapping

from repro.analysis.runner import run_grid
from repro.core.cluster import PhysicalCluster
from repro.core.mapping import Mapping
from repro.core.venv import VirtualEnvironment
from repro.errors import ConfigError, MappingError, ModelError, ReproError, StoreError
from repro.hmn.config import HMNConfig
from repro.hmn.pipeline import hmn_map
from repro.io import _load_json, _save_json
from repro.obs import MetricsRegistry, Tracer, load_trace, recording, validate_trace
from repro.portfolio import (
    Candidate,
    PortfolioPolicy,
    bnb_map,
    load_policy,
    rounding_map,
)
from repro.portfolio import race as race_portfolio
from repro.redundancy import (
    FailureDomains,
    derive_domains,
    redundancy_records,
)
from repro.resilience.metrics import survivability, survivability_from_trace
from repro.resilience.operator import ChaosResult, RepairPolicy
from repro.resilience.operator import run_chaos as _run_chaos
from repro.service import (
    AdmissionConfig,
    AdmissionDecision,
    ExperimentStore,
    MapRequest,
    ReplayReport,
    open_service,
    replay_admissions,
)
from repro.shard import (
    AUTO_MIN_HOSTS,
    Partition,
    partition_cluster,
    resolve_shard_workers,
    shard_map,
)

__all__ = [
    # the one-call entry points
    "map_virtual_env",
    "run_grid",
    "run_chaos",
    # persistence
    "load_cluster",
    "load_venv",
    "load_mapping",
    "save",
    # configuration + results
    "HMNConfig",
    "RepairPolicy",
    "Mapping",
    "ChaosResult",
    # errors
    "ReproError",
    "ModelError",
    "MappingError",
    "ConfigError",
    "StoreError",
    # the admission service (online multi-tenant mapping)
    "open_service",
    "replay_admissions",
    "MapRequest",
    "AdmissionDecision",
    "AdmissionConfig",
    "ReplayReport",
    "ExperimentStore",
    # observability
    "recording",
    "Tracer",
    "MetricsRegistry",
    "load_trace",
    "validate_trace",
    # resilience metrics
    "survivability",
    "survivability_from_trace",
    # sharding (100k-host scale-out; hmn_map dispatches automatically)
    "shard_map",
    "partition_cluster",
    "Partition",
    "AUTO_MIN_HOSTS",
    "resolve_shard_workers",
    # availability (k-redundant placement + backup paths)
    "FailureDomains",
    "derive_domains",
    "redundancy_records",
    # conformance (correctness tooling)
    "mapping_digest",
    "verify_conformance",
    "run_conformance_fuzz",
    # solver portfolio (anytime frontier + statistical racing)
    "bnb_map",
    "rounding_map",
    "race_portfolio",
    "Candidate",
    "PortfolioPolicy",
    "load_policy",
]


# ----------------------------------------------------------------------
# mapping
# ----------------------------------------------------------------------
def map_virtual_env(
    cluster: PhysicalCluster,
    venv: VirtualEnvironment,
    *,
    config: HMNConfig | TMapping[str, Any] | None = None,
    **kwargs: Any,
) -> Mapping:
    """Map *venv* onto *cluster* with the paper's HMN heuristic.

    The facade form of :func:`repro.hmn.pipeline.hmn_map`: *config* is
    keyword-only and may be a plain dict (round-tripped through
    :meth:`HMNConfig.from_dict`, so the CLI and config files can pass
    JSON straight in); remaining keyword arguments (``state``,
    ``cache``, ``backup_ledger``) are forwarded unchanged.  Returns the same
    byte-identical :class:`Mapping` as the deep import.
    """
    if config is not None and not isinstance(config, HMNConfig):
        config = HMNConfig.from_dict(config)
    return hmn_map(cluster, venv, config, **kwargs)


def run_chaos(
    cluster: PhysicalCluster,
    *,
    config: HMNConfig | TMapping[str, Any] | None = None,
    **kwargs: Any,
) -> ChaosResult:
    """Generate a fault trace and replay it through the self-healing
    operator — the one-call chaos experiment
    (:func:`repro.resilience.operator.run_chaos`).  As with
    :func:`map_virtual_env`, *config* may be a plain dict.
    """
    if config is not None and not isinstance(config, HMNConfig):
        config = HMNConfig.from_dict(config)
    return _run_chaos(cluster, config=config, **kwargs)


# ----------------------------------------------------------------------
# conformance
# ----------------------------------------------------------------------
# Imported lazily: the conformance package pulls in the workload and
# resilience layers, which the plain mapping fast path never needs.
def mapping_digest(
    cluster: PhysicalCluster, venv: VirtualEnvironment, mapping: Mapping
) -> str:
    """Content-addressed SHA-256 identity of a mapping result
    (:func:`repro.conformance.digest`): equal digests iff identical
    assignments, routes, objective and residuals."""
    from repro.conformance import digest

    return digest(cluster, venv, mapping)


def verify_conformance(**kwargs: Any):
    """Recompute the golden corpus and return the list of digest
    mismatches — empty means conformant
    (:func:`repro.conformance.verify`)."""
    from repro.conformance import verify

    return verify(**kwargs)


def run_conformance_fuzz(n_seeds: int, **kwargs: Any):
    """Run the differential fuzzing campaign and return its
    :class:`~repro.conformance.fuzz.FuzzReport`
    (:func:`repro.conformance.run_fuzz`)."""
    from repro.conformance import run_fuzz

    return run_fuzz(n_seeds, **kwargs)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def _load_typed(path: str | Path, expected: type, kind: str):
    obj = _load_json(path)
    if not isinstance(obj, expected):
        raise ModelError(
            f"{path}: expected a {kind} document, found {type(obj).__name__}"
        )
    return obj


def load_cluster(path: str | Path) -> PhysicalCluster:
    """Read a ``repro/cluster@1`` JSON file."""
    return _load_typed(path, PhysicalCluster, "cluster")


def load_venv(path: str | Path) -> VirtualEnvironment:
    """Read a ``repro/venv@1`` JSON file."""
    return _load_typed(path, VirtualEnvironment, "virtual-environment")


def load_mapping(path: str | Path) -> Mapping:
    """Read a ``repro/mapping@1`` JSON file."""
    return _load_typed(path, Mapping, "mapping")


def save(obj: PhysicalCluster | VirtualEnvironment | Mapping, path: str | Path) -> Path:
    """Write a cluster / virtual environment / mapping as versioned
    JSON (the inverse of the ``load_*`` readers)."""
    return _save_json(obj, path)
