"""The output-correctness gate.

Every mapping a run produces goes through the Eqs. 1-9 validator and
is reduced to its :func:`repro.api.mapping_digest`; a workload's digest
hashes its ordered per-request outcomes.  A run whose outputs fail
validation, differ between passes, or differ from the digest recorded
in ``expected.json`` for its seed is reported as failed, not timed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable

from repro.api import mapping_digest
from repro.errors import ModelError

__all__ = ["GateError", "EXPECTED", "check_mapping", "combine", "expected_digest", "load_expected"]

EXPECTED = Path(__file__).with_name("expected.json")


class GateError(Exception):
    """A run's outputs are wrong; the run must not be timed."""


def check_mapping(cluster, venv, mapping) -> str:
    """Validate *mapping* against Eqs. 1-9 and return its digest.

    :func:`~repro.api.mapping_digest` runs the full validator and
    refuses to digest an invalid mapping."""
    try:
        return mapping_digest(cluster, venv, mapping)
    except ModelError as exc:
        raise GateError(str(exc)) from None


def combine(outcomes: Iterable[Any]) -> str:
    """SHA-256 over the canonical JSON of an ordered outcome list."""
    text = json.dumps(list(outcomes), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def expected_digest(workload: str, key: str) -> str | None:
    """The recorded digest of *workload* under *key* (the seed, plus the
    trace length for the service), if one exists."""
    return load_expected()["digests"].get(workload, {}).get(key)
