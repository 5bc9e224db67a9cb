"""Correctness tooling: golden corpus, metamorphic oracles, fuzzing.

Three complementary ways to trust a mapper change:

* :mod:`repro.conformance.digest` / :mod:`~repro.conformance.corpus`
  — content-addressed digests of canonical scenarios, pinned in
  ``GOLDEN.json``; any behavioral drift flips a digest.
* :mod:`repro.conformance.oracles` — metamorphic transformations
  (relabeling, unit rescaling, guest-order permutation, unreachable
  host) whose effect on the result is known exactly.
* :mod:`repro.conformance.fuzz` — seeded differential fuzzing across
  the production/reference routers
  (:mod:`~repro.conformance.reference`), serial/parallel runners,
  validator, and exact solver.
"""

from repro.conformance.corpus import (
    CORPUS,
    CORPUS_SEED,
    CorpusCase,
    Mismatch,
    case_by_name,
    compute_digests,
    corpus_cases,
    golden_path,
    load_golden,
    verify,
    write_golden,
)
from repro.conformance.digest import (
    DIGEST_FORMAT,
    canonical_document,
    canonical_json,
    digest,
    digest_document,
)
from repro.conformance.fuzz import (
    Divergence,
    FuzzReport,
    generate_instance,
    run_fuzz,
)
from repro.conformance.oracles import (
    ORACLES,
    GuestOrderOracle,
    Oracle,
    RelabelingOracle,
    UnitRescalingOracle,
    UnreachableHostOracle,
    oracle_by_name,
)
from repro.conformance.reference import ReferenceRoutingCache

__all__ = [
    "CORPUS",
    "CORPUS_SEED",
    "CorpusCase",
    "Mismatch",
    "case_by_name",
    "compute_digests",
    "corpus_cases",
    "golden_path",
    "load_golden",
    "verify",
    "write_golden",
    "DIGEST_FORMAT",
    "canonical_document",
    "canonical_json",
    "digest",
    "digest_document",
    "Divergence",
    "FuzzReport",
    "generate_instance",
    "run_fuzz",
    "ORACLES",
    "GuestOrderOracle",
    "Oracle",
    "RelabelingOracle",
    "UnitRescalingOracle",
    "UnreachableHostOracle",
    "oracle_by_name",
    "ReferenceRoutingCache",
]
