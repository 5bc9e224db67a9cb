"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run as bench  # noqa: E402
from ledger import Recorder, Span, layer_totals, self_times  # noqa: E402
from stats import MIN_BEYOND, nearest_rank, tail  # noqa: E402
import workloads  # noqa: E402
from workloads import BatchRequest, BatchWorkload  # noqa: E402

from repro.hmn.config import HMNConfig  # noqa: E402
from repro.topology import line_cluster  # noqa: E402
from repro.workload import generate_virtual_environment  # noqa: E402


# ----------------------------------------------------------------------
# percentile helper
# ----------------------------------------------------------------------
def test_nearest_rank():
    samples = [float(x) for x in range(1, 101)]
    assert nearest_rank(samples, 50) == (50.0, 50)
    assert nearest_rank(samples, 90) == (90.0, 90)
    assert nearest_rank([3.0], 99.9) == (3.0, 1)


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),  # p90 has 1 sample beyond
        (99, None),  # p90 is rank 90: 9 beyond
        (100, 90.0),  # exactly 10 beyond p90
        (999, 90.0),  # p99 is rank 990: 9 beyond
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_picks_highest_percentile_with_ten_beyond(n, expected):
    samples = [float(i) for i in range(n, 0, -1)]  # order must not matter
    t = tail(samples)
    if expected is None:
        assert t is None
        return
    assert t.percentile == expected
    assert t.n == n
    assert t.beyond >= MIN_BEYOND
    value, rank = nearest_rank(samples, expected)
    assert (t.value, t.beyond) == (value, n - rank)


# ----------------------------------------------------------------------
# self-time accounting
# ----------------------------------------------------------------------
def _span(id, parent, layer, start, end):
    return Span(id, parent, f"s{id}", layer, start, end, None)


def test_self_times_on_nested_spans():
    spans = [
        _span(1, None, None, 0.0, 10.0),  # request root, unclaimed
        _span(2, 1, "hosting", 1.0, 4.0),
        _span(3, 1, "networking", 5.0, 9.0),
        _span(4, 3, "routing", 6.0, 7.0),
        _span(5, 3, "routing", 7.5, 8.0),
        _span(6, None, "service", 20.0, 21.0),  # second root
    ]
    assert self_times(spans) == pytest.approx(
        {1: 3.0, 2: 3.0, 3: 2.5, 4: 1.0, 5: 0.5, 6: 1.0}
    )
    totals, root = layer_totals(spans)
    assert totals == pytest.approx(
        {None: 3.0, "hosting": 3.0, "networking": 2.5, "routing": 1.5, "service": 1.0}
    )
    assert root == pytest.approx(11.0)
    # Self times partition the root time exactly.
    assert sum(totals.values()) == pytest.approx(root)


def test_span_whose_parent_is_not_recorded_counts_as_root():
    totals, root = layer_totals([_span(7, 99, "routing", 0.0, 2.0)])
    assert totals == {"routing": 2.0}
    assert root == 2.0


def test_recorder_nests_per_thread_and_restores_patches():
    class Owner:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    import types

    module = types.ModuleType("fake_layers")
    module.Owner = Owner
    sys.modules["fake_layers"] = module
    original = Owner.__dict__["inner"]
    rec = Recorder()
    patches = [
        ("fake_layers:Owner", "outer", "outer", None),
        ("fake_layers:Owner", "inner", "inner", "leaf"),
    ]
    rec.install(patches)
    try:
        rec.set_request("r1")
        assert Owner().outer() == 2
        worker = threading.Thread(target=Owner().inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        rec.uninstall()
        del sys.modules["fake_layers"]
    assert Owner.__dict__["inner"] is original
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer,) = by_name["outer"]
    main_inner, thread_inner = sorted(by_name["inner"], key=lambda s: s.parent is None)
    assert main_inner.parent == outer.id and outer.parent is None
    assert main_inner.request == outer.request == "r1"
    assert thread_inner.parent is None  # other thread: its own stack


# ----------------------------------------------------------------------
# the digest gate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def small_batch():
    cluster = line_cluster(4, seed=7)
    venv = generate_virtual_environment(8, density=0.5, seed=7)
    return BatchWorkload("tiny"), [BatchRequest(cluster, venv, HMNConfig())]


def test_gate_accepts_repeated_passes(small_batch):
    workload, requests = small_batch
    first = workload.run_pass(None, requests)
    again = workload.run_pass(None, requests, first=first)
    assert first.outcomes == again.outcomes
    assert bench.check_passes("tiny", "1", [first, again], None) == first.digest


def test_gate_rejects_invalid_mapping(small_batch):
    workload, requests = small_batch
    first = workload.run_pass(None, requests)
    mapping = first.mappings[0]
    req = requests[0]
    # Move one routed guest to another host: its paths no longer start
    # where it lives, so Eqs. 1-9 fail.
    (a, b), nodes = next((k, p) for k, p in mapping.paths.items() if len(p) > 1)
    moved = dict(mapping.assignments)
    moved[a] = next(h for h in req.cluster.host_ids if h != moved[a])
    with pytest.raises(gate.GateError):
        gate.check_mapping(req.cluster, req.venv, dataclasses.replace(mapping, assignments=moved))


def test_gate_rejects_pass_that_differs_from_first(small_batch, monkeypatch):
    workload, requests = small_batch
    first = workload.run_pass(None, requests)
    mapping = first.mappings[0]
    perturbed = dataclasses.replace(
        mapping, meta={**mapping.meta, "objective": mapping.meta["objective"] + 1e-9}
    )
    first.mappings[0] = perturbed
    with pytest.raises(gate.GateError):
        workload.run_pass(None, requests, first=first)


def test_gate_rejects_digest_that_differs_from_record(small_batch, tmp_path, monkeypatch):
    workload, requests = small_batch
    first = workload.run_pass(None, requests)
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({
        "default_seed": 1, "heldout_seed": 2,
        "digests": {"tiny": {"1": first.digest, "2": "0" * 64}},
    }))
    monkeypatch.setattr(gate, "EXPECTED", expected)
    assert bench.check_passes("tiny", "1", [first], None) == first.digest
    with pytest.raises(gate.GateError):
        bench.check_passes("tiny", "2", [first], None)


def test_gate_rejects_decisions_that_differ_from_reference(small_batch):
    workload, requests = small_batch
    first = workload.run_pass(None, requests)
    with pytest.raises(gate.GateError):
        bench.check_passes("tiny", "1", [first], ["something else"])


# ----------------------------------------------------------------------
# the compiled kernels
# ----------------------------------------------------------------------
@pytest.mark.parametrize("loader", ["load_kernel", "load_stitch_kernel"])
def test_missing_kernel_stops_the_run(loader, monkeypatch):
    # The pure-Python fallback gives identical outputs, so only this
    # check keeps a run from timing the other engine unnoticed.
    monkeypatch.setattr(workloads, loader, lambda: None)
    with pytest.raises(workloads.KernelUnavailable):
        workloads.load_kernels()
