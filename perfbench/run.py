#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 2009 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs a traced pass between two untraced passes over the
same inputs and reports the per-layer ledger instead.  Human-readable lines
come first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 on success, 1 when the correctness gate fails (no
metrics are reported then), 2 when the program under test or one of
its compiled kernels is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout (service stores, span dumps).
WORKDIR = ROOT / ".perfbench"
#: Setups per run: at least MIN_SETUPS, then more until SETUP_BUDGET_S
#: is spent or MAX_SETUPS is reached.  ``setup_s`` is their median.
MIN_SETUPS = 3
MAX_SETUPS = 21
SETUP_BUDGET_S = 1.0


def _parse(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the one in expected.json)")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measurement budget of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Run:
    """Setups, input generation and passes of one workload."""

    def __init__(self, workload, seed: int, seconds: float) -> None:
        from workloads import load_kernels

        self.workload = workload
        self.seed = seed
        self.kernel_load_s = load_kernels()
        self.setup_s: list[float] = []
        self.topology_s: list[float] = []
        self.peak_rss_mb = 0.0
        self.env = None
        while len(self.setup_s) < MAX_SETUPS and (
            len(self.setup_s) < MIN_SETUPS or sum(self.setup_s) < SETUP_BUDGET_S
        ):
            if self.env is not None:
                workload.close(self.env)
            self.env = self._setup()
        self.n_initial_setups = len(self.setup_s)
        t0 = time.perf_counter()
        self.inputs = workload.generate(seed, self.env, seconds)
        self.gen_s = time.perf_counter() - t0
        self.reference = workload.reference(self.env, self.inputs)

    def _setup(self):
        t0 = time.perf_counter()
        env = self.workload.setup(self.seed, self.topology_s)
        self.setup_s.append(time.perf_counter() - t0)
        return env

    def setup_again(self) -> None:
        """Repeat the start-of-run setups once the passes are done, so
        ``setup_s`` samples the host at both ends of the run."""
        for _ in range(self.n_initial_setups):
            self.workload.close(self._setup())

    def one_pass(self, first=None, recorder=None):
        if self.env is None:
            self.env = self._setup()
        if recorder is None:
            result = self.workload.run_pass(self.env, self.inputs, first=first)
        else:
            with recorder:
                result = self.workload.run_pass(self.env, self.inputs, recorder, first)
        if not self.workload.reusable:
            self.env = None
        return result

    def close(self) -> None:
        if self.env is not None:
            self.workload.close(self.env)
            self.env = None


def check_passes(name: str, key: str, passes, reference) -> str:
    """Every pass must agree with the first, with the sequential
    reference drive (when the workload has one) and with the recorded
    digest for this seed (when one is recorded)."""
    from gate import GateError, expected_digest

    first = passes[0]
    for i, p in enumerate(passes[1:], start=2):
        if p.outcomes != first.outcomes:
            raise GateError(f"pass {i} produced different outputs than pass 1")
    if reference is not None and reference != first.outcomes:
        k = next(
            (k for k, (a, b) in enumerate(zip(first.outcomes, reference)) if a != b),
            min(len(first.outcomes), len(reference)),
        )
        raise GateError(
            f"decisions differ from the sequential ServiceCore drive at operation {k}"
        )
    digest = first.digest
    expected = expected_digest(name, key)
    if expected is not None and expected != digest:
        raise GateError(f"digest {digest} differs from the recorded {expected}")
    return digest


def busy_s(passes) -> float:
    """Summed serving time with each operation at its median over the
    passes (a single pass: its plain sum)."""
    from statistics import median

    return sum(median(times) for times in zip(*(p.service_s for p in passes)))


def end_to_end(run: Run, passes) -> tuple[dict, list[str]]:
    """The end-to-end metrics of untraced *passes* and the report lines.

    All eight are printed with their sample counts.  Only the ones
    that are defined, non-zero and comparable across seeds on every
    workload go into the JSON result (see README.md); ``objective`` and
    ``failed_ratio`` are exact functions of the seed, pinned by the
    digest instead.
    """
    from statistics import median

    from stats import tail
    from workloads import SLO_S

    first = passes[0]
    latencies = [x for p in passes for x in p.latencies]
    sent = sum(p.sent for p in passes)
    metrics = {
        "setup_s": _metric(median(run.setup_s), "s"),
        "vlinks_per_s": _metric(first.vlinks_ok / busy_s(passes), "1/s"),
        "peak_rss_mb": _metric(run.peak_rss_mb, "MB"),
    }
    t = tail(latencies)
    rows = [
        ("setup_s", metrics["setup_s"]["value"], "s", f"n={len(run.setup_s)}"),
        ("vlinks_per_s", metrics["vlinks_per_s"]["value"], "1/s",
         f"n={len(first.service_s)} operations x {len(passes)} passes"),
        ("admit_s.p50", median(latencies), "s", f"n={len(latencies)}"),
        (f"admit_s.{t.name}", t.value, "s", f"n={t.n}, {t.beyond} beyond")
        if t is not None else
        ("admit_s.p90", float("nan"), "s", f"n={len(latencies)}: <10 samples beyond any tail"),
        ("slo_ratio", sum(p.slo_met for p in passes) / sent, "ratio",
         f"n={sent}, limit {SLO_S} s"),
        ("objective", sum(first.objectives) / len(first.objectives)
         if first.objectives else float("nan"), "MIPS", f"n={len(first.objectives)}"),
        ("failed_ratio", first.failures / first.sent, "ratio",
         f"n={first.sent}; {first.infeasible} infeasible instances not sent"),
        ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", "n=1"),
        ("kernel.load_s", run.kernel_load_s, "s", "n=1, first load in this process"),
    ]
    lines = [f"  {name:<16} {value:<12.6g} {unit:<6} ({note})" for name, value, unit, note in rows]
    lines.append(f"  generator lag    {max(p.lag_max_s for p in passes):.6g} s max")
    return metrics, lines


def per_layer(run: Run, plain, traced, recorder) -> dict:
    """The per-layer ledger of one *traced* pass, bracketed by the
    untraced passes *plain*."""
    from statistics import median

    from ledger import layer_totals, self_times
    from stats import nearest_rank

    spans = recorder.spans
    selfs = self_times(spans)
    layers, root_s = layer_totals(spans)

    def self_of(name):
        return sum(selfs[s.id] for s in spans if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    maps = recorder.mappings
    sharded = [m for m in maps if "shard" in m.meta]

    def stage_count(stage, field):
        return sum(r.extra.get(field, 0) for m in maps for r in m.stages if r.name == stage)

    def shard_stage_s(stage):
        return sum(r.elapsed_s for m in sharded for r in m.stages if r.name == stage)

    def timing_sum(field):
        return sum(m.meta["timings"][field] for m in maps)

    # Routing-cache hit rate, weighted by each map's routed links.
    routed = timing_sum("routing_calls")
    hit_rate = (
        sum(m.meta["timings"]["cache_hit_rate"] * m.meta["timings"]["routing_calls"] for m in maps)
        / routed if routed else 0.0
    )
    waits = [
        s.start - traced.sent_at[s.request]
        for s in spans
        if s.name == "service.admit" and s.parent is None and s.request in traced.sent_at
    ]
    out = {
        "kernel.load_s": (run.kernel_load_s, "s"),
        "workload.gen_s": (run.gen_s, "s"),
        "workload.lag_s.max": (max(p.lag_max_s for p in plain), "s"),
        "topology.build_s": (median(run.topology_s), "s"),
        "hosting.s": (layers.get("hmn.hosting", 0.0), "s"),
        "hosting.placements": (stage_count("hosting", "placements"), "count"),
        "migration.s": (layers.get("hmn.migration", 0.0), "s"),
        "migration.moves": (stage_count("migration", "migrations"), "count"),
        "migration.iterations": (stage_count("migration", "iterations"), "count"),
        "networking.s": (layers.get("hmn.networking", 0.0), "s"),
        "networking.routing_calls": (routed, "count"),
        "routing.route_s": (layers.get("routing", 0.0), "s"),
        "routing.kernel_s": (timing_sum("route_kernel_s"), "s"),
        "routing.expansions": (timing_sum("router_expansions"), "count"),
        "routing.cache_hit_rate": (hit_rate, "ratio"),
        "state.reserve_s": (self_of("state.reserve_path"), "s"),
        "state.reserve_calls": (calls("state.reserve_path"), "count"),
        "state.release_s": (self_of("state.release_path"), "s"),
        "state.release_calls": (calls("state.release_path"), "count"),
        "state.copy_s": (self_of("state.copy"), "s"),
        "shard.s": (layers.get("shard", 0.0), "s"),
        "shard.partition_s": (shard_stage_s("partition"), "s"),
        "shard.hosting_s": (shard_stage_s("hosting"), "s"),
        "shard.migration_s": (shard_stage_s("migration"), "s"),
        "shard.stitch_s": (shard_stage_s("networking"), "s"),
        "shard.fallback_rate": (
            sum(m.meta["shard"].get("fallback_rate", 0.0) for m in sharded) / len(sharded)
            if sharded else 0.0, "ratio"),
        "service.queue_wait_s.p50": (nearest_rank(waits, 50)[0] if waits else 0.0, "s"),
        "service.queue_wait_s.p90": (nearest_rank(waits, 90)[0] if waits else 0.0, "s"),
        "service.admit_s": (self_of("service.admit"), "s"),
        "service.release_s": (self_of("service.release"), "s"),
        "service.rejected": (traced.rejected, "count"),
        "store.append_s": (self_of("store.append"), "s"),
        "store.append_calls": (calls("store.append"), "count"),
        "store.bytes": (traced.store_bytes, "B"),
        "other.s": (layers.get(None, 0.0), "s"),
        "trace.overhead_s": (traced.busy_s - sum(p.busy_s for p in plain) / len(plain), "s"),
        "trace.other_share": (layers.get(None, 0.0) / root_s if root_s else 0.0, "ratio"),
    }
    return {k: _metric(v, u) for k, (v, u) in out.items()}


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    from gate import GateError
    from ledger import Recorder
    from workloads import KernelUnavailable, make_workloads

    workload = make_workloads(WORKDIR)[name]
    run = None
    passes = []
    recorder = None
    try:
        try:
            run = Run(workload, seed, seconds)
        except KernelUnavailable as exc:
            print(f"error: {exc}; the run would time the pure-Python fallback",
                  file=sys.stderr)
            return 2
        if trace:
            # Untraced passes on both sides of the traced one, so drift in
            # the host's speed cancels out of trace.overhead_s.
            passes.append(run.one_pass())
            recorder = Recorder()
            passes.append(run.one_pass(passes[0], recorder))
            passes.append(run.one_pass(passes[0]))
        else:
            # Passes until the next one would end past *seconds*.  The
            # count follows the host's speed, which swings by up to 2x
            # over tens of minutes on a shared machine, so every run
            # measures for about as long; the per-operation median does
            # not drift with the number of samples.
            t0 = time.perf_counter()
            while True:
                passes.append(run.one_pass(passes[0] if passes else None))
                elapsed = time.perf_counter() - t0
                if (len(passes) >= workload.min_passes
                        and elapsed * (len(passes) + 1) / len(passes) > seconds):
                    break
        # Before the closing setups, which only add harness memory.
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.setup_again()
        digest = check_passes(
            name, workload.digest_key(seed, run.inputs), passes, run.reference
        )
    except GateError as exc:
        print(f"{name} seed {seed}: correctness gate FAILED: {exc}")
        attempted = sum(p.sent for p in passes) or 1
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    finally:
        if run is not None:
            run.close()

    print(f"{name} seed {seed}: {len(passes)} pass(es), digest {digest}")
    if trace:
        metrics = per_layer(run, [passes[0], passes[2]], passes[1], recorder)
        for k, v in metrics.items():
            print(f"  {k:<26} {v['value']:.6g} {v['unit']}")
        out = WORKDIR / f"spans-{name}.jsonl"
        recorder.write(out)
        print(f"  spans: {len(recorder.spans)} written to {out.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(run, passes)
        print("\n".join(lines))
    attempted = sum(p.sent for p in passes)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({src}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    # Keep every file the run writes inside the checkout, including the
    # C compiler's temporaries when the kernels are first built.
    tmp = WORKDIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    seed = args.seed
    if seed is None:
        from gate import load_expected

        seed = load_expected()["default_seed"]
    return measure(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
