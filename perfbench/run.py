"""End-to-end scenario benchmark of the SLA placement controller.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 35 --trace 0

Runs one workload (``paper``, ``fleet`` or ``chaos-edge``, see
``workloads.py``) end to end through ``ScenarioSpec.materialize()`` and
``ExperimentRunner.run()``, cycling through the workload's scenario
seeds for ``--seconds`` (at least one round plus one repeated run, so
the determinism check always has something to compare).  Every run is
checked for correctness.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` spends half the time on untraced runs (at least one
round), then traces one round; it reports the per-layer split and the
tracing overhead and writes the spans to ``perfbench/out/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``
and ``failed`` (control cycles; a cycle that fell back to the
last-known-good placement, or belongs to a run that failed a check, is
failed) and ``metrics``.  See ``README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import calibration
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Scenario seeds a ``--trace 0`` run repeats at least once, so the
#: determinism check always has a repeat to compare.
MIN_REPEATS = 1
#: Tail percentiles, highest first; the tail is the highest one that
#: leaves ``TAIL_BEYOND`` decide samples beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0)
TAIL_BEYOND = 10


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile leaving ``TAIL_BEYOND`` of ``n`` samples
    beyond it."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= TAIL_BEYOND:
            return p
    raise ValueError(f"{n} decide samples are too few for a tail percentile")


def minimum_runs(measure, specs) -> tuple[int, int]:
    """Runs a ``--trace 0`` invocation makes at least, and their cycles:
    one round plus ``MIN_REPEATS``, and enough cycles for the lowest
    tail percentile."""
    needed = TAIL_BEYOND / (1.0 - TAIL_LADDER[-1] / 100.0)
    runs, cycles = 0, 0
    while runs < len(specs) + MIN_REPEATS or cycles < needed:
        cycles += measure.expected_cycles(specs[runs % len(specs)])
        runs += 1
    return runs, cycles


def _rank(p: float, n: int) -> int:
    """Nearest rank (1-based) of percentile ``p`` among ``n`` samples, in
    integer arithmetic on tenths of a percent."""
    return max(-(-round(p * 10) * n // 1000), 1)


def nearest_rank(samples: list[float], p: float) -> float:
    return sorted(samples)[_rank(p, len(samples)) - 1]


def calibrated_run(measure, spec, kernels: list[float], tracer=None):
    """One run, followed by calibration kernels (see ``calibration.py``)."""
    gc.collect()
    start = perf_counter()
    record = measure.run_once(spec, tracer)
    kernels.extend(calibration.sample(perf_counter() - start))
    return record


def run_rounds(measure, specs, seconds: float, min_runs: int, kernels) -> list:
    """Untraced runs cycling through ``specs`` until ``seconds`` have
    passed and at least ``min_runs`` ran."""
    records = []
    start = perf_counter()
    while len(records) < min_runs or perf_counter() - start < seconds:
        spec = specs[len(records) % len(specs)]
        records.append(calibrated_run(measure, spec, kernels))
    return records


def end_to_end(records, guaranteed_cycles: int, scale: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics and a human-readable line for each."""
    ok = [r for r in records if not math.isnan(r.run_s)]
    first_round = {}
    for r in ok:
        first_round.setdefault(r.scenario_seed, r)
    firsts = list(first_round.values())
    decides = [s for r in ok for s in r.decide_s]
    p = tail_percentile(guaranteed_cycles)
    raw = {
        "setup_s": statistics.median(r.setup_s for r in ok),
        "sim_s_per_wall_s": statistics.median(r.horizon / r.run_s for r in ok),
        "decide_p50_ms": statistics.median(decides) * 1e3,
        "decide_tail_ms": nearest_rank(decides, p) * 1e3,
    }
    setup = raw["setup_s"] * scale
    speed = raw["sim_s_per_wall_s"] / scale
    p50 = raw["decide_p50_ms"] * scale
    tail = raw["decide_tail_ms"] * scale
    min_utility = statistics.fmean(r.fingerprint["min_utility"] for r in firsts)
    disruptive = statistics.fmean(r.fingerprint["disruptive_actions"] for r in firsts)
    cycles = sum(r.cycles for r in firsts)
    healthy = 1.0 - sum(r.degraded_cycles for r in firsts) / cycles
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    beyond = len(decides) - _rank(p, len(decides))
    rows = [
        ("setup_s", setup, "s", f"n={len(ok)} runs, median"),
        ("sim_s_per_wall_s", speed, "sim-s/s", f"n={len(ok)} runs, median"),
        ("decide_p50_ms", p50, "ms", f"n={len(decides)} cycles"),
        ("decide_tail_ms", tail, "ms", f"p{p:g}, n={len(decides)} cycles, {beyond} beyond"),
        ("min_utility", min_utility, "1", f"n={len(firsts)} seeds, mean"),
        ("disruptive_actions", disruptive, "count", f"n={len(firsts)} seeds, mean per run"),
        ("healthy_cycle_fraction", healthy, "1", f"n={cycles} cycles"),
        ("peak_rss_mb", rss_mb, "MB", "n=1 process"),
    ]
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    lines = [
        f"  {name:<24}{value:>14.6g} {unit:<8} {note}"
        + (f"; unscaled {raw[name]:.6g}" if name in raw else "")
        for name, value, unit, note in rows
    ]
    return metrics, lines


#: Per-layer metric name -> span names whose self times it sums.
SELF_TIME_LAYERS = {
    "engine.self_s": ("sim.engine.run", "sim.engine.schedule", "sim.engine.cancel"),
    "runner.self_s": ("experiments.runner.run", "runner.cycle", "runner.event"),
    "jobs.advance_s": ("jobs.advance",),
    "jobmodel.snapshot_s": ("jobmodel.snapshot",),
    "runner.lr_utility_s": ("runner.lr_utility",),
    "recorder.record_s": ("recorder.record", "recorder.bump"),
    "resilient.guard_s": ("resilient.decide",),
    "sharded.overhead_s": ("sharded.decide",),
    "controller.self_s": ("controller.decide",),
    "controller.arbiter_s": ("controller.arbiter",),
    "controller.equalize_s": ("controller.equalize",),
    "controller.solver_s": ("controller.solver",),
    "controller.planner_s": ("controller.planner",),
    "netmodel.rtt_s": ("netmodel",),
    "faults.compile_s": ("faults.compile",),
    "setup.self_s": ("setup.materialize", "setup.runner"),
}

def per_layer(tracer, traced, untraced, scale: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced round, per scenario run."""
    runs = len(traced)
    self_s = tracer.self_s
    values: dict[str, tuple[float, str]] = {}
    for metric, names in SELF_TIME_LAYERS.items():
        values[metric] = (scale * sum(self_s.get(n, 0.0) for n in names) / runs, "s")
    calls = tracer.calls
    counters = tracer.counters

    def per_run(x: float) -> float:
        return x / runs

    def telemetry(key: str) -> float:
        return per_run(sum(r.telemetry.get(key, 0.0) for r in traced))

    def fingerprint(key: str) -> float:
        return per_run(sum(r.fingerprint.get(key, 0.0) for r in traced))

    values["controller.demand_s"] = (scale * telemetry("stage_demand_s"), "s")
    values["controller.requests_s"] = (scale * telemetry("stage_requests_s"), "s")
    fired = calls["runner.cycle"] + calls["runner.event"]
    values.update(
        {
            "engine.events_fired": (per_run(fired), "count"),
            "engine.events_scheduled": (per_run(calls["sim.engine.schedule"]), "count"),
            "engine.events_cancelled": (per_run(counters["engine.events_cancelled"]), "count"),
            "jobs.advance_calls": (per_run(calls["jobs.advance"]), "count"),
            "jobmodel.snapshot_calls": (per_run(calls["jobmodel.snapshot"]), "count"),
            "recorder.samples": (per_run(calls["recorder.record"]), "count"),
            "resilient.fallbacks": (fingerprint("degraded_cycles"), "count"),
            "sharded.shard_max_s": (scale * per_run(shard_max_s(tracer)), "s"),
            "sharded.imbalance": (telemetry("shard_imbalance"), "1"),
            "arbiter.iterations": (per_run(counters["arbiter.iterations"]), "count"),
            "equalizer.evals": (fingerprint("eq_evals"), "count"),
            "equalizer.cache_hits": (fingerprint("eq_cache_hits"), "count"),
            "controller.cold_cycles": (fingerprint("cold_cycles"), "count"),
            "solver.job_requests": (per_run(counters["solver.job_requests"]), "count"),
            "netmodel.calls": (per_run(calls["netmodel"]), "count"),
        }
    )
    lookups = values["equalizer.evals"][0] + values["equalizer.cache_hits"][0]
    values["equalizer.lookups"] = (lookups, "count")
    values["equalizer.hit_ratio"] = (
        values["equalizer.cache_hits"][0] / lookups if lookups else 0.0,
        "1",
    )
    for kind in tracing.ACTION_KINDS.values():
        values[f"planner.actions.{kind}"] = (
            per_run(counters[f"planner.actions.{kind}"]),
            "count",
        )

    # Tracing overhead: each traced run against the untraced median of
    # the same scenario seed.
    untraced_by_seed: dict[int, list[float]] = {}
    for r in untraced:
        if not math.isnan(r.run_s):
            untraced_by_seed.setdefault(r.scenario_seed, []).append(
                scale * (r.setup_s + r.run_s)
            )
    pairs = [
        (scale * (r.setup_s + r.run_s), statistics.median(untraced_by_seed[r.scenario_seed]))
        for r in traced
        if not math.isnan(r.run_s) and r.scenario_seed in untraced_by_seed
    ]
    if pairs:
        wall = statistics.fmean(t for t, _ in pairs)
        base = statistics.fmean(b for _, b in pairs)
        overhead = statistics.median(t / b - 1.0 for t, b in pairs)
    else:  # every traced run crashed; its errors are reported
        wall = base = overhead = math.nan
    values["trace.wall_s"] = (wall, "s")
    values["trace.untraced_wall_s"] = (base, "s")
    values["trace.overhead"] = (overhead, "1")

    metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(values.items())}
    lines = [f"  {name:<28}{v:>14.6g} {u}" for name, (v, u) in sorted(values.items())]
    lines += accounting_lines(tracer, values, traced, scale)
    return metrics, lines


def shard_max_s(tracer) -> float:
    """Sum over sharded cycles of the slowest shard's decide() span."""
    sharded = {s[0] for s in tracer.spans if s[1] == "sharded.decide"}
    slowest: dict[int, float] = {}
    for span_id, name, start, end, parent, _, _ in tracer.spans:
        if name == "controller.decide" and parent in sharded:
            slowest[parent] = max(slowest.get(parent, 0.0), end - start)
    return sum(slowest.values())


def accounting_lines(tracer, values, traced, scale: float) -> list[str]:
    """Self-time accounting and the telemetry cross-check, for the log."""
    runs = len(traced)
    self_total = scale * sum(tracer.self_s.values()) / runs
    wall = values["trace.wall_s"][0]
    base = values["trace.untraced_wall_s"][0]
    lines = [
        f"  self times sum to {self_total:.4f} s/run; traced wall {wall:.4f} s/run, "
        f"untraced {base:.4f} s/run; unaccounted vs untraced "
        f"{(self_total - base) / base:+.2%} (tracing overhead "
        f"{values['trace.overhead'][0]:+.2%})"
    ]
    for stage in ("arbiter", "equalize", "solver", "planner"):
        span_s = values[f"controller.{stage}_s"][0]
        stage_s = scale * sum(r.telemetry.get(f"stage_{stage}_s", 0.0) for r in traced) / runs
        if stage_s:
            lines.append(
                f"  cross-check {stage}: span {span_s:.4f} s/run vs stage_ms "
                f"{stage_s:.4f} s/run ({span_s / stage_s - 1.0:+.1%})"
            )
    demand_requests = values["controller.demand_s"][0] + values["controller.requests_s"][0]
    if demand_requests:
        lines.append(
            f"  cross-check decide self: span {values['controller.self_s'][0]:.4f} s/run "
            f"vs stage_ms demand+requests {demand_requests:.4f} s/run"
        )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import measure
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(known: {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    seeds = workloads.scenario_seeds(args.workload, args.seed)
    specs = [workloads.BUILDERS[args.workload](s) for s in seeds]
    started = perf_counter()
    kernels: list[float] = []

    if args.trace == 0:
        min_runs, guaranteed_cycles = minimum_runs(measure, specs)
        records = run_rounds(measure, specs, args.seconds, min_runs, kernels)
        traced = []
    else:
        untraced = run_rounds(measure, specs, args.seconds / 2, len(specs), kernels)
        tracer = tracing.Tracer()
        traced = []
        with tracing.instrument(tracer):
            for spec in specs:
                traced.append(calibrated_run(measure, spec, kernels, tracer))
        records = untraced + traced

    errors = [(r.scenario_seed, e) for r in records for e in r.errors]
    diffs = measure.fingerprint_differences(records)
    complete = [r for r in records if not math.isnan(r.run_s)]
    print(
        f"perfbench: workload={args.workload} seed={args.seed} "
        f"scenario seeds={seeds[0]}..{seeds[-1]} runs={len(records)} "
        f"(traced {len(traced)}) elapsed={perf_counter() - started:.1f}s"
    )
    if not complete:
        print("perfbench: every run failed", file=sys.stderr)
        for seed, error in errors:
            print(f"  seed {seed}: {error}", file=sys.stderr)
        return 1

    scale = calibration.scale(kernels)
    if args.trace == 0:
        metrics, lines = end_to_end(records, guaranteed_cycles, scale)
    else:
        metrics, lines = per_layer(tracer, traced, untraced, scale)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(
            path,
            {
                "workload": args.workload,
                "seed": args.seed,
                "scenario_seeds": seeds,
                "metrics": metrics,
            },
        )
        lines.append(f"  spans written to {path.relative_to(HERE.parent)}")
    lines.append(
        f"  machine-speed scale {scale:.4f}: (reference {calibration.REFERENCE_S * 1e3:g} ms "
        f"/ median of {len(kernels)} calibration kernels) ** {calibration.EXPONENT:g}; "
        f"kernels {min(kernels) * 1e3:.1f}..{max(kernels) * 1e3:.1f} ms"
    )
    print("\n".join(lines))
    print(
        f"checks: {sum(r.ok for r in records)}/{len(records)} runs passed "
        f"(job conservation, final placement, min_utility range, cycle count)"
    )
    for seed, error in errors:
        print(f"  FAILED seed {seed}: {error}")
    if diffs:
        print(f"determinism: {len(diffs)} differences between runs of the same seed")
        for diff in diffs:
            print(f"  DIFFERS {diff}")
    else:
        print(
            f"determinism: deterministic fields identical over "
            f"{len(records) - len(specs)} repeated runs of the {len(specs)} seeds"
        )

    attempted = sum(r.expected_cycles for r in records)
    failed = sum(r.failed_cycles for r in records)
    print(
        json.dumps(
            {
                "correct": not errors and not diffs,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
