"""The progmoney benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload retail --seed 1 --seconds 38 --trace 0

Run from the repository root; the program is imported from `src/`.  The
workload seed generates a scenario (see workloads.py), which is written to
`perfbench/out/` with its simulation seed so the plain CLI can replay it.
The run is a closed loop with one caller in one single-threaded process:
passes run one after another for `--seconds`, each pass going through
every phase (see harness.py).

Times are CPU seconds of the process (see `clock` in tracing.py).
`--trace 0` prints the end-to-end metrics: for each phase the median over
passes of the pass's time, scaled to a core of fixed speed (see
`Speedometer` in harness.py and README.md), and the peak RSS of the
process.  `--trace 1` alternates untraced and traced passes; the median
traced pass gives per-layer counts and self times (see tracing.py), and its
run time minus the median untraced run time is the tracing overhead.

Every pass is checked: both audits clean, the report rebuilt from the
artifacts equal to the live one, and the SHA-256 of the three artifacts
equal across passes, between traced and untraced passes, and across runs
of the same code, workload and seed (kept in `perfbench/out/`).  In traced
runs the deterministic counters must also repeat exactly across traced
passes and across runs.  A pass that fails any check counts in `failed`; any failure makes
the exit code 1.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": <passes>, "failed": <failed passes>,
 "metrics": {name: {"value": ..., "unit": ...}}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
OUT = BENCH_DIR / "out"

MIN_PASSES = 3
# end-to-end times are scaled to a core that runs harness.reference_work()
# in this many CPU seconds; on the 2-vCPU Intel Xeon host the baseline in
# README.md was measured on it took 1.1-1.3 ms
REFERENCE_WORK_S = 0.001
MIN_TRACED_PASSES = 2
# stop starting passes past this, whatever --seconds says, to end within 180 s
HARD_LIMIT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "artifacts_s": "s",
    "verify_s": "s",
    "total_s": "s",
    "peak_rss_mib": "MiB",
}

# name -> unit; every traced run prints each of these
PER_LAYER = {
    "crypto.h64.calls": "count",
    "crypto.h64.bytes": "bytes",
    "crypto.sign.calls": "count",
    "crypto.verify.calls": "count",
    "crypto.verify.failed": "count",
    "crypto.self_s": "s",
    "policy.evaluate.calls": "count",
    "policy.evaluate.tick": "count",
    "policy.evaluate.transfer_request": "count",
    "policy.evaluate.receive": "count",
    "policy.evaluate.attest_fail": "count",
    "policy.evaluate.tamper": "count",
    "policy.evaluate.forbid": "count",
    "policy.render_rules.calls": "count",
    "policy.compile.calls": "count",
    "policy.self_s": "s",
    "money.verify_integrity.calls": "count",
    "money.stamps_verified": "count",
    "money.integrity_failed": "count",
    "money.provenance_max": "count",
    "money.provenance_live_total": "count",
    "money.mint.calls": "count",
    "money.split.calls": "count",
    "money.merge.calls": "count",
    "money.transfer.calls": "count",
    "money.zeroise.calls": "count",
    "money.transfer.refused": "count",
    "money.self_s": "s",
    "registry.endorse.calls": "count",
    "registry.endorse.calls.mint": "count",
    "registry.endorse.calls.transfer": "count",
    "registry.endorse.calls.split": "count",
    "registry.endorse.calls.merge": "count",
    "registry.endorse.calls.burn": "count",
    "registry.endorse.rejected": "count",
    "registry.endorse.accept_ratio": "ratio",
    "registry.supply_stats.calls": "count",
    "registry.records": "count",
    "registry.records.mint": "count",
    "registry.records.transfer": "count",
    "registry.records.split": "count",
    "registry.records.merge": "count",
    "registry.records.burn": "count",
    "registry.replay.accepted": "count",
    "registry.replay.rejected": "count",
    "registry.audit_s": "s",
    "registry.replay_records_s": "s",
    "registry.self_s": "s",
    "sim.ticks": "count",
    "sim.unit_ticks": "count",
    "sim.events_executed": "count",
    "sim.observations": "count",
    "sim.tick_samples": "count",
    "sim.tick_p50_ms": "ms",
    "sim.tick_tail_pct": "%",
    "sim.tick_tail_ms": "ms",
    "sim.self_s": "s",
    "scenario.parse_s": "s",
    "scenario.build_s": "s",
    "scenario.script_lines": "count",
    "supply.issuance.calls": "count",
    "supply.self_s": "s",
    "markets.cda_submit.calls": "count",
    "markets.trades": "count",
    "markets.self_s": "s",
    "report.build_report_s": "s",
    "report.lines": "count",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
}

LAYERS = ("crypto", "policy", "money", "registry", "supply", "markets", "report")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def source_fingerprint() -> str:
    """Hash of the program and benchmark sources; records are kept per fingerprint."""
    digest = hashlib.sha256()
    for root in (SRC / "progmoney", BENCH_DIR):
        for path in sorted(root.rglob("*")):
            if path.is_file() and OUT not in path.parents and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(REPO)).encode() + b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def write_scenario(workload, seed: int) -> Path:
    path = OUT / f"{workload.name}-seed{seed}.scn"
    header = (
        f"# progmoney benchmark workload {workload.name!r}, workload seed {seed}\n"
        f"# sim_seed = {workload.sim_seed}\n"
        f"# replay: progmoney run {path.relative_to(REPO)} --seed {workload.sim_seed} --out DIR\n"
    )
    path.write_text(header + workload.text, encoding="utf-8")
    return path


def check_record(name: str, seed: int, found: dict) -> list[str]:
    """Compare digests and counters with earlier runs of the same code and inputs."""
    path = OUT / f"record-{name}-seed{seed}-{source_fingerprint()}.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    failures = [
        f"{key} differ from an earlier run of the same code and seed"
        for key, value in found.items()
        if key in stored and stored[key] != value
    ]
    if not failures:
        merged = {**stored, **found}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(merged, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
    return failures


def keep_going(durations: list[float], started: float, seconds: float, minimum: int) -> bool:
    elapsed = time.perf_counter() - started
    if len(durations) < minimum:
        return elapsed < HARD_LIMIT_S
    mean = sum(durations) / len(durations)
    return elapsed + mean <= min(seconds, HARD_LIMIT_S)


def passes(make_pass, seconds: float, minimum: int) -> list:
    results, durations = [], []
    started = time.perf_counter()
    while keep_going(durations, started, seconds, minimum):
        t0 = time.perf_counter()
        results.append(make_pass())
        durations.append(time.perf_counter() - t0)
    return results


def mark_digest_mismatches(results, reference: dict, what: str) -> None:
    for result in results:
        if result.digests != reference:
            result.failures.append(f"artifact digests differ from the {what}")


def median_pass(results):
    """The pass whose run time is the median (the lower one of an even count)."""
    ordered = sorted(results, key=lambda r: sum(r.tick_s))
    return ordered[(len(ordered) - 1) // 2]


def measure_end_to_end(workload, seconds: float):
    from harness import timed_pass

    results = passes(lambda: timed_pass(workload), seconds, MIN_PASSES)
    mark_digest_mismatches(results, results[0].digests, "first pass")
    time_of = {
        "setup": lambda r: median(r.setup_s),
        "run": lambda r: sum(r.tick_s),
        "artifacts": lambda r: median(r.artifacts_s),
        "verify": lambda r: median(r.verify_s),
    }
    cpu, phases = {}, {}
    for phase, pass_s in time_of.items():
        cpu[f"{phase}_s"] = median(pass_s(r) for r in results)
        phases[f"{phase}_s"] = median(
            pass_s(r) * REFERENCE_WORK_S / r.reference_s[phase] for r in results
        )
    metrics = dict(phases, total_s=sum(phases.values()), peak_rss_mib=peak_rss_mib())
    reference_ms = median(r.reference_s["run"] for r in results) * 1e3
    print("CPU seconds before scaling: "
          + ", ".join(f"{name} {s:.6g}" for name, s in cpu.items())
          + f"; reference work took {reference_ms:.4g} ms "
          "(median over passes of its mean time in the run phase)")
    return results, metrics, {"digests": results[0].digests}


def measure_layers(workload, seed: int, seconds: float):
    from harness import timed_pass, traced_pass

    untraced, traced = [], []

    def next_pass():
        # alternate, so both kinds of pass see the same host conditions
        if len(untraced) <= len(traced):
            untraced.append(timed_pass(workload))
        else:
            traced.append(traced_pass(workload))

    passes(next_pass, seconds, 2 * MIN_TRACED_PASSES)
    if len(untraced) > len(traced):
        untraced.pop()
    mark_digest_mismatches(untraced, untraced[0].digests, "first pass")
    mark_digest_mismatches(traced, untraced[0].digests, "untraced passes")
    counters = traced[0].counters
    for result in traced[1:]:
        if result.counters != counters:
            result.failures.append("deterministic counters differ between traced passes")

    # times come from one traced pass, the median one, so its self times
    # add up to its run time; counts are the same in every pass
    middle = median_pass(traced)
    metrics: dict[str, float] = {name: counters.get(name, 0) for name in PER_LAYER}
    metrics.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    metrics.update(middle.times_s)
    endorsed = counters.get("registry.endorse.calls", 0)
    metrics["registry.endorse.accept_ratio"] = (
        (endorsed - counters.get("registry.endorse.rejected", 0)) / endorsed if endorsed else 1.0
    )
    ticks_ms = sorted(t * 1e3 for r in traced for t in r.tick_s)
    tail = next((p for p in TAIL_PERCENTILES if len(ticks_ms) * (1 - p / 100) >= 10), 50.0)
    metrics["sim.tick_samples"] = len(ticks_ms)
    metrics["sim.tick_p50_ms"] = percentile(ticks_ms, 50.0)
    metrics["sim.tick_tail_pct"] = tail
    metrics["sim.tick_tail_ms"] = percentile(ticks_ms, tail)
    metrics["trace.run_s"] = sum(middle.tick_s)
    metrics["trace.untraced_run_s"] = median(sum(r.tick_s) for r in untraced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    metrics["trace.accounted_frac"] = (
        sum(metrics[f"{layer}.self_s"] for layer in LAYERS + ("sim",)) / metrics["trace.run_s"]
    )

    (OUT / f"spans-{workload.name}-seed{seed}.json").write_text(
        json.dumps({"edges": middle.edges, "tick_s": middle.tick_s}, indent=1),
        encoding="utf-8",
    )
    return untraced + traced, metrics, {"digests": untraced[0].digests, "counters": counters}


def percentile(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "progmoney" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import GENERATORS, generate

    if args.workload not in GENERATORS:
        known = ", ".join(sorted(GENERATORS))
        print(f"error: unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = generate(args.workload, args.seed)
    scenario_path = write_scenario(workload, args.seed)

    if args.trace:
        results, metrics, found = measure_layers(workload, args.seed, args.seconds)
        units = PER_LAYER
    else:
        results, metrics, found = measure_end_to_end(workload, args.seconds)
        units = END_TO_END
    record_failures = check_record(args.workload, args.seed, found)
    results[-1].failures.extend(record_failures)

    attempted = len(results)
    failed = sum(1 for r in results if r.failures)
    print(f"workload {args.workload} seed {args.seed}: scenario {scenario_path.relative_to(REPO)}, "
          f"sim seed {workload.sim_seed}, {attempted} passes")
    for result in results:
        for failure in result.failures:
            print(f"FAILED: {failure}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted} passes)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
