"""Self-test: the plain CLI reproduces the benchmark's in-process run.

    python3 perfbench/selftest.py [--seed N]

For every workload this generates the scenario for seed N, writes it to
`perfbench/out/` with its seeds, and runs it in-process one tick at a time,
as the benchmark does.  Then it runs `progmoney run <file> --seed <sim
seed>`, which runs all ticks in one call, and `progmoney audit` and
`progmoney report`, as separate processes.  The SHA-256 of the three
artifacts must match the in-process run, and both CLI checks must exit 0.
It also checks that BENCHMARK.json names exactly the metrics run.py prints.
Exit code 0 when everything holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

import run


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != table:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    return subprocess.run(
        [sys.executable, "-m", "progmoney.cli", *args],
        cwd=run.REPO, env=env, capture_output=True, text=True, timeout=170,
    )


def check_workload(name: str, seed: int) -> list[str]:
    from harness import ARTIFACTS, Speedometer, artifacts, run_by_tick, setup
    from workloads import generate

    workload = generate(name, seed)
    scenario = run.write_scenario(workload, seed)
    sim = setup(workload)
    # tick by tick, as the benchmark runs it; the CLI runs in one call
    run_by_tick(sim, workload.until, Speedometer())
    expected = artifacts(sim)[0].digests()

    out = run.OUT / f"selftest-{name}-seed{seed}"
    ran = cli("run", str(scenario), "--seed", str(workload.sim_seed), "--out", str(out))
    if ran.returncode != 0:
        return [f"{name}: progmoney run exited {ran.returncode}: {ran.stderr.strip()}"]
    found = {
        artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
        for artifact in ARTIFACTS
    }
    problems = [
        f"{name}: {artifact} from the CLI differs from the in-process run"
        for artifact in ARTIFACTS
        if found[artifact] != expected[artifact]
    ]
    for command in (("audit", str(out / "ledger.txt")), ("report", str(out))):
        done = cli(*command)
        if done.returncode != 0:
            problems.append(f"{name}: progmoney {command[0]} exited {done.returncode}")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    from workloads import GENERATORS

    problems = check_benchmark_json()
    for name in GENERATORS:
        found = check_workload(name, args.seed)
        print(f"{name}: {'FAILED' if found else 'ok'}")
        problems += found
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
