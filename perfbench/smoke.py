"""Smoke test of the benchmark on workloads shrunk to a 5x5 grid and one
time step.

    python3 perfbench/smoke.py

For every workload named in BENCHMARK.json it runs ``run.py --smoke``
untraced with two seeds and traced with one, and checks that each run
exits 0 with correct outputs, prints ``failed_frac``, and reports every
metric BENCHMARK.json names for its mode with the declared unit, and that
the two seeds give the same iteration count.  Exits 1 on the first
mismatch it reports.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                             f"{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not any(line.strip().startswith("failed_frac") for line in lines):
        raise AssertionError(f"{workload}: failed_frac not printed")
    return json.loads(lines[-1])


def expect_metrics(result, declared, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        raise AssertionError(f"{where}: bad result line {result}")
    got = result["metrics"]
    wanted = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(wanted):
        raise AssertionError(f"{where}: metrics {sorted(set(got) ^ set(wanted))} "
                             "missing or not declared")
    for name, unit in wanted.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit or not isinstance(value, (int, float)):
            raise AssertionError(f"{where}: {name} = {got[name]}, declared unit {unit}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for w in (w["name"] for w in bench["workloads"]):
            first = run(w, 1, 0)
            second = run(w, 2, 0)
            traced = run(w, 1, 1)
            expect_metrics(first, bench["end_to_end"], f"{w} seed 1")
            expect_metrics(second, bench["end_to_end"], f"{w} seed 2")
            expect_metrics(traced, bench["per_layer"], f"{w} traced")
            iters = [r["metrics"]["nonlinear_iters"]["value"] for r in (first, second)]
            if iters[0] != iters[1]:
                raise AssertionError(f"{w}: seeds 1 and 2 gave {iters} iterations")
            print(f"ok {w}: {iters[0]} iterations, {len(first['metrics'])} end-to-end and "
                  f"{len(traced['metrics'])} per-layer metrics")
    except AssertionError as exc:
        print(f"FAILED {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
