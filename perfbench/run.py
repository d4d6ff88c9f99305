"""porosplit benchmark: time to solution and time per nonlinear iteration.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-test1 --seed 1 --seconds 42 --trace 0

Workloads (``workloads.py``), each a closed loop, one transient at a time in
one process, BLAS pinned to one thread:

* ``sweep-test1``: ``run_sweep`` on test1, 25x25, alpha = 1, the five
  schemes x depths {0, 1, 3, 5, 10}, first time step;
* ``fsl-fine``: one plain FSL transient on test1, 100x100, alpha = 1,
  first time step;
* ``hoelder-25``: test2, 25x25, alpha = 0.1, up to t = 0.8 with a budget of
  110 iterations: plain Newton, FS-Newton, FS-MP and FSL/2, and FS-MP AA(1).

A pass solves every transient of the workload once; the seed only
shuffles their order (for the sweep, the ``schemes`` and ``depths``
tuples).  Passes repeat while the next one is expected to end within
``--seconds``; there is always at least one (two with ``--trace 1``).

``--trace 0`` reports the end-to-end metrics, timed without tracing.
Times are wall seconds scaled to a fixed machine speed (``speed.py``);
the unscaled wall seconds are printed and recorded next to them.

* ``solve_s``: seconds of one pass's solves, median over passes;
* ``ms_per_iter``: ``solve_s`` * 1000 / ``nonlinear_iters``;
* ``nonlinear_iters``: nonlinear iterations of one pass, failed steps
  included;
* ``setup_s``: ``ScenarioConfig.operators()`` plus ``initial_state``,
  median of at least five set-ups after one warm-up;
* ``peak_rss_mb``: peak resident memory of the process by the end of its
  first pass (later passes raise it by heap fragmentation alone).

``failed_frac`` (failed / attempted transients, 0 when the program is
correct) is printed with them and carried by the ``failed`` and
``attempted`` fields of the result line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.layer_metrics`` (per pass, median over the
traced passes, seconds scaled like ``solve_s``) and ``trace_overhead_frac`` = traced / untraced ``solve_s``
- 1.  The spans go to ``perfbench/out/spans-<workload>-seed<n>.jsonl``.

Every pass is checked against the reference (``reference.py``); the passes
of one run, and the runs of one source tree on one machine whatever their
seed, must give bit-identical outputs and iteration counts.  The last line
of standard output is the JSON result; the exit code is 0 only when the
outputs are correct.  Each run also writes its full record, with the
environment, to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import porosplit  # noqa: E402

if Path(porosplit.__file__).resolve().parent != SRC / "porosplit":
    raise ImportError(f"porosplit imported from {porosplit.__file__}, not from {SRC}")

import reference  # noqa: E402
from speed import NOMINAL_S, SpeedClock, calibrate  # noqa: E402
from tracing import Tracer, instrument, layer_metrics  # noqa: E402
from workloads import WORKLOADS, derivative_total, permutation, run_pass, setup  # noqa: E402

SETUP_MIN_SAMPLES = 5
SETUP_MAX_SAMPLES = 30
SETUP_SECONDS = 1.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def outputs_digest(outcomes) -> str:
    """Hash of everything a pass produces: statuses, counts and fields."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(json.dumps([o.key, o.status, o.fail_step, o.per_step, o.error]).encode())
        for values in o.final or ():
            h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


def time_setup(workload):
    """Wall seconds of set-ups after one warm-up, with a calibration after
    each; returns (median set-up at the reference speed, raw samples)."""
    setup(workload)  # warm-up: first-call costs of numpy and scipy
    raw, cals = [], []
    start = time.perf_counter()
    while len(raw) < SETUP_MIN_SAMPLES or (
            time.perf_counter() - start < SETUP_SECONDS and len(raw) < SETUP_MAX_SAMPLES):
        t0 = time.perf_counter()
        setup(workload)
        raw.append(time.perf_counter() - t0)
        cals.append(calibrate())
    return statistics.median(raw) * NOMINAL_S / statistics.fmean(cals), raw


def _seed_check(workload, env, digest, iters, seed) -> str | None:
    """Record this run's outputs under (workload definition, source tree,
    machine) and compare them with the runs of other seeds recorded there."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    fingerprint = "|".join([repr(workload)] + [str(env[k]) for k in (
        "src_sha256", "python", "numpy", "scipy", "cpu_model", "machine")])
    entry = store.setdefault(hashlib.sha256(fingerprint.encode()).hexdigest(),
                             {"digest": digest, "nonlinear_iters": iters, "seeds": []})
    problem = None
    if (entry["digest"], entry["nonlinear_iters"]) != (digest, iters):
        problem = (f"outputs differ from those of seeds {entry['seeds']} "
                   f"({iters} vs {entry['nonlinear_iters']} iterations)")
    elif seed not in entry["seeds"]:
        entry["seeds"].append(seed)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1))
        os.replace(tmp, path)
    return problem


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a 5x5 grid and one time step "
                             "(no reference check)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    label = workload.name
    ref = None
    if args.smoke:
        workload, label = workload.shrunk(), f"{workload.name}-smoke"
    else:
        ref = reference.load(workload.name)
        if ref is None:
            print(f"no reference for {workload.name} in {reference.REFERENCE_DIR}", file=sys.stderr)
            return 2
    cfg = workload.config()
    env = provenance()
    rng = np.random.default_rng(args.seed)
    tracer = Tracer()
    start = time.perf_counter()
    setup_s, setup_raw = (None, []) if args.trace else time_setup(workload)

    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        order = permutation(workload, rng)
        t0 = time.perf_counter()
        if traced:
            tracer.run_id = f"{label}/seed{args.seed}/pass{len(passes)}"
            offset, calls_before = len(tracer.spans), derivative_total()
            clock = SpeedClock(on_calibrate=lambda: tracer.span("perfbench.calibrate"))
            with instrument(tracer):
                outcomes, ops = run_pass(workload, order, clock)
            scale = clock.speed_s / clock.raw_s  # per-layer seconds scale like solve_s
            layers = {name: (value * scale if unit == "s" else value, unit)
                      for name, (value, unit) in layer_metrics(
                          tracer.spans[offset:], offset,
                          derivative_total() - calls_before).items()}
        else:
            clock = SpeedClock()
            outcomes, ops = run_pass(workload, order, clock)
            layers = None
        reasons, drift = reference.check(outcomes, ops, cfg, ref)
        passes.append({
            "traced": traced,
            "order": [list(x) for x in order],
            "solve_s": clock.speed_s,
            "solve_wall_s": clock.raw_s,
            "stretches_s": clock.stretches,
            "calibrations_s": clock.calibrations,
            "wall_s": time.perf_counter() - t0,
            "nonlinear_iters": sum(o.iterations for o in outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digest": outputs_digest(outcomes),
            "failures": {o.key: why for o, why in zip(outcomes, reasons) if why},
            "drift": drift,
            "layers": layers,
            "transients": [{"key": o.key, "status": o.status, "fail_step": o.fail_step,
                            "per_step": o.per_step, "derivative_calls": o.derivative_calls,
                            "volume_gap": o.volume_gap} for o in outcomes],
        })
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= 1 + args.trace and elapsed + typical > args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["transients"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    iters = passes[0]["nonlinear_iters"]
    problems = []
    if any(p["digest"] != passes[0]["digest"] for p in passes):
        problems.append("passes in different orders gave different outputs")
    seed_problem = _seed_check(workload, env, passes[0]["digest"], iters, args.seed)
    if seed_problem:
        problems.append(seed_problem)
    correct = failed == 0 and not problems

    solve_s = statistics.median(p["solve_s"] for p in untraced)
    if args.trace:
        traced_passes = [p for p in passes if p["traced"]]
        metrics = {name: {"value": statistics.median(p["layers"][name][0] for p in traced_passes),
                          "unit": unit}
                   for name, (_, unit) in traced_passes[0]["layers"].items()}
        traced_solve = statistics.median(p["solve_s"] for p in traced_passes)
        metrics["trace_overhead_frac"] = {"value": traced_solve / solve_s - 1.0, "unit": "ratio"}
    else:
        metrics = {
            "solve_s": {"value": solve_s, "unit": "s"},
            "ms_per_iter": {"value": solve_s * 1000.0 / max(iters, 1), "unit": "ms"},
            "nonlinear_iters": {"value": iters, "unit": "count"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": passes[0]["peak_rss_mb"], "unit": "MB"},
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{label}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump_jsonl(OUT / f"spans-{label}-seed{args.seed}.jsonl")
    record = {
        "workload": label, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "metrics": metrics, "setup_wall_s": setup_raw,
        "untraced_wall_s": [p["wall_s"] for p in untraced],
        "traced_wall_s": [p["wall_s"] for p in passes if p["traced"]],
        "passes": passes,
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))

    drift = passes[0]["drift"]
    print(f"workload {label}  seed {args.seed}  trace {args.trace}  passes {len(passes)}"
          f"  ({len(untraced)} untraced)  commit {env['git_commit'] or 'n/a'}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas']} x{env['blas_threads']} threads, nproc {env['nproc']}, "
          f"{env['cpu_model']}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':32s} {failed / attempted:.6g} ratio  ({failed} of {attempted} transients)")
    print(f"iteration drift against the reference: {drift['transients']} transients, "
          f"{drift['steps']} steps, {drift['abs_iterations']} iterations")
    for kind in (False, True):
        shown = [p for p in passes if p["traced"] == kind]
        if shown:
            print(f"solve s per {'traced' if kind else 'untraced'} pass, at reference speed "
                  f"{[round(p['solve_s'], 3) for p in shown]}, wall "
                  f"{[round(p['solve_wall_s'], 3) for p in shown]}")
    print(f"wall s per pass with set-up and checks: untraced {record['untraced_wall_s']}"
          f"  traced {record['traced_wall_s']}")
    for p in passes:
        for k, why in p["failures"].items():
            print(f"FAILED {k}: {'; '.join(why)}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
