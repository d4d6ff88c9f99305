"""Reference outcomes of the full-size workloads, and the output check.

The reference holds, per transient, the status, the failing step, the
per-step iteration counts and the final p, q and u.  It was recorded once
with ``python3 perfbench/reference.py`` and is not re-recorded by changes
that claim a speed-up.

The check fails a transient that raised, or whose status or failing step
differs from the reference, or an FSL transient that evaluated a
constitutive derivative.  A completed transient also fails when a cell's
volume balance gap exceeds 1e-13 (acceptance criterion 7) or when a final
field f of p, q, u is off the reference by more than

    FIELD_TOL_FACTOR * (eps_abs + eps_rel * ||f_ref||)

in the mass-weighted L2 norm the stopping test uses.  Solving five
transients (test1: FSL, FSL/2 AA(10), Newton; test2: FS-MP AA(1),
FS-Newton) again with eps_abs = eps_rel = 1e-12 moved their final fields
by at most 0.22 (eps_abs + eps_rel ||f_ref||) from the 1e-8 solution, so a
factor of 10 admits another iteration path to the same tolerance while
rejecting a solution that is off by more than the tolerance can explain.  Per-step iteration counts may drift; the
drift is reported, never hidden.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

FIELD_TOL_FACTOR = 10.0
VOLUME_GAP_BOUND = 1e-13
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def path_for(name) -> Path:
    return REFERENCE_DIR / f"{name}.npz"


def save(workload, outcomes, provenance):
    meta = {
        "workload": workload.name,
        "provenance": provenance,
        "transients": {o.key: {"status": o.status, "fail_step": o.fail_step,
                               "per_step": o.per_step} for o in outcomes},
    }
    arrays = {f"{o.key}_{f}": values for o in outcomes if o.status == "ok"
              for f, values in zip("pqu", o.final)}
    REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(path_for(workload.name), meta=np.array(json.dumps(meta)), **arrays)


def load(name):
    """The stored reference as (meta, arrays), or None when there is none."""
    path = path_for(name)
    if not path.exists():
        return None
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files if k != "meta"}
        meta = json.loads(str(data["meta"]))
    return meta, arrays


def _norms(ops):
    return {"p": ops.pressure_norm, "q": ops.flux_norm, "u": ops.disp_norm}


def check(outcomes, ops, cfg, reference):
    """Failure reasons per transient (an empty list passes) and the
    per-step iteration drift against the reference.

    Without a reference (the shrunk smoke workloads) only the checks that
    need none are made."""
    meta, arrays = reference if reference is not None else ({"transients": {}}, {})
    reasons = []
    drift = {"transients": 0, "steps": 0, "abs_iterations": 0}
    for o in outcomes:
        why = []
        if o.error is not None:
            why.append(f"raised {o.error}")
        ref = meta["transients"].get(o.key)
        if reference is not None and ref is None:
            why.append("no reference outcome")
        if ref is not None:
            if (o.status, o.fail_step) != (ref["status"], ref["fail_step"]):
                why.append(f"outcome {o.status}[{o.fail_step}] differs from the reference "
                           f"{ref['status']}[{ref['fail_step']}]")
            diffs = [abs(a - b) for a, b in zip(o.per_step, ref["per_step"])]
            longer = o.per_step[len(ref["per_step"]):] + ref["per_step"][len(o.per_step):]
            moved = sum(1 for d in diffs if d) + len(longer)
            if moved:
                drift["transients"] += 1
                drift["steps"] += moved
                drift["abs_iterations"] += sum(diffs) + sum(longer)
        if o.derivative_free and o.derivative_calls:
            why.append(f"FSL transient made {o.derivative_calls} derivative calls")
        if o.status == "ok":
            if o.volume_gap > VOLUME_GAP_BOUND:
                why.append(f"volume balance gap {o.volume_gap:.2e} > {VOLUME_GAP_BOUND:g}")
            if ref is not None and ref["status"] == "ok":
                for f, norm in _norms(ops).items():
                    expected = arrays[f"{o.key}_{f}"]
                    got = o.final["pqu".index(f)]
                    if got.shape != expected.shape:
                        why.append(f"final {f} has shape {got.shape}, reference {expected.shape}")
                        continue
                    tol = FIELD_TOL_FACTOR * (cfg.eps_abs + cfg.eps_rel * norm(expected))
                    err = norm(got - expected)
                    if not err <= tol:
                        why.append(f"final {f} off the reference by {err:.3e} > {tol:.3e}")
        reasons.append(why)
    return reasons, drift


def main(argv):
    """Record the reference of the named workloads (default: all)."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import run  # pins BLAS threads and puts the checkout's src on the path

    from speed import SpeedClock
    from workloads import WORKLOADS, canonical_order, run_pass
    for name in argv or list(WORKLOADS):
        workload = WORKLOADS[name]
        outcomes, _ = run_pass(workload, canonical_order(workload), SpeedClock())
        save(workload, outcomes, run.provenance())
        print(name, [(o.key, o.status, o.fail_step, o.iterations) for o in outcomes])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
