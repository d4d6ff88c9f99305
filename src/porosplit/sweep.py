"""Batch execution of scheme x depth x coupling sweeps and report emission.

Each combination marches the configured number of time steps and records
the per-step nonlinear iteration counts; a failing step terminates the
combination with its failure status.  Status markers in the text report
follow the convention ``->[n]`` (stagnation at step n), ``^[n]``
(divergence) and ``x[n]`` (iteration budget exhausted).
"""

from __future__ import annotations

import csv
import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .anderson import AndersonConfig
from .config import ScenarioConfig
from .export import cell_flux_vectors, write_cell_csv, write_point_csv, write_vtk
from .model import initial_state
from .schemes import SCHEMES, run_transient

__all__ = ["SweepRow", "SweepReport", "run_sweep", "emit_report"]

_MARKS = {"stagnated": "->", "diverged": "^", "max_iters": "x"}


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    depth: int
    alpha: float
    status: str                  # "ok" or a failure status
    fail_step: int | None
    average_iterations: float | None
    per_step: tuple

    def marker(self) -> str:
        if self.status == "ok":
            return f"{self.average_iterations:.1f}"
        return f"{_MARKS[self.status]}[{self.fail_step}]"


@dataclass(frozen=True)
class SweepReport:
    config: ScenarioConfig
    rows: tuple


@functools.lru_cache(maxsize=1)
def _operators(config: ScenarioConfig):
    """The sweep's operators, built once per process and configuration."""
    return config.operators()


def _run_combo(config: ScenarioConfig, scheme_name: str, depth: int, alpha: float) -> SweepRow:
    ops = _operators(config)
    params = config.params_for(alpha)
    init = initial_state(ops.mesh, params, config.p0, ops)
    result = run_transient(config.scheme_config(scheme_name), AndersonConfig(depth=depth),
                           init, params, ops)
    if result.completed and config.fields != "none":
        _export_fields(config, f"{scheme_name}_aa{depth}_alpha{alpha:g}", ops.mesh, params,
                       result.states[-1])
    return SweepRow(scheme_name, depth, alpha, result.fail_status or "ok", result.fail_step,
                    result.average_iterations if result.completed else None,
                    result.iterations_per_step)


def _export_fields(config, stem, mesh, params, state):
    flux = cell_flux_vectors(mesh, state.q)
    fields = {
        "pressure": state.p,
        "saturation": state.saturation(params),
        "flux_magnitude": np.hypot(flux[:, 0], flux[:, 1]),
    }
    os.makedirs(config.out_dir, exist_ok=True)
    base = os.path.join(config.out_dir, stem)
    if config.fields == "csv":
        write_cell_csv(base + "_cells.csv", mesh, fields)
        write_point_csv(base + "_nodes.csv", mesh, state.u)
    elif config.fields == "vtk":
        write_vtk(base + ".vtk", mesh, fields, state.u)


def run_sweep(config: ScenarioConfig) -> SweepReport:
    """Run every scheme x depth x alpha combination of the configuration.

    Serial and pooled sweeps map one runner over the combinations.  Each
    process builds the operators (mesh, assembled blocks, elasticity
    factorization) once: the caller's process when serial, each pool
    worker when workers > 1, with at most one worker per combination.
    A combination exports its own final fields.  Solver failures are
    recorded as data, never raised."""
    combos = [(config, scheme, depth, alpha) for scheme in config.schemes
              for depth in config.depths for alpha in config.alphas]
    workers = min(config.workers, len(combos))
    if workers == 1:
        rows = [_run_combo(*combo) for combo in combos]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_combo, *zip(*combos)))
    return SweepReport(config=config, rows=tuple(rows))


def emit_report(report: SweepReport, out_dir) -> dict:
    """Write the sweep as CSV plus an aligned text table; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "sweep.csv")
    txt_path = os.path.join(out_dir, "sweep.txt")
    try:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["scheme", "depth", "alpha", "status", "fail_step",
                 "avg_iterations", "steps_completed", "per_step_iterations"]
            )
            for r in report.rows:
                writer.writerow(
                    [r.scheme, r.depth, f"{r.alpha:g}", r.status,
                     "" if r.fail_step is None else r.fail_step,
                     "" if r.average_iterations is None else f"{r.average_iterations:.6g}",
                     len(r.per_step) - (0 if r.status == "ok" else 1),
                     "|".join(str(c) for c in r.per_step)]
                )
        with open(txt_path, "w") as fh:
            fh.write(_text_table(report))
    except OSError as exc:
        raise OSError(f"cannot write report to {out_dir}: {exc}") from exc
    return {"csv": csv_path, "txt": txt_path}


def _text_table(report: SweepReport) -> str:
    marks = {(r.scheme, r.depth, r.alpha): r.marker() for r in report.rows}
    schemes = list(dict.fromkeys(s for s, _, _ in marks))
    depths = sorted({d for _, d, _ in marks})
    alphas = sorted({a for _, _, a in marks})
    width = 11
    header = "  ".join(f"{SCHEMES[s][0]:>{width}}" for s in schemes)  # labels
    lines = [f"scenario {report.config.scenario}: average nonlinear iterations per time step"]
    for alpha in alphas:
        lines += ["", f"alpha = {alpha:g}", f"{'':8}{header}"]
        for depth in depths:
            cells = "  ".join(f"{marks[s, depth, alpha]:>{width}}" for s in schemes)
            lines.append(f"AA({depth})".ljust(8) + cells)
    return "\n".join(lines) + "\n"
