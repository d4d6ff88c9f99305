"""In-memory spans around porosplit's public functions, and the per-layer
metrics derived from them.

``instrument(tracer)`` replaces, for the duration of a ``with`` block, each
traced name where its caller looks it up:

* the law functions of ``porosplit.constitutive`` (module attributes; the
  solver calls them as ``laws.<name>``);
* ``porosplit.schemes.newton_blocks`` and the five iteration functions that
  ``schemes._iteration_fn`` returns or calls;
* ``run_transient`` in ``porosplit.schemes`` and ``porosplit.sweep``,
  ``porosplit.sweep.run_sweep`` and ``assemble`` in ``porosplit.config``
  and ``porosplit.fem``;
* every method of ``SparseFactor``, ``DiscreteOperators`` and
  ``AndersonWindow``.

A span is ``[name, start, end, parent, run_id, extra]``; spans are appended
when they open, so a parent always precedes its children.  Self time is a
span's duration minus the durations of its direct children (the solver is
single-threaded, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time

from porosplit import anderson, config, constitutive, fem, schemes, sweep
from workloads import ITERATION_FUNCTIONS

LAW_FUNCTIONS = (
    "saturation", "saturation_derivative", "mobility",
    "mobility_derivative_wrt_p", "equivalent_pore_pressure",
    "porosity", "capillary_pressure",
)
TRACED_CLASSES = (
    ("fem", fem.SparseFactor),
    ("fem", fem.DiscreteOperators),
    ("anderson", anderson.AndersonWindow),
)
LU_NNZ = "perfbench.lu_nnz"


class Tracer:
    """Span store of one benchmark run; ``run_id`` tags every new span."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []

    def open(self, name) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name, fn, extra=None):
        """``fn`` inside a span; ``extra(result)``, if given, is stored on
        the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if extra is not None:
                self.spans[index][5] = extra(result)
            return result
        return traced

    def wrap_factor_init(self, fn):
        """SparseFactor.__init__; the L+U nonzero count of the new factor is
        stored on its span, and read inside a sibling span so that the
        extraction of L and U is not billed to the caller's self time."""
        @functools.wraps(fn)
        def init(factor, *args, **kwargs):
            index = self.open("fem.SparseFactor.__init__")
            try:
                fn(factor, *args, **kwargs)
            finally:
                self.close(index)
            nnz_index = self.open(LU_NNZ)
            try:
                self.spans[index][5] = int(factor.lu.L.nnz + factor.lu.U.nnz)
            finally:
                self.close(nnz_index)
        return init

    def dump_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run_id, extra) in enumerate(self.spans):
                record = {"id": i, "parent": parent, "run": run_id, "name": name,
                          "start": start, "end": end}
                if extra is not None:
                    record["extra"] = extra
                fh.write(json.dumps(record) + "\n")


def _patches(tracer):
    """(owner, attribute, replacement) for every traced name."""
    out = [(constitutive, n, tracer.wrap(f"constitutive.{n}", getattr(constitutive, n)))
           for n in LAW_FUNCTIONS]
    out += [(schemes, n, tracer.wrap(f"schemes.{n}", getattr(schemes, n)))
            for n in ITERATION_FUNCTIONS]
    out.append((schemes, "newton_blocks",
                tracer.wrap("model.newton_blocks", schemes.newton_blocks)))
    for owner in (schemes, sweep):
        out.append((owner, "run_transient",
                    tracer.wrap("schemes.run_transient", owner.run_transient)))
    out.append((sweep, "run_sweep", tracer.wrap("sweep.run_sweep", sweep.run_sweep)))
    for owner in (config, fem):
        out.append((owner, "assemble", tracer.wrap("fem.assemble", owner.assemble)))
    for module, cls in TRACED_CLASSES:
        for attr, fn in vars(cls).items():
            if not inspect.isfunction(fn) or (attr.startswith("__") and attr != "__init__"):
                continue
            if cls is fem.SparseFactor and attr == "__init__":
                out.append((cls, attr, tracer.wrap_factor_init(fn)))
            elif cls is anderson.AndersonWindow and attr == "push":
                # push returns (iterate, alpha, fallback)
                out.append((cls, attr, tracer.wrap("anderson.AndersonWindow.push", fn,
                                                   extra=lambda result: bool(result[2]))))
            else:
                out.append((cls, attr, tracer.wrap(f"{module}.{cls.__name__}.{attr}", fn)))
    return out


@contextlib.contextmanager
def instrument(tracer):
    """Install the traced wrappers; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, replacement in _patches(tracer):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans, offset, derivative_calls) -> dict:
    """Per-layer figures of one traced pass: ``spans`` are the tracer's
    spans from position ``offset`` on, ``derivative_calls`` the growth of
    ``constitutive.derivative_call_counts()`` over the pass.

    Spans below ``fem.assemble`` are set-up: they count towards
    ``fem.assemble_s`` only, not towards the factor, solve and elastic
    figures.  ``fem.solve_s`` leaves out the solves inside
    ``elastic_solve``, which ``fem.elastic_s`` covers.
    """
    n = len(spans)
    dur = [end - start for _, start, end, _, _, _ in spans]
    child_time = [0.0] * n
    transient_time = [0.0] * n
    setup = [False] * n
    under_elastic = [False] * n
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        p = parent - offset  # negative for a root span of the pass
        setup[i] = name == "fem.assemble" or (p >= 0 and setup[p])
        if p < 0:
            continue
        under_elastic[i] = (under_elastic[p]
                            or spans[p][0] == "fem.DiscreteOperators.elastic_solve")
        child_time[p] += dur[i]
        if name == "schemes.run_transient":
            transient_time[p] += dur[i]

    def pick(*names, keep_setup=False):
        return [i for i, s in enumerate(spans)
                if s[0] in names and (keep_setup or not setup[i])]

    def seconds(picked, minus=None):
        return sum(dur[i] - (minus[i] if minus else 0.0) for i in picked)

    pore = pick("constitutive.equivalent_pore_pressure")
    laws = pick(*(f"constitutive.{name}" for name in
                  ("saturation", "mobility", "saturation_derivative",
                   "mobility_derivative_wrt_p")))
    factors = pick("fem.SparseFactor.__init__")
    solves = [i for i in pick("fem.SparseFactor.solve") if not under_elastic[i]]
    pushes = pick("anderson.AndersonWindow.push")
    fallbacks = sum(1 for i in pushes if spans[i][5])
    return {
        "constitutive.pore_pressure_s": (seconds(pore), "s"),
        "constitutive.pore_pressure_calls": (len(pore), "count"),
        "constitutive.laws_s": (seconds(laws), "s"),
        "constitutive.derivative_calls": (derivative_calls, "count"),
        "fem.factor_s": (seconds(factors), "s"),
        "fem.factor_calls": (len(factors), "count"),
        "fem.lu_nnz_mean": (statistics.fmean(spans[i][5] for i in factors)
                            if factors else 0.0, "count"),
        "fem.solve_s": (seconds(solves), "s"),
        "fem.elastic_s": (seconds(pick("fem.DiscreteOperators.elastic_solve")), "s"),
        "fem.flux_mass_s": (seconds(pick("fem.DiscreteOperators.weighted_flux_mass",
                                         "fem.DiscreteOperators.flux_mass_cell_action")), "s"),
        "fem.assemble_s": (seconds(pick("fem.assemble", keep_setup=True)), "s"),
        "model.newton_blocks_s": (seconds(pick("model.newton_blocks")), "s"),
        "anderson.push_s": (seconds(pushes), "s"),
        "anderson.pushes": (len(pushes), "count"),
        "anderson.fallback_ratio": (fallbacks / len(pushes) if pushes else 0.0, "ratio"),
        "schemes.iteration_self_s": (
            seconds(pick(*(f"schemes.{n}" for n in ITERATION_FUNCTIONS)), child_time), "s"),
        "schemes.driver_self_s": (seconds(pick("schemes.run_transient"), child_time), "s"),
        "sweep.self_s": (seconds(pick("sweep.run_sweep"), transient_time), "s"),
    }
