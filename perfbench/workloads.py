"""The benchmark's workloads and one pass over a workload's transients.

A pass solves every transient of a workload once, in an order drawn from
the seed, and returns per-transient outcomes.  The solver receives only
the scenario configuration; the seed never reaches it.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass, replace

import numpy as np

from porosplit import constitutive, schemes, sweep
from porosplit.anderson import AndersonConfig
from porosplit.config import default_config
from porosplit.model import initial_state, volume_conservation_gap

SWEEP_SCHEMES = ("newton", "fsnewton", "fsmp", "fsl", "fsl2")
SWEEP_DEPTHS = (0, 1, 3, 5, 10)
FSL_SCHEMES = ("fsl", "fsl2")
ITERATION_FUNCTIONS = (
    "newton_iteration", "fsl_iteration", "fsl_local_iteration",
    "fsmp_iteration", "fsnewton_iteration",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario, its size and its transients
    (``(scheme, depth)`` pairs in canonical order).  ``via_sweep`` runs them
    through ``run_sweep``, which rebuilds the operators per combination;
    otherwise one set of operators serves every transient of a pass."""

    name: str
    scenario: str
    nx: int
    alpha: float
    T: float
    max_iters: int
    transients: tuple
    via_sweep: bool = False

    def config(self):
        return replace(default_config(self.scenario), nx=self.nx, ny=self.nx,
                       alphas=(self.alpha,), T=self.T, max_iters=self.max_iters,
                       workers=1, fields="none")

    def shrunk(self):
        """The same workload on a 5x5 grid for one time step."""
        return replace(self, nx=5, T=default_config(self.scenario).tau)


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-test1", "test1", 25, 1.0, T=0.1, max_iters=500,
                 transients=tuple((s, d) for s in SWEEP_SCHEMES for d in SWEEP_DEPTHS),
                 via_sweep=True),
        Workload("fsl-fine", "test1", 100, 1.0, T=0.1, max_iters=500,
                 transients=(("fsl", 0),)),
        # T = 0.8 reaches Newton's divergence at step 8; a budget of 110
        # iterations puts plain FSL/2 out at step 5 (89 and 134 iterations
        # needed at steps 1 and 5), well clear of the budget on both sides.
        Workload("hoelder-25", "test2", 25, 0.1, T=0.8, max_iters=110,
                 transients=(("newton", 0), ("fsnewton", 0), ("fsmp", 0),
                             ("fsl2", 0), ("fsmp", 1))),
    )
}


def key(scheme, depth) -> str:
    return f"{scheme}-aa{depth}"


@dataclass
class Outcome:
    """What one transient produced, with the checks made on the spot."""

    key: str
    scheme: str
    status: str                 # "ok", a failure status, or "raised"
    fail_step: int | None
    per_step: list
    final: tuple | None         # (p, q, u) of the last accepted state
    derivative_calls: int
    volume_gap: float           # max |volume_conservation_gap| over accepted steps
    error: str | None = None

    @property
    def iterations(self) -> int:
        return sum(self.per_step)

    @property
    def derivative_free(self) -> bool:
        return self.scheme in FSL_SCHEMES


def derivative_total() -> int:
    return sum(constitutive.derivative_call_counts().values())


def _outcome(scheme, depth, result, calls, params, ops) -> Outcome:
    gap = 0.0
    for prev, state in zip(result.states, result.states[1:]):
        gap = max(gap, float(np.max(np.abs(volume_conservation_gap(state, prev, params, ops)))))
    last = result.states[-1]
    return Outcome(
        key=key(scheme, depth),
        scheme=scheme,
        status="ok" if result.completed else result.fail_status,
        fail_step=result.fail_step,
        per_step=list(result.iterations_per_step),
        final=(last.p, last.q, last.u),
        derivative_calls=calls,
        volume_gap=gap,
    )


def permutation(workload: Workload, rng):
    """The order of one pass: a shuffled list of transients, or for the
    sweep workload the shuffled ``schemes`` and ``depths`` tuples."""
    if workload.via_sweep:
        return (tuple(rng.permutation(SWEEP_SCHEMES).tolist()),
                tuple(int(d) for d in rng.permutation(SWEEP_DEPTHS)))
    return [workload.transients[i] for i in rng.permutation(len(workload.transients))]


def canonical_order(workload: Workload):
    """The order in which the reference was recorded."""
    if workload.via_sweep:
        return SWEEP_SCHEMES, SWEEP_DEPTHS
    return list(workload.transients)


def setup(workload: Workload):
    """The set-up that ``setup_s`` times: operators plus initial state."""
    cfg = workload.config()
    ops = cfg.operators()
    params = cfg.params_for(workload.alpha)
    init = initial_state(cfg.mesh(), params, cfg.p0, ops)
    return cfg, ops, params, init


@contextlib.contextmanager
def _captured_sweep_transients():
    """Record each run_transient result that run_sweep obtains, with the
    derivative calls it made (run_sweep keeps only the iteration counts)."""
    calls = []
    inner = sweep.run_transient

    def capture(*args, **kwargs):
        before = derivative_total()
        result = inner(*args, **kwargs)
        calls.append((result, derivative_total() - before))
        return result

    sweep.run_transient = capture
    try:
        yield calls
    finally:
        sweep.run_transient = inner


@contextlib.contextmanager
def _ticking(clock):
    """Let the clock calibrate after any nonlinear iteration."""
    saved = {name: getattr(schemes, name) for name in ITERATION_FUNCTIONS}

    def ticked(fn):
        @functools.wraps(fn)
        def iteration(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                clock.tick()
        return iteration

    for name, fn in saved.items():
        setattr(schemes, name, ticked(fn))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(schemes, name, fn)


def _error(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_pass(workload: Workload, order, clock):
    """Solve every transient once in the given order, timing the solves
    on ``clock`` (a ``speed.SpeedClock``).

    The timed region is, for the sweep, the whole ``run_sweep`` call, which
    includes its per-combination rebuilds; otherwise the ``run_transient``
    calls, after the untimed set-up of the pass.  Returns the outcomes in
    canonical order and the operators the checks measure fields with.
    """
    cfg, ops, params, init = setup(workload)
    results = {}   # (scheme, depth) -> (TransientResult, derivative calls) or error
    with _ticking(clock):
        if workload.via_sweep:
            schemes_order, depths_order = order
            combos = [(s, d) for s in schemes_order for d in depths_order]
            with _captured_sweep_transients() as calls:
                clock.start()
                try:
                    report = sweep.run_sweep(
                        replace(cfg, schemes=schemes_order, depths=depths_order))
                    rows = [(r.scheme, r.depth) for r in report.rows]
                    error = None if rows == combos and len(calls) == len(rows) else \
                        "run_sweep rows do not match the requested combinations"
                except Exception as exc:  # a crash fails every transient of the pass
                    error = _error(exc)
                clock.stop()
            for i, combo in enumerate(combos):
                results[combo] = calls[i] if error is None else error
        else:
            clock.start()
            for scheme, depth in order:
                accel = AndersonConfig(depth=depth) if depth > 0 else None
                before = derivative_total()
                try:
                    result = schemes.run_transient(cfg.scheme_config(scheme), accel,
                                                   init, params, ops)
                    results[scheme, depth] = (result, derivative_total() - before)
                except Exception as exc:  # recorded as a failed transient
                    results[scheme, depth] = _error(exc)
            clock.stop()
    outcomes = []
    for scheme, depth in workload.transients:
        got = results[scheme, depth]
        if isinstance(got, str):
            outcomes.append(Outcome(key(scheme, depth), scheme, "raised", None, [], None,
                                    0, 0.0, got))
        else:
            outcomes.append(_outcome(scheme, depth, *got, params, ops))
    return outcomes, ops
