"""The four linearization schemes and the per-time-step iteration driver.

Every scheme maps an iterate (p, q, u) to the next one in incremental form;
the initial guess of a time step is the previous time level.

* monolithic Newton: coupled solve for (dp, dq, du) with the exact Jacobian;
* fixed-stress splits (``split_iteration``): a flow solve with a diagonal
  pressure coefficient C, then an elasticity solve at the new pressure.
  FSL, FS-MP and FS-Newton differ only in C and in one flag:

  - FSL: the derivative-free L-scheme diagonal, either the constant
    (L + 1/N + beta_FS) M_p for a given L or the local bound
    M_p (phi L_scale L_s + (1/N + L_scale beta_FS) s^2);
  - FS-MP: the first-order coefficient M_p (phi ds/dp + (1/N + beta_FS) s^2);
  - FS-Newton: the FS-MP coefficient plus the mobility-derivative coupling
    in the flux block.

Every non-constant C comes from ``model.pressure_coefficient``.  beta_FS =
alpha^2 / (2 mu / d + lambda) is the classical fixed-stress stabilization.
A split scheme eliminates its diagonal pressure block and factors one
flux-only matrix per iteration (``_flow_solve``); monolithic Newton keeps
the coupled saddle solve, whose pressure diagonal phi ds/dp + (1/N) s^2
vanishes on saturated cells when 1/N = 0.  Convergence combines absolute
and relative L2 criteria on the increments.  Anderson acceleration is
applied as post-processing on the concatenated mass-weighted coefficient
vector; the raw scheme increment at the current (possibly accelerated)
iterate drives the convergence test, and the accepted state is always the
plain image.  Depth 0 runs the unaccelerated scheme, with no window.
Each iteration leaves one ``IterationRecord``; every exit but convergence
states its reason in the report's ``failure``: the message of a raised
solve, a non-finite increment, growth past GROWTH_FACTOR, stagnation or
the exhausted budget.

Restart rule: at depth m >= 2, whenever the total increment at an iterate
the window returned exceeds AA_RESTART_FACTOR times the total at the
previous iterate, the window is replaced by a fresh one before the new
image is stored, so the next iterate is the plain image and the depth
builds up again.  Extrapolating through a non-contractive stretch of the map (cells
switching to full saturation, say) can blow the increment up while the
mixing least squares stays well conditioned; the restart discards that
history, and likewise a stale first column left by the settlement jump
of the opening iteration.  Depths 0 and 1 are never restarted, so the
closed-form secant weight of AA(1) is left alone.  The mixing weights
themselves are not capped: |alpha|_1 in the hundreds is routine in runs
that converge fast (FSL/2 + AA(3) on test2, 4x4), and rejecting every
iterate with |alpha|_1 > 10 stalls that run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import constitutive as laws
from .anderson import AndersonConfig, AndersonWindow
from .fem import DiscreteOperators, LinearSolveError, SparseFactor
from .model import (
    PhysicsParams,
    PoroState,
    ResidualError,
    flow_parts,
    mech_residual,
    mobility_coupling,
    newton_blocks,
    porosity_increment,
    pressure_coefficient,
    prescribed_flux,
)

__all__ = [
    "SchemeConfig",
    "IterationRecord",
    "IterationReport",
    "fixed_stress_beta",
    "split_iteration",
    "newton_iteration",
    "fsl_iteration",
    "fsl_local_iteration",
    "fsmp_iteration",
    "fsnewton_iteration",
    "converged",
    "run_time_step",
    "run_transient",
    "TransientResult",
]

KINDS = ("newton", "fsl", "fsmp", "fsnewton")

GROWTH_FACTOR = 1e4        # increment growth classifying divergence
AA_RESTART_FACTOR = 3.0    # increment growth that flushes an AA(m >= 2) store
STAGNATION_SPAN = 20       # iterations over which flat increments stagnate
STAGNATION_RTOL = 0.01
STAGNATION_STREAK = 5      # consecutive flat comparisons required


@dataclass(frozen=True)
class SchemeConfig:
    """Which linearization to run and its tuning.

    For ``kind="fsl"`` the stabilization is chosen by ``L``:

    * ``L=None`` (default): the local bound M_p (phi L_scale L_s +
      (1/N + L_scale beta_FS) s^2) with the porosity/saturation weights of
      the current iterate and L_s the saturation Lipschitz constant -- the
      a-priori bound of the modified-Picard coefficient, scaled by
      ``L_scale`` (1.0: plain FSL, 0.5: the halved variant).  This is the
      tuning behind the reference iteration counts of the benchmark sweeps.
    * a positive ``L``: the constant diagonal (L + 1/N + beta_FS) M_p, the
      variant with the mesh-independent contraction; ``L_scale`` must then
      stay 1.
    """

    kind: str
    L: float | None = None
    L_scale: float = 1.0
    max_iters: int = 500
    eps_abs: float = 1e-8
    eps_rel: float = 1e-8

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.eps_abs > 0 and self.eps_rel > 0):
            raise ValueError("tolerances eps_abs and eps_rel must be positive")
        if self.L is not None and not self.L > 0:
            raise ValueError("L must be positive")
        if not self.L_scale > 0:
            raise ValueError("L_scale must be positive")
        if self.L is not None and self.L_scale != 1.0:
            raise ValueError("L_scale scales the local bound; it cannot apply to a given L")


@dataclass(frozen=True)
class IterationRecord:
    """One nonlinear iteration: the L2 increment norms (|dp|, |dq|, |du|), the
    mobility-derivative clamp flag and, when an Anderson push followed, its
    weights, its plain-step fallback and whether the store restarted first."""

    increments: tuple
    clamped: bool
    aa_weights: tuple | None = None
    aa_fallback: bool = False
    aa_restart: bool = False


@dataclass(frozen=True)
class IterationReport:
    """One time step: a record per iteration and the termination; ``failure``
    is None exactly when the step converged, and otherwise its reason."""

    termination: str
    records: tuple
    failure: str | None

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def converged(self) -> bool:
        return self.termination == "converged"


def fixed_stress_beta(mu: float, lam: float, alpha: float) -> float:
    """Fixed-stress stabilization alpha^2 / (2 mu / d + lambda) for d = 2."""
    if not (mu > 0 and lam >= 0 and alpha >= 0):
        raise ValueError("require mu > 0, lambda >= 0 and alpha >= 0")
    return alpha**2 / (mu + lam)


# ----------------------------------------------------------------------
# Single iterations
# ----------------------------------------------------------------------


def _flow_rhs(state, params, ops, parts, t_new):
    """Flux increment on the constrained edges (zero on the free ones) and
    the flow right-hand sides (r_p over all cells, r_q over the free edges)
    with that increment moved across; shared by the split step and Newton."""
    dq = np.zeros(ops.mesh.n_edges)
    dq[ops.fixed_q] = prescribed_flux(ops, params, t_new) - state.q[ops.fixed_q]
    rhs_p = parts.r_p - params.tau * (ops.D_pq @ dq)
    rhs_q = (parts.r_q - ops.weighted_flux_mass(parts.kinv, dq))[ops.free_q]
    return dq, rhs_p, rhs_q


def _flow_solve(state, params, ops, parts, cpp, coupling, t_new):
    """Solve [[C, tau D_f], [(B - D^T)_f, K_ff]] [dp; dq] = [rhs_p; rhs_q],
    C = diag(cpp), B the mobility coupling (zero when None), by exact
    elimination of C: dq solves (K_ff + tau (D - B)_f C^-1 D_f) dq =
    rhs_q + (D - B)_f C^-1 rhs_p, summed from the cell blocks
    k_c^-1 M_c + (tau / C_c) (d_c - b_c) d_c^T, and dp = C^-1 (rhs_p -
    tau D_f dq).  The flux matrix is SPD without B and with C > 0.  An
    extrapolated AA iterate can make the porosity, and with it C, negative
    in some cells; that matrix gets the general LU.  Zero or non-finite C
    raises LinearSolveError.  Returns dp and the full flux increment."""
    singular = ~np.isfinite(cpp) | (cpp == 0.0)
    if np.any(singular):
        cell = int(np.argmax(singular))
        raise LinearSolveError(f"pressure coefficient {cpp[cell]:.3e} at cell {cell} "
                               "cannot be eliminated")
    dq, rhs_p, rhs_q = _flow_rhs(state, params, ops, parts, t_new)
    d = ops.local_divergence
    arm = d if coupling is None else d - coupling
    blocks = (parts.kinv[:, None, None] * ops.local_flux_mass
              + (params.tau / cpp)[:, None, None] * (arm[..., :, None] * d))
    pushed = np.bincount(ops.mesh.cell_edges.ravel(),
                         weights=(arm * (rhs_p / cpp)[:, None]).ravel(),
                         minlength=ops.mesh.n_edges)
    spd = coupling is None and np.all(cpp > 0.0)
    factor = SparseFactor(ops.flux_pattern.matrix(blocks), ops.flux_order, symmetric=spd)
    dq_free = factor.solve(rhs_q + pushed[ops.free_q])
    dq[ops.free_q] = dq_free
    dp = (rhs_p - params.tau * (ops.D_pq_f @ dq_free)) / cpp
    return dp, dq


def split_iteration(state: PoroState, prev: PoroState, params: PhysicsParams,
                    ops: DiscreteOperators, cpp: np.ndarray, mobility_block: bool = False):
    """One fixed-stress sweep: the flow solve with diagonal pressure
    coefficient ``cpp`` (plus the mobility-derivative coupling in the flux
    block when ``mobility_block``), then elasticity at the new pressure.
    Returns the new state, the increment norms and the mobility clamp flag."""
    t_new = prev.time + params.tau
    parts = flow_parts(state, prev, params, ops)
    coupling, clamped = None, False
    if mobility_block:
        coupling, clamped = mobility_coupling(state, params, ops, parts)
    dp, dq = _flow_solve(state, params, ops, parts, cpp, coupling, t_new)
    trial = PoroState(p=state.p + dp, q=state.q + dq, u=state.u, time=t_new)
    r_u = mech_residual(trial, state.u, params, ops)
    du = np.zeros_like(state.u)
    du[ops.free_u] = ops.elastic_solve(r_u[ops.free_u])
    new_state = replace(trial, u=state.u + du)
    inc = (ops.pressure_norm(dp), ops.flux_norm(dq), ops.disp_norm(du))
    return new_state, inc, clamped


def _picard_coefficient(state, prev, params, ops):
    """Modified-Picard pressure coefficient of FS-MP and FS-Newton."""
    beta = fixed_stress_beta(params.mu, params.lam, params.alpha)
    sd = laws.saturation_derivative(state.p, params.vg)
    return pressure_coefficient(state, prev, params, ops, sd, beta)


def fsl_iteration(state: PoroState, prev: PoroState, params: PhysicsParams,
                  ops: DiscreteOperators, L: float):
    """Fixed-stress L-scheme sweep with the constant diagonal
    (L + 1/N + beta_FS) M_p.  No constitutive derivatives are evaluated."""
    beta = fixed_stress_beta(params.mu, params.lam, params.alpha)
    cpp = (L + params.inv_n + beta) * ops.M_p
    return split_iteration(state, prev, params, ops, cpp)


def fsl_local_iteration(state: PoroState, prev: PoroState, params: PhysicsParams,
                        ops: DiscreteOperators, scale: float = 1.0):
    """Fixed-stress L-scheme sweep with the locally weighted a-priori bound
    M_p (phi scale L_s + (1/N + scale beta_FS) s^2).  Still derivative free:
    L_s is the closed-form Lipschitz constant."""
    beta = fixed_stress_beta(params.mu, params.lam, params.alpha)
    l_s = params.vg.saturation_lipschitz()
    cpp = pressure_coefficient(state, prev, params, ops, scale * l_s, scale * beta)
    return split_iteration(state, prev, params, ops, cpp)


def fsmp_iteration(state: PoroState, prev: PoroState, params: PhysicsParams,
                   ops: DiscreteOperators):
    """Fixed-stress modified Picard sweep: first-order saturation
    linearization in the pressure block, Picard mobility."""
    cpp = _picard_coefficient(state, prev, params, ops)
    return split_iteration(state, prev, params, ops, cpp)


def fsnewton_iteration(state: PoroState, prev: PoroState, params: PhysicsParams,
                       ops: DiscreteOperators):
    """Fixed-stress Newton sweep: FS-MP plus the chain-rule mobility
    derivative coupling in the flux block."""
    cpp = _picard_coefficient(state, prev, params, ops)
    return split_iteration(state, prev, params, ops, cpp, mobility_block=True)


def newton_iteration(state: PoroState, prev: PoroState, params: PhysicsParams,
                     ops: DiscreteOperators):
    """One monolithic Newton step on the coupled system."""
    t_new = prev.time + params.tau
    matrix, parts, clamped = newton_blocks(state, prev, params, ops)
    r_u = mech_residual(state, state.u, params, ops)
    dq, rhs_p, rhs_q = _flow_rhs(state, params, ops, parts, t_new)
    rhs = np.concatenate([rhs_p, rhs_q, r_u[ops.free_u]])
    sol = SparseFactor(matrix, ops.order).solve(rhs)

    n_p = ops.mesh.n_cells
    n_qf = len(ops.free_q)
    dp = sol[:n_p]
    dq[ops.free_q] = sol[n_p:n_p + n_qf]
    du = np.zeros(2 * ops.mesh.n_nodes)
    du[ops.free_u] = sol[n_p + n_qf:]
    new_state = PoroState(p=state.p + dp, q=state.q + dq, u=state.u + du, time=t_new)
    inc = (ops.pressure_norm(dp), ops.flux_norm(dq), ops.disp_norm(du))
    return new_state, inc, clamped


def converged(increment_norms, state_norms, eps_abs: float, eps_rel: float) -> bool:
    """Combined absolute and relative L2 stopping criterion.

    Both the sum of the increment norms and the sum of the incrementwise
    relative terms must fall below their tolerances; a relative term whose
    state norm is below 1e-14 is dropped (e.g. the initial zero
    displacement)."""
    if any(n < 0 for n in increment_norms):
        raise ValueError("norms must be non-negative")
    if sum(increment_norms) >= eps_abs:
        return False
    rel = sum(
        inc / ref for inc, ref in zip(increment_norms, state_norms) if ref >= 1e-14
    )
    return rel < eps_rel


def _iteration_fn(scheme: SchemeConfig):
    """The iteration function of a scheme.  The names are looked up in the
    module namespace on every call, so wrappers set on the module
    attributes (perfbench's clock ticks and spans) are the ones called."""
    if scheme.kind == "fsl":
        if scheme.L is None:
            return partial(fsl_local_iteration, scale=scheme.L_scale)
        return partial(fsl_iteration, L=scheme.L)
    return {"newton": newton_iteration, "fsmp": fsmp_iteration,
            "fsnewton": fsnewton_iteration}[scheme.kind]


def _state_from_vector(vec, ops, t_new) -> PoroState:
    n_p = ops.mesh.n_cells
    n_q = ops.mesh.n_edges
    return PoroState(
        p=vec[:n_p].copy(),
        q=vec[n_p:n_p + n_q].copy(),
        u=vec[n_p + n_q:].copy(),
        time=t_new,
    )


def run_time_step(scheme: SchemeConfig, accel: AndersonConfig | None,
                  prev: PoroState, params: PhysicsParams, ops: DiscreteOperators):
    """Iterate one scheme (through the Anderson post-processor at depth >= 1,
    plain at depth 0 or None) over a single time step.  Failures terminate
    the loop and are reported with their reason, never raised."""
    t_new = prev.time + params.tau
    step = _iteration_fn(scheme)
    window = None
    if accel is not None and accel.depth > 0:
        window = AndersonWindow(accel, weights=ops.aa_weights)
    records = []
    current = prev
    totals = []
    termination = "max_iters"
    failure = f"no convergence within max_iters = {scheme.max_iters} iterations"

    for i in range(1, scheme.max_iters + 1):
        try:
            image, inc, clamped = step(current, prev, params, ops)
        except (LinearSolveError, ResidualError) as exc:
            termination, failure = "diverged", str(exc)
            break
        records.append(IterationRecord(inc, clamped))
        total = sum(inc)
        totals.append(total)

        if not np.isfinite(total):
            termination, failure = "diverged", f"non-finite increment norms {inc}"
            break
        state_norms = (
            ops.pressure_norm(image.p),
            ops.flux_norm(image.q),
            ops.disp_norm(image.u),
        )
        if converged(inc, state_norms, scheme.eps_abs, scheme.eps_rel):
            porosity = prev.porosity + porosity_increment(image, prev, params, ops)
            return (replace(image, porosity=porosity),
                    IterationReport("converged", tuple(records), None))
        if total > GROWTH_FACTOR * max(totals[0], 1e-300):
            termination = "diverged"
            failure = (f"increment total {total:.3e} exceeds GROWTH_FACTOR = "
                       f"{GROWTH_FACTOR:g} times the first, {totals[0]:.3e}")
            break
        if len(totals) > STAGNATION_SPAN + STAGNATION_STREAK and all(
            abs(totals[-1 - k] - totals[-1 - k - STAGNATION_SPAN])
            < STAGNATION_RTOL * totals[-1 - k - STAGNATION_SPAN]
            for k in range(STAGNATION_STREAK)
        ):
            termination = "stagnated"
            failure = (f"increment total within STAGNATION_RTOL = {STAGNATION_RTOL:g} of "
                       f"its value STAGNATION_SPAN = {STAGNATION_SPAN} iterations before")
            break

        if window is not None:
            restart = accel.depth >= 2 and i > 1 and total > AA_RESTART_FACTOR * totals[-2]
            if restart:
                window = AndersonWindow(accel, weights=ops.aa_weights)
            vec, alpha, fallback = window.push(
                image.vector(), image.vector() - current.vector()
            )
            records[-1] = replace(records[-1], aa_weights=tuple(alpha.tolist()),
                                  aa_fallback=fallback, aa_restart=restart)
            current = _state_from_vector(vec, ops, t_new)
        else:
            current = image

    return current, IterationReport(termination, tuple(records), failure)


@dataclass
class TransientResult:
    states: list
    reports: list
    completed: bool
    fail_step: int | None
    fail_status: str | None

    @property
    def iterations_per_step(self):
        return [r.iterations for r in self.reports]

    @property
    def average_iterations(self):
        counts = self.iterations_per_step
        return sum(counts) / len(counts) if counts else float("nan")


def run_transient(scheme: SchemeConfig, accel: AndersonConfig | None, init: PoroState,
                  params: PhysicsParams, ops: DiscreteOperators) -> TransientResult:
    """March backward-Euler steps up to params.T from the initial state,
    stopping at the first non-converged step (the failure is data, not an
    error)."""
    states = [init]
    reports = []
    for n in range(1, params.n_steps + 1):
        state, report = run_time_step(scheme, accel, states[-1], params, ops)
        reports.append(report)
        if not report.converged:
            return TransientResult(states, reports, False, n, report.termination)
        states.append(state)
    return TransientResult(states, reports, True, None, None)
