"""The linearization schemes and the per-time-step iteration driver.

Every scheme maps an iterate (p, q, u) to the next one in incremental form;
the initial guess of a time step is the previous time level.  ``SCHEMES``
is the table of the five schemes of the study, by the names that
``SchemeConfig.kind`` takes.

* monolithic Newton: the exact Jacobian's step for (dp, dq, du), solved by
  hybridization (``newton_blocks``);
* fixed-stress splits (``split_iteration``): a flow solve with a diagonal
  pressure coefficient C, then an elasticity solve at the new pressure.
  FSL, FS-MP and FS-Newton differ only in C and in one flag:

  - FSL: the derivative-free L-scheme diagonal, the local bound
    M_p (phi scale L_s + (1/N + scale beta_FS) s^2) with scale 1 (``fsl``)
    or 1/2 (``fsl2``, FSL/2), or for ``fsl`` with a given L the constant
    (L + 1/N + beta_FS) M_p;
  - FS-MP: the first-order coefficient M_p (phi ds/dp + (1/N + beta_FS) s^2);
  - FS-Newton: the FS-MP coefficient plus the mobility-derivative coupling
    in the flux block.

Every non-constant C comes from ``model.pressure_coefficient``.  beta_FS =
alpha^2 / (2 mu / d + lambda) is the classical fixed-stress stabilization,
with the moduli ``ops.mu`` and ``ops.lam`` that the stiffness is built from.
This module builds, factors and back-substitutes every linear system of an
iteration: a split scheme eliminates its diagonal pressure block and
factors one flux-only matrix (``_flow_solve``); monolithic Newton condenses
each cell's pressure and flux and factors one matrix over the edge traces
and the displacements (``newton_blocks``).  Convergence combines absolute
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
builds up again.  Extrapolating through a non-contractive stretch of the
map (cells switching to full saturation, say) can blow the increment up
while the mixing least squares stays well conditioned; the restart
discards that history, and likewise a stale first column left by the
settlement jump of the opening iteration.  Depths 0 and 1 are never
restarted.  The mixing weights themselves are not capped: |alpha|_1 in
the hundreds is routine in runs that converge fast (FSL/2 + AA(3) on
test2, 4x4), and rejecting every iterate with |alpha|_1 > 10 stalls that
run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral

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
    porosity_increment,
    pressure_coefficient,
    prescribed_flux,
)

__all__ = [
    "SCHEMES",
    "SchemeConfig",
    "IterationRecord",
    "IterationReport",
    "fixed_stress_beta",
    "split_iteration",
    "newton_blocks",
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

# Every scheme of the study: name -> (label, name of its iteration
# function in this module, that function's keyword arguments).
SCHEMES = {
    "newton": ("Newton", "newton_iteration", {}),
    "fsnewton": ("FS-Newton", "fsnewton_iteration", {}),
    "fsmp": ("FS-MP", "fsmp_iteration", {}),
    "fsl": ("FSL", "fsl_local_iteration", {"scale": 1.0}),
    "fsl2": ("FSL/2", "fsl_local_iteration", {"scale": 0.5}),
}

GROWTH_FACTOR = 1e4        # increment growth classifying divergence
AA_RESTART_FACTOR = 3.0    # increment growth that flushes an AA(m >= 2) store
STAGNATION_SPAN = 20       # iterations over which flat increments stagnate
STAGNATION_RTOL = 0.01
STAGNATION_STREAK = 5      # consecutive flat comparisons required


@dataclass(frozen=True)
class SchemeConfig:
    """Which linearization to run and its tuning.

    ``kind`` is one of the five names of ``SCHEMES``.  ``L`` is for ``kind="fsl"``
    only: ``None`` (default) takes the local bound M_p (phi L_s + (1/N +
    beta_FS) s^2) with the porosity/saturation weights of the current
    iterate and L_s the saturation Lipschitz constant -- the a-priori bound
    of the modified-Picard coefficient, and the tuning behind the reference
    iteration counts of the benchmark sweeps; a positive ``L`` takes the
    constant diagonal (L + 1/N + beta_FS) M_p, the variant with the
    mesh-independent contraction.
    """

    kind: str
    L: float | None = None
    max_iters: int = 500
    eps_abs: float = 1e-8
    eps_rel: float = 1e-8

    def __post_init__(self):
        if self.kind not in SCHEMES:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if not (isinstance(self.max_iters, Integral) and self.max_iters >= 1):
            raise ValueError("max_iters must be an integer >= 1")
        if not (self.eps_abs > 0 and self.eps_rel > 0):
            raise ValueError("tolerances eps_abs and eps_rel must be positive")
        if self.L is not None and self.kind != "fsl":
            raise ValueError(f"L applies to kind 'fsl' only, not {self.kind!r}")
        if self.L is not None and not self.L > 0:
            raise ValueError("L must be positive")


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
    tau D_f dq).  The flux matrix is SPD without B and with C > 0;
    FS-Newton's is not, nor is one with C < 0 in some cells (an extrapolated
    AA iterate can make the porosity negative).  ``ops.flux_factor`` is told
    which, and ``fem`` picks the factor by its one band rule.  Zero or
    non-finite C raises LinearSolveError.  Returns dp and the full flux
    increment."""
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
    matrix = ops.flux_pattern.matrix(blocks)
    factor = ops.flux_factor(matrix, coupling is None and np.all(cpp > 0.0))
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
    r_u = mech_residual(trial, params, ops)
    du = np.zeros_like(state.u)
    du[ops.free_u] = ops.elastic_solve(r_u[ops.free_u])
    new_state = replace(trial, u=state.u + du)
    inc = (ops.pressure_norm(dp), ops.flux_norm(dq), ops.disp_norm(du))
    return new_state, inc, clamped


def _derivative_coefficient(state, prev, params, ops, beta):
    """First-order pressure coefficient M_p (phi ds/dp + (1/N + beta) s^2):
    FS-MP's and FS-Newton's with beta = beta_FS, Newton's with beta = 0."""
    sd = laws.saturation_derivative(state.p, params.vg)
    return pressure_coefficient(state, prev, params, ops, sd, beta)


def fsl_iteration(state: PoroState, prev: PoroState, params: PhysicsParams,
                  ops: DiscreteOperators, L: float):
    """Fixed-stress L-scheme sweep with the constant diagonal
    (L + 1/N + beta_FS) M_p.  No constitutive derivatives are evaluated."""
    beta = fixed_stress_beta(ops.mu, ops.lam, params.alpha)
    cpp = (L + params.inv_n + beta) * ops.M_p
    return split_iteration(state, prev, params, ops, cpp)


def fsl_local_iteration(state: PoroState, prev: PoroState, params: PhysicsParams,
                        ops: DiscreteOperators, scale: float = 1.0):
    """Fixed-stress L-scheme sweep with the locally weighted a-priori bound
    M_p (phi scale L_s + (1/N + scale beta_FS) s^2).  Still derivative free:
    L_s is the closed-form Lipschitz constant."""
    beta = fixed_stress_beta(ops.mu, ops.lam, params.alpha)
    l_s = params.vg.saturation_lipschitz()
    cpp = pressure_coefficient(state, prev, params, ops, scale * l_s, scale * beta)
    return split_iteration(state, prev, params, ops, cpp)


def fsmp_iteration(state: PoroState, prev: PoroState, params: PhysicsParams,
                   ops: DiscreteOperators):
    """Fixed-stress modified Picard sweep: first-order saturation
    linearization in the pressure block, Picard mobility."""
    beta = fixed_stress_beta(ops.mu, ops.lam, params.alpha)
    cpp = _derivative_coefficient(state, prev, params, ops, beta)
    return split_iteration(state, prev, params, ops, cpp)


def fsnewton_iteration(state: PoroState, prev: PoroState, params: PhysicsParams,
                       ops: DiscreteOperators):
    """Fixed-stress Newton sweep: FS-MP plus the chain-rule mobility
    derivative coupling in the flux block."""
    beta = fixed_stress_beta(ops.mu, ops.lam, params.alpha)
    cpp = _derivative_coefficient(state, prev, params, ops, beta)
    return split_iteration(state, prev, params, ops, cpp, mobility_block=True)


def newton_blocks(state: PoroState, prev: PoroState, params: PhysicsParams,
                  ops: DiscreteOperators):
    """Monolithic Newton's matrix of the coupled step at ``state``,
    hybridized (Arnold & Brezzi, M2AN 19, 1985) and condensed onto the edge
    traces and free displacements [q_free | u_free] in ``ops.order``.

    Newton's pressure coefficient C_c (beta = 0) vanishes on saturated cells
    when 1/N = 0, so it cannot be eliminated alone.  Instead each cell holds
    its own copy of its edge fluxes, with the block over [pressure | fluxes]
    L_c = [[C_c, tau d^T], [g_c, K_c]]: g_c = b_c - d, b_c the mobility
    coupling, and K_c = k_c^-1 M_c, with an identity row and column at a
    constrained edge.  T_c (5 x 12) maps the cell's ``ops.hybrid_dofs``
    [traces | x then y of its nodes] onto those rows: S = diag(sign d) ties
    a free edge's two copies, and w_c = alpha s_c d_u couples the
    displacements into the pressure row.  The matrix is the constrained
    stiffness plus the blocks T_c^T L_c^-1 T_c, in closed form.  M_c is two
    2x2 blocks, (W,E) and (S,N), so K_c^-1 = k_c Q_c over the free edges
    (``ops.hybrid_flux_inverse``), and the pressure's Schur complement is
    the scalar sigma_c = C_c - e_c g_c, e_c = tau d^T K_c^-1.  With
    h_c = K_c^-1 g_c,

        L_c^-1 = blockdiag(0, K_c^-1) + [1; -h_c] [1, -e_c] / sigma_c,
        T_c^T L_c^-1 T_c = blockdiag(k_c S Q_c S, 0) + a_c b_c^T / sigma_c,

    a_c = [S h_c; -w_c], b_c = [S e_c; -w_c].  sigma_c stays nonzero where
    C_c = 0: without b_c it is tau d^T K_c^-1 d over the free edges.
    ``newton_iteration`` splits each free edge's flux residual evenly
    between its two copies (the trace takes up the difference), pushes
    L_c^-1 of it through T_c^T, and after the condensed solve y subtracts
    L_c^-1 T_c y_c from it.  The flux rows of L_c^-1 T_c are S times the
    block's trace rows, so they are read off the block: the flux copies
    are a small difference of terms of the traces' size, and a lift summed
    from the block's entries keeps them about as accurate as the LU of L_c
    did.  An edge's dq is the mean of its two copies.

    Returns the matrix, the cell arrays (k_c, h_c, e_c, sigma_c, w_c) and
    the 12x12 blocks, the flow residual parts at ``state`` and the clamp
    flag of the mobility derivative.  A zero or non-finite sigma_c raises
    LinearSolveError naming the cell.
    """
    parts = flow_parts(state, prev, params, ops)
    cpp = _derivative_coefficient(state, prev, params, ops, 0.0)
    coupling, clamped = mobility_coupling(state, params, ops, parts)
    d, q_inv = ops.local_divergence, ops.hybrid_flux_inverse
    k = 1.0 / parts.kinv
    g = coupling - d   # Q_c drops its entries at constrained edges
    h = k[:, None] * np.einsum("cij,cj->ci", q_inv, g)
    e = (params.tau * k)[:, None] * (q_inv @ d)
    sigma = cpp - np.einsum("ci,ci->c", e, g)
    singular = ~np.isfinite(sigma) | (sigma == 0.0)
    if np.any(singular):
        cell = int(np.argmax(singular))
        raise LinearSolveError(f"Newton's pressure-flux block of cell {cell} is singular")
    sign = np.sign(d)
    w = params.alpha * parts.sat[:, None] * ops.local_displacement_divergence
    a = np.concatenate([sign * h, -w], axis=1)
    b = np.concatenate([sign * e, -w], axis=1) / sigma[:, None]
    blocks = np.einsum("ci,cj->cij", a, b)
    blocks[:, :4, :4] += k[:, None, None] * (sign[:, None] * q_inv * sign)
    matrix = ops.hybrid_pattern.matrix(blocks)
    return matrix, (k, h, e, sigma, w, blocks), parts, clamped


def newton_iteration(state: PoroState, prev: PoroState, params: PhysicsParams,
                     ops: DiscreteOperators):
    """One monolithic Newton step on the coupled system, by the static
    condensation that ``newton_blocks`` describes."""
    t_new = prev.time + params.tau
    matrix, (k, h, e, sigma, w, blocks), parts, clamped = newton_blocks(state, prev, params, ops)
    r_u = mech_residual(state, params, ops)
    dq, rhs_p, rhs_q = _flow_rhs(state, params, ops, parts, t_new)
    ce, n_e, n_qf = ops.mesh.cell_edges, ops.mesh.n_edges, len(ops.free_q)
    half = np.zeros(n_e)
    half[ops.free_q] = 0.5 * rhs_q
    sign = np.sign(ops.local_divergence)

    # L_c^-1 [rhs_p; half]: each cell's pressure and flux copies
    x_p = (rhs_p - np.einsum("ci,ci->c", e, half[ce])) / sigma
    x_q = k[:, None] * np.einsum("cij,cj->ci", ops.hybrid_flux_inverse, half[ce])
    x_q -= h * x_p[:, None]
    n = len(ops.order)
    pushed = np.concatenate([sign * x_q, w * x_p[:, None]], axis=1)
    rhs = np.bincount(ops.hybrid_dofs.ravel(), pushed.ravel(), minlength=n + 1)[:n]
    rhs[n_qf:] += r_u[ops.free_u]
    sol = SparseFactor(matrix, ops.order).solve(rhs)

    y = np.append(sol, 0.0)[ops.hybrid_dofs]
    lifted = np.einsum("ci,ci->c", sign * e, y[:, :4]) - np.einsum("ci,ci->c", w, y[:, 4:])
    dp = x_p + lifted / sigma
    x_q -= sign * np.einsum("cij,cj->ci", blocks[:, :4, :], y)
    dq[ops.free_q] = 0.5 * np.bincount(ce.ravel(), x_q.ravel(), minlength=n_e)[ops.free_q]
    du = np.zeros(2 * ops.mesh.n_nodes)
    du[ops.free_u] = sol[n_qf:]
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
    """The iteration function of a scheme.  The name is looked up in the
    module namespace on every call, so wrappers set on the module
    attributes (perfbench's clock ticks and spans) are the ones called."""
    if scheme.L is not None:
        return partial(fsl_iteration, L=scheme.L)
    _, name, kwargs = SCHEMES[scheme.kind]
    return partial(globals()[name], **kwargs)


# Anderson mixes states as one vector [p | q | u]; only the next three
# functions know that layout.

def _vector(state: PoroState) -> np.ndarray:
    return np.concatenate([state.p, state.q, state.u])


def _aa_weights(ops: DiscreteOperators) -> np.ndarray:
    """Mass diagonals, so that the weighted Euclidean norm approximates L2."""
    return np.concatenate([ops.M_p, ops.M_q.diagonal(), ops.M_u.diagonal()])


def _state_from_vector(vec, ops, t_new) -> PoroState:
    p, q, u = np.split(vec, [ops.mesh.n_cells, ops.mesh.n_cells + ops.mesh.n_edges])
    return PoroState(p=p.copy(), q=q.copy(), u=u.copy(), time=t_new)


def run_time_step(scheme: SchemeConfig, accel: AndersonConfig | None,
                  prev: PoroState, params: PhysicsParams, ops: DiscreteOperators):
    """Iterate one scheme (through the Anderson post-processor at depth >= 1,
    plain at depth 0 or None) over a single time step.  Failures terminate
    the loop and are reported with their reason, never raised."""
    t_new = prev.time + params.tau
    step = _iteration_fn(scheme)
    window = weights = None
    if accel is not None and accel.depth > 0:
        weights = _aa_weights(ops)
        window = AndersonWindow(accel, weights=weights)
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
        # converged() is False while the total is not below eps_abs, so the
        # image's norms are only taken once it is
        if total < scheme.eps_abs and converged(
            inc, (ops.pressure_norm(image.p), ops.flux_norm(image.q), ops.disp_norm(image.u)),
            scheme.eps_abs, scheme.eps_rel,
        ):
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
                window = AndersonWindow(accel, weights=weights)
            vec = _vector(image)
            vec, alpha, fallback = window.push(vec, vec - _vector(current))
            records[-1] = replace(records[-1], aa_weights=tuple(alpha.tolist()),
                                  aa_fallback=fallback, aa_restart=restart)
            current = _state_from_vector(vec, ops, t_new)
        else:
            current = image

    return current, IterationReport(termination, tuple(records), failure)


@dataclass(frozen=True)
class TransientResult:
    states: tuple
    reports: tuple
    completed: bool
    fail_step: int | None
    fail_status: str | None

    @property
    def iterations_per_step(self):
        return tuple(r.iterations for r in self.reports)

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
            return TransientResult(tuple(states), tuple(reports), False, n, report.termination)
        states.append(state)
    return TransientResult(tuple(states), tuple(reports), True, None, None)
