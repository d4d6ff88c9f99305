"""Time-discrete nonlinear Biot system: states, residuals, Newton blocks.

One backward-Euler step of the coupled Richards/elasticity system reads, for
P0 pressure p, RT0 flux q, Q1 displacement u and test functions (w, z, v):

  <phi^{n-1} (s^n - s^{n-1}), w> + alpha <s^n div(u^n - u^{n-1}), w>
      + (1/N) <s^n (pE^n - pE^{n-1}), w> + tau <div q^n, w>  = 0
  <k_w(s^n)^{-1} q^n, z> - <p^n, div z>                      = <rho_w g, z>
  2mu <eps(u^n), eps(v)> + lam <div u^n, div v>
      - alpha <pE^n, div v>                                  = <rho_b g, v>

with s = s_w(p), pE the equivalent pore pressure and phi^{n-1} frozen at the
previous time level.  Residuals are data minus operator.  The porosity of an
accepted state is tracked through the linear update law, which keeps the
per-cell volume balance an exact algebraic identity.

This module also provides a dense, exactly-eliminated single-field form of
the step (pressure only) for oracle-scale meshes: the flux and displacement
blocks are inverted densely, giving the compact problem

  b(p) + tau D K(p) (f_q + D^T p) = f_p,

whose L-scheme iteration must coincide with the fixed-stress L-scheme on the
full three-field system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import constitutive as laws
from .constitutive import PorosityLaw, VanGenuchtenModel
from .fem import DiscreteOperators, SparseFactor
from .mesh import RectMesh

__all__ = [
    "ResidualError",
    "ScaleGuardError",
    "PhysicsParams",
    "PoroState",
    "initial_state",
    "settled_initial_state",
    "inflow_rate",
    "prescribed_flux",
    "gravity_loads",
    "residuals",
    "NewtonBlocks",
    "newton_blocks",
    "volume_conservation_gap",
    "DenseReducedProblem",
    "dense_reduced",
]


class ResidualError(RuntimeError):
    """Raised when a residual evaluation produces non-finite entries."""


class ScaleGuardError(ValueError):
    """Raised when the dense single-field oracle is asked for too large a mesh."""


@dataclass(frozen=True)
class PhysicsParams:
    """Material, loading and time-stepping parameters of one scenario."""

    vg: VanGenuchtenModel
    law: PorosityLaw
    mu: float
    lam: float
    rho_w: float = 1.0
    rho_b: float = 1.0
    g: tuple = (0.0, 0.0)
    q_star: float = 0.0
    tau: float = 0.1
    T: float = 1.0

    def __post_init__(self):
        if self.tau <= 0 or self.T < self.tau or self.mu <= 0:
            raise ValueError("require tau > 0, T >= tau, mu > 0")

    @property
    def alpha(self) -> float:
        return self.law.alpha

    @property
    def inv_n(self) -> float:
        return self.law.inv_n

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.tau))


@dataclass(frozen=True)
class PoroState:
    """Coefficient vectors of one time level (or nonlinear iterate).

    Accepted time levels carry the porosity field; working iterates may not.
    States are immutable snapshots: a changed field makes a new state
    (``dataclasses.replace``).  Saturation and pore pressure are evaluated
    lazily and cached, or passed in when already known.
    """

    p: np.ndarray
    q: np.ndarray
    u: np.ndarray
    time: float
    porosity: np.ndarray | None = None
    _sat: np.ndarray | None = field(default=None, repr=False)
    _pe: np.ndarray | None = field(default=None, repr=False)

    def saturation(self, params: PhysicsParams) -> np.ndarray:
        if self._sat is None:
            object.__setattr__(self, "_sat", laws.saturation(self.p, params.vg))
        return self._sat

    def pore_pressure(self, params: PhysicsParams) -> np.ndarray:
        if self._pe is None:
            object.__setattr__(self, "_pe", laws.equivalent_pore_pressure(self.p, params.vg))
        return self._pe

    def vector(self) -> np.ndarray:
        return np.concatenate([self.p, self.q, self.u])


def inflow_rate(t: float, q_star: float) -> float:
    """Ramped injection rate q* min(t^2, 1)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return q_star * min(t * t, 1.0)


def prescribed_flux(ops: DiscreteOperators, params: PhysicsParams, t: float) -> np.ndarray:
    """Prescribed normal-flux values on the constrained edges (ops.fixed_q
    order): the ramped injection on the inflow strip, zero elsewhere."""
    values = np.zeros(len(ops.fixed_q))
    pos = np.searchsorted(ops.fixed_q, ops.mesh.boundary_edges["inflow"])
    values[pos] = inflow_rate(t, params.q_star)
    return values


def gravity_loads(ops: DiscreteOperators, params: PhysicsParams):
    """Right-hand sides <rho_w g, z> and <rho_b g, v> (zero for g = 0)."""
    mesh = ops.mesh
    f_q = np.zeros(mesh.n_edges)
    f_u = np.zeros(2 * mesh.n_nodes)
    gx, gy = params.g
    if gx == 0.0 and gy == 0.0:
        return f_q, f_u
    half = mesh.cell_area / 2.0
    np.add.at(f_q, mesh.cell_edges[:, :2].ravel(), params.rho_w * gx * half)
    np.add.at(f_q, mesh.cell_edges[:, 2:].ravel(), params.rho_w * gy * half)
    quarter = mesh.cell_area / 4.0
    np.add.at(f_u, mesh.cell_nodes.ravel(), params.rho_b * gx * quarter)
    np.add.at(f_u, (mesh.cell_nodes + mesh.n_nodes).ravel(), params.rho_b * gy * quarter)
    return f_q, f_u


def initial_state(mesh: RectMesh, params: PhysicsParams, p0: float,
                  ops: DiscreteOperators | None = None) -> PoroState:
    """Uniform initial state: p = p0, u = 0, q from the stationary Darcy
    problem at p0 (identically zero without gravity)."""
    p = np.full(mesh.n_cells, float(p0))
    u = np.zeros(2 * mesh.n_nodes)
    q = np.zeros(mesh.n_edges)
    if params.g != (0.0, 0.0):
        if ops is None:
            raise ValueError("gravity-driven initial flux needs assembled operators")
        kinv = 1.0 / laws.mobility(laws.saturation(p, params.vg), params.vg)
        f_q, _ = gravity_loads(ops, params)
        rhs = (f_q + ops.D_pq.T @ p)[ops.free_q]
        kff = ops.free_flux_matrix(kinv[:, None, None] * ops.local_flux_mass)
        q[ops.free_q] = SparseFactor(kff, ops.flux_order, symmetric=True).solve(rhs)
    porosity = np.full(mesh.n_cells, params.law.phi0)
    return PoroState(p=p, q=q, u=u, time=0.0, porosity=porosity)


def settled_initial_state(mesh: RectMesh, params: PhysicsParams, p0: float,
                          ops: DiscreteOperators) -> PoroState:
    """Initial state whose displacement already satisfies the discrete
    mechanics equation at p0 (the instantaneously settled configuration).

    The plain initial state (u = 0) leaves a nonzero mechanics residual on
    the traction-free boundary, which the first time step then resolves;
    exact-equivalence studies against the single-field form need the settled
    variant.
    """
    state = initial_state(mesh, params, p0, ops)
    pe = state.pore_pressure(params)
    _, f_u = gravity_loads(ops, params)
    rhs = (f_u + params.alpha * (ops.D_pu.T @ pe))[ops.free_u]
    u = np.zeros(2 * mesh.n_nodes)
    u[ops.free_u] = ops.elastic_solve(rhs)
    return PoroState(p=state.p, q=state.q, u=u, time=0.0, porosity=state.porosity)


# ----------------------------------------------------------------------
# Residuals and Newton blocks
# ----------------------------------------------------------------------


@dataclass
class _EvalParts:
    """Shared intermediates of one residual evaluation."""

    sat: np.ndarray
    mobility: np.ndarray
    kinv: sp.csr_array          # mobility-weighted RT0 mass, all dofs
    r_p: np.ndarray
    r_q: np.ndarray             # constrained rows zeroed
    pe: np.ndarray | None = None


def _check_finite(vec: np.ndarray, what: str):
    if not np.all(np.isfinite(vec)):
        cell = int(np.argmax(~np.isfinite(vec)))
        raise ResidualError(f"non-finite {what} at index {cell}")


def _flow_parts(state: PoroState, prev: PoroState, params: PhysicsParams,
                ops: DiscreteOperators) -> _EvalParts:
    s = state.saturation(params)
    s_prev = prev.saturation(params)
    area = ops.M_p
    storage = area * prev.porosity * (s - s_prev)
    coupling = params.alpha * s * (ops.D_pu @ (state.u - prev.u))
    pe = None
    if params.inv_n != 0.0:
        pe = state.pore_pressure(params)
        storage = storage + params.inv_n * area * s * (pe - prev.pore_pressure(params))
    r_p = -(storage + coupling + params.tau * (ops.D_pq @ state.q))
    _check_finite(r_p, "mass residual")

    kw = laws.mobility(np.clip(s, 0.0, 1.0), params.vg)
    with np.errstate(divide="ignore"):
        kinv = ops.weighted_flux_mass(1.0 / kw)
    f_q, _ = gravity_loads(ops, params)
    r_q = f_q - (kinv @ state.q - ops.D_pq.T @ state.p)
    r_q[ops.fixed_q] = 0.0
    _check_finite(r_q, "flux residual")
    return _EvalParts(sat=s, mobility=kw, kinv=kinv, r_p=r_p, r_q=r_q, pe=pe)


def _mech_residual(p_state: PoroState, u: np.ndarray, params: PhysicsParams,
                   ops: DiscreteOperators) -> np.ndarray:
    """Momentum residual at the given displacement and p_state's pressure."""
    pe = p_state.pore_pressure(params)
    _, f_u = gravity_loads(ops, params)
    r_u = f_u - (ops.A_uu @ u - params.alpha * (ops.D_pu.T @ pe))
    r_u[ops.fixed_u] = 0.0
    _check_finite(r_u, "momentum residual")
    return r_u


def residuals(state: PoroState, prev: PoroState, params: PhysicsParams,
              ops: DiscreteOperators):
    """Residual vectors (r_p, r_q, r_u) of the coupled step at ``state``,
    with the porosity frozen at ``prev``.  Rows of constrained flux and
    displacement dofs are zeroed."""
    parts = _flow_parts(state, prev, params, ops)
    r_u = _mech_residual(state, state.u, params, ops)
    return parts.r_p, parts.r_q, r_u


def _iterate_porosity(state: PoroState, prev: PoroState, params: PhysicsParams,
                      ops: DiscreteOperators) -> np.ndarray:
    """Porosity at the current iterate via the linear update law."""
    phi = prev.porosity + params.alpha * (ops.D_pu @ (state.u - prev.u)) / ops.M_p
    if params.inv_n != 0.0:
        phi = phi + params.inv_n * (state.pore_pressure(params) - prev.pore_pressure(params))
    return phi


@dataclass
class NewtonBlocks:
    """Coupled Jacobian over the free dofs [p | q_free | u_free], rows and
    columns in the operators' nested-dissection ``order``."""

    matrix: sp.csc_array
    derivative_clamped: bool
    parts: _EvalParts


def _mobility_coupling(state: PoroState, params: PhysicsParams,
                       ops: DiscreteOperators):
    """Flux-block coupling d/dp [k_w^{-1}(p)] q = -k_w^{-2} k_w'(p) q.

    Returns the column of each cell on its own edges, an (n_cells, 4) array
    in cell_edges order, and a clamp flag."""
    dkdp, clamped = laws.mobility_derivative_wrt_p(state.p, params.vg)
    kw = laws.mobility(np.clip(state.saturation(params), 0.0, 1.0), params.vg)
    with np.errstate(divide="ignore", over="ignore"):
        wcell = -dkdp / kw**2
    wcell[~np.isfinite(wcell)] = 0.0
    _, vals = ops.flux_mass_cell_action(state.q)
    return wcell[:, None] * vals, bool(np.any(clamped))


def newton_blocks(state: PoroState, prev: PoroState, params: PhysicsParams,
                  ops: DiscreteOperators) -> NewtonBlocks:
    """Monolithic Newton matrix of the coupled step, linearized at ``state``.

    The pressure block carries phi^{i-1} ds/dp + (1/N) s^2 with the porosity
    evaluated at the current iterate; the flux block carries the chain-rule
    derivative of k_w^{-1}; the elasticity block is state independent.
    """
    parts = _flow_parts(state, prev, params, ops)
    s = parts.sat
    phi_iter = _iterate_porosity(state, prev, params, ops)
    cpp = ops.M_p * (phi_iter * laws.saturation_derivative(state.p, params.vg)
                     + params.inv_n * s**2)
    coupling, clamped = _mobility_coupling(state, params, ops)
    d = ops.local_divergence
    apu = params.alpha * s[:, None] * ops.local_displacement_divergence
    p_row = np.hstack([cpp[:, None], np.broadcast_to(params.tau * d, coupling.shape), apu])
    p_col = np.hstack([coupling - d, -apu])
    with np.errstate(divide="ignore"):
        kinv = 1.0 / parts.mobility
    return NewtonBlocks(
        matrix=ops.coupled_matrix(p_row, p_col, kinv),
        derivative_clamped=clamped,
        parts=parts,
    )


def porosity_increment(state_u, prev_u, state_pe, prev_pe,
                       params: PhysicsParams, ops: DiscreteOperators) -> np.ndarray:
    """Per-cell porosity change alpha d(div u) + (1/N) d(pE) between two
    coefficient sets; shared by acceptance of a step and the volume check so
    the balance identity telescopes exactly."""
    inc = params.alpha * (ops.D_pu @ (state_u - prev_u)) / ops.M_p
    if params.inv_n != 0.0:
        inc = inc + params.inv_n * (state_pe - prev_pe)
    return inc


def volume_conservation_gap(state: PoroState, prev: PoroState,
                            params: PhysicsParams, ops: DiscreteOperators) -> np.ndarray:
    """Per-cell defect of the fluid-volume balance identity

    phi^n s^n - phi^{n-1} s^{n-1}
        = phi^{n-1} (s^n - s^{n-1}) + s^n (alpha d(div u) + (1/N) d(pE)),

    which must vanish to round-off for porosities tracked by the update law.
    """
    s, s_prev = state.saturation(params), prev.saturation(params)
    pe = state.pore_pressure(params) if params.inv_n != 0.0 else None
    pe_prev = prev.pore_pressure(params) if params.inv_n != 0.0 else None
    inc = porosity_increment(state.u, prev.u, pe, pe_prev, params, ops)
    return state.porosity * s - prev.porosity * s_prev - (
        prev.porosity * (s - s_prev) + s * inc
    )


# ----------------------------------------------------------------------
# Dense single-field oracle
# ----------------------------------------------------------------------


class DenseReducedProblem:
    """Exactly-eliminated pressure-only form of the step on a tiny mesh.

    Flux and displacement are inverted densely, so the step becomes
    b(p) + tau D K(p) (f_q(p) + D^T p) = f_p with

      b(p)   = S(p) phi_vec(p),
      phi_vec(p) = c0 + (alpha^2 Dpu Auu^{-1} Dpu^T + (1/N) M_p) pE(p),
      K(p)   = (k_w^{-1}-weighted RT0 mass, free block)^{-1},
      f_q(p) = gravity load minus the coupling of constrained flux dofs.

    Only the free flux dofs remain in D; contributions of boundary dofs
    (prescribed inflow) are folded into f_q and f_p.
    """

    MAX_CELLS = 64

    def __init__(self, ops: DiscreteOperators, params: PhysicsParams,
                 init: PoroState):
        mesh = ops.mesh
        if mesh.n_cells > self.MAX_CELLS:
            raise ScaleGuardError(
                f"dense oracle is limited to {self.MAX_CELLS} cells, got {mesh.n_cells}"
            )
        self.ops = ops
        self.params = params
        self.area = ops.M_p.copy()

        a_ff = ops.A_ff.toarray()
        self._a_lu = scipy.linalg.lu_factor(a_ff)
        self.dpu_f = ops.D_pu[:, ops.free_u].toarray()
        f_q0, f_u0 = gravity_loads(ops, params)
        self.f_u_f = f_u0[ops.free_u]
        self.f_q0_f = f_q0[ops.free_q]
        alpha = params.alpha
        self.P2 = alpha**2 * self.dpu_f @ scipy.linalg.lu_solve(self._a_lu, self.dpu_f.T)
        pe0 = init.pore_pressure(params)
        self.c0 = (
            self.area * params.law.phi0
            + alpha * self.dpu_f @ scipy.linalg.lu_solve(self._a_lu, self.f_u_f)
            - alpha * (ops.D_pu @ init.u)
            - params.inv_n * self.area * pe0
        )
        self.D_f = ops.D_pq[:, ops.free_q].toarray()
        self.D_b = ops.D_pq[:, ops.fixed_q].toarray()

    # -- constitutive wrappers -----------------------------------------

    def saturation(self, p):
        return laws.saturation(p, self.params.vg)

    def pore_pressure(self, p):
        return laws.equivalent_pore_pressure(p, self.params.vg)

    def phi_vec(self, p):
        """Area-integrated porosity at mechanics-consistent displacement."""
        pe = self.pore_pressure(p)
        return self.c0 + self.P2 @ pe + self.params.inv_n * self.area * pe

    def b(self, p):
        return self.saturation(p) * self.phi_vec(p)

    def jacobian_b(self, p):
        """Dense Jacobian of b: diag(s' phi_vec) + S (P2 + (1/N) M_p) S."""
        s = self.saturation(p)
        sd = laws.saturation_derivative(p, self.params.vg)
        core = self.P2 + self.params.inv_n * np.diag(self.area)
        return np.diag(sd * self.phi_vec(p)) + (s[:, None] * core) * s[None, :]

    # -- flux elimination ------------------------------------------------

    def _flux_blocks(self, p):
        s = self.saturation(p)
        kinv = self.ops.weighted_flux_mass(1.0 / laws.mobility(s, self.params.vg))
        k_ff = kinv[self.ops.free_q][:, self.ops.free_q].toarray()
        k_fb = kinv[self.ops.free_q][:, self.ops.fixed_q].toarray()
        return k_ff, k_fb

    def K(self, p):
        k_ff, _ = self._flux_blocks(p)
        return np.linalg.inv(k_ff)

    def f_q(self, p, t):
        _, k_fb = self._flux_blocks(p)
        return self.f_q0_f - k_fb @ prescribed_flux(self.ops, self.params, t)

    def f_p(self, phi_prev, s_prev, t):
        qbar = prescribed_flux(self.ops, self.params, t)
        return self.area * phi_prev * s_prev - self.params.tau * (self.D_b @ qbar)

    def compact_residual(self, p, phi_prev, s_prev, t):
        """Defect of b(p) + tau D K(p) (f_q + D^T p) - f_p."""
        k_ff, k_fb = self._flux_blocks(p)
        qbar = prescribed_flux(self.ops, self.params, t)
        rhs = self.f_q0_f - k_fb @ qbar + self.D_f.T @ p
        q_f = np.linalg.solve(k_ff, rhs)
        return (
            self.b(p) + self.params.tau * (self.D_f @ q_f)
            - self.f_p(phi_prev, s_prev, t)
        )

    def u_of_p(self, p):
        """Mechanics-consistent displacement (full-length vector)."""
        pe = self.pore_pressure(p)
        u = np.zeros(2 * self.ops.mesh.n_nodes)
        u[self.ops.free_u] = scipy.linalg.lu_solve(
            self._a_lu, self.f_u_f + self.params.alpha * (self.dpu_f.T @ pe)
        )
        return u

    def lscheme_step(self, p_old, phi_prev, s_prev, t, L_total):
        """One constant-stabilization iteration of the compact problem:

        L_total M_p (p - p_old) + b(p_old)
            + tau D K(p_old) (f_q(p_old) + D^T p) = f_p.
        """
        tau = self.params.tau
        k_ff, k_fb = self._flux_blocks(p_old)
        k = np.linalg.inv(k_ff)
        qbar = prescribed_flux(self.ops, self.params, t)
        f_q = self.f_q0_f - k_fb @ qbar
        lhs = L_total * np.diag(self.area) + tau * self.D_f @ k @ self.D_f.T
        rhs = (
            self.f_p(phi_prev, s_prev, t)
            - self.b(p_old)
            - tau * self.D_f @ (k @ f_q)
            + L_total * self.area * p_old
        )
        return np.linalg.solve(lhs, rhs)


def dense_reduced(ops: DiscreteOperators, params: PhysicsParams,
                  init: PoroState) -> DenseReducedProblem:
    """Dense single-field oracle; guarded to meshes of at most 64 cells."""
    return DenseReducedProblem(ops, params, init)
