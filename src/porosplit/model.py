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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constitutive as laws
from .constitutive import PorosityLaw, VanGenuchtenModel
from .fem import DiscreteOperators, SparseFactor
from .mesh import RectMesh

__all__ = [
    "ResidualError",
    "PhysicsParams",
    "PoroState",
    "initial_state",
    "inflow_rate",
    "prescribed_flux",
    "gravity_loads",
    "FlowParts",
    "flow_parts",
    "mech_residual",
    "porosity_increment",
    "pressure_coefficient",
    "mobility_coupling",
    "newton_blocks",
    "volume_conservation_gap",
]


class ResidualError(RuntimeError):
    """Raised when a residual evaluation produces non-finite entries."""


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
        if not (self.tau > 0 and self.T >= self.tau and self.mu > 0 and self.lam >= 0):
            raise ValueError("require tau > 0, T >= tau, mu > 0, lambda >= 0")

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
    Saturation and pore pressure are cached with the pressure array and van
    Genuchten model they were computed from, so ``dataclasses.replace`` with
    a new ``p`` or a call with another model recomputes them.  Editing
    ``state.p`` in place is not supported.
    """

    p: np.ndarray
    q: np.ndarray
    u: np.ndarray
    time: float
    porosity: np.ndarray | None = None
    _sat: tuple | None = field(default=None, repr=False)  # (p, vg, values)
    _pe: tuple | None = field(default=None, repr=False)

    def _cached(self, name: str, law, vg: VanGenuchtenModel) -> np.ndarray:
        hit = getattr(self, name)
        if hit is None or hit[0] is not self.p or hit[1] != vg:
            hit = (self.p, vg, law(self.p, vg))
            object.__setattr__(self, name, hit)
        return hit[2]

    def saturation(self, params: PhysicsParams) -> np.ndarray:
        return self._cached("_sat", laws.saturation, params.vg)

    def pore_pressure(self, params: PhysicsParams) -> np.ndarray:
        return self._cached("_pe", laws.equivalent_pore_pressure, params.vg)

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
                  ops: DiscreteOperators) -> PoroState:
    """Uniform initial state: p = p0, u = 0, q from the stationary Darcy
    problem at p0 (identically zero without gravity)."""
    p = np.full(mesh.n_cells, float(p0))
    u = np.zeros(2 * mesh.n_nodes)
    q = np.zeros(mesh.n_edges)
    if params.g != (0.0, 0.0):
        kinv = 1.0 / laws.mobility(laws.saturation(p, params.vg), params.vg)
        f_q, _ = gravity_loads(ops, params)
        rhs = (f_q + ops.D_pq.T @ p)[ops.free_q]
        kff = ops.flux_pattern.matrix(kinv[:, None, None] * ops.local_flux_mass)
        q[ops.free_q] = SparseFactor(kff, ops.flux_order, symmetric=True).solve(rhs)
    porosity = np.full(mesh.n_cells, params.law.phi0)
    return PoroState(p=p, q=q, u=u, time=0.0, porosity=porosity)


# ----------------------------------------------------------------------
# Residuals and Newton blocks
# ----------------------------------------------------------------------


@dataclass
class FlowParts:
    """Shared intermediates of one flow residual evaluation."""

    sat: np.ndarray
    mobility: np.ndarray
    kinv: np.ndarray            # 1 / mobility, the RT0 mass cell weights
    r_p: np.ndarray
    r_q: np.ndarray             # constrained rows zeroed


def _check_finite(vec: np.ndarray, what: str):
    if not np.all(np.isfinite(vec)):
        cell = int(np.argmax(~np.isfinite(vec)))
        raise ResidualError(f"non-finite {what} at index {cell}")


def flow_parts(state: PoroState, prev: PoroState, params: PhysicsParams,
               ops: DiscreteOperators) -> FlowParts:
    """Mass and Darcy residuals at ``state`` with their intermediates."""
    s = state.saturation(params)
    s_prev = prev.saturation(params)
    area = ops.M_p
    storage = area * prev.porosity * (s - s_prev)
    coupling = params.alpha * s * (ops.D_pu @ (state.u - prev.u))
    if params.inv_n != 0.0:
        pe = state.pore_pressure(params)
        storage = storage + params.inv_n * area * s * (pe - prev.pore_pressure(params))
    r_p = -(storage + coupling + params.tau * (ops.D_pq @ state.q))
    _check_finite(r_p, "mass residual")

    kw = laws.mobility(np.clip(s, 0.0, 1.0), params.vg)
    with np.errstate(divide="ignore"):
        kinv = 1.0 / kw
    f_q, _ = gravity_loads(ops, params)
    r_q = f_q - (ops.weighted_flux_mass(kinv, state.q) - ops.D_pq.T @ state.p)
    r_q[ops.fixed_q] = 0.0
    _check_finite(r_q, "flux residual")
    return FlowParts(sat=s, mobility=kw, kinv=kinv, r_p=r_p, r_q=r_q)


def mech_residual(p_state: PoroState, u: np.ndarray, params: PhysicsParams,
                  ops: DiscreteOperators) -> np.ndarray:
    """Momentum residual at the given displacement and p_state's pressure."""
    pe = p_state.pore_pressure(params)
    _, f_u = gravity_loads(ops, params)
    r_u = f_u - (ops.A_uu @ u - params.alpha * (ops.D_pu.T @ pe))
    r_u[ops.fixed_u] = 0.0
    _check_finite(r_u, "momentum residual")
    return r_u


def porosity_increment(state: PoroState, prev: PoroState, params: PhysicsParams,
                       ops: DiscreteOperators) -> np.ndarray:
    """Per-cell porosity change alpha d(div u) + (1/N) d(pE) from ``prev``
    to ``state`` by the linear update law; shared by the iterate porosity,
    the acceptance of a step and the volume check, so the balance identity
    telescopes exactly.  pE is evaluated only when 1/N != 0."""
    inc = params.alpha * (ops.D_pu @ (state.u - prev.u)) / ops.M_p
    if params.inv_n != 0.0:
        inc = inc + params.inv_n * (state.pore_pressure(params) - prev.pore_pressure(params))
    return inc


def pressure_coefficient(state: PoroState, prev: PoroState, params: PhysicsParams,
                         ops: DiscreteOperators, weight, beta: float) -> np.ndarray:
    """Diagonal pressure coefficient M_p (phi weight + (1/N + beta) s^2) at
    ``state``, with phi the iterate porosity of the update law.  ``weight``
    is ds/dp for the (modified) Newton linearizations or the scaled
    Lipschitz bound of the local L-scheme; ``beta`` is the fixed-stress
    stabilization (0 for monolithic Newton)."""
    phi_it = prev.porosity + porosity_increment(state, prev, params, ops)
    return ops.M_p * (phi_it * weight + (params.inv_n + beta) * state.saturation(params)**2)


def mobility_coupling(state: PoroState, params: PhysicsParams,
                      ops: DiscreteOperators, parts: FlowParts):
    """Flux-block coupling d/dp [k_w^{-1}(p)] q = -k_w^{-2} k_w'(p) q, with
    k_w taken from ``parts`` (the flow residual at ``state``).

    Returns the column of each cell on its own edges, an (n_cells, 4) array
    in cell_edges order, and a clamp flag."""
    dkdp, clamped = laws.mobility_derivative_wrt_p(state.p, params.vg)
    with np.errstate(divide="ignore", over="ignore"):
        wcell = -dkdp / parts.mobility**2
    wcell[~np.isfinite(wcell)] = 0.0
    local = state.q[ops.mesh.cell_edges] @ ops.local_flux_mass
    return wcell[:, None] * local, bool(np.any(clamped))


def newton_blocks(state: PoroState, prev: PoroState, params: PhysicsParams,
                  ops: DiscreteOperators):
    """Monolithic Newton matrix of the coupled step, linearized at ``state``,
    over the free dofs [p | q_free | u_free] in the operators' ``order``.

    The pressure block carries phi^{i-1} ds/dp + (1/N) s^2 with the porosity
    evaluated at the current iterate; the flux block carries the chain-rule
    derivative of k_w^{-1}; the elasticity block is state independent.
    Returns the matrix, the flow residual parts at ``state`` and the clamp
    flag of the mobility derivative.
    """
    parts = flow_parts(state, prev, params, ops)
    sd = laws.saturation_derivative(state.p, params.vg)
    cpp = pressure_coefficient(state, prev, params, ops, sd, 0.0)
    coupling, clamped = mobility_coupling(state, params, ops, parts)
    d = ops.local_divergence
    apu = params.alpha * parts.sat[:, None] * ops.local_displacement_divergence
    # the u-u block stays zero: the stiffness is the pattern's constant
    blocks = np.zeros((ops.mesh.n_cells, 13, 13))
    blocks[:, 0, 0] = cpp
    blocks[:, 0, 1:5] = params.tau * d
    blocks[:, 0, 5:] = apu
    blocks[:, 1:5, 0] = coupling - d
    blocks[:, 5:, 0] = -apu
    blocks[:, 1:5, 1:5] = parts.kinv[:, None, None] * ops.local_flux_mass
    return ops.coupled_pattern.matrix(blocks), parts, clamped


def volume_conservation_gap(state: PoroState, prev: PoroState,
                            params: PhysicsParams, ops: DiscreteOperators) -> np.ndarray:
    """Per-cell defect of the fluid-volume balance identity

    phi^n s^n - phi^{n-1} s^{n-1}
        = phi^{n-1} (s^n - s^{n-1}) + s^n (alpha d(div u) + (1/N) d(pE)),

    which must vanish to round-off for porosities tracked by the update law.
    """
    s, s_prev = state.saturation(params), prev.saturation(params)
    inc = porosity_increment(state, prev, params, ops)
    return state.porosity * s - prev.porosity * s_prev - (
        prev.porosity * (s - s_prev) + s * inc
    )
