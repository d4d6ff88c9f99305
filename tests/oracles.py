"""Dense and compositional oracles the tests check the solver against.

None of this runs in a solve.  ``DenseReducedProblem`` is the exactly
eliminated single-field form of a time step on oracle-scale meshes: the flux
and displacement blocks are inverted densely, giving the compact problem

  b(p) + tau D K(p) (f_q + D^T p) = f_p,

whose L-scheme iteration must coincide with the fixed-stress L-scheme on the
full three-field system.  Its dense K blocks are summed from the cell block
``local_flux_mass`` here, not through the solver's flux-mass action.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from porosplit import constitutive as laws
from porosplit import fem
from porosplit.model import (
    PoroState,
    flow_parts,
    gravity_loads,
    initial_state,
    mech_residual,
    mobility_coupling,
    prescribed_flux,
    pressure_coefficient,
)


class ScaleGuardError(ValueError):
    """Raised when the dense single-field oracle is asked for too large a mesh."""


def dense_flux_mass(ops, cell_weights) -> np.ndarray:
    """Dense RT0 mass matrix with piecewise-constant cell weights."""
    ce = ops.mesh.cell_edges
    out = np.zeros((ops.mesh.n_edges, ops.mesh.n_edges))
    np.add.at(out, (ce[:, :, None], ce[:, None, :]),
              np.asarray(cell_weights)[:, None, None] * ops.local_flux_mass)
    return out


def constrained_stiffness(ops) -> sp.csc_array:
    """The constrained stiffness in the free displacement numbering, sliced
    from the unconstrained ``A_uu`` here, not read off the elastic factor."""
    return ops.A_uu[np.ix_(ops.free_u, ops.free_u)].tocsc()


def band_cholesky_solve(matrix, rhs) -> np.ndarray:
    """A^-1 rhs by the band Cholesky (George & Liu 1981) of the SPD CSC
    ``matrix``: its pattern in reverse Cuthill-McKee order, the lower band
    factored by LAPACK's dpbtrf and solved by dpbtrs."""
    n = matrix.shape[0]
    pattern = sp.csc_array((np.ones(matrix.nnz), matrix.indices, matrix.indptr), shape=(n, n))
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
    rank = np.argsort(perm)
    row, col = rank[matrix.indices], rank[np.repeat(np.arange(n), np.diff(matrix.indptr))]
    lower = row >= col
    ab = np.zeros((np.max(row - col) + 1, n))
    ab[(row - col)[lower], col[lower]] = matrix.data[lower]
    factor, info = scipy.linalg.lapack.dpbtrf(ab, lower=1)
    assert info == 0, f"band Cholesky pivot {info} is not positive"
    x = np.empty(n)
    x[perm] = scipy.linalg.lapack.dpbtrs(factor, rhs[perm], lower=1)[0]
    return x


def recursive_dissection(xy, leaf_size):
    """``fem.nested_dissection`` as one recursive call per box: the box's
    lower half, then its upper half, then the dofs on its line, each box's
    dofs in their order in ``xy``; a box of at most ``leaf_size`` dofs, or
    with no node line inside it, is a leaf."""
    pieces, rows = [], []

    def dissect(idx, lo, hi, first):
        mid = start = first
        if len(idx) > leaf_size:
            for axis in ((0, 1) if hi[0] - lo[0] >= hi[1] - lo[1] else (1, 0)):
                line = 2 * ((lo[axis] + hi[axis] + 2) // 4)
                if lo[axis] < line < hi[axis]:
                    coord = xy[idx, axis]
                    mid = dissect(idx[coord < line], lo, {**hi, axis: line - 1}, first)
                    start = dissect(idx[coord > line], {**lo, axis: line + 1}, hi, mid)
                    idx = idx[coord == line]
                    break
        pieces.append(idx)
        rows.append((first, mid, start, start + len(idx)))
        return start + len(idx)

    n = len(xy)
    if n:
        lo, hi = xy.min(axis=0), xy.max(axis=0)
        dissect(np.arange(n), {0: lo[0], 1: lo[1]}, {0: hi[0], 1: hi[1]}, 0)
    order = np.concatenate(pieces) if pieces else np.zeros(0, dtype=int)
    return order, np.array(rows, dtype=int).reshape(-1, 4)


def coupled_jacobian(state, prev, params, ops) -> sp.csr_array:
    """Monolithic Newton's coupled Jacobian at ``state`` over the free dofs
    [p | q_free | u_free], in that numbering: 13x13 cell blocks over
    [pressure, cell_edges, x then y of cell_nodes] summed by a
    ``fem._CellPattern``, plus the constrained stiffness that the elastic
    factor holds.  The pressure block carries phi^{i-1} ds/dp + (1/N) s^2
    with the porosity evaluated at the current iterate; the flux block
    carries the chain-rule derivative of k_w^{-1}; the elasticity block is
    state independent."""
    parts = flow_parts(state, prev, params, ops)
    sd = laws.saturation_derivative(state.p, params.vg)
    cpp = pressure_coefficient(state, prev, params, ops, sd, 0.0)
    coupling, _ = mobility_coupling(state, params, ops, parts)
    d = ops.local_divergence
    apu = params.alpha * parts.sat[:, None] * ops.local_displacement_divergence
    blocks = np.zeros((ops.mesh.n_cells, 13, 13))
    blocks[:, 0, 0] = cpp
    blocks[:, 0, 1:5] = params.tau * d
    blocks[:, 0, 5:] = apu
    blocks[:, 1:5, 0] = coupling - d
    blocks[:, 5:, 0] = -apu
    blocks[:, 1:5, 1:5] = parts.kinv[:, None, None] * ops.local_flux_mass

    mesh = ops.mesh
    n_p, n_e, n_qf = mesh.n_cells, mesh.n_edges, len(ops.free_q)
    cn = mesh.cell_nodes
    free = np.concatenate([np.arange(n_p), n_p + ops.free_q, n_p + n_e + ops.free_u])
    position = np.full(n_p + n_e + 2 * mesh.n_nodes, -1)
    position[free] = np.arange(len(free))
    dofs = position[np.concatenate([np.arange(n_p)[:, None], n_p + mesh.cell_edges,
                                    n_p + n_e + cn, n_p + n_e + mesh.n_nodes + cn], axis=1)]
    stiffness = ops._elastic_factor.matrix.tocoo()
    u_index = n_p + n_qf + ops.elastic_order
    constant = (u_index[stiffness.row], u_index[stiffness.col], stiffness.data)
    return fem._CellPattern(dofs, len(free), constant).matrix(blocks).tocsr()


def coupled_newton_step(state, prev, params, ops):
    """Monolithic Newton's increments (dp, dq, du) at ``state`` from a
    sparse direct solve of the coupled Jacobian with three steps of
    iterative refinement, with that matrix and the right-hand side over
    [p | q_free | u_free]: the flow and momentum residuals, with the
    prescribed flux increment on the constrained edges moved across."""
    parts = flow_parts(state, prev, params, ops)
    dq = np.zeros(ops.mesh.n_edges)
    dq[ops.fixed_q] = (prescribed_flux(ops, params, prev.time + params.tau)
                       - state.q[ops.fixed_q])
    rhs = np.concatenate([parts.r_p - params.tau * (ops.D_pq @ dq),
                          (parts.r_q - ops.weighted_flux_mass(parts.kinv, dq))[ops.free_q],
                          mech_residual(state, params, ops)[ops.free_u]])
    matrix = coupled_jacobian(state, prev, params, ops)
    lu = spla.splu(matrix.tocsc())
    sol = lu.solve(rhs)
    for _ in range(3):
        sol = sol + lu.solve(rhs - matrix @ sol)
    n_p, n_qf = ops.mesh.n_cells, len(ops.free_q)
    dq[ops.free_q] = sol[n_p:n_p + n_qf]
    du = np.zeros(2 * ops.mesh.n_nodes)
    du[ops.free_u] = sol[n_p + n_qf:]
    return (sol[:n_p], dq, du), matrix, rhs


def residuals(state, prev, params, ops):
    """Residual vectors (r_p, r_q, r_u) of the coupled step at ``state``,
    with the porosity frozen at ``prev``.  Rows of constrained flux and
    displacement dofs are zeroed."""
    parts = flow_parts(state, prev, params, ops)
    return parts.r_p, parts.r_q, mech_residual(state, params, ops)


def settled_initial_state(mesh, params, p0, ops) -> PoroState:
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

    def __init__(self, ops, params, init):
        mesh = ops.mesh
        if mesh.n_cells > self.MAX_CELLS:
            raise ScaleGuardError(
                f"dense oracle is limited to {self.MAX_CELLS} cells, got {mesh.n_cells}"
            )
        self.ops = ops
        self.params = params
        self.area = ops.M_p.copy()

        a_lu = scipy.linalg.lu_factor(constrained_stiffness(ops).toarray())
        dpu_f = ops.D_pu[:, ops.free_u].toarray()
        f_q0, f_u0 = gravity_loads(ops, params)
        self.f_q0_f = f_q0[ops.free_q]
        alpha = params.alpha
        self.P2 = alpha**2 * dpu_f @ scipy.linalg.lu_solve(a_lu, dpu_f.T)
        pe0 = init.pore_pressure(params)
        self.c0 = (
            self.area * params.law.phi0
            + alpha * dpu_f @ scipy.linalg.lu_solve(a_lu, f_u0[ops.free_u])
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
        kinv = dense_flux_mass(self.ops, 1.0 / laws.mobility(s, self.params.vg))
        free_q = self.ops.free_q
        return kinv[np.ix_(free_q, free_q)], kinv[np.ix_(free_q, self.ops.fixed_q)]

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

