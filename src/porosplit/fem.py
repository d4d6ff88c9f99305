"""Assembly of Q1/P0/RT0 operators on rectangular meshes, plus sparse solves.

Spaces: piecewise-constant pressure (one dof per cell), lowest-order
Raviart-Thomas flux (one normal component per edge), bilinear vector
displacement (two dofs per node, block ordering: all x then all y).

Mass and divergence matrices are exact on rectangles; the plane-strain
elasticity stiffness uses tensor-product 2-point Gauss, which is exact for
Q1.  Dirichlet data follows the injection scenario: prescribed normal flux
on every boundary edge, roller supports (u.n = 0) on left/right/bottom,
traction-free top.

Flux matrices that change every iteration are summed from per-cell 4x4
blocks onto a free-edge sparsity pattern fixed at assembly
(``DiscreteOperators.free_flux_matrix``).  Every sparse solve goes through
``SparseFactor``: an LU with a normwise backward-error contract of 1e-12 and
iterative refinement, two-sided equilibration for general matrices, and a
symmetric variant (unit-diagonal scaling, minimum-degree ordering of
A^T + A, diagonal pivots) for SPD ones.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import RectMesh

__all__ = [
    "LinearSolveError",
    "SparseFactor",
    "DiscreteOperators",
    "assemble",
]

SOLVE_TOL = 1e-12


class LinearSolveError(RuntimeError):
    """Sparse solve failed; carries the achieved relative residual."""

    def __init__(self, message, residual=np.inf):
        super().__init__(message)
        self.residual = residual


class SparseFactor:
    """LU factorization wrapper enforcing the relative-residual contract.

    A general matrix is equilibrated (two-sided diagonal scaling) before
    factorization; mobility-weighted flow blocks can span many orders of
    magnitude between rows, which otherwise stalls the achievable residual.
    With ``symmetric=True`` the matrix must be symmetric positive definite:
    it is scaled symmetrically to unit diagonal and factored with a
    minimum-degree ordering of A^T + A and diagonal pivots, which keeps the
    fill of a Cholesky factor.  Iterative refinement handles the remaining
    ill-conditioning in both cases.
    """

    def __init__(self, matrix, tol: float = SOLVE_TOL, symmetric: bool = False):
        self.matrix = matrix.tocsc()
        self.tol = tol
        options = {}
        if symmetric:
            diag = self.matrix.diagonal()
            if not np.all((diag > 0) & np.isfinite(diag)):
                raise LinearSolveError("symmetric factorization needs a positive diagonal")
            self._dr = self._dc = 1.0 / np.sqrt(diag)
            options = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                           options={"SymmetricMode": True})
        else:
            absm = abs(self.matrix)
            row_max = absm.max(axis=1).toarray().ravel()
            self._dr = 1.0 / np.sqrt(np.where(row_max > 0, row_max, 1.0))
            col_max = abs(sp.diags_array(self._dr) @ self.matrix).max(axis=0).toarray().ravel()
            self._dc = 1.0 / np.sqrt(np.where(col_max > 0, col_max, 1.0))
        scaled = (sp.diags_array(self._dr) @ self.matrix @ sp.diags_array(self._dc)).tocsc()
        self._mat_norm = None
        try:
            self.lu = spla.splu(scaled, **options)
        except RuntimeError as exc:
            raise LinearSolveError(f"factorization failed: {exc}") from exc

    def _raw_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._dc * self.lu.solve(self._dr * rhs)

    def _relative_residual(self, x, rhs):
        # normwise backward error: scale-robust form of the relative
        # residual (plain |Ax-b|/|b| has no attainable 1e-12 floor once the
        # rhs is small against |A| |x| in double precision)
        if self._mat_norm is None:
            self._mat_norm = abs(self.matrix).sum(axis=1).max()
        denom = np.linalg.norm(rhs) + self._mat_norm * np.linalg.norm(x)
        return np.linalg.norm(self.matrix @ x - rhs) / denom

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        x = self._raw_solve(rhs)
        if not np.any(rhs):
            return x
        residual = self._relative_residual(x, rhs)
        for _ in range(3):
            if residual <= self.tol:
                return x
            x = x + self._raw_solve(rhs - self.matrix @ x)
            residual = self._relative_residual(x, rhs)
        if not residual <= self.tol:
            raise LinearSolveError(
                f"direct solve reached relative residual {residual:.3e}", residual
            )
        return x


class DiscreteOperators:
    """Assembled mass/divergence/stiffness operators for one mesh.

    Attributes:
        M_p: P0 mass diagonal (cell areas).
        M_q: RT0 mass matrix.
        M_u: Q1 vector mass matrix.
        D_pq: integrated RT0 divergence into P0 (row per cell).
        D_pu: integrated Q1 divergence into P0 (row per cell).
        A_uu: plane-strain elasticity stiffness (unconstrained).
        fixed_q/free_q: constrained/free flux dofs (all boundary edges fixed).
        fixed_u/free_u: constrained/free displacement dofs (rollers).
        local_flux_mass: per-cell RT0 mass (4x4, cell_edges order).
        local_divergence: per-cell row of D_pq (cell_edges order).
    """

    def __init__(self, mesh: RectMesh, mu: float, lam: float):
        if mu <= 0 or lam < 0:
            raise ValueError("require mu > 0 and lambda >= 0")
        self.mesh = mesh
        self.mu = float(mu)
        self.lam = float(lam)
        area = mesh.cell_area
        nc = mesh.n_cells

        self.M_p = np.full(nc, area)

        # RT0 mass: per cell the (W,E) and (S,N) pairs couple by
        # area * [[1/3, 1/6], [1/6, 1/3]]
        ce = mesh.cell_edges
        pair_local = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]) * area
        rows, cols, vals = [], [], []
        for a_col, b_col in ((0, 1), (2, 3)):
            for (la, lb), v in np.ndenumerate(pair_local):
                rows.append(ce[:, (a_col, b_col)[la]])
                cols.append(ce[:, (a_col, b_col)[lb]])
                vals.append(np.full(nc, v))
        self.M_q = sp.csr_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(mesh.n_edges, mesh.n_edges),
        )

        self.local_divergence = np.array([-mesh.hy, mesh.hy, -mesh.hx, mesh.hx])
        self.local_flux_mass = np.zeros((4, 4))
        self.local_flux_mass[:2, :2] = self.local_flux_mass[2:, 2:] = pair_local
        self.D_pq = sp.csr_array(
            (
                np.tile(self.local_divergence, nc),
                (np.repeat(np.arange(nc), 4), ce.ravel()),
            ),
            shape=(nc, mesh.n_edges),
        )

        # integrated Q1 divergence: values per (SW, SE, NE, NW) node
        cn = mesh.cell_nodes
        dx_local = np.array([-mesh.hy, mesh.hy, mesh.hy, -mesh.hy]) / 2.0
        dy_local = np.array([-mesh.hx, -mesh.hx, mesh.hx, mesh.hx]) / 2.0
        rows = np.repeat(np.arange(nc), 8)
        cols = np.concatenate([cn, cn + mesh.n_nodes], axis=1).ravel()
        vals = np.tile(np.concatenate([dx_local, dy_local]), nc)
        self.D_pu = sp.csr_array((vals, (rows, cols)), shape=(nc, 2 * mesh.n_nodes))

        self.A_uu = self._assemble_elasticity()
        self.M_u = self._assemble_vector_mass()

        self.fixed_q = mesh.all_boundary_edges
        free_q_mask = np.ones(mesh.n_edges, dtype=bool)
        free_q_mask[self.fixed_q] = False
        self.free_q = np.nonzero(free_q_mask)[0]

        fixed_ux = np.union1d(mesh.left_nodes, mesh.right_nodes)
        fixed_uy = mesh.bottom_nodes + mesh.n_nodes
        self.fixed_u = np.sort(np.concatenate([fixed_ux, fixed_uy]))
        free_u_mask = np.ones(2 * mesh.n_nodes, dtype=bool)
        free_u_mask[self.fixed_u] = False
        self.free_u = np.nonzero(free_u_mask)[0]

        self.A_ff = self.A_uu[np.ix_(self.free_u, self.free_u)].tocsc()
        self._elastic_factor = None

        self.D_pq_f = self.D_pq[:, self.free_q]

        # scratch index arrays for the weighted flux mass factory
        pat = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        self._wq_rows = np.concatenate(
            [ce[:, pair][:, pat[:, 0]].ravel() for pair in ((0, 1), (2, 3))]
        )
        self._wq_cols = np.concatenate(
            [ce[:, pair][:, pat[:, 1]].ravel() for pair in ((0, 1), (2, 3))]
        )
        self._wq_local = np.array([1 / 3, 1 / 6, 1 / 6, 1 / 3]) * area

        # fixed CSC pattern of free-flux matrices summed from 4x4 cell
        # blocks: the kept block entries and their slots in the data array
        n_free = len(self.free_q)
        free_index = np.full(mesh.n_edges, -1)
        free_index[self.free_q] = np.arange(n_free)
        local = free_index[ce]
        rows = np.repeat(local, 4, axis=1).ravel()
        cols = np.tile(local, (1, 4)).ravel()
        self._ff_keep = np.flatnonzero((rows >= 0) & (cols >= 0))
        keys, self._ff_slot = np.unique(
            cols[self._ff_keep] * n_free + rows[self._ff_keep], return_inverse=True
        )
        self._ff_indices = keys % n_free
        self._ff_indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(keys // n_free, minlength=n_free))]
        )

    # -- assembly helpers ------------------------------------------------

    def _q1_gradients(self):
        """Shape-function derivative tables at the 2x2 Gauss points."""
        gp = np.array([-1.0, 1.0]) / np.sqrt(3.0)
        pts = [(xi, eta) for eta in gp for xi in gp]
        dN_dxi = np.array([[-(1 - e) / 4, (1 - e) / 4, (1 + e) / 4, -(1 + e) / 4] for _, e in pts])
        dN_deta = np.array([[-(1 - x) / 4, -(1 + x) / 4, (1 + x) / 4, (1 - x) / 4] for x, _ in pts])
        return dN_dxi * (2.0 / self.mesh.hx), dN_deta * (2.0 / self.mesh.hy)

    def _assemble_elasticity(self):
        mesh = self.mesh
        dndx, dndy = self._q1_gradients()
        w = mesh.cell_area / 4.0  # equal Gauss weights, jacobian hx*hy/4 times weight 1
        D = np.array(
            [
                [2 * self.mu + self.lam, self.lam, 0.0],
                [self.lam, 2 * self.mu + self.lam, 0.0],
                [0.0, 0.0, self.mu],
            ]
        )
        K = np.zeros((8, 8))
        for g in range(4):
            B = np.zeros((3, 8))
            B[0, :4] = dndx[g]
            B[1, 4:] = dndy[g]
            B[2, :4] = dndy[g]
            B[2, 4:] = dndx[g]
            K += w * B.T @ D @ B
        return self._scatter_nodal(K)

    def _assemble_vector_mass(self):
        mesh = self.mesh
        m_scalar = (mesh.cell_area / 36.0) * np.array(
            [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]], dtype=float
        )
        M = np.zeros((8, 8))
        M[:4, :4] = m_scalar
        M[4:, 4:] = m_scalar
        return self._scatter_nodal(M)

    def _scatter_nodal(self, local):
        """Scatter one 8x8 per-cell block (identical on a uniform grid)."""
        mesh = self.mesh
        cn = mesh.cell_nodes
        dofs = np.concatenate([cn, cn + mesh.n_nodes], axis=1)  # (nc, 8)
        rows = np.repeat(dofs, 8, axis=1).ravel()
        cols = np.tile(dofs, (1, 8)).ravel()
        vals = np.tile(local.ravel(), mesh.n_cells)
        n = 2 * mesh.n_nodes
        return sp.csr_array((vals, (rows, cols)), shape=(n, n))

    # -- factories and solves --------------------------------------------

    def weighted_flux_mass(self, cell_weights: np.ndarray) -> sp.csr_array:
        """RT0 mass matrix with piecewise-constant cell weights."""
        w = np.asarray(cell_weights, dtype=float)
        if w.shape != (self.mesh.n_cells,):
            raise ValueError("need one weight per cell")
        data = np.concatenate([np.outer(w, self._wq_local).ravel()] * 2)
        return sp.csr_array(
            (data, (self._wq_rows, self._wq_cols)),
            shape=(self.mesh.n_edges, self.mesh.n_edges),
        )

    def free_flux_matrix(self, blocks: np.ndarray) -> sp.csc_array:
        """Sum of per-cell 4x4 blocks (nc, 4, 4), rows and columns in
        cell_edges order, restricted to the free flux dofs.

        The sparsity pattern is fixed at assembly, so only the data array
        is summed here."""
        data = np.bincount(self._ff_slot, weights=blocks.reshape(-1)[self._ff_keep],
                           minlength=len(self._ff_indices))
        n_free = len(self.free_q)
        return sp.csc_array((data, self._ff_indices, self._ff_indptr),
                            shape=(n_free, n_free))

    def flux_mass_cell_action(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell local RT0 mass action on q.

        Returns (edge indices (nc,4), values (nc,4)) such that summing the
        values into the edge indices reproduces M_q @ q cellwise.  Used for
        the mobility-derivative coupling block of Newton-type schemes.
        """
        ql = q[self.mesh.cell_edges]
        area = self.mesh.cell_area
        vals = np.column_stack(
            [
                area * (ql[:, 0] / 3 + ql[:, 1] / 6),
                area * (ql[:, 0] / 6 + ql[:, 1] / 3),
                area * (ql[:, 2] / 3 + ql[:, 3] / 6),
                area * (ql[:, 2] / 6 + ql[:, 3] / 3),
            ]
        )
        return self.mesh.cell_edges, vals

    def elastic_solve(self, rhs_free: np.ndarray) -> np.ndarray:
        """Solve the constrained elasticity system; the factorization is
        computed once and reused (the stiffness never changes)."""
        if self._elastic_factor is None:
            self._elastic_factor = SparseFactor(self.A_ff)
        return self._elastic_factor.solve(rhs_free)

    # -- norms -------------------------------------------------------------

    def pressure_norm(self, p: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.M_p * p * p)))

    def flux_norm(self, q: np.ndarray) -> float:
        return float(np.sqrt(max(q @ (self.M_q @ q), 0.0)))

    def disp_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(u @ (self.M_u @ u), 0.0)))

    @property
    def aa_weights(self) -> np.ndarray:
        """Mass-diagonal weights for the concatenated (p, q, u) vector, so
        that the Euclidean norm of weighted coordinates approximates L2."""
        return np.concatenate([self.M_p, self.M_q.diagonal(), self.M_u.diagonal()])


def assemble(mesh: RectMesh, mu: float, lam: float) -> DiscreteOperators:
    """Assemble all discrete operators for the injection scenario."""
    ops = DiscreteOperators(mesh, mu, lam)
    try:
        # factorize eagerly: a singular constrained stiffness means the
        # roller constraints failed to remove all rigid modes
        ops.elastic_solve(np.zeros(len(ops.free_u)))
    except LinearSolveError as exc:
        raise ValueError(f"constrained elasticity block is singular: {exc}") from exc
    return ops
