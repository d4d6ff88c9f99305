"""Assembly of Q1/P0/RT0 operators on rectangular meshes, plus sparse solves.

Spaces: piecewise-constant pressure (one dof per cell), lowest-order
Raviart-Thomas flux (one normal component per edge), bilinear vector
displacement (two dofs per node, block ordering: all x then all y).

Mass and divergence matrices are exact on rectangles; the plane-strain
elasticity stiffness uses tensor-product 2-point Gauss, which is exact for
Q1.  Dirichlet data follows the injection scenario: prescribed normal flux
on every boundary edge, roller supports (u.n = 0) on left/right/bottom,
traction-free top.  The RT0 mass is encoded once, as the cell block
``local_flux_mass``: ``M_q`` is scattered from it, and the mobility-weighted
mass is only ever applied cell by cell (``weighted_flux_mass``) or summed
into a factored matrix.  The one ``stiffness``, the constrained slice (in
``free_u`` order) of the matrix scattered from ``local_stiffness``, serves
the momentum residual, the elastic factor and Newton's condensed pattern.
It is solved by fast diagonalization on every mesh (``_Separable``): sines
and cosines in x, one band per x-mode in y, factored once.

Every iteration matrix is held in one geometric nested-dissection ordering
(``nested_dissection``), computed once per mesh: that of monolithic Newton's
condensed dofs [q_free | u_free] (``schemes.newton_blocks``), with leaves of
at most LEAF_SIZE dofs.  The flux-only matrices take its restriction to
their dofs.
Matrices that change every iteration are summed from dense cell blocks onto
a sparsity pattern built once per mesh, already in their ordering
(``flux_pattern``, ``hybrid_pattern``).  Every solve has ``SparseFactor``'s
normwise backward-error contract of 1e-12 and iterative refinement.  Newton
takes SuperLU; the flux matrices follow one band decision per mesh, whether
the constrained stiffness's band in reverse Cuthill-McKee order holds
n kd <= _BAND_ENTRIES entries (through 50x50), a yardstick only.  On a
banded mesh the SPD flux matrix takes the supernodal Cholesky
(``_Supernodes``) as one band leaf and a flux matrix that is not SPD the
band LU (``_Band``).  Beyond (from 60x60 on) the SPD flux matrix keeps the
Cholesky, on the dissection's pieces restricted to the flux dofs (subtrees
of at most _SUPERNODE_SIZE dofs as band leaves, the separators above them
as dense fronts, small ones folded into their parents); the general flux
matrix takes SuperLU.  The README holds the crossover table.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .mesh import RectMesh

__all__ = [
    "LinearSolveError",
    "SparseFactor",
    "DiscreteOperators",
    "assemble",
    "nested_dissection",
]

SOLVE_TOL = 1e-12
PIVOT_THRESHOLD = 0.1   # threshold partial pivoting of the general LU
LEAF_SIZE = 16          # boxes of at most this many dofs are not bisected (least fill, README)
_SUPERNODE_SIZE = 240   # flux dofs of the largest subtree factored as one band leaf front
_MERGE_SIZE = 120       # columns of the largest dense front that folds in a dense child
# stiffness band entries n kd up to which the mesh is banded (the SPD flux
# matrix one band leaf, the general flux matrix a band LU): between 50x50
# (1.0e6) and 60x60 (1.7e6), near the crossovers of the flux factors (README)
_BAND_ENTRIES = 1.3e6


class LinearSolveError(RuntimeError):
    """Sparse solve failed; carries the achieved relative residual."""

    def __init__(self, message, residual=np.inf):
        super().__init__(message)
        self.residual = residual


def _equilibration(m):
    """Row and column scales of the CSC matrix m."""
    absd = np.abs(m.data)
    row_max = np.zeros(m.shape[0])
    np.maximum.at(row_max, m.indices, absd)
    dr = 1.0 / np.sqrt(np.where(row_max > 0, row_max, 1.0))
    filled = np.diff(m.indptr) > 0
    col_max = np.zeros(m.shape[1])
    col_max[filled] = np.maximum.reduceat(absd * dr[m.indices], m.indptr[:-1][filled])
    return dr, 1.0 / np.sqrt(np.where(col_max > 0, col_max, 1.0))


class SparseFactor:
    """SuperLU factor enforcing the normwise backward-error contract.

    ``matrix`` holds the system A with rows and columns in ``order``:
    matrix[i, j] = A[order[i], order[j]]; ``solve`` takes and returns vectors
    in A's numbering.  SuperLU factors it in that order after two-sided
    equilibration (mobility-weighted flow blocks span many orders of
    magnitude between rows), read off the CSC arrays, and pivots off the
    diagonal only below PIVOT_THRESHOLD times its column's largest entry
    (Newton's condensed factors never do on test1, nor on test2 at alpha = 1;
    README).  Iterative refinement handles the
    remaining ill-conditioning.  ``_AnalysedFactor`` replaces the
    constructor and the raw solve for the Cholesky and the band LU, and
    ``_Separable`` for the constant stiffness, in its own numbering; the
    module docstring states the one rule that picks between them.
    """

    def __init__(self, matrix, order):
        m = matrix.tocsc()
        if not m.has_canonical_format:  # SuperLU sorts a copy: the caller's may be analysed
            m = m.copy()
            m.sum_duplicates()
        self.matrix, self.order = m, order
        self._dr, self._dc = _equilibration(m)
        scaled = sp.csc_array(
            (m.data * self._dr[m.indices] * np.repeat(self._dc, np.diff(m.indptr)),
             m.indices, m.indptr), shape=m.shape)
        try:
            self.lu = spla.splu(scaled, permc_spec="NATURAL", diag_pivot_thresh=PIVOT_THRESHOLD,
                                options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise LinearSolveError(f"factorization failed: {exc}") from exc

    def _raw_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._dc * self.lu.solve(self._dr * rhs)

    @functools.cached_property
    def _mat_norm(self):
        """|A|, the max row sum, of every factor's residual test."""
        m = self.matrix
        return np.bincount(m.indices, np.abs(m.data), m.shape[0]).max(initial=0.0)

    def _relative_residual(self, x, rhs):
        # normwise backward error: scale-robust form of the relative
        # residual (plain |Ax-b|/|b| has no attainable 1e-12 floor once the
        # rhs is small against |A| |x| in double precision)
        denom = np.linalg.norm(rhs) + self._mat_norm * np.linalg.norm(x)
        return np.linalg.norm(self.matrix @ x - rhs) / denom

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs.  The backward error is measured on the ordered
        matrix: a symmetric permutation leaves its norms unchanged."""
        b = rhs[self.order]
        x = self._raw_solve(b)
        if np.any(b):
            residual = self._relative_residual(x, b)
            for _ in range(3):
                if residual <= SOLVE_TOL:
                    break
                x = x + self._raw_solve(b - self.matrix @ x)
                residual = self._relative_residual(x, b)
            if not residual <= SOLVE_TOL:
                raise LinearSolveError(
                    f"direct solve reached relative residual {residual:.3e}", residual
                )
        out = np.empty_like(x)
        out[self.order] = x
        return out


class _Supernodes:
    """Symbolic analysis of a multifrontal Cholesky (Duff & Reid, ACM TOMS
    1983; Liu, SIAM Review 1992) on one CSC pattern (both triangles and
    every diagonal stored) whose pieces [bounds[s], bounds[s + 1]) come in
    the dissection's postorder; bounds [0, n] make the matrix one leaf.  A
    piece's front spans its columns and the rows below them that they or
    its children's updates reach; its parent owns the first of those rows.
    A piece with no children is a leaf, a band front: its columns go in the
    reverse Cuthill-McKee order of its own block (one order of the
    block-diagonal pattern of all leaf blocks gives them all), with
    half-bandwidth kd, and its rows below in the order of the first leaf
    column they couple to, so that dtbtrs solves each group of them on the
    trailing band from its first nonzero row.  The other pieces have dense
    fronts, and a dense child folds into its parent while the merged front
    keeps at most _MERGE_SIZE columns (relaxed supernode amalgamation,
    Ashcraft & Grimes, ACM TOMS 1989); the fold moves the child's columns
    to just before the parent's.  ``perm`` (position -> index) is the
    postorder of the fronts with those moves and the leaves' orders; a front
    holds the positions [b0, b1).  Kept per front: its rows below (as
    positions), kd (None for a dense front), the pattern's data positions
    and where they go in the flat Fortran-order front (for a leaf: its band
    storage, then the k x (rows below) right-hand side of dtbtrs), each
    child's update's positions and, for a leaf, the dtbtrs groups; and the
    diagonal's data positions."""

    def __init__(self, indices, indptr, bounds):
        n = len(indptr) - 1
        # symbolic pass over the pieces in the dissection order: their rows
        # below and children, and the pieces of each front
        owner = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        rows_below, children, pieces, width = [], [[] for _ in bounds[:-1]], [], []
        for s, (b0, b1) in enumerate(zip(bounds[:-1], bounds[1:])):
            rows = indices[indptr[b0]:indptr[b1]]
            rows_below.append(np.unique(np.concatenate([rows[rows >= b1]] + [
                rows_below[c][rows_below[c] >= b1] for c in children[s]])))
            pieces.append([])
            width.append(b1 - b0)
            for c in children[s]:
                if children[c] and width[s] + width[c] <= _MERGE_SIZE:
                    pieces[s] += pieces[c]
                    width[s] += width[c]
                    pieces[c] = []
            pieces[s].append(s)
            if len(rows_below[s]):
                children[owner[rows_below[s][0]]].append(s)
        # each leaf's columns in the reverse Cuthill-McKee order of its
        # block: one order of the block-diagonal pattern of all leaves.  A
        # leaf couples to no earlier piece, so its block is its columns' rows
        # before its end (0 on the other columns)
        end = np.array([0 if c else b for c, b in zip(children, bounds[1:])], dtype=int)[owner]
        inner = indices < np.repeat(end, np.diff(indptr))
        columns = np.flatnonzero(end)
        m = len(columns)
        if m:
            count = np.add.reduceat(inner, indptr[:-1])[columns]
            rcm = columns[reverse_cuthill_mckee(sp.csc_array((
                np.ones(count.sum(), dtype=bool), (np.cumsum(end > 0) - 1)[indices[inner]],
                np.concatenate([[0], np.cumsum(count)])), shape=(m, m)), symmetric_mode=True)]
            columns = rcm[np.argsort(end[rcm], kind="stable")]
        leaves = [s for s, c in enumerate(children) if not c]
        leaf_order = dict(zip(leaves, np.split(columns, np.cumsum(np.diff(bounds)[leaves])[:-1])))
        # the fronts in postorder of their top piece, a folded piece's
        # columns moved to just before its parent's
        fronts = [p for p in pieces if p]
        self.perm = np.concatenate([leaf_order[m] if m in leaf_order else
                                    np.arange(bounds[m], bounds[m + 1])
                                    for p in fronts for m in p] + [np.zeros(0, dtype=int)])
        rank = np.empty(n, dtype=int)
        rank[self.perm] = np.arange(n)
        row_at, col_at = rank[indices], np.repeat(rank, np.diff(indptr))
        self.diagonal = np.flatnonzero(row_at == col_at)
        sizes = np.array([sum(bounds[m + 1] - bounds[m] for m in p) for p in fronts], dtype=int)
        ends = np.cumsum(sizes)
        starts, front_of = ends - sizes, np.repeat(np.arange(len(fronts)), sizes)
        self.nodes, kids = [], [[] for _ in fronts]
        for s, (p, b0, b1) in enumerate(zip(fronts, starts, ends)):
            below = np.sort(rank[rows_below[p[-1]]])
            if children[p[-1]]:
                source = np.concatenate([np.arange(indptr[bounds[m]], indptr[bounds[m + 1]])
                                         for m in p])
                source = source[row_at[source] >= b0]
                front = np.concatenate([np.arange(b0, b1), below])
                f = len(front)
                extend = [(c, _update_positions(np.searchsorted(front, self.nodes[c][2]), f))
                          for c in kids[s]]
                node = (None, source, (col_at[source] - b0) * f
                        + np.searchsorted(front, row_at[source]), extend, ())
            else:
                # a leaf's entry (i, j), i >= j (positions in the leaf), goes
                # to (kd + 1) j + i - j of its band storage, kd the largest
                # i - j, or for a row below to the right-hand side, whose rows
                # go in order of the first leaf column they couple to
                k, lo, hi = b1 - b0, indptr[bounds[p[0]]], indptr[bounds[p[0] + 1]]
                source = lo + np.flatnonzero(row_at[lo:hi] >= col_at[lo:hi])
                i, j = row_at[source] - b0, col_at[source] - b0
                out = i >= k
                kd = int(np.max(i - j, initial=0, where=~out))
                row = np.searchsorted(below, i[out] + b0)
                first = np.full(len(below), k)
                np.minimum.at(first, row, j[out])
                order = np.argsort(first, kind="stable")
                at = i + kd * j
                at[out] = (kd + 1) * k + j[out] + k * np.argsort(order)[row]
                below = below[order]
                node = (kd, source, at, [], _rhs_groups(first[order], k))
            self.nodes.append((b0, b1, below) + node)
            if len(below):
                kids[front_of[below.min()]].append(s)

    def scaling(self, matrix):
        """Row and column scales of the SPD ``matrix``: to unit diagonal."""
        diag = matrix.data[self.diagonal]
        if not np.all((diag > 0) & np.isfinite(diag)):
            raise LinearSolveError("Cholesky factorization needs a positive diagonal")
        return (1.0 / np.sqrt(diag),) * 2

    def factor(self, data):
        """Panels (L11, L21) per supernode of the SPD matrix with CSC data
        ``data``: dpotrf and dtrsm on a dense front, dpbtrf and dtbtrs on a
        band leaf, then dsyrk for the parent's update."""
        updates, panels = {}, []
        for s, (b0, b1, below, kd, source, at, extend, groups) in enumerate(self.nodes):
            k, r = b1 - b0, len(below)
            front = np.zeros((k + r) ** 2 if kd is None else (kd + 1 + r) * k)
            front[at] = data[source]
            for c, to in extend:
                front[to] += updates.pop(c).ravel(order="K")
            if kd is None:
                front = front.reshape(k + r, k + r, order="F")
                l11, info = lapack.dpotrf(front[:k, :k], lower=1)
                l21 = front[k:, :k]
            else:
                l11, info = lapack.dpbtrf(front[:(kd + 1) * k].reshape(kd + 1, k, order="F"),
                                          lower=1, overwrite_ab=1)
                l21 = front[(kd + 1) * k:].reshape(k, r, order="F")
            if info:
                raise LinearSolveError(f"Cholesky pivot {self.perm[b0 + info - 1]} is not positive")
            if r and kd is None:
                l21 = blas.dtrsm(1.0, l11, l21, side=1, lower=1, trans_a=1)
                updates[s] = blas.dsyrk(-1.0, l21, beta=1.0, c=front[k:, k:], lower=1)
            elif r:   # dtbtrs with no right-hand side aborts on scipy 1.17.1
                for s0, j0, j1 in groups:
                    l21[s0:, j0:j1] = lapack.dtbtrs(l11[:, s0:], l21[s0:, j0:j1], uplo="L",
                                                    overwrite_b=1)[0]
                updates[s] = blas.dsyrk(-1.0, l21, trans=1, lower=1)
            panels.append((l11, l21 if kd is None else l21.T))
        return panels

    def solve(self, panels, x):
        """L^-T L^-1 x for the ``panels`` of L, overwriting x."""
        y = x[self.perm]
        for (b0, b1, below, kd, *_), (l11, l21) in zip(self.nodes, panels):
            y[b0:b1] = z = _triangular_solve(kd, l11, y[b0:b1])
            if len(below):
                y[below] -= l21 @ z
        for (b0, b1, below, kd, *_), (l11, l21) in zip(reversed(self.nodes), reversed(panels)):
            v = y[b0:b1] - l21.T @ y[below] if len(below) else y[b0:b1]
            y[b0:b1] = _triangular_solve(kd, l11, v, trans=1)
        x[self.perm] = y
        return x


def _update_positions(m, f):
    """Where a child's update goes in the flat Fortran-order f x f parent
    front that holds the child's rows below at ``m``: entry (i, j) to
    (m_i, m_j), but the two entries of a pair trade places where m_i, m_j
    run against i, j (a leaf's rows below come in dtbtrs order, not
    ascending), so that the update's lower triangle lands in the front's."""
    at = np.add.outer(m, f * m)
    o = np.arange(len(m))
    return np.where(np.greater.outer(m, m) == np.greater.outer(o, o), at, at.T).ravel(order="F")


def _rhs_groups(first, k):
    """Contiguous groups (s0, j0, j1) of the right-hand sides j0:j1, whose
    first nonzero rows ``first`` (ascending) are at least s0.  A group is
    split where that trims the most rows while those are more than 2 k: one
    more dtbtrs call costs about as much as two right-hand sides of k rows
    (at 100x100 on a 2-core Xeon VM, about 4 us per call against 13 ns per
    row of a right-hand side)."""
    first, groups = first.tolist(), []
    todo = [(0, len(first))] if first else []
    while todo:
        i, j = todo.pop()
        trimmed = [(first[x] - first[i]) * (j - x) for x in range(i, j)]
        if max(trimmed) > 2 * k:
            t = i + trimmed.index(max(trimmed))
            todo += [(t, j), (i, t)]
        else:
            groups.append((first[i], i, j))
    return groups


def _triangular_solve(kd, l11, v, trans=0):
    """L11^-1 v, or L11^-T v with trans=1, for a dense lower L11 (kd None)
    or one in lower band storage of half-bandwidth kd."""
    if kd is None:
        return blas.dtrsv(l11, v, lower=1, trans=trans)
    return blas.dtbsv(kd, l11, v, lower=1, trans=trans)


class _Band:
    """Band LU analysis (George & Liu 1981) of a structurally symmetric CSC
    pattern: reverse Cuthill-McKee order ``perm`` (position -> index) and
    its half-bandwidth ``kd``.  Reordered entry (i, j) goes to
    ab[2 kd + i - j, j] of dgbtrf's band storage, kd rows above the band
    left for the fill.  Its scaling is the LU's equilibration."""

    scaling = staticmethod(_equilibration)

    def __init__(self, indices, indptr):
        n = len(indptr) - 1
        pattern = sp.csc_array((np.ones(len(indices)), indices, indptr), shape=(n, n))
        self.perm = reverse_cuthill_mckee(pattern, symmetric_mode=True) if n else np.arange(0)
        self._pattern, self._rank = (indices, np.diff(indptr)), np.argsort(self.perm)
        # symmetric, with every diagonal: kd is the lowest reach of a column
        lowest = np.maximum.reduceat(self._rank[indices], indptr[:-1])
        self.kd = int(np.max(lowest - self._rank, initial=0))

    @functools.cached_property
    def _at(self):
        """Each entry's place in the flat Fortran-order band storage."""
        indices, counts = self._pattern
        return 2 * self.kd + self._rank[indices] + 3 * self.kd * np.repeat(self._rank, counts)

    def factor(self, data):
        """Band LU with partial pivoting (dgbtrf) of the CSC data ``data``."""
        ab = np.zeros((3 * self.kd + 1) * len(self.perm))
        ab[self._at] = data
        lu, piv, info = lapack.dgbtrf(ab.reshape(3 * self.kd + 1, -1, order="F"),
                                      self.kd, self.kd, overwrite_ab=1)
        if info:
            raise LinearSolveError(f"band LU pivot {self.perm[info - 1]} is zero")
        return lu, piv

    def solve(self, factor, x):
        """A^-1 x for the ``factor`` of A, overwriting x."""
        b = x[self.perm]
        x[self.perm] = lapack.dgbtrs(factor[0], self.kd, self.kd, b, factor[1])[0]
        return x


class _AnalysedFactor(SparseFactor):
    """SparseFactor, with its refined solve, on an analysis that supplies the
    scaling, the factor and its solve: ``_Supernodes`` the Cholesky of an SPD
    matrix scaled to unit diagonal, ``_Band`` the band LU of an equilibrated one."""

    def __init__(self, matrix, order, analysis):
        self.matrix, self.order, self._analysis = matrix, order, analysis
        self._dr, self._dc = analysis.scaling(matrix)
        self._factor = analysis.factor(matrix.data * self._dr[matrix.indices]
                                       * np.repeat(self._dc, np.diff(matrix.indptr)))

    def _raw_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._dc * self._analysis.solve(self._factor, self._dr * rhs)


def _line_matrices(n, h):
    """Stiffness, mass and derivative mass (the integral of phi_i' phi_j) of
    linear elements on n cells of width h, over all n + 1 nodes, dense."""
    local = np.array([[[1, -1], [-1, 1]], [[2, 1], [1, 2]], [[-1, -1], [1, 1]]])
    local = local * np.array([1 / h, h / 6, 0.5])[:, None, None]
    out, cell = np.zeros((3, n + 1, n + 1)), np.arange(n)
    for a in (0, 1):
        for b in (0, 1):
            out[:, cell + a, cell + b] += local[:, a, b, None]
    return out


class _Separable(SparseFactor):
    """SparseFactor, with its refined solve, of the constrained stiffness by
    fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964;
    Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).

    On the uniform grid the Q1 stiffness is a sum of tensor products of the
    1-D linear-element stiffness K, mass M and derivative mass G in x and y:
    u_x-u_x (2 mu + lam) K_x M_y + mu M_x K_y, u_y-u_y (2 mu + lam) M_x K_y
    + mu K_x M_y, and u_x-u_y G_x (lam G_y^T - mu G_y), as G_x^T = -G_x on
    the rows of the interior nodes.  The rollers fix u_x at both ends in x
    and leave u_y free there: the sines S on the interior nodes diagonalize
    K_x and M_x on those nodes, the cosines C on all nodes diagonalize them
    on all nodes, and S G_x C pairs sine k with cosine k.  With u = T z,
    T = S (u_x) and C (u_y) at every y node, T^T A T is one band per x-mode,
    u_x and u_y of the mode interleaved by y node (half-bandwidth 3),
    factored once by dpbtrf; S and C are scaled to unit mass.  A raw solve
    is T^T, dpbtrs and T; ``matrix``, the assembled stiffness, stays the one
    the refinement and the backward error see.  The transforms and the
    factor are read-only."""

    def __init__(self, matrix, dofs, mesh, mu, lam):
        """``dofs``: the displacement dof (x then y of the nodes) of each
        row of ``matrix``."""
        self.matrix, self.order = matrix, slice(None)
        nx, ny = mesh.nx, mesh.ny
        kx, mx, gx = _line_matrices(nx, mesh.hx)
        ky, my, gy = _line_matrices(ny, mesh.hy)

        def diagonal(a, left, right):
            """The diagonal of left^T a right."""
            return np.sum(left * (a @ right), axis=0)

        # the x eigenvectors, scaled to unit mass
        node, inner = np.arange(nx + 1), slice(1, -1)
        s = np.sin(np.pi / nx * np.outer(node[inner], node[inner]))
        s /= np.sqrt(diagonal(mx[inner, inner], s, s))
        c = np.cos(np.pi / nx * np.outer(node, node))
        c /= np.sqrt(diagonal(mx, c, c))
        # the transformed stiffness in the spectral numbering, u_x by (mode,
        # y node), then u_y: terms diag(d) (x) b at row and column offsets.
        # Sine k pairs with cosine k, and the constant and alternating
        # cosines (modes 0 and nx) with no sine
        p, n_x = 2 * mu + lam, (nx - 1) * (ny + 1)
        g, cross = diagonal(gx[inner], s, c[:, inner]), (lam * gy.T - mu * gy)[:, 1:]
        terms = [(p * diagonal(kx[inner, inner], s, s), my, 0, 0),
                 (mu * diagonal(mx[inner, inner], s, s), ky, 0, 0),
                 (p * diagonal(mx, c, c), ky[1:, 1:], n_x, n_x),
                 (mu * diagonal(kx, c, c), my[1:, 1:], n_x, n_x),
                 (g, cross, 0, n_x + ny), (g, cross.T, n_x + ny, 0)]
        entries = []
        for d, b, r0, c0 in terms:
            i, j = np.nonzero(b)
            mode = np.arange(len(d))[:, None]
            entries.append([(r0 + mode * b.shape[0] + i).ravel(),
                            (c0 + mode * b.shape[1] + j).ravel(), (d[:, None] * b[i, j]).ravel()])
        row, col, value = (np.concatenate(e) for e in zip(*entries))
        # the band goes by mode, then y node, u_x before u_y
        mode = np.concatenate([np.repeat(node[inner], ny + 1), np.repeat(node, ny)])
        y_node = np.concatenate([np.tile(np.arange(ny + 1), nx - 1),
                                 np.tile(np.arange(1, ny + 1), nx + 1)])
        self._band = np.lexsort((y_node, mode))
        rank = np.argsort(self._band)
        row, col = rank[row], rank[col]
        lower = row >= col
        kd = int(np.max(row - col, initial=0))
        # summed into lower band storage, entry (i, j) at ab[i - j, j]
        ab = np.bincount((row - col + (kd + 1) * col)[lower], value[lower],
                         (kd + 1) * len(rank)).reshape(kd + 1, -1, order="F")
        self._factor, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        if info:
            raise LinearSolveError(f"separable stiffness: band pivot {info - 1} is not positive")
        # each transform with the positions of its dofs on the grid
        # (x node, y node)
        component, n = np.divmod(dofs, mesh.n_nodes)
        y, x = np.divmod(n, nx + 1)
        self._transforms = []
        for k, t, grid in ((0, s, (nx - 1, ny + 1)), (1, c, (nx + 1, ny))):
            at = np.empty(grid, dtype=int)
            at[x[component == k] - 1 + k, y[component == k] - k] = np.flatnonzero(component == k)
            self._transforms.append((t, at))
            t.flags.writeable = at.flags.writeable = False
        self._factor.flags.writeable = self._band.flags.writeable = False

    def _raw_solve(self, rhs: np.ndarray) -> np.ndarray:
        z = np.concatenate([(t.T @ rhs[at]).ravel() for t, at in self._transforms])
        z[self._band] = lapack.dpbtrs(self._factor, z[self._band], lower=1)[0]
        x = np.empty_like(rhs)
        for (t, at), w in zip(self._transforms, np.split(z, [self._transforms[0][1].size])):
            x[at] = t @ w.reshape(at.shape)
        return x


def nested_dissection(xy: np.ndarray, leaf_size: int):
    """Geometric nested-dissection ordering (George, SIAM J. Numer. Anal.
    1973) of dofs at integer half-grid coordinates ``xy`` (n, 2), those of
    ``RectMesh.cell_xy``, ``edge_xy`` and ``node_xy``.

    A box is bisected across its longer side at the node line (even
    coordinate) nearest its middle.  Every coupling of a P0/RT0/Q1 matrix
    stays inside one cell's closure, so the dofs on that line separate the
    two halves exactly; they are ordered after both.  A box of at most
    ``leaf_size`` dofs is a leaf, whose dofs keep their order in ``xy``.

    Returns the order (position -> dof) and its pieces in postorder, rows
    (first, mid, start, stop) of order positions: the piece is
    order[start:stop], after the halves order[first:mid] and
    order[mid:start] that it separates (empty for a leaf).

    All boxes of one level are bisected at once.  A piece's dofs keep
    their order in ``xy``, so the order is one stable sort of the dofs by
    the first position of their piece.
    """
    n = len(xy)
    if not n:
        return np.arange(0), np.zeros((0, 4), dtype=int)
    rows, paths, levels = [], [], []
    # the boxes of one level: bounds, first position, size, and path from
    # the root (its bits, 0 for a lower half); the box of each dof not yet
    # in a piece
    lo, hi = xy.min(axis=0)[None], xy.max(axis=0)[None]
    first, size, path = np.zeros(1, dtype=int), np.array([n]), np.zeros(1, dtype=int)
    dof, box = np.arange(n), np.zeros(n, dtype=int)
    piece_start, flat = np.empty(n, dtype=int), xy.ravel()
    level = 0
    while len(first):
        # each box's axes in turn, longer side first, and their node lines
        # nearest the middle; a box splits at the first line inside it
        axes = np.where((hi - lo)[:, :1] >= (hi - lo)[:, 1:], [0, 1], [1, 0])
        lines = 2 * ((np.take_along_axis(lo + hi, axes, 1) + 2) // 4)
        cuts = ((np.take_along_axis(lo, axes, 1) < lines)
                & (lines < np.take_along_axis(hi, axes, 1)))
        pick = np.argmax(cuts, axis=1)[:, None]
        split = (size > leaf_size) & cuts.any(axis=1)
        axis = np.take_along_axis(axes, pick, 1)[:, 0]
        line = np.take_along_axis(lines, pick, 1)[:, 0]
        # each dof's part of its box: 0 below the line, 1 above, 2 on it
        # (all of a leaf's)
        part = (2 - np.sign((flat[2 * dof + axis[box]] - line[box]) * split[box])) % 3
        count = np.bincount(3 * box + part, minlength=3 * len(first)).reshape(-1, 3)
        mid = first + count[:, 0]
        start = mid + count[:, 1]
        rows.append(np.column_stack([first, mid, start, first + size]))
        paths.append(path)
        levels.append(np.full(len(first), level))
        on = part == 2
        piece_start[dof[on]] = start[box[on]]
        # the halves of the split boxes are the next level's boxes
        s = np.flatnonzero(split)
        half = np.full((len(first), 2), -1)
        half[s] = np.arange(2 * len(s)).reshape(-1, 2)
        lo, hi = np.repeat(lo[s], 2, axis=0), np.repeat(hi[s], 2, axis=0)
        lower = 2 * np.arange(len(s))
        hi[lower, axis[s]] = line[s] - 1
        lo[lower + 1, axis[s]] = line[s] + 1
        first = np.column_stack([first[s], mid[s]]).ravel()
        size = count[s, :2].ravel()
        path = (2 * path[s, None] + [0, 1]).ravel()
        dof, box = dof[~on], half[box[~on], part[~on]]
        level += 1
    # postorder: paths padded with ones to the deepest level compare as
    # their boxes do, except a box against the descendants on its upper
    # edge, which go first (deeper first)
    path, depth = np.concatenate(paths), np.concatenate(levels)
    key = ((path + 1) << (level - 1 - depth)) - 1
    return (np.argsort(piece_start, kind="stable"),
            np.concatenate(rows)[np.lexsort((-depth, key))])


class _CellPattern:
    """CSC pattern of an n x n matrix summed from dense per-cell blocks
    (nc, k, k), one per cell, over each cell's dofs ``dofs`` (nc, k), given as
    positions in the factor ordering with -1 for a constrained dof.  Only
    entries between free dofs are stored; every other block entry is summed
    into one spare slot past the end and dropped.  ``constant`` (rows, cols,
    values), at distinct pattern positions, is added to every matrix."""

    def __init__(self, dofs, n, constant=None):
        k = dofs.shape[1]
        rows = np.broadcast_to(dofs[:, :, None], (len(dofs), k, k)).ravel()
        cols = np.broadcast_to(dofs[:, None, :], (len(dofs), k, k)).ravel()
        kept = (rows >= 0) & (cols >= 0)
        keys, slot = np.unique(cols[kept] * n + rows[kept], return_inverse=True)
        self.n = n
        self._slot = np.full(len(rows), len(keys))
        self._slot[kept] = slot
        self._indices = keys % n
        self._indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
        self._constant = None
        if constant is not None:
            rows, cols, values = constant
            self._constant = (np.searchsorted(keys, cols * n + rows), values)

    def matrix(self, blocks: np.ndarray) -> sp.csc_array:
        """Sum of ``blocks`` (nc, k, k), plus the constant."""
        data = np.bincount(self._slot, weights=blocks.ravel(),
                           minlength=len(self._indices) + 1)[:-1]
        if self._constant is not None:
            slot, values = self._constant
            data[slot] += values
        return sp.csc_array((data, self._indices, self._indptr), shape=(self.n, self.n))


def _scatter(local: np.ndarray, rows: np.ndarray, cols: np.ndarray, shape) -> sp.csr_array:
    """Matrix summed from one block ``local`` per cell (identical on a
    uniform grid) at the cell's row dofs (nc, k_r) and column dofs
    (nc, k_c), one row per cell; zero entries of the block are left out."""
    r, c = np.nonzero(local)
    return sp.csr_array((np.tile(local[r, c], len(rows)),
                         (rows[:, r].ravel(), cols[:, c].ravel())), shape=shape)


class DiscreteOperators:
    """Assembled mass/divergence/stiffness operators for one mesh.

    Attributes:
        mu, lam: plane-strain Lame moduli, the only copy: the stiffness
            and the split schemes' beta_FS read them.
        M_p: P0 mass diagonal (cell areas).
        M_q: RT0 mass matrix.
        M_u: Q1 vector mass matrix.
        D_pq: integrated RT0 divergence into P0 (row per cell).
        D_pu: integrated Q1 divergence into P0 (row per cell).
        D_pq_T/D_pu_T: their transposes (CSC views), built once.
        fixed_q/free_q: constrained/free flux dofs (all boundary edges fixed).
        fixed_u/free_u: constrained/free displacement dofs (rollers).
        stiffness: plane-strain elasticity stiffness over the free
            displacements in free_u order (canonical CSC), the only copy:
            the momentum residual, ``elastic_solve`` (through a separable
            factor built here) and Newton's condensed matrices read it.
        local_flux_mass: per-cell RT0 mass (4x4, cell_edges order), from
            which every RT0 mass is summed.
        local_stiffness: per-cell stiffness (8x8, x then y of the cell_nodes).
        local_divergence: per-cell row of D_pq (cell_edges order).
        local_displacement_divergence: per-cell row of D_pu (x then y of the
            cell_nodes).
        order: ordering (position -> dof) of Newton's condensed dofs
            [q_free | u_free] (the edge traces and the free displacements):
            their nested dissection, with leaves of at most LEAF_SIZE dofs,
            the one dissection of the mesh.
        flux_order: ordering of the free flux dofs (numbered within them):
            the restriction of ``order`` to them.
        flux_pattern/hybrid_pattern: sum cell blocks into the free-flux
            matrix (4x4 blocks in cell_edges order; in flux_order) and
            Newton's condensed matrix (12x12 over ``hybrid_dofs``, see
            ``hybrid_pattern``; in ``order``).
        hybrid_flux_inverse: each cell's inverse of local_flux_mass over
            its free edges, zero at a constrained edge (nc x 4 x 4), with
            which Newton eliminates the cells.  The Newton attributes are
            built on first use.

    Every array above, and the ``data``, ``indices`` and ``indptr`` of
    every matrix, is read-only once assembled.
    """

    def __init__(self, mesh: RectMesh, mu: float, lam: float):
        if not (mu > 0 and lam >= 0):
            raise ValueError("require mu > 0 and lambda >= 0")
        self.mesh = mesh
        self.mu = float(mu)
        self.lam = float(lam)
        area = mesh.cell_area
        ce = mesh.cell_edges
        nc = len(ce)

        self.M_p = np.full(nc, area)

        # RT0 mass: per cell only the (W,E) and (S,N) pairs couple
        self.local_flux_mass = np.zeros((4, 4))
        self.local_flux_mass[:2, :2] = self.local_flux_mass[2:, 2:] = (
            np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]) * area)
        self.M_q = _scatter(self.local_flux_mass, ce, ce, (mesh.n_edges, mesh.n_edges))

        cell_index = np.arange(nc)[:, None]
        self.local_divergence = np.array([-mesh.hy, mesh.hy, -mesh.hx, mesh.hx])
        self.D_pq = _scatter(self.local_divergence[None, :], cell_index, ce, (nc, mesh.n_edges))

        # integrated Q1 divergence: values per x then y of (SW, SE, NE, NW)
        cn = mesh.cell_nodes
        self.local_displacement_divergence = np.array(
            [-mesh.hy, mesh.hy, mesh.hy, -mesh.hy, -mesh.hx, -mesh.hx, mesh.hx, mesh.hx]
        ) / 2.0
        nodal = np.concatenate([cn, cn + mesh.n_nodes], axis=1)
        n_u = 2 * mesh.n_nodes
        self.D_pu = _scatter(self.local_displacement_divergence[None, :], cell_index, nodal,
                             (nc, n_u))
        self.D_pq_T, self.D_pu_T = self.D_pq.T, self.D_pu.T
        self.local_stiffness = self._elasticity_block()
        self.M_u = _scatter(self._vector_mass_block(), nodal, nodal, (n_u, n_u))

        self.fixed_q = mesh.all_boundary_edges.copy()
        free_q_mask = np.ones(mesh.n_edges, dtype=bool)
        free_q_mask[self.fixed_q] = False
        self.free_q = np.nonzero(free_q_mask)[0]

        fixed_ux = np.union1d(mesh.left_nodes, mesh.right_nodes)
        fixed_uy = mesh.bottom_nodes + mesh.n_nodes
        self.fixed_u = np.sort(np.concatenate([fixed_ux, fixed_uy]))
        free_u_mask = np.ones(2 * mesh.n_nodes, dtype=bool)
        free_u_mask[self.fixed_u] = False
        self.free_u = np.nonzero(free_u_mask)[0]

        self.D_pq_f = self.D_pq[:, self.free_q]
        full = _scatter(self.local_stiffness, nodal, nodal, (n_u, n_u)).tocsc()
        self.stiffness = stiffness = full[:, self.free_u][self.free_u]
        self._banded = (len(self.free_u) * _Band(stiffness.indices, stiffness.indptr).kd
                        <= _BAND_ENTRIES)
        try:
            # a singular constrained stiffness means the roller constraints
            # failed to remove all rigid modes
            self._elastic_factor = _Separable(stiffness, self.free_u, mesh, self.mu, self.lam)
        except LinearSolveError as exc:
            raise ValueError(f"constrained elasticity block is singular: {exc}") from exc

        # one nested dissection of Newton's dofs [q_free | u_free], which the
        # flux ordering restricts.  The displacements enter node by node, so
        # that within a leaf the x and y dofs of a node stay adjacent (less
        # elasticity fill)
        n_qf = len(self.free_q)
        xy = np.concatenate([mesh.edge_xy[self.free_q],
                             np.tile(mesh.node_xy, (2, 1))[self.free_u]])
        entry = np.concatenate([np.arange(n_qf), n_qf + np.lexsort(
            (self.free_u // mesh.n_nodes, self.free_u % mesh.n_nodes))])
        dissection, pieces = nested_dissection(xy[entry], LEAF_SIZE)
        self.order = entry[dissection]
        is_flux = self.order < n_qf
        self.flux_order = self.order[is_flux]
        # flux Cholesky supernodes: one leaf on a banded mesh, else the
        # pieces restricted to the flux dofs (contiguous in flux_order),
        # subtrees of <= _SUPERNODE_SIZE merged
        flux_before = np.concatenate([[0], np.cumsum(is_flux)])
        pieces = flux_before[pieces]
        big = (not self._banded) & (pieces[:, 3] - pieces[:, 0] > _SUPERNODE_SIZE)
        self._flux_supernodes = np.unique(np.concatenate([[0, n_qf], pieces[big].ravel()]))

        flux_position = np.full(mesh.n_edges, -1)
        flux_position[self.free_q[self.flux_order]] = np.arange(n_qf)
        self.flux_pattern = _CellPattern(flux_position[ce], n_qf)
        for a in (self.M_p, self.local_flux_mass, self.local_divergence,
                  self.local_displacement_divergence, self.local_stiffness, self.fixed_q,
                  self.free_q, self.fixed_u, self.free_u, self.order, self.flux_order):
            a.flags.writeable = False
        for m in (self.M_q, self.D_pq, self.D_pu, self.D_pq_T, self.D_pu_T, self.D_pq_f,
                  self.M_u, stiffness):
            m.data.flags.writeable = m.indices.flags.writeable = m.indptr.flags.writeable = False

    @functools.cached_property
    def flux_cholesky(self) -> _Supernodes:
        """Symbolic analysis of the SPD flux factor, built on first use."""
        pattern = self.flux_pattern
        return _Supernodes(pattern._indices, pattern._indptr, self._flux_supernodes)

    @functools.cached_property
    def flux_band_lu(self) -> _Band:
        """Band analysis of the other flux factors, built on first use."""
        pattern = self.flux_pattern
        return _Band(pattern._indices, pattern._indptr)

    def flux_factor(self, matrix, spd: bool) -> SparseFactor:
        """Factor of a matrix summed by flux_pattern: the Cholesky if SPD,
        else the band LU on a banded mesh and SuperLU beyond."""
        if not (spd or self._banded):
            return SparseFactor(matrix, self.flux_order)
        return _AnalysedFactor(matrix, self.flux_order,
                               self.flux_cholesky if spd else self.flux_band_lu)

    # -- assembly helpers ------------------------------------------------

    def _q1_gradients(self):
        """Shape-function derivative tables at the 2x2 Gauss points."""
        gp = np.array([-1.0, 1.0]) / np.sqrt(3.0)
        pts = [(xi, eta) for eta in gp for xi in gp]
        dN_dxi = np.array([[-(1 - e) / 4, (1 - e) / 4, (1 + e) / 4, -(1 + e) / 4] for _, e in pts])
        dN_deta = np.array([[-(1 - x) / 4, -(1 + x) / 4, (1 + x) / 4, (1 - x) / 4] for x, _ in pts])
        return dN_dxi * (2.0 / self.mesh.hx), dN_deta * (2.0 / self.mesh.hy)

    def _elasticity_block(self):
        """Plane-strain stiffness of one cell (x then y of its nodes)."""
        dndx, dndy = self._q1_gradients()
        w = self.mesh.cell_area / 4.0  # equal Gauss weights, jacobian hx*hy/4 times weight 1
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
        return K

    def _vector_mass_block(self):
        """Q1 vector mass of one cell (x then y of its nodes)."""
        m_scalar = (self.mesh.cell_area / 36.0) * np.array(
            [[4, 2, 1, 2], [2, 4, 2, 1], [1, 2, 4, 2], [2, 1, 2, 4]], dtype=float
        )
        M = np.zeros((8, 8))
        M[:4, :4] = m_scalar
        M[4:, 4:] = m_scalar
        return M

    @functools.cached_property
    def hybrid_dofs(self) -> np.ndarray:
        """Each cell's [cell_edges | x then y of cell_nodes] in Newton's
        numbering [q_free | u_free], len(order) for a constrained dof."""
        mesh, n = self.mesh, len(self.order)
        index = np.full(mesh.n_edges + 2 * mesh.n_nodes, n)
        index[np.concatenate([self.free_q, mesh.n_edges + self.free_u])] = np.arange(n)
        cn = mesh.n_edges + mesh.cell_nodes
        dofs = index[np.concatenate([mesh.cell_edges, cn, cn + mesh.n_nodes], axis=1)]
        dofs.flags.writeable = False
        return dofs

    @functools.cached_property
    def hybrid_flux_inverse(self) -> np.ndarray:
        """Each cell's inverse of its RT0 mass over its free edges, zero at
        a constrained edge (nc, 4, 4): the (W,E) and (S,N) pairs invert
        apart.  Built on first use, for Newton's cell elimination."""
        free = self.hybrid_dofs[:, :4] < len(self.order)
        both = free[:, :, None] & free[:, None, :]
        inverse = np.linalg.inv(np.where(both, self.local_flux_mass, np.eye(4))) * both
        inverse.flags.writeable = False
        return inverse

    @functools.cached_property
    def hybrid_pattern(self) -> _CellPattern:
        """Pattern, in ``order``, of Newton's condensed matrices summed from
        12x12 cell blocks over ``hybrid_dofs``, with ``stiffness`` as
        constant.  Built on first use: only monolithic Newton factors
        condensed matrices."""
        n = len(self.order)
        position = np.full(n + 1, -1)
        position[self.order] = np.arange(n)
        stiffness = self.stiffness.tocoo()
        u_position = position[len(self.free_q):]
        constant = (u_position[stiffness.row], u_position[stiffness.col], stiffness.data)
        return _CellPattern(position[self.hybrid_dofs], n, constant)

    # -- factories and solves --------------------------------------------

    def weighted_flux_mass(self, cell_weights: np.ndarray, q: np.ndarray) -> np.ndarray:
        """K(w) q for the RT0 mass K(w) with piecewise-constant cell weights
        w, summed cell by cell from local_flux_mass; no matrix is built."""
        ce = self.mesh.cell_edges
        local = cell_weights[:, None] * (q[ce] @ self.local_flux_mass)
        return np.bincount(ce.ravel(), weights=local.ravel(), minlength=self.mesh.n_edges)

    def elastic_solve(self, rhs_free: np.ndarray) -> np.ndarray:
        """Solve the constrained elasticity system with the factorization
        computed at assembly (the stiffness never changes)."""
        return self._elastic_factor.solve(rhs_free)

    # -- norms -------------------------------------------------------------

    def pressure_norm(self, p: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.M_p * p * p)))

    def flux_norm(self, q: np.ndarray) -> float:
        return float(np.sqrt(max(q @ (self.M_q @ q), 0.0)))

    def disp_norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(u @ (self.M_u @ u), 0.0)))


def assemble(mesh: RectMesh, mu: float, lam: float) -> DiscreteOperators:
    """Assemble all discrete operators for the injection scenario."""
    return DiscreteOperators(mesh, mu, lam)
