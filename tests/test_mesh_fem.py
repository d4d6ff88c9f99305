import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porosplit import constitutive as laws
from porosplit.fem import LinearSolveError, SparseFactor, assemble
from porosplit.mesh import MeshAlignmentError, RectMesh
from porosplit.model import newton_blocks
from porosplit.schemes import fixed_stress_beta, fsl_local_iteration

from conftest import LAM, MU, natural, setup_problem


class TestMesh:
    def test_single_cell(self):
        m = RectMesh(1, 1, 1, 1, 1)
        assert m.n_cells == 1
        assert m.n_nodes == 4
        assert len(m.all_boundary_edges) == 4
        tagged = set()
        for side in ("left", "right", "bottom", "top"):
            tagged.update(m.boundary_edges[side].tolist())
        assert tagged == set(m.all_boundary_edges.tolist())
        assert list(m.boundary_edges["inflow"]) == list(m.boundary_edges["top"])

    def test_benchmark_grid(self):
        m = RectMesh(50, 50, 1, 1, 0.2)
        assert m.n_cells == 2500
        assert len(m.boundary_edges["inflow"]) == 10

    def test_interior_edges_by_enumeration(self):
        # brute force: an interior edge is referenced by exactly two cells,
        # a boundary edge by one
        m = RectMesh(2, 2, 1, 1, 0.5)
        counts = np.zeros(m.n_edges, dtype=int)
        for edges in m.cell_edges:
            counts[edges] += 1
        interior = np.setdiff1d(np.arange(m.n_edges), m.all_boundary_edges)
        assert np.array_equal(np.nonzero(counts == 2)[0], interior)
        assert len(interior) == 4
        assert np.all(counts[m.all_boundary_edges] == 1)

    def test_misaligned_inflow_rejected(self):
        with pytest.raises(MeshAlignmentError):
            RectMesh(8, 8, 1, 1, 0.2)

    def test_boundary_tags_partition(self, rng):
        m = RectMesh(5, 3, 2.0, 1.0, 0.8)
        sides = [m.boundary_edges[s] for s in ("left", "right", "bottom", "top")]
        stacked = np.concatenate(sides)
        assert len(stacked) == len(set(stacked.tolist()))
        assert sorted(stacked.tolist()) == m.all_boundary_edges.tolist()


class TestAssembly:
    def test_unit_cell_pressure_mass(self):
        ops = assemble(RectMesh(1, 1, 1, 1, 1), MU, LAM)
        assert ops.M_p == pytest.approx([1.0])

    def test_divergence_theorem(self):
        # RT0 interpolant of v = (x, y): integrated divergence is 2 |T| per
        # cell and the total matches the boundary flux of the unit square
        m = RectMesh(4, 5, 1.0, 1.0, 0.25)
        ops = assemble(m, MU, LAM)
        q = np.zeros(m.n_edges)
        for j in range(m.ny):
            for i in range(m.nx + 1):
                q[j * (m.nx + 1) + i] = i * m.hx
        for j in range(m.ny + 1):
            for i in range(m.nx):
                q[m.n_vedges + j * m.nx + i] = j * m.hy
        div = ops.D_pq @ q
        assert np.max(np.abs(div - 2 * m.cell_area)) < 1e-12
        assert div.sum() == pytest.approx(2.0, abs=1e-12)

    def test_rigid_modes_are_energy_free(self):
        m = RectMesh(3, 3, 1, 1, 1.0 / 3.0)
        ops = assemble(m, MU, LAM)
        for mode in (
            np.concatenate([np.ones(m.n_nodes), np.zeros(m.n_nodes)]),
            np.concatenate([np.zeros(m.n_nodes), np.ones(m.n_nodes)]),
        ):
            assert abs(mode @ (ops.A_uu @ mode)) < 1e-12

    def test_pressure_norm_is_l2(self, rng):
        m = RectMesh(7, 4, 2.0, 3.0, 0.0)
        ops = assemble(m, MU, LAM)
        p = rng.standard_normal(m.n_cells)
        assert ops.pressure_norm(p) ** 2 == pytest.approx(
            float(np.sum(p**2) * m.cell_area), rel=1e-12
        )

    def test_flux_norm_of_constant_field(self):
        m = RectMesh(6, 3, 2.0, 1.5, 0.0)
        ops = assemble(m, MU, LAM)
        q = np.zeros(m.n_edges)
        q[: m.n_vedges] = 3.0
        q[m.n_vedges:] = -2.0
        assert ops.flux_norm(q) ** 2 == pytest.approx(13.0 * 2.0 * 1.5, rel=1e-10)

    def test_uniform_dilation(self):
        m = RectMesh(3, 2, 1.5, 1.0, 0.5)
        ops = assemble(m, MU, LAM)
        u = np.concatenate([m.node_coords[:, 0], m.node_coords[:, 1]])
        div = (ops.D_pu @ u) / ops.M_p
        assert np.max(np.abs(div - 2.0)) < 1e-12

    def test_assembly_is_deterministic(self):
        a = assemble(RectMesh(5, 5, 1, 1, 0.2), MU, LAM)
        b = assemble(RectMesh(5, 5, 1, 1, 0.2), MU, LAM)
        for name in ("M_q", "D_pq", "D_pu", "A_uu", "M_u"):
            diff = getattr(a, name) - getattr(b, name)
            assert abs(diff).max() == 0.0

    def test_weighted_flux_mass_matches_brute_force(self, rng):
        m = RectMesh(3, 2, 1.0, 1.0, 0.0)
        ops = assemble(m, MU, LAM)
        w = rng.uniform(0.5, 2.0, m.n_cells)
        dense = np.zeros((m.n_edges, m.n_edges))
        local = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]) * m.cell_area
        for c in range(m.n_cells):
            for pair in ((0, 1), (2, 3)):
                idx = m.cell_edges[c, list(pair)]
                dense[np.ix_(idx, idx)] += w[c] * local
        assert np.abs(ops.weighted_flux_mass(w).toarray() - dense).max() < 1e-15

    def test_constrained_elasticity_is_spd(self, rng):
        ops = assemble(RectMesh(4, 4, 1, 1, 0.25), MU, LAM)
        x = rng.standard_normal(len(ops.free_u))
        assert x @ (ops.A_ff @ x) > 0
        assert abs(ops.A_ff - ops.A_ff.T).max() <= 1e-14 * abs(ops.A_ff).max()


class TestSolvers:
    def test_identity(self):
        r = np.array([3.0, -1.0, 2.0])
        assert SparseFactor(sp.eye_array(3), np.arange(3), symmetric=True).solve(r) \
            == pytest.approx(r)

    def test_diagonal(self):
        factor = SparseFactor(sp.csr_array(np.diag([2.0, 4.0])), np.arange(2), symmetric=True)
        assert factor.solve(np.array([2.0, 4.0])) == pytest.approx([1.0, 1.0])

    def test_swap_system(self):
        factor = SparseFactor(sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]])), np.arange(2))
        assert factor.solve(np.array([1.0, 2.0])) == pytest.approx([2.0, 1.0])

    def test_saddle_block(self):
        factor = SparseFactor(sp.csr_array(np.array([[1.0, 1.0], [1.0, 0.0]])), np.arange(2))
        assert factor.solve(np.array([2.0, 1.0])) == pytest.approx([1.0, 1.0])

    def test_random_spd_against_dense_oracle(self, rng):
        b = rng.standard_normal((50, 50))
        a = b @ b.T + 50 * np.eye(50)
        rhs = rng.standard_normal(50)
        x = SparseFactor(sp.csr_array(a), np.arange(50), symmetric=True).solve(rhs)
        assert np.max(np.abs(x - np.linalg.solve(a, rhs))) < 1e-10

    def test_mixed_darcy_against_dense_oracle(self, rng):
        # assembled saddle system [[M_q, -D^T], [D, 0]] + mass regularization
        m = RectMesh(4, 4, 1, 1, 0.25)
        ops = assemble(m, MU, LAM)
        nq, npp = m.n_edges, m.n_cells
        block = sp.block_array(
            [[ops.M_q, -ops.D_pq.T], [ops.D_pq, sp.diags_array(ops.M_p)]],
            format="csr",
        )
        rhs = rng.standard_normal(nq + npp)
        # factored in a shuffled order; solve works in the block's numbering
        order = rng.permutation(nq + npp)
        x = SparseFactor(block[order][:, order], order).solve(rhs)
        assert np.max(np.abs(x - np.linalg.solve(block.toarray(), rhs))) < 1e-10

    def test_singular_system_raises(self):
        singular = sp.csr_array(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(LinearSolveError):
            SparseFactor(singular, np.arange(2)).solve(np.array([1.0, 0.0]))
        with pytest.raises(LinearSolveError):
            SparseFactor(singular, np.arange(2), symmetric=True).solve(np.array([1.0, 0.0]))

    def test_symmetric_variant_needs_positive_diagonal(self):
        with pytest.raises(LinearSolveError):
            SparseFactor(sp.csr_array(np.diag([1.0, -2.0])), np.arange(2), symmetric=True)

    def test_free_flux_matrix_matches_sliced_assembly(self, rng):
        # cell blocks w_c M_c + col_c d^T summed over the free edges equal
        # the sliced global assembly
        m = RectMesh(4, 3, 1, 1, 0.25)
        ops = assemble(m, MU, LAM)
        w = rng.uniform(0.5, 2.0, m.n_cells)
        col = rng.standard_normal((m.n_cells, 4))
        blocks = w[:, None, None] * ops.local_flux_mass + col[:, :, None] * ops.local_divergence
        cols = sp.csr_array(
            (col.ravel(), (m.cell_edges.ravel(), np.repeat(np.arange(m.n_cells), 4))),
            shape=(m.n_edges, m.n_cells),
        )
        full = ops.weighted_flux_mass(w) + cols @ ops.D_pq
        expected = full[ops.free_q][:, ops.free_q].toarray()
        got = natural(ops.free_flux_matrix(blocks), ops.flux_order).toarray()
        assert np.abs(got - expected).max() < 1e-14


class TestNestedDissection:
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (5, 3), (8, 8)])
    def test_orderings_are_permutations(self, nx, ny):
        ops = assemble(RectMesh(nx, ny, 1.0, 1.0, 1.0), MU, LAM)
        n_p, n_qf, n_uf = ops.mesh.n_cells, len(ops.free_q), len(ops.free_u)
        for order, n in ((ops.order, n_p + n_qf + n_uf), (ops.flux_order, n_qf),
                         (ops.elastic_order, n_uf)):
            assert np.array_equal(np.sort(order), np.arange(n))

    @pytest.mark.parametrize("nx, ny", [(8, 8), (16, 5)])
    def test_no_entry_couples_the_halves_of_a_bisection(self, nx, ny, rng):
        mesh = RectMesh(nx, ny, 1.0, 1.0, 1.0)
        ops = assemble(mesh, MU, LAM)
        nc, n_qf = mesh.n_cells, len(ops.free_q)
        coupled = ops.coupled_matrix(rng.uniform(1.0, 2.0, (nc, 13)),
                                     rng.uniform(1.0, 2.0, (nc, 12)), rng.uniform(1.0, 2.0, nc))
        flux = ops.free_flux_matrix(rng.uniform(1.0, 2.0, (nc, 4, 4)))
        # nonzero positions of each pattern in the coupled numbering
        # [p | q_free | u_free]
        entries = [
            (np.asarray(i) + offset, np.asarray(j) + offset)
            for (i, j), offset in ((natural(coupled, ops.order).nonzero(), 0),
                                   (natural(flux, ops.flux_order).nonzero(), nc),
                                   (ops.A_ff.nonzero(), nc + n_qf))
        ]
        assert len(ops.bisections) >= 3
        for start, mid, stop in ops.bisections:
            side = np.zeros(len(ops.order), dtype=int)
            side[ops.order[start:mid]] = 1
            side[ops.order[mid:stop]] = 2
            for rows, cols in entries:
                assert not np.any(side[rows] * side[cols] == 2)

    def test_fill_no_larger_than_with_superlu_orderings(self):
        # 25x25 test1 at an iterate inside the first step: the FSL flux-only
        # matrix, the Newton matrix and the constrained stiffness
        mesh, ops, params, init = setup_problem(25, 25)
        state = init
        for _ in range(2):
            state, _, _ = fsl_local_iteration(state, init, params, ops)
        kinv = 1.0 / laws.mobility(state.saturation(params), params.vg)
        cpp = ops.M_p * fixed_stress_beta(params.mu, params.lam, params.alpha)
        d = ops.local_divergence
        flux = ops.free_flux_matrix(kinv[:, None, None] * ops.local_flux_mass
                                    + (params.tau / cpp)[:, None, None] * np.outer(d, d))
        eo = ops.elastic_order
        cases = [
            (flux, ops.flux_order, True),
            (newton_blocks(state, init, params, ops).matrix, ops.order, False),
            (ops.A_ff[eo][:, eo], eo, True),
        ]
        for matrix, order, symmetric in cases:
            lu = SparseFactor(matrix, order, symmetric=symmetric).lu
            a = natural(matrix, order).tocsc()
            options = {}
            if symmetric:
                scale = sp.diags_array(1.0 / np.sqrt(a.diagonal()))
                a = (scale @ a @ scale).tocsc()
                options = dict(diag_pivot_thresh=0.0, options={"SymmetricMode": True})
            own = min(lu_own.L.nnz + lu_own.U.nnz for lu_own in (
                spla.splu(a, permc_spec=spec, **options) for spec in ("COLAMD", "MMD_AT_PLUS_A")))
            assert lu.L.nnz + lu.U.nnz <= own

    def test_backward_error_holds_in_the_original_numbering(self, rng):
        m = RectMesh(12, 10, 1, 1, 0.25)
        ops = assemble(m, MU, LAM)
        d = ops.local_divergence
        blocks = (rng.uniform(0.5, 2.0, m.n_cells)[:, None, None] * ops.local_flux_mass
                  + rng.uniform(1.0, 1e3, m.n_cells)[:, None, None] * np.outer(d, d))
        matrix = ops.free_flux_matrix(blocks)
        rhs = rng.standard_normal(len(ops.free_q))
        x = SparseFactor(matrix, ops.flux_order, symmetric=True).solve(rhs)
        a = natural(matrix, ops.flux_order)
        error = np.linalg.norm(a @ x - rhs) / (
            np.linalg.norm(rhs) + abs(a).sum(axis=1).max() * np.linalg.norm(x))
        assert error <= 1e-12
