import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porosplit import constitutive as laws
from porosplit.fem import LinearSolveError, SparseFactor, assemble, nested_dissection
from porosplit.mesh import MeshAlignmentError, RectMesh
from porosplit.model import newton_blocks
from porosplit.schemes import fixed_stress_beta, fsl_local_iteration, newton_iteration

from conftest import LAM, MU, natural, setup_problem
from oracles import dense_flux_mass


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

    @pytest.mark.parametrize("Lx, Ly", [(0.0, 1.0), (1.0, -1.0), (np.nan, 1.0), (1.0, np.nan)])
    def test_invalid_lengths_rejected(self, Lx, Ly):
        with pytest.raises(ValueError, match="positive"):
            RectMesh(2, 2, Lx, Ly, 0.0)

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

    @pytest.mark.parametrize("mu, lam", [(0.0, LAM), (MU, -1.0), (np.nan, LAM), (MU, np.nan)])
    def test_invalid_lame_parameters_rejected(self, mu, lam):
        with pytest.raises(ValueError, match="require mu > 0"):
            assemble(RectMesh(2, 2, 1, 1, 0.5), mu, lam)

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
        # the action K(w) q against the brute-force matrix, column by column
        # and on a random q; the second mesh has other cell sides on a
        # non-unit domain and a cell of weight 0
        for m, zero_cell in ((RectMesh(3, 2, 1.0, 1.0, 0.0), None),
                             (RectMesh(4, 3, 2.0, 0.6, 0.5), 5)):
            ops = assemble(m, MU, LAM)
            w = rng.uniform(0.5, 2.0, m.n_cells)
            if zero_cell is not None:
                w[zero_cell] = 0.0
            dense = np.zeros((m.n_edges, m.n_edges))
            local = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]) * m.cell_area
            for c in range(m.n_cells):
                for pair in ((0, 1), (2, 3)):
                    idx = m.cell_edges[c, list(pair)]
                    dense[np.ix_(idx, idx)] += w[c] * local
            columns = np.column_stack([ops.weighted_flux_mass(w, e) for e in np.eye(m.n_edges)])
            assert np.abs(columns - dense).max() < 1e-15
            q = rng.uniform(-1.0, 1.0, m.n_edges)
            assert np.abs(ops.weighted_flux_mass(w, q) - dense @ q).max() < 1e-15
            unweighted = ops.weighted_flux_mass(np.ones(m.n_cells), q)
            assert np.abs(ops.M_q @ q - unweighted).max() < 1e-15

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

    def test_equilibration_matches_the_sparse_matrix_formula(self, rng, monkeypatch):
        # rows and columns spanning many orders of magnitude, one empty row
        # and one empty column; the matrix is singular, so the LU itself
        # is left out
        dense = (rng.standard_normal((40, 40)) * (rng.random((40, 40)) < 0.15)
                 * 10.0 ** rng.uniform(-8, 8, (40, 1)) * 10.0 ** rng.uniform(-4, 4, 40))
        dense[7, :] = 0.0
        dense[:, 23] = 0.0
        a = sp.csc_array(dense)
        monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: None)
        factor = SparseFactor(a, np.arange(40))
        row_max = abs(a).max(axis=1).toarray().ravel()
        dr = 1.0 / np.sqrt(np.where(row_max > 0, row_max, 1.0))
        col_max = abs(sp.diags_array(dr) @ a).max(axis=0).toarray().ravel()
        dc = 1.0 / np.sqrt(np.where(col_max > 0, col_max, 1.0))
        assert dr[7] == dc[23] == 1.0
        assert np.array_equal(factor._dr, dr)
        assert np.array_equal(factor._dc, dc)

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
        full = dense_flux_mass(ops, w) + (cols @ ops.D_pq).toarray()
        expected = full[np.ix_(ops.free_q, ops.free_q)]
        got = natural(ops.flux_pattern.matrix(blocks), ops.flux_order).toarray()
        assert np.abs(got - expected).max() < 1e-14


def coupled_dofs(ops):
    """Each cell's dofs [pressure, cell_edges, x then y of cell_nodes] in
    the full numbering [p | q | u], and the free dofs [p | q_free |
    u_free] in it."""
    mesh = ops.mesh
    nc, ne, nn = mesh.n_cells, mesh.n_edges, mesh.n_nodes
    cn = mesh.cell_nodes
    dofs = np.concatenate([np.arange(nc)[:, None], nc + mesh.cell_edges,
                           nc + ne + cn, nc + ne + nn + cn], axis=1)
    free = np.concatenate([np.arange(nc), nc + ops.free_q, nc + ne + ops.free_u])
    return dofs, free


class TestCellPattern:
    def test_coupled_matrix_matches_dense_assembly(self, rng):
        # random 13x13 blocks summed densely over the structural nonzeros
        # (no q-u coupling, RT0 mass pairs only) and the free dofs, plus
        # the constrained stiffness
        m = RectMesh(4, 3, 1, 1, 0.25)
        ops = assemble(m, MU, LAM)
        dofs, free = coupled_dofs(ops)
        blocks = rng.uniform(1.0, 2.0, (m.n_cells, 13, 13))
        kept = blocks.copy()
        kept[:, 1:5, 5:] = kept[:, 5:, 1:5] = 0.0
        kept[:, 1:5, 1:5] *= ops.local_flux_mass != 0
        dense = np.zeros((m.n_cells + m.n_edges + 2 * m.n_nodes,) * 2)
        np.add.at(dense, (dofs[:, :, None], dofs[:, None, :]), kept)
        expected = dense[np.ix_(free, free)]
        n_uf = len(ops.free_u)
        expected[-n_uf:, -n_uf:] += ops.A_ff.toarray()
        got = natural(ops.coupled_pattern.matrix(blocks), ops.order).toarray()
        assert np.abs(got - expected).max() < 1e-13

    def test_coupled_pattern_stores_no_flux_displacement_entry(self):
        m = RectMesh(25, 25, 1, 1, 0.2)
        ops = assemble(m, MU, LAM)
        matrix = ops.coupled_pattern.matrix(np.ones((m.n_cells, 13, 13)))
        assert matrix.nnz == 40149
        rows, cols = natural(matrix, ops.order).nonzero()
        # kind 0, 1, 2 for p, q, u: only a q-u pair sums to 3
        kind = np.repeat([0, 1, 2], [m.n_cells, len(ops.free_q), len(ops.free_u)])
        assert not np.any(kind[rows] + kind[cols] == 3)

    def test_masked_and_constrained_entries_are_dropped(self, rng):
        m = RectMesh(5, 4, 1, 1, 0.2)
        ops = assemble(m, MU, LAM)
        dofs, free = coupled_dofs(ops)
        is_free = np.zeros(m.n_cells + m.n_edges + 2 * m.n_nodes, dtype=bool)
        is_free[free] = True
        outside = np.zeros((13, 13), dtype=bool)
        outside[1:5, 5:] = outside[5:, 1:5] = True
        outside[1:5, 1:5] = ops.local_flux_mass == 0
        constrained = ~is_free[dofs]
        dropped = outside | constrained[:, :, None] | constrained[:, None, :]
        is_free_edge = is_free[m.n_cells + m.cell_edges]
        cases = [
            (ops.coupled_pattern, dropped),
            (ops.flux_pattern, ~is_free_edge[:, :, None] | ~is_free_edge[:, None, :]),
        ]
        for pattern, drop in cases:
            assert drop.any()
            blocks = rng.uniform(1.0, 2.0, drop.shape)
            noisy = np.where(drop, rng.uniform(-1e6, 1e6, drop.shape), blocks)
            assert np.array_equal(pattern.matrix(noisy).data, pattern.matrix(blocks).data)


class TestNestedDissection:
    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 4), (5, 3), (8, 8)])
    def test_orderings_are_permutations(self, nx, ny):
        ops = assemble(RectMesh(nx, ny, 1.0, 1.0, 1.0), MU, LAM)
        n_p, n_qf, n_uf = ops.mesh.n_cells, len(ops.free_q), len(ops.free_u)
        for order, n in ((ops.order, n_p + n_qf + n_uf), (ops.flux_order, n_qf),
                         (ops.elastic_order, n_uf)):
            assert np.array_equal(np.sort(order), np.arange(n))

    @pytest.mark.parametrize("nx, ny", [(1, 4), (5, 3), (8, 8), (16, 5), (25, 25)])
    def test_pressure_follows_its_last_free_edge(self, nx, ny):
        mesh = RectMesh(nx, ny, 1.0, 1.0, 1.0)
        ops = assemble(mesh, MU, LAM)
        nc, n_qf = mesh.n_cells, len(ops.free_q)
        position = np.argsort(ops.order)
        edge_position = np.full(mesh.n_edges, -1)
        edge_position[ops.free_q] = position[nc:nc + n_qf]
        for cell, edges in enumerate(mesh.cell_edges):
            last = edge_position[edges].max()
            assert last >= 0
            assert position[cell] > last
            assert np.all(ops.order[last + 1:position[cell]] < nc)
        assert np.array_equal(ops.flux_order, ops.order[(ops.order >= nc)
                                                         & (ops.order < nc + n_qf)] - nc)
        assert np.array_equal(ops.elastic_order, ops.order[ops.order >= nc + n_qf] - nc - n_qf)

    def test_newton_factor_pivots_on_the_diagonal(self):
        # 25x25 test1, first two Newton iterates of step 1: every pressure
        # pivot holds the fill of its edges when it is eliminated
        mesh, ops, params, init = setup_problem(25, 25)
        state = init
        for _ in range(2):
            state, _, _ = newton_iteration(state, init, params, ops)
            matrix, _, _ = newton_blocks(state, init, params, ops)
            lu = SparseFactor(matrix, ops.order).lu
            assert np.array_equal(lu.perm_r, np.arange(matrix.shape[0]))

    @pytest.mark.parametrize("nx, ny", [(8, 8), (16, 5)])
    def test_no_entry_couples_the_halves_of_a_bisection(self, nx, ny, rng):
        mesh = RectMesh(nx, ny, 1.0, 1.0, 1.0)
        ops = assemble(mesh, MU, LAM)
        nc, n_qf = mesh.n_cells, len(ops.free_q)
        # half-grid coordinates of the coupled free dofs [p | q_free |
        # u_free]: cells odd/odd, edges mixed, nodes even/even
        c, v, h, k = (np.arange(n) for n in (nc, mesh.n_vedges, mesh.n_hedges, mesh.n_nodes))
        edge_xy = np.concatenate([np.column_stack([2 * (v % (nx + 1)), 2 * (v // (nx + 1)) + 1]),
                                  np.column_stack([2 * (h % nx) + 1, 2 * (h // nx)])])
        node_xy = np.column_stack([2 * (k % (nx + 1)), 2 * (k // (nx + 1))])
        xy = np.concatenate([np.column_stack([2 * (c % nx) + 1, 2 * (c // nx) + 1]),
                             edge_xy[ops.free_q], np.tile(node_xy, (2, 1))[ops.free_u]])
        order, bisections = nested_dissection(xy)
        coupled = ops.coupled_pattern.matrix(rng.uniform(1.0, 2.0, (nc, 13, 13)))
        flux = ops.flux_pattern.matrix(rng.uniform(1.0, 2.0, (nc, 4, 4)))
        # nonzero positions of each pattern in the coupled numbering
        # [p | q_free | u_free]
        entries = [
            (np.asarray(i) + offset, np.asarray(j) + offset)
            for (i, j), offset in ((natural(coupled, ops.order).nonzero(), 0),
                                   (natural(flux, ops.flux_order).nonzero(), nc),
                                   (ops.A_ff.nonzero(), nc + n_qf))
        ]
        assert len(bisections) >= 3
        for start, mid, stop in bisections:
            side = np.zeros(len(order), dtype=int)
            side[order[start:mid]] = 1
            side[order[mid:stop]] = 2
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
        flux = ops.flux_pattern.matrix(kinv[:, None, None] * ops.local_flux_mass
                                       + (params.tau / cpp)[:, None, None] * np.outer(d, d))
        coupled, _, _ = newton_blocks(state, init, params, ops)
        eo = ops.elastic_order
        cases = [
            (flux, ops.flux_order, True),
            (coupled, ops.order, False),
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
        matrix = ops.flux_pattern.matrix(blocks)
        rhs = rng.standard_normal(len(ops.free_q))
        x = SparseFactor(matrix, ops.flux_order, symmetric=True).solve(rhs)
        a = natural(matrix, ops.flux_order)
        error = np.linalg.norm(a @ x - rhs) / (
            np.linalg.norm(rhs) + abs(a).sum(axis=1).max() * np.linalg.norm(x))
        assert error <= 1e-12
