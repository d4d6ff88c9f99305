import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from porosplit import constitutive as laws
from porosplit import fem, schemes
from porosplit.fem import LinearSolveError, SparseFactor, assemble, nested_dissection
from porosplit.mesh import MeshAlignmentError, RectMesh
from porosplit.schemes import (fixed_stress_beta, fsl_local_iteration, fsmp_iteration,
                               newton_blocks, newton_iteration, split_iteration)

from conftest import LAM, MU, backward_error, natural, setup_problem
from oracles import (band_cholesky_solve, constrained_stiffness, dense_flux_mass, full_stiffness,
                     recursive_dissection)


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

    def test_half_grid_coordinates(self):
        # each cell's edges (W, E, S, N) and nodes (SW, SE, NE, NW) lie one
        # half-grid step from the cell; the coordinates scale to positions
        m = RectMesh(13, 37, 2.6, 1.0, 0.2)
        for xy, dofs, steps in ((m.edge_xy, m.cell_edges, [(-1, 0), (1, 0), (0, -1), (0, 1)]),
                                (m.node_xy, m.cell_nodes, [(-1, -1), (1, -1), (1, 1), (-1, 1)])):
            assert np.array_equal(xy[dofs] - m.cell_xy[:, None],
                                  np.broadcast_to(steps, (m.n_cells, 4, 2)))
        half = np.array([m.hx, m.hy]) / 2
        np.testing.assert_allclose(m.cell_xy * half, m.cell_centers, rtol=1e-14)
        np.testing.assert_allclose(m.node_xy * half, m.node_coords, rtol=1e-14, atol=1e-15)
        assert len(m.edge_xy) == m.n_edges

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
            assert abs(mode @ (full_stiffness(ops) @ mode)) < 1e-12

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
        for name in ("M_q", "D_pq", "D_pu", "stiffness", "M_u"):
            diff = getattr(a, name) - getattr(b, name)
            assert abs(diff).max() == 0.0

    def test_public_arrays_are_read_only(self):
        # every public array, and every matrix's data, indices and indptr,
        # with the Newton attributes built
        ops = assemble(RectMesh(5, 5, 1, 1, 0.2), MU, LAM)
        ops.hybrid_pattern, ops.hybrid_flux_inverse
        arrays = {}
        for name, value in vars(ops).items():
            if isinstance(value, np.ndarray) and not name.startswith("_"):
                arrays[name] = value
            elif isinstance(value, sp.sparray):
                arrays.update({f"{name}.{part}": getattr(value, part)
                               for part in ("data", "indices", "indptr")})
        named = {"M_p", "local_flux_mass", "local_divergence", "local_displacement_divergence",
                 "local_stiffness", "free_q", "fixed_q", "free_u", "fixed_u", "order",
                 "flux_order", "hybrid_dofs", "hybrid_flux_inverse"}
        matrices = {f"{m}.{part}" for m in ("M_q", "D_pq", "D_pu", "D_pq_f", "M_u", "stiffness",
                                            "D_pq_T", "D_pu_T")
                    for part in ("data", "indices", "indptr")}
        assert set(arrays) == named | matrices
        for a in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] += 1

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
        a = constrained_stiffness(ops)
        x = rng.standard_normal(len(ops.free_u))
        assert x @ (a @ x) > 0
        assert abs(a - a.T).max() <= 1e-14 * abs(a).max()


class TestSolvers:
    def test_identity(self):
        r = np.array([3.0, -1.0, 2.0])
        assert SparseFactor(sp.eye_array(3), np.arange(3)).solve(r) == pytest.approx(r)

    def test_diagonal(self):
        factor = SparseFactor(sp.csr_array(np.diag([2.0, 4.0])), np.arange(2))
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
        x = SparseFactor(sp.csr_array(a), np.arange(50)).solve(rhs)
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

    def test_caller_matrix_is_left_as_given(self, rng):
        # the 25x25 constrained stiffness in a shuffled order has unsorted
        # row indices: SuperLU factors a sorted copy, and a Cholesky
        # analysis built on the caller's pattern before still factors the
        # caller's matrix
        ops = assemble(RectMesh(25, 25, 1.0, 1.0, 1.0), MU, LAM)
        order = rng.permutation(len(ops.free_u))
        stiffness = ops.stiffness[order][:, order]
        indices = stiffness.indices.copy()
        analysis = fem._Supernodes(stiffness.indices, stiffness.indptr, np.unique([0, len(order)]))
        assert not stiffness.has_sorted_indices
        lu = SparseFactor(stiffness, order)
        assert np.array_equal(stiffness.indices, indices)
        rhs = rng.standard_normal(len(order))
        x = fem._AnalysedFactor(stiffness, order, analysis).solve(rhs)
        y = lu.solve(rhs)
        assert np.max(np.abs(x - y)) <= 1e-10 * np.max(np.abs(y))
        # a matrix already in canonical form is factored as it is, uncopied
        flux = ops.flux_pattern.matrix(np.tile(ops.local_flux_mass, (ops.mesh.n_cells, 1, 1)))
        assert SparseFactor(flux, ops.flux_order).matrix is flux

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


def hybrid_dofs(ops):
    """Each cell's dofs [cell_edges, x then y of cell_nodes] in the full
    numbering [q | u], and Newton's condensed dofs [q_free | u_free] in it."""
    mesh = ops.mesh
    ne, nn = mesh.n_edges, mesh.n_nodes
    cn = mesh.cell_nodes
    dofs = np.concatenate([mesh.cell_edges, ne + cn, ne + nn + cn], axis=1)
    free = np.concatenate([ops.free_q, ne + ops.free_u])
    return dofs, free


class TestCellPattern:
    def test_hybrid_matrix_matches_dense_assembly(self, rng):
        # random 12x12 blocks summed densely over the free dofs, plus the
        # constrained stiffness
        m = RectMesh(4, 3, 1, 1, 0.25)
        ops = assemble(m, MU, LAM)
        dofs, free = hybrid_dofs(ops)
        assert np.array_equal(free[ops.hybrid_dofs[ops.hybrid_dofs < len(free)]],
                              dofs[ops.hybrid_dofs < len(free)])
        blocks = rng.uniform(1.0, 2.0, (m.n_cells, 12, 12))
        dense = np.zeros((m.n_edges + 2 * m.n_nodes,) * 2)
        np.add.at(dense, (dofs[:, :, None], dofs[:, None, :]), blocks)
        expected = dense[np.ix_(free, free)]
        n_uf = len(ops.free_u)
        expected[-n_uf:, -n_uf:] += constrained_stiffness(ops).toarray()
        got = natural(ops.hybrid_pattern.matrix(blocks), ops.order).toarray()
        assert np.abs(got - expected).max() < 1e-13

    def test_hybrid_matrix_holds_the_traces_and_displacements(self):
        # 25x25: one trace per free edge and the free displacements, 2474
        # dofs against the coupled matrix's 3099
        m = RectMesh(25, 25, 1, 1, 0.2)
        ops = assemble(m, MU, LAM)
        matrix = ops.hybrid_pattern.matrix(np.ones((m.n_cells, 12, 12)))
        assert matrix.shape == (2474, 2474) == (len(ops.free_q) + len(ops.free_u),) * 2
        assert matrix.nnz == 57700

    def test_masked_and_constrained_entries_are_dropped(self, rng):
        m = RectMesh(5, 4, 1, 1, 0.2)
        ops = assemble(m, MU, LAM)
        dofs, free = hybrid_dofs(ops)
        is_free = np.zeros(m.n_edges + 2 * m.n_nodes, dtype=bool)
        is_free[free] = True
        constrained = ~is_free[dofs]
        is_free_edge = is_free[m.cell_edges]
        cases = [
            (ops.hybrid_pattern, constrained[:, :, None] | constrained[:, None, :]),
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
        n_qf, n_uf = len(ops.free_q), len(ops.free_u)
        for order, n in ((ops.order, n_qf + n_uf), (ops.flux_order, n_qf)):
            assert np.array_equal(np.sort(order), np.arange(n))

    @pytest.mark.parametrize("nx, ny", [(1, 4), (5, 3), (8, 8), (16, 5), (25, 25)])
    def test_orders_restrict_the_dissection(self, nx, ny):
        # Newton's ordering is the nested dissection of its dofs
        # [q_free | u_free], which takes the displacements node by node; the
        # flux ordering keeps the relative order of its dofs in it
        mesh = RectMesh(nx, ny, 1.0, 1.0, 1.0)
        ops = assemble(mesh, MU, LAM)
        n_qf = len(ops.free_q)
        node_major = np.lexsort((ops.free_u // mesh.n_nodes, ops.free_u % mesh.n_nodes))
        xy = np.concatenate([mesh.edge_xy[ops.free_q], np.tile(mesh.node_xy, (2, 1))[ops.free_u]])
        entry = np.concatenate([np.arange(n_qf), n_qf + node_major])
        order = entry[nested_dissection(xy[entry], fem.LEAF_SIZE)[0]]
        assert np.array_equal(ops.order, order)
        assert np.array_equal(ops.flux_order, order[order < n_qf])

    @pytest.mark.parametrize("nx, ny", [(1, 1), (8, 8), (16, 5), (13, 37), (25, 25), (100, 100)])
    def test_matches_the_recursive_dissection(self, nx, ny):
        # bisecting a level's boxes at once gives the recursion's order and
        # pieces bit for bit: on Newton's dofs as the operators enter them,
        # on the free dofs [p | q_free | u_free], and with leaves of one dof
        mesh = RectMesh(nx, ny, 1.0, 1.0, 1.0)
        ops = assemble(mesh, MU, LAM)
        n_qf = len(ops.free_q)
        node_major = np.lexsort((ops.free_u // mesh.n_nodes, ops.free_u % mesh.n_nodes))
        free = np.concatenate([mesh.edge_xy[ops.free_q], np.tile(mesh.node_xy, (2, 1))[ops.free_u]])
        newton = free[np.concatenate([np.arange(n_qf), n_qf + node_major])]
        for xy in (newton, np.concatenate([mesh.cell_xy, free])):
            for leaf_size in (fem.LEAF_SIZE, 1):
                order, pieces = nested_dissection(xy, leaf_size)
                expected_order, expected_pieces = recursive_dissection(xy, leaf_size)
                assert order.dtype == expected_order.dtype and pieces.dtype == expected_pieces.dtype
                assert np.array_equal(order, expected_order)
                assert np.array_equal(pieces, expected_pieces)

    def test_dissection_of_no_dofs(self):
        order, pieces = nested_dissection(np.zeros((0, 2), dtype=int), fem.LEAF_SIZE)
        assert order.shape == (0,) and pieces.shape == (0, 4)

    def test_newton_factor_pivots_on_the_diagonal(self):
        # 25x25 test1, first two Newton iterates of step 1: the condensed
        # matrix's LU takes every pivot on the diagonal
        mesh, ops, params, init = setup_problem(25, 25)
        state = init
        for _ in range(2):
            state, _, _ = newton_iteration(state, init, params, ops)
            matrix, *_ = newton_blocks(state, init, params, ops)
            lu = SparseFactor(matrix, ops.order).lu
            assert np.array_equal(lu.perm_r, np.arange(matrix.shape[0]))

    def test_stiffness_factor_pivots_on_the_diagonal(self):
        # past the band sizes too, the constant stiffness takes no general
        # LU: the band Cholesky of its transformed form pivots on the
        # diagonal, every pivot positive
        for n in (60, 100):
            ops = assemble(RectMesh(n, n, 1.0, 1.0, 1.0), MU, LAM)
            factor = ops._elastic_factor
            assert not hasattr(factor, "lu")
            pivots = factor._factor[0]
            assert np.all(np.isfinite(pivots) & (pivots > 0))

    @pytest.mark.parametrize("nx, ny", [(25, 25), (13, 37), (50, 50)])
    def test_band_stiffness_solves_without_refinement(self, nx, ny, rng):
        ops = assemble(RectMesh(nx, ny, 1.0, 1.0, 1.0), MU, LAM)
        factor = ops._elastic_factor
        rhs = rng.standard_normal(len(ops.free_u))
        # one application of the factor, no refinement step
        assert backward_error(factor.matrix, factor._raw_solve(rhs), rhs) <= 1e-12

    @pytest.mark.parametrize("nx, ny", [(8, 8), (16, 5)])
    def test_no_entry_couples_the_halves_of_a_bisection(self, nx, ny, rng):
        mesh = RectMesh(nx, ny, 1.0, 1.0, 1.0)
        ops = assemble(mesh, MU, LAM)
        nc, n_qf = mesh.n_cells, len(ops.free_q)
        # half-grid coordinates of the free dofs [p | q_free | u_free]
        xy = np.concatenate([mesh.cell_xy, mesh.edge_xy[ops.free_q],
                             np.tile(mesh.node_xy, (2, 1))[ops.free_u]])
        hybrid = ops.hybrid_pattern.matrix(rng.uniform(1.0, 2.0, (nc, 12, 12)))
        flux = ops.flux_pattern.matrix(rng.uniform(1.0, 2.0, (nc, 4, 4)))
        # nonzero positions of each pattern in the numbering
        # [p | q_free | u_free]
        entries = [
            (np.asarray(i) + offset, np.asarray(j) + offset)
            for (i, j), offset in ((natural(hybrid, ops.order).nonzero(), nc),
                                   (natural(flux, ops.flux_order).nonzero(), nc),
                                   (constrained_stiffness(ops).nonzero(), nc + n_qf))
        ]
        order, pieces = nested_dissection(xy, fem.LEAF_SIZE)
        # a separator's row (first, mid, start, stop) holds the two halves it
        # separates, order[first:mid] and order[mid:start]
        bisections = pieces[pieces[:, 0] < pieces[:, 2], :3]
        assert len(bisections) >= 3
        for start, mid, stop in bisections:
            side = np.zeros(len(order), dtype=int)
            side[order[start:mid]] = 1
            side[order[mid:stop]] = 2
            for rows, cols in entries:
                assert not np.any(side[rows] * side[cols] == 2)

    def test_fill_no_larger_than_with_superlu_orderings(self):
        # 25x25 test1 at an iterate inside the first step: the FSL flux-only
        # matrix, the Newton matrix and the constrained stiffness in the
        # dissection's restriction to the displacements
        mesh, ops, params, init = setup_problem(25, 25)
        state = init
        for _ in range(2):
            state, _, _ = fsl_local_iteration(state, init, params, ops)
        kinv = 1.0 / laws.mobility(state.saturation(params), params.vg)
        cpp = ops.M_p * fixed_stress_beta(ops.mu, ops.lam, params.alpha)
        d = ops.local_divergence
        flux = ops.flux_pattern.matrix(kinv[:, None, None] * ops.local_flux_mass
                                       + (params.tau / cpp)[:, None, None] * np.outer(d, d))
        hybrid, *_ = newton_blocks(state, init, params, ops)
        n_qf = len(ops.free_q)
        displacements = ops.order[ops.order >= n_qf] - n_qf
        cases = [
            (flux, ops.flux_order, True),
            (hybrid, ops.order, False),
            (ops.stiffness[displacements][:, displacements], displacements, True),
        ]
        for matrix, order, spd in cases:
            lu = SparseFactor(matrix, order).lu
            a = natural(matrix, order).tocsc()
            options = {}
            if spd:
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
        x = ops.flux_factor(matrix, True).solve(rhs)
        a = natural(matrix, ops.flux_order)
        error = np.linalg.norm(a @ x - rhs) / (
            np.linalg.norm(rhs) + abs(a).sum(axis=1).max() * np.linalg.norm(x))
        assert error <= 1e-12


SEPARABLE_MESHES = [(1, 1, 1.0, 1.0), (1, 4, 1.0, 1.0), (4, 1, 1.0, 1.0), (2, 3, 1.0, 1.0),
                    (13, 37, 2.0, 0.7), (25, 25, 1.0, 1.0), (100, 100, 1.0, 1.0)]


class TestSeparableStiffness:
    """The constant stiffness is solved by fast diagonalization on every
    mesh: sines and cosines in x, one band per x-mode in y."""

    @pytest.mark.parametrize("nx, ny, lx, ly", SEPARABLE_MESHES)
    def test_one_application_meets_the_contract(self, nx, ny, lx, ly, rng):
        ops = assemble(RectMesh(nx, ny, lx, ly, 0.0), MU, LAM)
        stiffness = constrained_stiffness(ops)
        factor = ops._elastic_factor
        rhs = rng.standard_normal(len(ops.free_u))
        # one application, no refinement step, against the assembled
        # constrained stiffness; and the same solution as SuperLU's
        x = factor._raw_solve(rhs)
        assert backward_error(stiffness, x, rhs) <= 1e-12
        y = spla.splu(stiffness.tocsc()).solve(rhs)
        assert np.max(np.abs(x - y)) <= 1e-10 * np.max(np.abs(y))
        assert np.array_equal(factor.solve(rhs), x)

    @pytest.mark.parametrize("nx, ny, lx, ly", SEPARABLE_MESHES)
    def test_builds_no_general_or_supernodal_factor(self, nx, ny, lx, ly, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sparse factor built at assembly")

        supernodes = fem._Supernodes
        monkeypatch.setattr(fem.spla, "splu", refuse)
        monkeypatch.setattr(fem, "_Supernodes", refuse)
        factor = assemble(RectMesh(nx, ny, lx, ly, 0.0), MU, LAM)._elastic_factor
        assert not hasattr(factor, "lu")
        assert not any(isinstance(v, supernodes) for v in vars(factor).values())

    def test_solver_data_is_read_only(self):
        factor = assemble(RectMesh(6, 5, 1.0, 1.0, 0.0), MU, LAM)._elastic_factor
        arrays = [factor._factor, factor._band] + [a for pair in factor._transforms for a in pair]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] += 1.0

    def test_failed_band_factor_is_a_singular_stiffness(self, monkeypatch):
        def not_positive(ab, **kwargs):
            return ab, 3

        monkeypatch.setattr(fem.lapack, "dpbtrf", not_positive)
        with pytest.raises(ValueError, match="constrained elasticity block is singular"):
            assemble(RectMesh(4, 4, 1.0, 1.0, 0.0), MU, LAM)

    @pytest.mark.parametrize("n", [25, 60])
    def test_constrained_stiffness_and_newton_constants_are_read_only(self, n):
        # the stiffness is the momentum residual's matrix, the elastic
        # factor's and Newton's constant; a banded mesh and one past the band
        mesh, ops, params, init = setup_problem(n, n)
        stiffness = ops.stiffness
        assert ops._elastic_factor.matrix is stiffness
        arrays = (stiffness.data, stiffness.indices, stiffness.indptr)
        ops.elastic_solve(np.ones(len(ops.free_u)))
        assert ops.hybrid_pattern.n == len(ops.order)
        newton_iteration(init, init, params, ops)
        for a in arrays + (ops.hybrid_dofs, ops.hybrid_flux_inverse):
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] += 1
        # after the solves, the bytes of the slice of the full stiffness
        # that it is, canonical CSC
        built = constrained_stiffness(ops)
        assert stiffness.has_canonical_format
        for a, b in zip(arrays, (built.data, built.indices, built.indptr)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def captured_flux_matrices(ops, step, monkeypatch):
    """The SPD matrices ``step()`` hands to ``ops.flux_factor``."""
    seen = []
    factor = ops.flux_factor

    def capture(matrix, spd):
        if spd:
            seen.append(matrix)
        return factor(matrix, spd)

    monkeypatch.setattr(ops, "flux_factor", capture)
    step()
    monkeypatch.undo()
    return seen


def both_analyses(ops):
    """Two Cholesky analyses of the flux pattern: one band leaf, as on a
    banded mesh, and the dissection's fronts, as beyond the band."""
    pattern = ops.flux_pattern
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fem, "_BAND_ENTRIES", -1.0)
        bounds = assemble(ops.mesh, ops.mu, ops.lam)._flux_supernodes
    return tuple(fem._Supernodes(pattern._indices, pattern._indptr, b)
                 for b in (np.unique([0, len(ops.free_q)]), bounds))


class TestFluxCholesky:
    @pytest.mark.parametrize("nx, ny", [(25, 25), (50, 50), (13, 37), (60, 60)])
    @pytest.mark.parametrize("scheme", ["fsl", "fsmp"])
    def test_backward_error_without_refinement(self, nx, ny, scheme, rng, monkeypatch):
        mesh, ops, params, init = setup_problem(nx, ny, width=1.0)
        step = {"fsl": lambda: fsl_local_iteration(init, init, params, ops),
                "fsmp": lambda: fsmp_iteration(init, init, params, ops)}[scheme]
        (matrix,) = captured_flux_matrices(ops, step, monkeypatch)
        rhs = rng.standard_normal(matrix.shape[0])
        y = SparseFactor(matrix, ops.flux_order).solve(rhs[np.argsort(ops.flux_order)])
        for analysis in both_analyses(ops):
            factor = fem._AnalysedFactor(matrix, ops.flux_order, analysis)
            # one application of the factor, no refinement step
            assert backward_error(matrix, factor._raw_solve(rhs), rhs) <= 1e-12
            x = factor.solve(rhs[np.argsort(ops.flux_order)])
            assert np.max(np.abs(x - y)) <= 1e-10 * np.max(np.abs(y))

    @pytest.mark.parametrize("nx, ny, banded", [(25, 25, True), (13, 37, True), (40, 40, True),
                                                (50, 50, True), (60, 60, False),
                                                (100, 100, False)])
    def test_factors_follow_the_stiffness_band(self, nx, ny, banded):
        ops = assemble(RectMesh(nx, ny, 1.0, 1.0, 1.0), MU, LAM)
        stiffness = constrained_stiffness(ops)
        band = fem._Band(stiffness.indices, stiffness.indptr)
        assert (len(ops.free_u) * band.kd <= fem._BAND_ENTRIES) is banded
        d = ops.local_divergence
        matrix = ops.flux_pattern.matrix(np.tile(ops.local_flux_mass + np.outer(d, d),
                                                 (ops.mesh.n_cells, 1, 1)))
        factors = {"spd flux": ops.flux_factor(matrix, True),
                   "general flux": ops.flux_factor(matrix, False)}
        # the SPD flux factor is the supernodal Cholesky, one band leaf on a
        # banded mesh; the general flux factor is the band LU there.
        # Beyond the band the general flux factor takes SuperLU
        cholesky, superlu = (fem._AnalysedFactor, fem._Supernodes), (SparseFactor, None)
        expected = {"spd flux": cholesky,
                    "general flux": (fem._AnalysedFactor, fem._Band) if banded else superlu}
        got = {name: (type(f), type(f._analysis) if hasattr(f, "_analysis") else None)
               for name, f in factors.items()}
        assert got == expected
        for factor in factors.values():
            if isinstance(getattr(factor, "_analysis", None), fem._Supernodes):
                leaves = [kd for _, _, _, kd, *_ in factor._analysis.nodes if kd is not None]
                assert (len(factor._analysis.nodes) == len(leaves) == 1) is banded

    def test_single_cell_has_an_empty_flux_matrix(self):
        mesh, ops, params, init = setup_problem(1, 1, width=1.0)
        matrix = ops.flux_pattern.matrix(np.ones((1, 4, 4)))
        assert matrix.shape == (0, 0)
        factor = ops.flux_factor(matrix, True)
        assert factor._analysis is ops.flux_cholesky and ops.flux_cholesky.nodes == []
        assert factor.solve(np.zeros(0)).shape == (0,)
        state, inc, _ = fsl_local_iteration(init, init, params, ops)
        assert all(np.all(np.isfinite(f)) for f in (state.p, state.q, state.u, inc))

    def test_empty_pattern_has_no_front(self):
        analysis = fem._Supernodes(np.zeros(0, dtype=int), np.zeros(1, dtype=int), np.unique([0]))
        assert analysis.nodes == [] and len(analysis.perm) == 0
        factor = fem._AnalysedFactor(sp.csc_array((0, 0)), np.zeros(0, dtype=int), analysis)
        assert factor.solve(np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("matrix, nx, ny", [("flux", 25, 25), ("flux", 40, 40),
                                                ("flux", 50, 50), ("stiffness", 25, 25),
                                                ("stiffness", 13, 37), ("stiffness", 50, 50)])
    def test_one_leaf_is_the_band_cholesky(self, matrix, nx, ny, rng, monkeypatch):
        # the test1 step-1 FSL flux matrix and the constrained stiffness,
        # scaled to unit diagonal as their factors are: one band leaf
        # solves bit for bit as dpbtrf and dpbtrs in reverse Cuthill-McKee
        # order
        if matrix == "flux":
            mesh, ops, params, init = setup_problem(nx, ny)
            (a,) = captured_flux_matrices(
                ops, lambda: fsl_local_iteration(init, init, params, ops), monkeypatch)
        else:
            ops = assemble(RectMesh(nx, ny, 1.0, 1.0, 1.0), MU, LAM)
            a = ops.stiffness
        analysis = fem._Supernodes(a.indices, a.indptr, np.unique([0, a.shape[0]]))
        scale, _ = analysis.scaling(a)
        scaled = sp.csc_array((a.data * scale[a.indices] * np.repeat(scale, np.diff(a.indptr)),
                               a.indices, a.indptr), shape=a.shape)
        rhs = rng.standard_normal(a.shape[0])
        x = analysis.solve(analysis.factor(scaled.data), rhs.copy())
        assert np.array_equal(x, band_cholesky_solve(scaled, rhs))

    def test_newton_takes_superlu(self, monkeypatch):
        mesh, ops, params, init = setup_problem(10, 10)
        made = []
        monkeypatch.setattr(schemes, "SparseFactor",
                            lambda *a: made.append(SparseFactor(*a)) or made[-1])
        newton_iteration(init, init, params, ops)
        assert len(made) == 1 and type(made[0]) is SparseFactor

    def test_indefinite_matrix_with_positive_diagonal_raises(self):
        mesh, ops, params, init = setup_problem(4, 4, width=1.0)
        d = ops.local_divergence
        spd = ops.flux_pattern.matrix(np.tile(ops.local_flux_mass + np.outer(d, d),
                                              (mesh.n_cells, 1, 1)))
        dense = natural(spd, ops.flux_order).toarray()
        # shift the spectrum between its bottom and the smallest diagonal
        shift = 0.5 * (np.linalg.eigvalsh(dense)[0] + dense.diagonal().min())
        diagonal = spd.indices == np.repeat(np.arange(spd.shape[0]), np.diff(spd.indptr))
        data = spd.data - shift * diagonal
        matrix = sp.csc_array((data, spd.indices, spd.indptr), shape=spd.shape)
        assert np.all(matrix.diagonal() > 0)
        for analysis in both_analyses(ops):
            with pytest.raises(LinearSolveError, match="pivot"):
                fem._AnalysedFactor(matrix, ops.flux_order, analysis)

    @pytest.mark.parametrize("front", ["dense", "band leaf", "merged"])
    def test_indefinite_block_fails_at_its_pivot(self, front):
        # a 2x2 principal block {i, j} made indefinite with its diagonal
        # kept: the leading minors stay positive until the later of i and
        # j in the factor order, the pivot the error names
        n = 60 if front == "merged" else 20
        mesh, ops, params, init = setup_problem(n, n, width=1.0)
        d = ops.local_divergence
        spd = ops.flux_pattern.matrix(np.tile(ops.local_flux_mass + np.outer(d, d),
                                              (mesh.n_cells, 1, 1)))
        _, supernodes = both_analyses(ops)
        rank, rows = np.argsort(supernodes.perm), spd.indices
        cols = np.repeat(np.arange(spd.shape[0]), np.diff(spd.indptr))

        def pairs(b0, b1):
            return np.flatnonzero((rank[cols] >= b0) & (rank[cols] < b1)
                                  & (rank[rows] < rank[cols]))

        if front == "merged":
            # both in a front of folded separators, j in one that the fold
            # moved past other subtrees: j sits at position rank[j] != j,
            # and only the new perm names it
            pick = [p for b0, b1, _, kd, *_ in supernodes.nodes if kd is None
                    for p in pairs(b0, b1) if rank[rows[p]] >= b0 and rank[cols[p]] != cols[p]][0]
        else:
            # the root front is dense, the first front a band leaf
            b0, b1, _, kd, *_ = supernodes.nodes[-1 if front == "dense" else 0]
            assert (kd is None) == (front == "dense")
            pick = pairs(b0, b1)[0]
        i, j = rows[pick], cols[pick]
        data = spd.data.copy()
        data[[pick, np.flatnonzero((rows == j) & (cols == i))[0]]] = 2.0 * np.sqrt(
            data[supernodes.diagonal[i]] * data[supernodes.diagonal[j]])
        matrix = sp.csc_array((data, spd.indices, spd.indptr), shape=spd.shape)
        with pytest.raises(LinearSolveError, match=f"Cholesky pivot {j} is not positive"):
            fem._AnalysedFactor(matrix, ops.flux_order, supernodes)

    def test_leaf_with_no_rows_below_skips_dtbtrs(self, rng, monkeypatch):
        # below about 11x11 the whole flux matrix is one band leaf, and
        # dtbtrs with no right-hand side aborted the interpreter on scipy
        # 1.17.1
        mesh, ops, params, init = setup_problem(10, 10, width=1.0)
        d = ops.local_divergence
        matrix = ops.flux_pattern.matrix(np.tile(ops.local_flux_mass + np.outer(d, d),
                                                 (mesh.n_cells, 1, 1)))
        _, supernodes = both_analyses(ops)
        ((b0, b1, below, kd, *_),) = supernodes.nodes
        assert (b0, b1, len(below)) == (0, matrix.shape[0], 0) and kd is not None

        def no_dtbtrs(*args, **kwargs):
            raise AssertionError("dtbtrs called with no rows below")

        monkeypatch.setattr(fem.lapack, "dtbtrs", no_dtbtrs)
        factor = fem._AnalysedFactor(matrix, ops.flux_order, supernodes)
        rhs = rng.standard_normal(matrix.shape[0])
        assert backward_error(matrix, factor._raw_solve(rhs), rhs) <= 1e-12

    @pytest.mark.parametrize("n, parent_fronts", [(60, 63), (100, 255)])
    def test_merged_fronts_tile_a_permutation(self, n, parent_fronts):
        ops = assemble(RectMesh(n, n, 1.0, 1.0, 1.0), MU, LAM)
        supernodes, bounds = ops.flux_cholesky, ops._flux_supernodes
        assert isinstance(supernodes, fem._Supernodes)
        perm, size = supernodes.perm, len(ops.free_q)
        assert np.array_equal(np.sort(perm), np.arange(size))
        # the fronts tile the positions in order, each front's rows below
        # lie after its columns, and every dissection piece keeps its
        # columns together, inside one front
        ends = [(b0, b1) for b0, b1, *_ in supernodes.nodes]
        assert ends[0][0] == 0 and ends[-1][1] == size
        assert all(b1 == next_b0 for (_, b1), (next_b0, _) in zip(ends, ends[1:]))
        for b0, b1, below, *_ in supernodes.nodes:
            assert np.all(below >= b1) and len(np.unique(below)) == len(below)
        rank = np.argsort(perm)
        front = np.repeat(np.arange(len(ends)), [b1 - b0 for b0, b1 in ends])
        for p0, p1 in zip(bounds[:-1], bounds[1:]):
            where = np.sort(rank[p0:p1])
            assert where[-1] - where[0] == p1 - p0 - 1 and len(np.unique(front[where])) == 1
        # small separators fold into their parents: fewer fronts than
        # dissection pieces, and every folded front is dense
        assert len(supernodes.nodes) < parent_fronts == len(bounds) - 1
        for b0, b1, _, kd, *_ in supernodes.nodes:
            if len(np.unique(np.searchsorted(bounds, perm[b0:b1], side="right"))) > 1:
                assert kd is None

    def test_trimmed_leaf_panels_are_bitwise(self, monkeypatch):
        # a band leaf's rows below go in order of the first leaf column
        # they couple to, and dtbtrs solves each group of them on the
        # trailing band from the group's first: leading zeros give exact
        # zeros, so each L21 equals dtbtrs on all of the leaf's rows
        mesh, ops, params, init = setup_problem(60, 60, width=1.0)
        (matrix,) = captured_flux_matrices(
            ops, lambda: fsl_local_iteration(init, init, params, ops), monkeypatch)
        supernodes = ops.flux_cholesky
        factor = fem._AnalysedFactor(matrix, ops.flux_order, supernodes)
        scaled = sp.csc_array((matrix.data * factor._dr[matrix.indices]
                               * np.repeat(factor._dc, np.diff(matrix.indptr)), matrix.indices,
                               matrix.indptr), shape=matrix.shape)
        perm, trimmed, leaves = supernodes.perm, 0, 0
        for (b0, b1, below, kd, *_, groups), (l11, l21) in zip(supernodes.nodes, factor._factor):
            if kd is None or not len(below):
                continue
            leaves += 1
            rhs = scaled[perm[b0:b1]][:, perm[below]].toarray(order="F")
            first = np.argmax(rhs != 0, axis=0)
            assert np.all(np.diff(first) >= 0)
            trimmed += sum(s0 > 0 for s0, *_ in groups)
            reference = fem.lapack.dtbtrs(l11, rhs, uplo="L")[0]
            assert np.array_equal(l21.T, reference)
        assert leaves == 32 and trimmed > 0

    def test_negative_diagonal_entry_raises(self):
        mesh, ops, params, init = setup_problem(4, 4, width=1.0)
        spd = ops.flux_pattern.matrix(np.tile(ops.local_flux_mass, (mesh.n_cells, 1, 1)))
        data = spd.data.copy()
        data[ops.flux_cholesky.diagonal[3]] *= -1.0
        matrix = sp.csc_array((data, spd.indices, spd.indptr), shape=spd.shape)
        for analysis in both_analyses(ops):
            with pytest.raises(LinearSolveError, match="positive diagonal"):
                fem._AnalysedFactor(matrix, ops.flux_order, analysis)

    def test_negative_pressure_coefficient_takes_the_general_lu(self, monkeypatch, rng):
        # C < 0 in one cell: the flux matrix takes an LU, the band one on a
        # band analysis and SuperLU's otherwise
        mesh, ops, params, init = setup_problem(6, 6, width=1.0)
        cpp = np.full(mesh.n_cells, 2.0) * ops.M_p
        cpp[7] = -cpp[7]

        factors = []
        flux_factor = ops.flux_factor

        def general_only(matrix, spd):
            if spd:
                raise AssertionError("SPD factor used for an indefinite flux matrix")
            factors.append(flux_factor(matrix, spd))
            return factors[-1]

        monkeypatch.setattr(ops, "flux_factor", general_only)
        split_iteration(init, init, params, ops, cpp)
        (factor,) = factors
        assert type(factor) is fem._AnalysedFactor and factor.order is ops.flux_order
        assert isinstance(factor._analysis, fem._Band)
        rhs = rng.standard_normal(len(ops.free_q))
        # one application of the band LU meets the contract, no refinement
        assert backward_error(factor.matrix, factor._raw_solve(rhs), rhs) <= 1e-12
        x = factor.solve(rhs)
        y = SparseFactor(factor.matrix, ops.flux_order).solve(rhs)
        assert np.max(np.abs(x - y)) <= 1e-10 * np.max(np.abs(y))
        monkeypatch.setattr(ops, "_banded", False)
        assert type(flux_factor(factor.matrix, False)) is SparseFactor

    def test_singular_matrix_raises_in_the_band_lu(self):
        mesh, ops, params, init = setup_problem(4, 4, width=1.0)
        matrix = ops.flux_pattern.matrix(np.zeros((mesh.n_cells, 4, 4)))
        assert ops._banded
        with pytest.raises(LinearSolveError, match="band LU pivot"):
            ops.flux_factor(matrix, False)

    def test_analysis_is_built_once_on_first_use(self, monkeypatch):
        band, supernodes = fem._Band, fem._Supernodes
        built = []
        for name, kind in (("_Band", band), ("_Supernodes", supernodes)):
            monkeypatch.setattr(fem, name, lambda *a, kind=kind: built.append(kind(*a))
                                or built[-1])
        for n in (12, 60):
            ops = assemble(RectMesh(n, n, 1.0, 1.0, 1.0), MU, LAM)
            assert not {"flux_cholesky", "flux_band_lu"} & set(vars(ops))
            built.clear()
            for weight in (1.0, 2.0):
                matrix = ops.flux_pattern.matrix(weight * np.tile(
                    ops.local_flux_mass, (ops.mesh.n_cells, 1, 1)))
                ops.flux_factor(matrix, False)
                ops.flux_factor(matrix, True)
            # each analysis once; beyond the band the general factor is
            # SuperLU's, which builds none
            assert [type(a) for a in built] == ([band] if ops._banded else []) + [supernodes]
            assert built[-1] is ops.flux_cholesky
            assert not ops._banded or built[0] is ops.flux_band_lu


class TestRefinement:
    """``SparseFactor.solve`` refines a raw solve that misses SOLVE_TOL and
    raises when three refinement steps do not meet it.  The LU, the band
    LU and both Cholesky factors share that solve; all factor the same SPD
    flux matrix here, and the raw solve is perturbed on the instance."""

    @staticmethod
    def factor_of(kind):
        mesh, ops, params, init = setup_problem(6, 5, width=1.0)
        d = ops.local_divergence
        matrix = ops.flux_pattern.matrix(np.tile(ops.local_flux_mass + np.outer(d, d),
                                                 (mesh.n_cells, 1, 1)))
        _, supernodes = both_analyses(ops)
        factor = {"lu": lambda: SparseFactor(matrix, ops.flux_order),
                  "cholesky": lambda: ops.flux_factor(matrix, True),
                  "supernodal": lambda: fem._AnalysedFactor(matrix, ops.flux_order, supernodes),
                  "band_lu": lambda: ops.flux_factor(matrix, False)}[kind]()
        return factor, natural(matrix, ops.flux_order)

    @staticmethod
    def perturb(factor, change):
        """Replace the raw solve by ``change(raw(rhs))``; returns the list
        its calls are appended to."""
        raw, calls = factor._raw_solve, []
        factor._raw_solve = lambda rhs: calls.append(1) or change(raw(rhs))
        return calls

    @pytest.mark.parametrize("kind", ["lu", "cholesky", "supernodal", "band_lu"])
    def test_one_refinement_step_meets_the_contract(self, kind, rng):
        factor, a = self.factor_of(kind)
        noise = 1.0 + 1e-8 * rng.standard_normal(a.shape[0])
        calls = self.perturb(factor, lambda x: x * noise)
        rhs = rng.standard_normal(a.shape[0])
        x = factor.solve(rhs)
        # the raw solution missed SOLVE_TOL, one correction met it
        assert len(calls) == 2
        assert backward_error(a, x, rhs) <= fem.SOLVE_TOL

    @pytest.mark.parametrize("kind", ["lu", "cholesky", "supernodal", "band_lu"])
    def test_unmet_contract_raises_with_its_residual(self, kind, rng):
        factor, a = self.factor_of(kind)
        # each raw solve returns half the solution, so each step only
        # halves the error
        calls = self.perturb(factor, lambda x: 0.5 * x)
        with pytest.raises(LinearSolveError, match="direct solve reached") as err:
            factor.solve(rng.standard_normal(a.shape[0]))
        assert len(calls) == 4
        assert err.value.residual > fem.SOLVE_TOL
