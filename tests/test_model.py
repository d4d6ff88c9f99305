from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from porosplit import constitutive as laws
from porosplit import fem, schemes
from porosplit.anderson import AndersonConfig
from porosplit.fem import assemble
from porosplit.mesh import RectMesh
from porosplit.model import (
    PoroState,
    gravity_loads,
    inflow_rate,
    initial_state,
    porosity_increment,
    volume_conservation_gap,
)
from porosplit.schemes import (
    SchemeConfig,
    fsl_local_iteration,
    newton_blocks,
    run_time_step,
    run_transient,
)

from conftest import (
    LAM,
    MU,
    P0_HOELDER,
    P0_SMOOTH,
    hoelder_params,
    setup_problem,
    smooth_params,
)
from oracles import (
    DenseReducedProblem,
    ScaleGuardError,
    constrained_stiffness,
    coupled_jacobian,
    dense_flux_mass,
    full_stiffness,
    residuals,
    settled_initial_state,
)


class TestInitialState:
    def test_smooth_benchmark_saturation(self):
        mesh, ops, params, init = setup_problem(5, 5, scenario="smooth")
        assert init.saturation(params) == pytest.approx(0.40, abs=1e-4)
        assert np.all(init.q == 0.0)
        assert np.all(init.u == 0.0)
        assert np.all(init.porosity == 0.2)

    def test_hoelder_benchmark_saturation(self):
        mesh, ops, params, init = setup_problem(5, 5, scenario="hoelder")
        assert init.saturation(params) == pytest.approx(0.40, abs=1e-4)

    def test_no_gravity_gives_zero_flux(self):
        mesh, ops, params, init = setup_problem(4, 4, width=0.25)
        assert np.all(init.q == 0.0)

    def test_gravity_flux_satisfies_darcy(self):
        mesh = RectMesh(6, 5, 1.0, 1.0, 0.5)
        ops = assemble(mesh, MU, LAM)
        params = replace(smooth_params(), g=(0.3, -1.0))
        init = initial_state(mesh, params, P0_SMOOTH, ops)
        f_q, _ = gravity_loads(ops, params)
        kinv = dense_flux_mass(ops, 1.0 / laws.mobility(init.saturation(params), params.vg))
        defect = (f_q - kinv @ init.q + ops.D_pq.T @ init.p)[ops.free_q]
        assert np.abs(init.q).max() > 0
        assert np.all(init.q[ops.fixed_q] == 0.0)
        assert np.linalg.norm(defect) <= 1e-12 * np.linalg.norm(f_q[ops.free_q])

    def test_states_are_immutable(self):
        mesh, ops, params, init = setup_problem(2, 2, width=0.5)
        with pytest.raises(FrozenInstanceError):
            init.porosity = None

    def test_state_arrays_are_read_only(self):
        # the arrays of a built state, a replaced one and an AA-mixed
        # iterate; the cached saturation cannot go stale
        mesh, ops, params, init = setup_problem(5, 5)
        sat = init.saturation(params).copy()
        moved = replace(init, u=init.u + 1.0)
        mixed, _ = run_time_step(SchemeConfig(kind="fsl", max_iters=3),
                                 AndersonConfig(depth=1), init, params, ops)
        for state in (init, moved, mixed):
            for a in (state.p, state.q, state.u, state.porosity):
                if a is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        a[0] = -0.01
        assert np.array_equal(init.saturation(params), sat)

    def test_cached_laws_follow_pressure_and_model(self):
        mesh, ops, params, init = setup_problem(2, 2, width=0.5)
        assert init.saturation(params) == pytest.approx(0.40, abs=1e-3)
        wet = replace(init, p=np.zeros_like(init.p))
        assert np.all(wet.saturation(params) == 1.0)
        assert np.all(wet.pore_pressure(params) == 0.0)
        other = replace(params, vg=hoelder_params().vg)
        for state in (init, wet):
            assert np.array_equal(state.saturation(other), laws.saturation(state.p, other.vg))
            assert np.array_equal(state.pore_pressure(other),
                                  laws.equivalent_pore_pressure(state.p, other.vg))

    def test_replace_keeping_pressure_reuses_cache(self, monkeypatch):
        mesh, ops, params, init = setup_problem(2, 2, width=0.5)
        sat, pe = init.saturation(params), init.pore_pressure(params)
        monkeypatch.setattr(laws, "saturation", None)
        monkeypatch.setattr(laws, "equivalent_pore_pressure", None)
        moved = replace(init, u=init.u + 1.0, porosity=init.porosity + 0.1)
        assert moved.saturation(params) is sat
        assert moved.pore_pressure(replace(params, vg=replace(params.vg))) is pe


class TestPhysicsParams:
    @pytest.mark.parametrize("field, value", [("tau", np.nan), ("tau", 0.0), ("T", np.nan),
                                              ("T", 0.05), ("T", 0.35)])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="require tau > 0"):
            replace(smooth_params(), **{field: value})


class TestInflowRate:
    def test_ramp(self):
        assert inflow_rate(0.0, -1.25) == 0.0
        assert inflow_rate(0.5, -1.25) == pytest.approx(-0.3125)
        assert inflow_rate(1.0, -1.25) == pytest.approx(-1.25)
        assert inflow_rate(7.0, -1.25) == pytest.approx(-1.25)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            inflow_rate(-0.1, -1.25)


class TestResiduals:
    def test_vanish_at_converged_step(self):
        mesh, ops, params, init = setup_problem(6, 6, width=1.0 / 3.0)
        scheme = SchemeConfig(kind="newton", eps_abs=1e-12, eps_rel=1e-12)
        state, report = run_time_step(scheme, None, init, params, ops)
        assert report.converged
        r_p, r_q, r_u = residuals(state, init, params, ops)
        assert np.sqrt(np.sum(r_p**2 / ops.M_p)) < 1e-10
        assert np.linalg.norm(r_q) < 1e-10
        assert np.linalg.norm(r_u) < 1e-10

    def test_momentum_residual_is_the_full_stiffness_bit_for_bit(self, monkeypatch):
        # at the AA-mixed iterates of a test2 FSL/2 + AA(3) step, the free
        # rows of the momentum residual are those of f_u - (A u - alpha
        # D_pu^T p_E) with A the full stiffness scattered here, bit for bit;
        # the fixed rows are zero
        mesh, ops, params, init = setup_problem(10, 10, alpha=0.1, scenario="hoelder")
        seen, inner = [], schemes.mech_residual

        def recording(state, params, ops):
            seen.append((state, inner(state, params, ops)))
            return seen[-1][1]

        monkeypatch.setattr(schemes, "mech_residual", recording)
        run_time_step(SchemeConfig(kind="fsl2", max_iters=12), AndersonConfig(depth=3),
                      init, params, ops)
        a = full_stiffness(ops)
        _, f_u = gravity_loads(ops, params)
        assert len(seen) == 12 and np.count_nonzero(seen[-1][0].u) == len(ops.free_u)
        for state, r_u in seen:
            expected = f_u - (a @ state.u - params.alpha * (ops.D_pu_T @ state.pore_pressure(params)))
            assert np.array_equal(r_u[ops.free_u], expected[ops.free_u])
            assert not np.any(r_u[ops.fixed_u])

    def test_single_cell_hand_evaluation(self):
        # one unit cell; all flux dofs and all but the top-uy displacement
        # dofs are constrained, so only r_p and two r_u entries are live
        mesh = RectMesh(1, 1, 1.0, 1.0, 1.0)
        ops = assemble(mesh, MU, LAM)
        params = smooth_params(alpha=0.7, inv_n=0.05, tau=0.1)
        vg = params.vg

        p_prev, p_now = -7.78, -5.0
        q = np.array([0.0, 0.0, 0.0, -0.3])        # W, E, S, N dofs
        uy_top = np.array([0.004, 0.006])           # nodes 2, 3
        u = np.zeros(8)
        u[6:8] = uy_top
        prev = initial_state(mesh, params, p_prev, ops)
        state = PoroState(p=np.array([p_now]), q=q, u=u, time=0.1)

        r_p, r_q, r_u = residuals(state, prev, params, ops)

        s_now = laws.saturation(p_now, vg)
        s_prev = laws.saturation(p_prev, vg)
        pe_now = laws.equivalent_pore_pressure(p_now, vg)
        pe_prev = laws.equivalent_pore_pressure(p_prev, vg)
        # integrated divergence of u on the unit cell: sum of hx/2-weighted
        # top uy values (hand evaluation of the Q1 divergence row)
        div_u = 0.5 * (uy_top[0] + uy_top[1])
        mass = 0.2 * (s_now - s_prev)
        coupling = params.alpha * s_now * div_u
        compress = params.inv_n * s_now * (pe_now - pe_prev)
        darcy = params.tau * (q[3] - q[2])
        assert r_p[0] == pytest.approx(-(mass + coupling + compress + darcy), abs=1e-14)
        assert np.all(r_q == 0.0)  # every flux dof is constrained

        # symbolic elasticity oracle on the unit cell
        x, y = sympy.symbols("x y")
        shapes = [(1 - x) * (1 - y), x * (1 - y), x * y, (1 - x) * y]
        ux = sympy.Integer(0)
        uy = uy_top[0] * shapes[2] + uy_top[1] * shapes[3]
        for node, vy in ((2, shapes[2]), (3, shapes[3])):
            exx, eyy = sympy.diff(ux, x), sympy.diff(uy, y)
            exy = (sympy.diff(ux, y) + sympy.diff(uy, x)) / 2
            vxx, vyy = sympy.Integer(0), sympy.diff(vy, y)
            vxy = sympy.diff(vy, x) / 2
            integrand = (
                2 * MU * (exx * vxx + eyy * vyy + 2 * exy * vxy)
                + LAM * (exx + eyy) * (vyy)
            )
            stiff = float(sympy.integrate(integrand, (x, 0, 1), (y, 0, 1)))
            load = params.alpha * pe_now * float(
                sympy.integrate(sympy.diff(vy, y), (x, 0, 1), (y, 0, 1))
            )
            dof = mesh.n_nodes + node
            assert r_u[dof] == pytest.approx(load - stiff, abs=1e-12)

    def test_saturated_regime_reduces_to_linear_biot(self, rng):
        # with p >= 0 everywhere the mass residual must coincide with an
        # independently coded linear (incompressible-fluid) volume balance
        mesh = RectMesh(3, 3, 1.0, 1.0, 1.0 / 3.0)
        ops = assemble(mesh, MU, LAM)
        params = smooth_params(alpha=0.8, inv_n=0.02)
        prev = initial_state(mesh, params, 4.0, ops)
        p = rng.uniform(1.0, 9.0, mesh.n_cells)
        q = rng.normal(0.0, 0.1, mesh.n_edges)
        u = np.zeros(2 * mesh.n_nodes)
        u[ops.free_u] = rng.normal(0.0, 0.01, len(ops.free_u))
        state = PoroState(p=p, q=q, u=u, time=params.tau)
        r_p, _, _ = residuals(state, prev, params, ops)

        # independent path: loop over cells with hand-built divergences
        area = mesh.cell_area
        hx, hy = mesh.hx, mesh.hy
        for c in range(mesh.n_cells):
            w, e, s_, n = mesh.cell_edges[c]
            div_q = hy * (q[e] - q[w]) + hx * (q[n] - q[s_])
            div_u = 0.0
            for k, node in enumerate(mesh.cell_nodes[c]):
                sx = (-1.0, 1.0, 1.0, -1.0)[k] * hy / 2
                sy = (-1.0, -1.0, 1.0, 1.0)[k] * hx / 2
                div_u += sx * u[node] + sy * u[mesh.n_nodes + node]
            linear = (
                params.alpha * div_u
                + params.inv_n * area * (p[c] - prev.p[c])
                + params.tau * div_q
            )
            assert r_p[c] == pytest.approx(-linear, abs=1e-12)


class TestNewtonBlocks:
    @pytest.mark.parametrize("inv_n", [0.0, 0.1], ids=["incompressible", "storage"])
    def test_matches_directional_finite_differences(self, inv_n, rng):
        mesh = RectMesh(4, 4, 1.0, 1.0, 0.25)
        ops = assemble(mesh, MU, LAM)
        params = smooth_params(alpha=1.0, inv_n=inv_n)
        prev = initial_state(mesh, params, P0_SMOOTH, ops)
        for _ in range(3):
            p = rng.uniform(-12.0, -2.0, mesh.n_cells)
            q = rng.normal(0.0, 0.05, mesh.n_edges)
            q[ops.fixed_q] = 0.0
            u = np.zeros(2 * mesh.n_nodes)
            u[ops.free_u] = rng.normal(0.0, 0.01, len(ops.free_u))
            state = PoroState(p=p, q=q, u=u, time=params.tau)
            matrix = coupled_jacobian(state, prev, params, ops)

            dp = rng.standard_normal(mesh.n_cells)
            dqf = rng.standard_normal(len(ops.free_q))
            duf = rng.standard_normal(len(ops.free_u))
            action = matrix @ np.concatenate([dp, dqf, duf])

            h = 1e-7

            def perturbed(sign):
                qq = q.copy()
                qq[ops.free_q] += sign * h * dqf
                uu = u.copy()
                uu[ops.free_u] += sign * h * duf
                return PoroState(p=p + sign * h * dp, q=qq, u=uu, time=params.tau)

            rp1, rq1, ru1 = residuals(perturbed(+1), prev, params, ops)
            rp0, rq0, ru0 = residuals(perturbed(-1), prev, params, ops)
            fd = np.concatenate(
                [(rp0 - rp1), (rq0 - rq1)[ops.free_q], (ru0 - ru1)[ops.free_u]]
            ) / (2 * h)
            assert np.linalg.norm(action - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_saturated_pressure_block(self):
        # fully saturated: ds/dp = 0 and s = 1, so the pressure block is
        # (1/N) M_p exactly
        mesh = RectMesh(3, 3, 1.0, 1.0, 1.0 / 3.0)
        ops = assemble(mesh, MU, LAM)
        params = smooth_params(alpha=1.0, inv_n=0.25)
        prev = initial_state(mesh, params, 2.0, ops)
        state = PoroState(p=np.full(mesh.n_cells, 5.0), q=np.zeros(mesh.n_edges),
                          u=np.zeros(2 * mesh.n_nodes), time=params.tau)
        matrix = coupled_jacobian(state, prev, params, ops)
        diag = matrix.diagonal()[: mesh.n_cells]
        assert diag == pytest.approx(0.25 * ops.M_p, rel=1e-14)

    def test_elasticity_block_is_state_independent(self, rng, monkeypatch):
        # Newton's u-u block is the constrained stiffness exactly (their
        # difference stores no entry), on a banded mesh and past the band
        p = rng.uniform(-9.0, -1.0, 3 * 3)   # one pressure per cell, drawn once
        for band_entries in (fem._BAND_ENTRIES, -1):
            monkeypatch.setattr(fem, "_BAND_ENTRIES", band_entries)
            mesh, ops, params, init = setup_problem(3, 3, width=1.0 / 3.0)
            state = PoroState(p=p, q=np.zeros(mesh.n_edges), u=np.zeros(2 * mesh.n_nodes),
                              time=params.tau)
            matrix = coupled_jacobian(state, init, params, ops)
            n_p, n_qf = mesh.n_cells, len(ops.free_q)
            uu = matrix[n_p + n_qf:, n_p + n_qf:]
            assert (uu - constrained_stiffness(ops)).nnz == 0

    @pytest.mark.parametrize("scenario", ["smooth", "hoelder"])
    def test_matches_block_assembly(self, scenario):
        # the fixed-pattern Jacobian against a block_array assembly of the
        # same blocks, at an iterate with q != 0 inside the first step
        mesh, ops, params, init = setup_problem(
            4, 3, width=0.25, scenario=scenario, alpha=1.0 if scenario == "smooth" else 0.1)
        state = init
        for _ in range(2):
            state, _, _ = fsl_local_iteration(state, init, params, ops)
        assert np.abs(state.q).max() > 0
        matrix = coupled_jacobian(state, init, params, ops)

        s = state.saturation(params)
        phi = init.porosity + params.alpha * (ops.D_pu @ (state.u - init.u)) / ops.M_p
        cpp = ops.M_p * (phi * laws.saturation_derivative(state.p, params.vg)
                         + params.inv_n * s**2)
        kw = laws.mobility(np.clip(s, 0.0, 1.0), params.vg)
        dkdp, _ = laws.mobility_derivative_wrt_p(state.p, params.vg)
        weight = np.nan_to_num(-dkdp / kw**2, nan=0.0, posinf=0.0, neginf=0.0)
        # column c: d/dp_c of k_w^{-1}(p_c) M_c q
        bqp = np.column_stack([dense_flux_mass(ops, weight * (np.arange(mesh.n_cells) == c))
                               @ state.q for c in range(mesh.n_cells)])
        free_q, free_u = ops.free_q, ops.free_u
        dq_f = ops.D_pq[:, free_q]
        apu = params.alpha * (sp.diags_array(s) @ ops.D_pu[:, free_u])
        kinv = sp.csr_array(dense_flux_mass(ops, 1.0 / kw))
        expected = sp.block_array(
            [[sp.diags_array(cpp), params.tau * dq_f, apu],
             [sp.csr_array(bqp[free_q]) - dq_f.T, kinv[free_q][:, free_q], None],
             [-apu.T, None, constrained_stiffness(ops)]], format="csr").toarray()
        got = matrix.toarray()
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_clamped_derivative_is_flagged(self):
        mesh = RectMesh(2, 2, 1.0, 1.0, 0.5)
        ops = assemble(mesh, MU, LAM)
        params = hoelder_params(alpha=0.5)
        prev = initial_state(mesh, params, P0_HOELDER, ops)
        state = PoroState(p=np.full(mesh.n_cells, -1e-24), q=np.zeros(mesh.n_edges),
                          u=np.zeros(2 * mesh.n_nodes), time=params.tau)
        *_, clamped = newton_blocks(state, prev, params, ops)
        assert clamped


class TestVolumeConservation:
    def test_identity_for_lawful_states(self, rng):
        # states whose porosity follows the update law satisfy the balance
        # identity to round-off, whatever the coefficient values
        mesh, ops, params, init = setup_problem(4, 4, alpha=1.0, width=0.25)
        for _ in range(100):
            p = rng.uniform(-20.0, 3.0, mesh.n_cells)
            u = np.zeros(2 * mesh.n_nodes)
            u[ops.free_u] = rng.normal(0.0, 0.02, len(ops.free_u))
            state = PoroState(p=p, q=np.zeros(mesh.n_edges), u=u, time=params.tau)
            state = replace(state, porosity=init.porosity + porosity_increment(
                state, init, params, ops))
            gap = volume_conservation_gap(state, init, params, ops)
            assert np.max(np.abs(gap)) <= 1e-13

    def test_identity_with_storage_term(self, rng):
        mesh, ops, params, init = setup_problem(3, 3, alpha=0.5, width=1.0 / 3.0,
                                                inv_n=0.04)
        p = rng.uniform(-12.0, 0.0, mesh.n_cells)
        u = np.zeros(2 * mesh.n_nodes)
        u[ops.free_u] = rng.normal(0.0, 0.02, len(ops.free_u))
        state = PoroState(p=p, q=np.zeros(mesh.n_edges), u=u, time=params.tau)
        state = replace(state, porosity=init.porosity + porosity_increment(
            state, init, params, ops))
        assert np.max(np.abs(volume_conservation_gap(state, init, params, ops))) <= 1e-13

    def test_identity_along_a_run(self):
        mesh, ops, params, init = setup_problem(5, 5, alpha=1.0, T=0.4)
        result = run_transient(SchemeConfig(kind="fsmp"), None, init, params, ops)
        assert result.completed
        for prev, state in zip(result.states, result.states[1:]):
            gap = volume_conservation_gap(state, prev, params, ops)
            assert np.max(np.abs(gap)) <= 1e-13


class TestDenseReduced:
    def test_scale_guard(self):
        mesh, ops, params, init = setup_problem(10, 10)
        with pytest.raises(ScaleGuardError):
            DenseReducedProblem(ops, params, init)

    def test_compact_form_at_three_field_solution(self):
        mesh = RectMesh(2, 2, 1.0, 1.0, 0.5)
        ops = assemble(mesh, MU, LAM)
        params = smooth_params(alpha=1.0)
        init = settled_initial_state(mesh, params, P0_SMOOTH, ops)
        problem = DenseReducedProblem(ops, params, init)
        scheme = SchemeConfig(kind="newton", eps_abs=1e-13, eps_rel=1e-13)
        state, report = run_time_step(scheme, None, init, params, ops)
        assert report.converged
        defect = problem.compact_residual(
            state.p, init.porosity, init.saturation(params), state.time
        )
        assert np.max(np.abs(defect)) < 1e-10

    def test_jacobian_symmetry_and_spectrum(self, rng):
        mesh = RectMesh(3, 3, 1.0, 1.0, 1.0 / 3.0)
        ops = assemble(mesh, MU, LAM)
        params = smooth_params(alpha=1.0, inv_n=0.05)
        init = initial_state(mesh, params, P0_SMOOTH, ops)
        problem = DenseReducedProblem(ops, params, init)
        lipschitz_floor = None
        for _ in range(10):
            p = rng.uniform(-9.0, -0.5, mesh.n_cells)
            jac = problem.jacobian_b(p)
            assert np.max(np.abs(jac - jac.T)) < 1e-12
            scaled = jac / np.sqrt(np.outer(problem.area, problem.area))
            eigs = np.linalg.eigvalsh(scaled)
            assert eigs.min() > -1e-12
            if laws.saturation(p, params.vg).min() >= 0.05:
                lipschitz_floor = eigs.min() if lipschitz_floor is None else min(
                    lipschitz_floor, eigs.min()
                )
        # saturation bounded below keeps the monotonicity constant positive
        assert lipschitz_floor is not None and lipschitz_floor > 1e-6

    def test_jacobian_matches_finite_differences(self, rng):
        mesh = RectMesh(2, 2, 1.0, 1.0, 0.5)
        ops = assemble(mesh, MU, LAM)
        params = smooth_params(alpha=0.7, inv_n=0.03)
        init = initial_state(mesh, params, P0_SMOOTH, ops)
        problem = DenseReducedProblem(ops, params, init)
        p = rng.uniform(-9.0, -2.0, mesh.n_cells)
        jac = problem.jacobian_b(p)
        h = 1e-6
        fd = np.empty_like(jac)
        for k in range(mesh.n_cells):
            e = np.zeros(mesh.n_cells)
            e[k] = h
            fd[:, k] = (problem.b(p + e) - problem.b(p - e)) / (2 * h)
        assert np.max(np.abs(jac - fd)) < 1e-6
