import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from porosplit import constitutive as laws
from porosplit import schemes
from porosplit.anderson import AndersonConfig
from porosplit.fem import LinearSolveError
from porosplit.model import (
    PoroState,
    initial_state,
    newton_blocks,
    prescribed_flux,
    pressure_coefficient,
)
from porosplit.schemes import (
    AA_RESTART_FACTOR,
    SchemeConfig,
    converged,
    fixed_stress_beta,
    fsl_iteration,
    fsl_local_iteration,
    fsmp_iteration,
    fsnewton_iteration,
    newton_iteration,
    run_time_step,
    run_transient,
    split_iteration,
)

from conftest import LAM, MU, P0_SMOOTH, VG_SMOOTH, natural, pressure_iterates, setup_problem
from oracles import dense_flux_mass, residuals, settled_initial_state


class TestFixedStressBeta:
    def test_uncoupled(self):
        assert fixed_stress_beta(MU, LAM, 0.0) == 0.0

    def test_reference_value(self):
        # E = 30, nu = 0.2 in plane strain: mu = 12.5, lambda = 8.33..,
        # so beta = 1 / 20.833.. = 0.048
        beta = fixed_stress_beta(MU, LAM, 1.0)
        assert beta == pytest.approx(0.048, rel=1e-10)

    def test_quadratic_in_alpha(self):
        assert fixed_stress_beta(MU, LAM, 0.5) == pytest.approx(
            fixed_stress_beta(MU, LAM, 1.0) / 4.0, rel=1e-14
        )

    @pytest.mark.parametrize("mu, lam, alpha", [(0.0, LAM, 1.0), (np.nan, LAM, 1.0),
                                                (MU, -1.0, 1.0), (MU, np.nan, 1.0),
                                                (MU, LAM, np.nan)])
    def test_invalid_parameters_rejected(self, mu, lam, alpha):
        with pytest.raises(ValueError, match="require mu > 0"):
            fixed_stress_beta(mu, lam, alpha)


class TestSchemeConfig:
    def test_given_L_takes_no_scale(self):
        # L_scale scales the local bound only; with a given L it would be
        # silently ignored
        assert SchemeConfig(kind="fsl", L=0.3).L_scale == 1.0
        with pytest.raises(ValueError, match="L_scale"):
            SchemeConfig(kind="fsl", L=0.3, L_scale=0.5)

    @pytest.mark.parametrize("field, value", [
        ("L", float("nan")), ("L", -1.0), ("L_scale", -1.0), ("L_scale", 0.0),
        ("L_scale", float("nan")), ("eps_abs", float("nan")), ("eps_rel", float("nan")),
    ])
    def test_rejects_non_positive_or_nan(self, field, value):
        # caught at construction, not later as a "diverged" solve
        with pytest.raises(ValueError, match=field):
            SchemeConfig(kind="fsl", **{field: value})



def first_sweep(**fsl):
    """Pressure after one FSL sweep from the 5x5 initial state, with the
    stabilization that ``run_time_step`` picks for ``SchemeConfig(**fsl)``."""
    _, ops, params, prev = setup_problem(5, 5, alpha=1.0)
    scheme = SchemeConfig(kind="fsl", max_iters=1, **fsl)
    state, report = run_time_step(scheme, None, prev, params, ops)
    assert report.iterations == 1
    return state.p, prev, params, ops


class TestLschemeParameter:
    def test_plain_variant_recovers_lipschitz_constant(self):
        # L=None weights the saturation Lipschitz constant L_s itself
        p, prev, params, ops = first_sweep()
        beta = fixed_stress_beta(MU, LAM, 1.0)
        cpp = pressure_coefficient(prev, prev, params, ops,
                                   VG_SMOOTH.saturation_lipschitz(), beta)
        ref, _, _ = split_iteration(prev, prev, params, ops, cpp)
        np.testing.assert_allclose(p, ref.p, rtol=1e-14, atol=0.0)

    def test_halved_variant(self):
        # L_scale = 0.5 halves L_s and beta_FS; with 1/N = 0 the whole
        # coefficient is half the plain one
        p, prev, params, ops = first_sweep(L_scale=0.5)
        assert params.inv_n == 0.0
        beta = fixed_stress_beta(MU, LAM, 1.0)
        l_s = VG_SMOOTH.saturation_lipschitz()
        plain = pressure_coefficient(prev, prev, params, ops, l_s, beta)
        cpp = pressure_coefficient(prev, prev, params, ops, 0.5 * l_s, 0.5 * beta)
        np.testing.assert_allclose(cpp, 0.5 * plain, rtol=1e-14, atol=0.0)
        ref, _, _ = split_iteration(prev, prev, params, ops, cpp)
        np.testing.assert_allclose(p, ref.p, rtol=1e-14, atol=0.0)

    def test_explicit_value_wins(self):
        # a given L selects the constant diagonal (L + 1/N + beta_FS) M_p
        p, prev, params, ops = first_sweep(L=0.321)
        beta = fixed_stress_beta(MU, LAM, 1.0)
        cpp = (0.321 + params.inv_n + beta) * ops.M_p
        ref, _, _ = split_iteration(prev, prev, params, ops, cpp)
        np.testing.assert_allclose(p, ref.p, rtol=1e-14, atol=0.0)
        local, _, _ = fsl_local_iteration(prev, prev, params, ops)
        assert np.abs(p - local.p).max() > 1e-8

ITERATIONS = {
    "newton": newton_iteration,
    "fsmp": fsmp_iteration,
    "fsnewton": fsnewton_iteration,
}


class TestSingleIterations:
    @pytest.mark.parametrize("kind", ["newton", "fsl", "fsmp", "fsnewton"])
    def test_zero_increments_at_the_solution(self, kind):
        mesh, ops, params, init = setup_problem(4, 4, width=0.25)
        tight = SchemeConfig(kind="newton", eps_abs=1e-13, eps_rel=1e-13)
        solution, report = run_time_step(tight, None, init, params, ops)
        assert report.converged
        if kind == "fsl":
            new_state, inc, _ = fsl_iteration(solution, init, params, ops, L=0.12)
        else:
            new_state, inc, _ = ITERATIONS[kind](solution, init, params, ops)
        assert sum(inc) < 1e-11

    def test_newton_solves_linear_regime_in_one_iteration(self):
        # fully saturated: the step is the linear coupled problem, so a
        # single Newton update lands on the solution to solver tolerance
        mesh, ops, params, init = setup_problem(4, 4, width=0.25, inv_n=0.1)
        init = initial_state(mesh, params, 5.0, ops)
        state, inc, _ = newton_iteration(init, init, params, ops)
        r_p, r_q, r_u = residuals(state, init, params, ops)
        assert sum(inc) > 1e-6  # the first update does real work
        assert np.linalg.norm(r_p) < 1e-11
        assert np.linalg.norm(r_q) < 1e-11
        assert np.linalg.norm(r_u) < 1e-11
        # the driver needs exactly one confirming pass on top
        _, report = run_time_step(SchemeConfig(kind="newton"), None, init, params, ops)
        assert report.converged and report.iterations <= 2

    def test_steady_step_reports_one_iteration(self):
        # without forcing, the mechanically settled previous level is the
        # fixed point of the step
        mesh, ops, params, _ = setup_problem(3, 3, width=1.0 / 3.0, q_star=0.0,
                                             inv_n=0.1)
        init = settled_initial_state(mesh, params, 5.0, ops)
        _, report = run_time_step(SchemeConfig(kind="newton"), None, init, params, ops)
        assert report.converged and report.iterations == 1

    def test_fsl_evaluates_no_derivatives(self):
        mesh, ops, params, init = setup_problem(4, 4, width=0.25, T=0.2)
        before = laws.derivative_call_counts()
        for scheme in (
            SchemeConfig(kind="fsl"),
            SchemeConfig(kind="fsl", L=params.vg.saturation_lipschitz()),
        ):
            result = run_transient(scheme, None, init, params, ops)
            assert result.completed
        assert laws.derivative_call_counts() == before

    def test_fs_schemes_track_each_other_at_weak_coupling(self):
        # with weak coupling and smooth laws the added mobility derivative
        # makes the split Newton track the monolithic one closely
        mesh, ops, params, init = setup_problem(8, 8, alpha=0.1, width=0.25, T=0.5)
        newton = run_transient(SchemeConfig(kind="newton"), None, init, params, ops)
        fsn = run_transient(SchemeConfig(kind="fsnewton"), None, init, params, ops)
        assert newton.completed and fsn.completed
        assert fsn.average_iterations <= 1.4 * newton.average_iterations

    def test_saturated_fs_pressure_coefficient_reduces_to_beta(self):
        # s = 1, ds/dp = 0 and 1/N = 0: the modified-Picard coefficient is
        # beta_FS M_p, and FS-MP is the split step with that diagonal
        mesh, ops, params, _ = setup_problem(3, 3, alpha=1.0, width=1.0 / 3.0)
        prev = initial_state(mesh, params, 3.0, ops)
        state = PoroState(p=np.full(mesh.n_cells, 6.0), q=np.zeros(mesh.n_edges),
                          u=np.zeros(2 * mesh.n_nodes), time=params.tau)
        beta = fixed_stress_beta(MU, LAM, 1.0)
        sd = laws.saturation_derivative(state.p, params.vg)
        cpp = pressure_coefficient(state, prev, params, ops, sd, beta)
        assert np.array_equal(cpp, beta * ops.M_p)
        new_state, _, _ = fsmp_iteration(state, prev, params, ops)
        manual, _, _ = split_iteration(state, prev, params, ops, beta * ops.M_p)
        assert np.allclose(new_state.p, manual.p, rtol=0, atol=1e-14)
        assert np.allclose(new_state.q, manual.q, rtol=0, atol=1e-14)


# L of the FSL cases: the coefficient (L + beta) M_p is positive, resp.
# negative, as an extrapolated AA iterate can make it in some cells
FSL_L = {"fsl": 0.05, "fsl_negative": -0.5}


class TestReducedFlowSolve:
    """The split step eliminates the diagonal pressure block and solves for
    the flux only; its update must equal the mixed saddle solve."""

    @staticmethod
    def saddle_update(state, prev, params, ops, kind):
        """(dp, dq) from the full [[C, tau D_f], [A_qp, K_ff]] system."""
        assert params.inv_n == 0.0
        beta = fixed_stress_beta(params.mu, params.lam, params.alpha)
        s = laws.saturation(state.p, params.vg)
        phi = prev.porosity + params.alpha * (ops.D_pu @ (state.u - prev.u)) / ops.M_p
        if kind.startswith("fsl"):
            cpp = ops.M_p * (FSL_L[kind] + beta)
        else:
            cpp = ops.M_p * (phi * laws.saturation_derivative(state.p, params.vg)
                             + beta * s**2)
        n_p = ops.mesh.n_cells
        n_qf = len(ops.free_q)
        if kind == "fsnewton":
            matrix, _, _ = newton_blocks(state, prev, params, ops)
            a_qp = natural(matrix, ops.order)[n_p:n_p + n_qf, :n_p]
        else:
            a_qp = -ops.D_pq[:, ops.free_q].T
        kinv = sp.csr_array(dense_flux_mass(ops, 1.0 / laws.mobility(s, params.vg)))
        matrix = sp.block_array(
            [[sp.diags_array(cpp), params.tau * ops.D_pq[:, ops.free_q]],
             [a_qp, kinv[ops.free_q][:, ops.free_q]]],
            format="csc",
        ).toarray()
        r_p, r_q, _ = residuals(state, prev, params, ops)
        dq_fix = prescribed_flux(ops, params, prev.time + params.tau) - state.q[ops.fixed_q]
        rhs = np.concatenate([
            r_p - params.tau * (ops.D_pq[:, ops.fixed_q] @ dq_fix),
            r_q[ops.free_q] - kinv[ops.free_q][:, ops.fixed_q] @ dq_fix,
        ])
        sol = np.linalg.solve(matrix, rhs)
        dq = np.zeros(ops.mesh.n_edges)
        dq[ops.free_q] = sol[n_p:]
        dq[ops.fixed_q] = dq_fix
        return sol[:n_p], dq

    @pytest.mark.parametrize("kind", ["fsl", "fsl_negative", "fsmp", "fsnewton"])
    @pytest.mark.parametrize("scenario", ["smooth", "hoelder"])
    def test_matches_the_saddle_solve(self, kind, scenario):
        mesh, ops, params, init = setup_problem(
            8, 8, width=0.25, scenario=scenario, alpha=1.0 if scenario == "smooth" else 0.1)
        # an iterate with q != 0 inside the first step
        state = init
        for _ in range(2):
            state, _, _ = fsl_local_iteration(state, init, params, ops)
        assert np.abs(state.q).max() > 0
        dp_ref, dq_ref = self.saddle_update(state, init, params, ops, kind)
        if kind.startswith("fsl"):
            new, _, _ = fsl_iteration(state, init, params, ops, L=FSL_L[kind])
        else:
            new, _, _ = ITERATIONS[kind](state, init, params, ops)
        for got, ref in ((new.p - state.p, dp_ref), (new.q - state.q, dq_ref)):
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_singular_pressure_coefficient_raises(self):
        mesh, ops, params, init = setup_problem(4, 4, width=0.25)
        beta = fixed_stress_beta(params.mu, params.lam, params.alpha)
        for L in (-beta, np.nan):
            with pytest.raises(LinearSolveError, match="cannot be eliminated"):
                fsl_iteration(init, init, params, ops, L=L)


class TestConverged:
    def test_all_zero(self):
        assert converged((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1e-8, 1e-8)

    def test_conjunction(self):
        # absolute passes, relative fails
        assert not converged((1e-9, 1e-9, 1e-9), (1e-3, 1.0, 1.0), 1e-8, 1e-8)

    def test_benchmark_tolerances(self):
        assert converged((1e-9, 1e-9, 1e-9), (2.0, 1.0, 3.0), 1e-8, 1e-8)

    def test_zero_denominators_are_dropped(self):
        assert converged((1e-9, 0.0, 0.0), (1.0, 0.0, 0.0), 1e-8, 1e-8)

    def test_rejects_negative_norms(self):
        with pytest.raises(ValueError):
            converged((-1.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1e-8, 1e-8)


class TestRunTimeStep:
    def test_schemes_agree_on_the_step(self):
        mesh, ops, params, init = setup_problem(6, 6, width=1.0 / 3.0)
        pressures = {}
        for kind in ("newton", "fsl", "fsmp", "fsnewton"):
            state, report = run_time_step(SchemeConfig(kind=kind), None, init,
                                          params, ops)
            assert report.converged, kind
            pressures[kind] = state.p
        tol = (1e-8 + 1e-8 * ops.pressure_norm(pressures["newton"])) * 10
        for kind, p in pressures.items():
            assert ops.pressure_norm(p - pressures["newton"]) < tol, kind

    def test_aa0_is_bitwise_identical(self):
        mesh, ops, params, init = setup_problem(5, 5, width=0.2)
        with pressure_iterates("fsmp_iteration") as trace_plain:
            plain, rep_plain = run_time_step(SchemeConfig(kind="fsmp"), None, init,
                                             params, ops)
        with pressure_iterates("fsmp_iteration") as trace_wrapped:
            wrapped, rep_wrapped = run_time_step(
                SchemeConfig(kind="fsmp"), AndersonConfig(depth=0), init, params, ops)
        assert rep_plain.iterations == rep_wrapped.iterations
        assert np.all(plain.p == wrapped.p)
        assert np.all(plain.q == wrapped.q)
        assert np.all(plain.u == wrapped.u)
        assert len(trace_plain[0]) == len(trace_wrapped[0]) == rep_plain.iterations + 1
        for a, b in zip(trace_plain[0], trace_wrapped[0]):
            assert np.all(a == b)

    def test_acceleration_reduces_lscheme_iterations(self):
        mesh, ops, params, init = setup_problem(8, 8, width=0.25, T=0.3)
        plain = run_transient(SchemeConfig(kind="fsl"), None, init, params, ops)
        accel = run_transient(SchemeConfig(kind="fsl"), AndersonConfig(depth=5),
                              init, params, ops)
        assert plain.completed and accel.completed
        assert accel.average_iterations < plain.average_iterations

    def test_max_iters_status(self):
        mesh, ops, params, init = setup_problem(5, 5, width=0.2)
        scheme = SchemeConfig(kind="fsl", max_iters=3)
        state, report = run_time_step(scheme, None, init, params, ops)
        assert report.termination == "max_iters"
        assert report.iterations == 3

    def test_monotone_first_step_contraction(self):
        # pressure-increment norms of the constant-parameter L-scheme decay
        # monotonically on the smooth benchmark (contraction presumes the
        # mechanically settled start; a raw u = 0 start adds one settlement
        # transient at the first iteration)
        mesh, ops, params, _ = setup_problem(5, 5, width=0.2)
        init = settled_initial_state(mesh, params, P0_SMOOTH, ops)
        scheme = SchemeConfig(kind="fsl", L=params.vg.saturation_lipschitz())
        state, report = run_time_step(scheme, None, init, params, ops)
        assert report.converged and report.iterations > 1
        dp = [r.increments[0] for r in report.records]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(dp, dp[1:]))

    def test_transient_failure_is_data(self):
        # a starved iteration budget must surface as a status, not an error
        mesh, ops, params, init = setup_problem(4, 4, width=0.25, scenario="hoelder",
                                                alpha=0.1)
        scheme = SchemeConfig(kind="fsl", L=params.vg.saturation_lipschitz(), max_iters=12)
        result = run_transient(scheme, None, init, params, ops)
        assert not result.completed
        assert result.fail_step == 1
        assert result.fail_status == "max_iters"
        assert result.reports[-1].failure == "no convergence within max_iters = 12 iterations"


class TestTerminationReasons:
    """``failure`` is None exactly when a step converged; every other exit
    names the rule or the error that ended it."""

    @pytest.mark.parametrize("n, width, depth, termination, iterations, reason", [
        (25, 0.2, 1, "diverged", 3, "exceeds GROWTH_FACTOR = 10000 times the first"),
        (25, 0.2, 0, "stagnated", 79, "STAGNATION_RTOL = 0.01 of its value STAGNATION_SPAN = 20"),
        (16, 0.25, 10, "stagnated", 213, "STAGNATION_RTOL = 0.01"),
    ])
    def test_fsl_on_test2_at_full_coupling(self, n, width, depth, termination, iterations,
                                            reason):
        # step 1 of test2 at alpha = 1: AA(1) extrapolates FSL into a blow-up,
        # plain FSL stalls; AA(10) stalls on 25x25 too (495 iterations), and
        # on 16x16 in a fifth of the time
        mesh, ops, params, init = setup_problem(n, n, width=width, scenario="hoelder",
                                                alpha=1.0)
        _, report = run_time_step(SchemeConfig(kind="fsl"), AndersonConfig(depth), init,
                                  params, ops)
        assert (report.termination, report.iterations) == (termination, iterations)
        assert reason in report.failure

    def test_converged_step_has_no_failure(self):
        mesh, ops, params, init = setup_problem(4, 4, width=0.25)
        _, report = run_time_step(SchemeConfig(kind="fsmp"), None, init, params, ops)
        assert report.converged and report.failure is None

    def test_raised_solve_keeps_its_message(self, monkeypatch):
        # the constant FSL coefficient (L + beta_FS) M_p is zero at L = -beta_FS
        mesh, ops, params, init = setup_problem(4, 4, width=0.25)
        beta = fixed_stress_beta(params.mu, params.lam, params.alpha)
        monkeypatch.setattr(schemes, "fsl_iteration",
                            lambda *args, L: fsl_iteration(*args, L=-beta))
        _, report = run_time_step(SchemeConfig(kind="fsl", L=1.0), None, init, params, ops)
        assert report.termination == "diverged" and report.records == ()
        assert report.failure == "pressure coefficient 0.000e+00 at cell 0 cannot be eliminated"

    def test_non_finite_increment(self, monkeypatch):
        mesh, ops, params, init = setup_problem(4, 4, width=0.25)
        step = schemes.fsmp_iteration
        monkeypatch.setattr(schemes, "fsmp_iteration",
                            lambda *args: (step(*args)[0], (math.nan, 0.0, 0.0), False))
        _, report = run_time_step(SchemeConfig(kind="fsmp"), None, init, params, ops)
        assert (report.termination, report.iterations) == ("diverged", 1)
        assert report.failure == "non-finite increment norms (nan, 0.0, 0.0)"


class TestIterationRecords:
    def test_only_the_mobility_block_reports_a_clamp(self):
        # at p = -1e-24 the Hoelder mobility derivative is clamped
        mesh, ops, params, prev = setup_problem(2, 2, width=0.5, scenario="hoelder",
                                                alpha=0.5)
        state = replace(prev, p=np.full(mesh.n_cells, -1e-24), time=params.tau)
        _, _, clamped = split_iteration(state, prev, params, ops, ops.M_p, mobility_block=True)
        assert clamped
        _, _, clamped = fsmp_iteration(state, prev, params, ops)
        assert not clamped


class TestAndersonRestart:
    """At depth >= 2 the driver flushes the AA store whenever the increment
    grows past AA_RESTART_FACTOR times the previous one.  The test2 runs on
    4x4 cross the saturation switch, where FSL/2 and FS-MP increments jump."""

    FSL2 = SchemeConfig(kind="fsl", L_scale=0.5)

    @staticmethod
    def growth(report):
        """Iterations whose increment grew past the factor."""
        totals = [sum(r.increments) for r in report.records]
        return [i for i in range(2, len(totals) + 1)
                if totals[i - 1] > AA_RESTART_FACTOR * totals[i - 2]]

    def test_growth_restarts_the_store_and_is_recorded(self):
        mesh, ops, params, init = setup_problem(4, 4, width=0.25, scenario="hoelder",
                                                alpha=0.1)
        result = run_transient(self.FSL2, AndersonConfig(depth=3), init, params, ops)
        assert result.completed
        restarts = [[i for i, r in enumerate(rep.records, 1) if r.aa_restart]
                    for rep in result.reports]
        assert sum(map(len, restarts)) >= 2
        for rep, steps in zip(result.reports, restarts):
            assert steps == self.growth(rep)
            # every iteration but the converged last one pushed
            assert all(r.aa_weights is not None for r in rep.records[:-1])
            assert rep.records[-1].aa_weights is None
            for r in rep.records[:-1]:
                scale = sum(map(abs, r.aa_weights))
                assert math.fsum(r.aa_weights) == pytest.approx(1.0, abs=1e-12 * scale)
            for i in steps:
                # the push right after the flush is a plain step
                assert rep.records[i - 1].aa_weights == (1.0,)
                assert not rep.records[i - 1].aa_fallback

    def test_depths_zero_and_one_never_restart(self):
        mesh, ops, params, init = setup_problem(4, 4, width=0.25, scenario="hoelder",
                                                alpha=0.1)
        one = run_transient(SchemeConfig(kind="fsmp"), AndersonConfig(depth=1), init,
                            params, ops)
        assert one.completed
        # AA(1) iterates do grow past the factor, but are left alone
        assert any(self.growth(rep) for rep in one.reports)
        assert not any(r.aa_restart for rep in one.reports for r in rep.records)

        # test1 at alpha = 1: the opening iteration's settlement jump grows
        # the increment, but the depth-0 run stays the plain scheme
        mesh, ops, params, init = setup_problem(4, 4, width=0.25, T=0.2)
        with pressure_iterates("fsl_local_iteration") as trace_plain:
            plain = run_transient(self.FSL2, None, init, params, ops)
        with pressure_iterates("fsl_local_iteration") as trace_zero:
            zero = run_transient(self.FSL2, AndersonConfig(depth=0), init, params, ops)
        assert any(self.growth(rep) for rep in zero.reports)
        assert plain.iterations_per_step == zero.iterations_per_step
        for a, b in zip(plain.reports, zero.reports):
            assert a.records == b.records
        assert len(trace_plain) == len(trace_zero) == 2
        for ta, tb in zip(trace_plain, trace_zero):
            assert len(ta) == len(tb)
            for pa, pb in zip(ta, tb):
                assert np.array_equal(pa, pb)
        for a, b in zip(plain.states, zero.states):
            assert np.array_equal(a.p, b.p)
            assert np.array_equal(a.q, b.q)
            assert np.array_equal(a.u, b.u)
