"""Acceptance suite: one test per exit criterion.

Each test prints a single PASS line with its measured quantities (run
pytest with -s to see them).  Heavy coupled sweeps are shared through
session-scoped fixtures.  Tests 1-4 exercise the linear acceleration
theory, 5-11 the coupled solver stack.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from porosplit import constitutive as laws
from porosplit.aa_theory import (
    SpectralPair,
    contraction_factor,
    propagation_eigenvalues,
    richardson_aa_experiment,
    sample_planes,
)
from porosplit.anderson import AndersonConfig
from porosplit.fem import assemble
from porosplit.mesh import RectMesh
from porosplit.model import PoroState, initial_state, newton_blocks, volume_conservation_gap
from porosplit.schemes import SchemeConfig, fixed_stress_beta, run_transient

from conftest import (
    LAM,
    MU,
    P0_HOELDER,
    P0_SMOOTH,
    VG_SMOOTH,
    natural,
    pressure_iterates,
    setup_problem,
)
from oracles import DenseReducedProblem, residuals, settled_initial_state

PLAIN_SCHEMES = ("newton", "fsnewton", "fsmp", "fsl")
ALPHAS = (0.1, 0.5, 1.0)


def report(criterion, message):
    print(f"\nPASS criterion {criterion}: {message}")


# ----------------------------------------------------------------------
# shared heavy runs
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def test1_runs():
    """Plain-scheme test-I sweep on 25x25 plus the FSL acceleration and
    50x50 reference runs; FSL combinations are instrumented for
    constitutive-derivative calls."""
    runs = {}
    counters = {}

    def counted(key, *args):
        """runs[key] = run_transient(*args); counters[key] = the derivative
        calls it made."""
        before = laws.derivative_call_counts()
        runs[key] = run_transient(*args)
        after = laws.derivative_call_counts()
        counters[key] = {name: after[name] - before[name] for name in after}

    m25 = RectMesh(25, 25, 1.0, 1.0, 0.2)
    ops25 = assemble(m25, MU, LAM)
    for alpha in ALPHAS:
        _, _, params, init = setup_problem(25, 25, alpha=alpha)
        for kind in PLAIN_SCHEMES:
            scheme = SchemeConfig(kind=kind)
            if kind == "fsl":
                counted((kind, 0, alpha), scheme, None, init, params, ops25)
            else:
                runs[(kind, 0, alpha)] = run_transient(scheme, None, init, params, ops25)

    _, _, params1, init1 = setup_problem(25, 25, alpha=1.0)
    counted(("fsl", 10, 1.0), SchemeConfig(kind="fsl"), AndersonConfig(depth=10),
            init1, params1, ops25)

    _, _, params50, init50 = setup_problem(50, 50, alpha=1.0)
    ops50 = assemble(RectMesh(50, 50, 1.0, 1.0, 0.2), MU, LAM)
    counted(("fsl50", 0, 1.0), SchemeConfig(kind="fsl"), None, init50, params50, ops50)

    operators = {25: ops25, 50: ops50}
    params_all = {(25, a): setup_problem(25, 25, alpha=a)[2] for a in ALPHAS}
    params_all[(50, 1.0)] = params50
    return {"runs": runs, "counters": counters, "ops": operators,
            "params": params_all}


@pytest.fixture(scope="session")
def contraction_traces():
    """Constant-parameter FSL (L = L_s, assembled diagonal L_s + beta_FS)
    on both grids, with the pressure iterates of every step, for the
    contraction witness."""
    out = {}
    for nx in (25, 50):
        _, _, params, _ = setup_problem(nx, nx, alpha=1.0)
        mesh = RectMesh(nx, nx, 1.0, 1.0, 0.2)
        ops = assemble(mesh, MU, LAM)
        init = settled_initial_state(mesh, params, P0_SMOOTH, ops)
        scheme = SchemeConfig(kind="fsl", L=VG_SMOOTH.saturation_lipschitz())
        with pressure_iterates("fsl_iteration") as traces:
            result = run_transient(scheme, None, init, params, ops)
        assert result.completed
        out[nx] = (traces, ops)
    return out


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def test_criterion_01_closed_form_checks():
    t0 = time.perf_counter()
    assert contraction_factor(0.5, 0.5) == 0.0
    assert contraction_factor(-0.3, -0.3) == 0.0
    for l2 in (0.1, 0.4, 0.7, 0.99):
        assert contraction_factor(1.0, l2) == pytest.approx(1.0, abs=1e-12)

    sample = sample_planes((-1, 1, -1, 1), 200)
    assert np.max(np.abs(sample.r - sample.r.T)) <= 1e-12  # symmetry
    max4 = np.maximum(np.abs(sample.lam1[None, :]), np.abs(sample.lam2[:, None])) ** 4
    assert np.all(sample.r < max4 + 1e-12)  # acceleration (sharp on l2 = -l1)

    above = sample_planes((1, 3, 0, 1), 200)
    assert np.all(above.r < 1.0)  # convergence for one expanding eigenvalue
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"closed forms and 200x200 grids verified in {elapsed:.2f}s")


def test_criterion_02_empirical_four_step_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    pairs = trials = 0
    while pairs < 200:
        l1, l2 = rng.uniform(-0.95, 0.95, 2)
        if min(abs(l1), abs(l2)) < 1e-3:
            continue
        pairs += 1
        for _ in range(20):
            beta = rng.standard_normal(2)
            beta /= np.linalg.norm(beta)
            result = richardson_aa_experiment(
                SpectralPair(l1, l2, beta[0], beta[1]), 10
            )
            live = result.aa_errors[:-1] > 1e-13 * result.aa_errors[0]
            assert np.all(
                result.block_ratios[live] <= result.bound * (1 + 1e-8)
            ), (l1, l2)
            trials += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, f"{pairs} pairs x 20 errors ({trials} runs, 40 iterations each) "
              f"respect the bound in {elapsed:.1f}s")


def test_criterion_03_non_contractive_rescue():
    # one restart cycle applies the map twice, so 60 cycles = 30 four-step
    # blocks; the (1.5, 0.5) trajectory is exactly self-similar with ratio
    # 0.45 per block and first drops below 1e-10 at iteration 116
    t0 = time.perf_counter()
    result = richardson_aa_experiment(SpectralPair(1.5, 0.5), 30)
    assert result.aa_errors[-1] < 1e-10
    assert np.all(np.diff(result.plain_full) > 0)  # plain grows monotonically
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, f"error {result.aa_errors[-1]:.2e} < 1e-10 after 60 restart "
              f"cycles while plain Richardson grows; {elapsed:.2f}s")


def test_criterion_04_worst_case_attainment():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 50:
        l1, l2 = rng.uniform(-0.95, 0.95, 2)
        if min(abs(l1), abs(l2)) < 1e-2 or abs(l1 - l2) < 1e-3:
            continue
        checked += 1

        def magnitude(gamma, l1=l1, l2=l2):
            lt = propagation_eigenvalues(
                [l1, l2], [np.sqrt(gamma), np.sqrt(1 - gamma)]
            )
            return abs(lt[0])

        grid = np.linspace(1e-8, 1 - 1e-8, 801)
        coarse = max(magnitude(g) for g in grid)
        refine = minimize_scalar(
            lambda g: -magnitude(g), bounds=(1e-10, 1 - 1e-10), method="bounded",
            options={"xatol": 1e-13},
        )
        best = max(coarse, -refine.fun)
        assert best == pytest.approx(contraction_factor(l1, l2), abs=1e-8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"max_gamma |lt1| = r for {checked} random pairs in {elapsed:.1f}s")


def test_criterion_05_reduced_equivalence():
    t0 = time.perf_counter()
    mesh = RectMesh(2, 2, 1.0, 1.0, 0.5)
    ops = assemble(mesh, MU, LAM)
    _, _, params, _ = setup_problem(2, 2, width=0.5, alpha=1.0, T=0.3)
    init = settled_initial_state(mesh, params, P0_SMOOTH, ops)

    L = VG_SMOOTH.saturation_lipschitz()
    beta = fixed_stress_beta(params.mu, params.lam, params.alpha)
    scheme = SchemeConfig(kind="fsl", L=L)
    with pressure_iterates("fsl_iteration") as traces:
        full = run_transient(scheme, None, init, params, ops)
    assert full.completed and len(traces) == 3

    problem = DenseReducedProblem(ops, params, init)
    phi_prev = init.porosity.copy()
    s_prev = init.saturation(params)
    p_reduced = init.p.copy()
    worst = 0.0
    compared = 0
    for n, trace in enumerate(traces, start=1):
        t = n * params.tau
        p_iter = p_reduced.copy()
        for i in range(1, len(trace)):
            p_iter = problem.lscheme_step(p_iter, phi_prev, s_prev, t,
                                          L + params.inv_n + beta)
            worst = max(worst, float(np.max(np.abs(p_iter - trace[i]))))
            compared += 1
        p_reduced = p_iter
        phi_prev = problem.phi_vec(p_reduced) / problem.area
        s_prev = problem.saturation(p_reduced)
    assert worst <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(5, f"{compared} pressure iterates over 3 steps coincide to "
              f"{worst:.2e} (<= 1e-10) in {elapsed:.1f}s")


def test_criterion_06_jacobian_validity():
    t0 = time.perf_counter()
    mesh = RectMesh(5, 5, 1.0, 1.0, 0.2)
    ops = assemble(mesh, MU, LAM)
    _, _, params, prev = setup_problem(5, 5, alpha=1.0)
    rng = np.random.default_rng(23)
    h = 1e-7
    worst = 0.0
    for _ in range(20):
        p = rng.uniform(-12.0, -2.0, mesh.n_cells)
        q = rng.normal(0.0, 0.05, mesh.n_edges)
        q[ops.fixed_q] = 0.0
        u = np.zeros(2 * mesh.n_nodes)
        u[ops.free_u] = rng.normal(0.0, 0.01, len(ops.free_u))
        state = PoroState(p=p, q=q, u=u, time=params.tau)
        matrix, _, _ = newton_blocks(state, prev, params, ops)
        dp = rng.standard_normal(mesh.n_cells)
        dqf = rng.standard_normal(len(ops.free_q))
        duf = rng.standard_normal(len(ops.free_u))
        action = natural(matrix, ops.order) @ np.concatenate([dp, dqf, duf])

        def shifted(sign):
            qq = q.copy()
            qq[ops.free_q] += sign * h * dqf
            uu = u.copy()
            uu[ops.free_u] += sign * h * duf
            return PoroState(p=p + sign * h * dp, q=qq, u=uu, time=params.tau)

        rp1, rq1, ru1 = residuals(shifted(+1), prev, params, ops)
        rp0, rq0, ru0 = residuals(shifted(-1), prev, params, ops)
        fd = np.concatenate(
            [(rp0 - rp1), (rq0 - rq1)[ops.free_q], (ru0 - ru1)[ops.free_u]]
        ) / (2 * h)
        rel = np.linalg.norm(action - fd) / np.linalg.norm(fd)
        worst = max(worst, rel)
    assert worst <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, f"20 random smooth states: worst directional error {worst:.2e} "
              f"(<= 1e-5) in {elapsed:.1f}s")


def test_criterion_07_volume_conservation(test1_runs):
    worst = 0.0
    steps = 0
    for key, result in test1_runs["runs"].items():
        nx = 50 if key[0] == "fsl50" else 25
        params = test1_runs["params"][(nx, key[2])]
        ops = test1_runs["ops"][nx]
        for prev, state in zip(result.states, result.states[1:]):
            gap = np.max(np.abs(volume_conservation_gap(state, prev, params, ops)))
            worst = max(worst, float(gap))
            steps += 1
    assert worst <= 1e-13
    report(7, f"balance identity gap {worst:.2e} (<= 1e-13) over {steps} "
              f"accepted steps of every scheme")


def test_criterion_08_smooth_benchmark(test1_runs):
    runs = test1_runs["runs"]
    for alpha in ALPHAS:
        for kind in PLAIN_SCHEMES:
            assert runs[(kind, 0, alpha)].completed, (kind, alpha)

    # iteration-count ordering per coupling strength; 2% slack absorbs
    # single-iteration ties between the split Newton and Picard variants
    for alpha in ALPHAS:
        avg = {k: runs[(k, 0, alpha)].average_iterations for k in PLAIN_SCHEMES}
        assert avg["newton"] <= avg["fsnewton"] * 1.02, (alpha, avg)
        assert avg["fsnewton"] <= avg["fsmp"] * 1.02, (alpha, avg)
        assert avg["fsmp"] <= avg["fsl"] * 1.02, (alpha, avg)

    plain = runs[("fsl", 0, 1.0)].average_iterations
    accel = runs[("fsl", 10, 1.0)].average_iterations
    assert accel <= 0.85 * plain

    fine = runs[("fsl50", 0, 1.0)].average_iterations
    assert 13.0 <= fine <= 27.0
    report(8, "all plain schemes converge; ordering holds per alpha; "
              f"FSL AA(10) {accel:.1f} vs AA(0) {plain:.1f} "
              f"({100 * (1 - accel / plain):.0f}% reduction); "
              f"50x50 FSL average {fine:.1f} in [13, 27]")


HOELDER_CANDIDATES = ("newton", "fsnewton", "fsmp", "fsl2")
HOELDER_DEPTHS = (1, 3, 5, 10)


def hoelder_runs(p0_scale=1.0):
    """Criterion-09 set-up: test2 on 25x25 at alpha = 0.1 with the initial
    pressure scaled by ``p0_scale``.  Returns the plain transients and, for
    every failing split scheme, its first completing depth with the
    transient."""
    mesh = RectMesh(25, 25, 1.0, 1.0, 0.2)
    ops = assemble(mesh, MU, LAM)
    _, _, params, _ = setup_problem(25, 25, alpha=0.1, scenario="hoelder")
    init = initial_state(mesh, params, P0_HOELDER * p0_scale, ops)

    def scheme_for(name):
        if name == "fsl2":
            return SchemeConfig(kind="fsl", L_scale=0.5)
        return SchemeConfig(kind=name)

    plain = {}
    for name in HOELDER_CANDIDATES:
        plain[name] = run_transient(scheme_for(name), None, init, params, ops)

    rescued = {}
    for name in HOELDER_CANDIDATES:
        if plain[name].completed or name == "newton":
            continue
        for depth in HOELDER_DEPTHS:
            result = run_transient(scheme_for(name), AndersonConfig(depth=depth),
                                   init, params, ops)
            if result.completed:
                rescued[name] = (depth, result)
                break
    return plain, rescued


@pytest.fixture(scope="session")
def hoelder_nominal():
    return hoelder_runs()


@pytest.fixture(scope="session")
def test2_runs(hoelder_nominal):
    plain, rescued = hoelder_nominal
    rescues = {n: (d, r.average_iterations) for n, (d, r) in rescued.items()}
    return plain, rescues


def test_criterion_09_hoelder_rescue(test2_runs):
    plain, rescues = test2_runs
    failing = [name for name, result in plain.items() if not result.completed]
    assert len(failing) >= 2, failing
    splitting_failures = [n for n in failing if n != "newton"]
    for name in splitting_failures:
        assert name in rescues, f"no acceleration depth rescued {name}"
    failed = {n: f"{plain[n].fail_status}[{plain[n].fail_step}]" for n in failing}
    saved = {n: f"AA({d}) avg {a:.1f}" for n, (d, a) in rescues.items()}
    report(9, f"plain failures {failed}; rescues {saved}")


def _markers(plain):
    return {n: f"{r.fail_status}[{r.fail_step}]" for n, r in plain.items()
            if not r.completed}


@pytest.mark.parametrize("p0_scale", (1 + 1e-14, 1 - 1e-14))
def test_criterion_09_round_off_robustness(hoelder_nominal, p0_scale):
    # a round-off perturbation of the initial pressure must not change the
    # outcome of criterion 09, and every rescue keeps half its budget spare
    nominal_plain, nominal_rescued = hoelder_nominal
    plain, rescued = hoelder_runs(p0_scale)
    assert _markers(plain) == _markers(nominal_plain)
    assert set(rescued) == set(nominal_rescued)
    budget = SchemeConfig(kind="fsl").max_iters
    peaks = {}
    for runs in (nominal_rescued, rescued):
        for name, (depth, result) in runs.items():
            peak = max(result.iterations_per_step)
            assert peak <= budget // 2, (name, depth, result.iterations_per_step)
            peaks[name] = max(peak, peaks.get(name, 0))
    report(9, f"p0 x {p0_scale!r}: markers {_markers(plain)}; rescued "
              f"{sorted(rescued)} with at most {peaks} iterations per step")


def test_criterion_10_contraction_witness(contraction_traces):
    medians = {}
    for nx, (traces, ops) in contraction_traces.items():
        ratios = []
        for trace in traces:
            p_star = trace[-1]
            errs = np.array([ops.pressure_norm(p - p_star) for p in trace[:-1]])
            floor = 1e-12 * max(ops.pressure_norm(p_star), 1.0)
            live = errs > floor
            errs = errs[live]
            ratio = errs[1:] / errs[:-1]
            assert np.all(ratio <= 1.0 + 1e-12), (nx, ratio.max())
            ratios.extend(ratio.tolist())
        medians[nx] = float(np.median(ratios))
    gap = abs(medians[25] - medians[50]) / medians[50]
    assert gap < 0.25
    report(10, f"monotone contraction on both grids; estimated rates "
               f"{medians[25]:.4f} (25x25) vs {medians[50]:.4f} (50x50), "
               f"difference {100 * gap:.2g}%")


def test_criterion_11_derivative_free_guarantee(test1_runs):
    counters = test1_runs["counters"]
    assert counters, "no instrumented FSL runs"
    for key, counts in counters.items():
        assert counts["saturation_derivative"] == 0, key
        assert counts["mobility_derivative_wrt_p"] == 0, key
    report(11, f"{len(counters)} FSL runs performed zero saturation/mobility "
               f"derivative evaluations")
