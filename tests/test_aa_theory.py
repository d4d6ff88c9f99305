import csv

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from porosplit.aa_theory import (
    PlaneSample,
    SingularConfiguration,
    SpectralPair,
    contraction_factor,
    propagation_eigenvalues,
    richardson_aa_experiment,
    sample_planes,
)


def two_direction_eigenvalue(l1, l2, gamma):
    """|lt_1| from the general formula at weights (sqrt(g), sqrt(1-g))."""
    lt = propagation_eigenvalues([l1, l2], [np.sqrt(gamma), np.sqrt(1.0 - gamma)])
    return abs(lt[0])


class TestContractionFactor:
    def test_equal_eigenvalues(self):
        assert contraction_factor(0.5, 0.5) == 0.0

    def test_unit_eigenvalue_gives_one(self):
        for l2 in (0.1, 0.5, 0.9):
            assert contraction_factor(1.0, l2) == pytest.approx(1.0, abs=1e-14)

    def test_direct_evaluation(self):
        assert contraction_factor(1.5, 0.5) == pytest.approx(0.5625, abs=1e-15)

    def test_symmetry(self, rng):
        for _ in range(50):
            l1, l2 = rng.uniform(-2, 2, 2)
            if abs(l1) < 1e-6 or abs(l2) < 1e-6:
                continue
            assert contraction_factor(l1, l2) == contraction_factor(l2, l1)

    def test_singular_configurations(self):
        with pytest.raises(SingularConfiguration):
            contraction_factor(0.0, 0.5)
        with pytest.raises(SingularConfiguration):
            contraction_factor(1.0, 1.0)

    def test_anti_diagonal_attains_equality(self):
        # r(l, -l) equals max(|l1|, |l2|)^4 exactly: the acceleration
        # inequality is sharp there
        for l in (0.25, 0.5, 0.9):
            assert contraction_factor(l, -l) == pytest.approx(l**4, rel=1e-14)


class TestPropagationEigenvalues:
    def test_boundary_weights_annihilate(self):
        lt = propagation_eigenvalues([0.9, 0.3], [1.0, 0.0])
        assert np.all(lt == 0.0)

    def test_interior_weights_match_closed_form(self):
        # two-direction closed form: l1^2 l2^2 (l2-l1)^2 (1-g) g /
        #   ((1-g) l1^2 (l1-1)^2 + g l2^2 (l2-1)^2)
        l1, l2, g = 0.9, 0.3, 0.37
        lt = two_direction_eigenvalue(l1, l2, g)
        ref = (
            l1**2 * l2**2 * (l2 - l1) ** 2 * (1 - g) * g
            / ((1 - g) * l1**2 * (l1 - 1) ** 2 + g * l2**2 * (l2 - 1) ** 2)
        )
        assert lt == pytest.approx(abs(ref), rel=1e-12)

    def test_sweep_maximum_equals_contraction_factor(self):
        l1, l2 = 0.9, 0.3
        gs = np.linspace(1e-9, 1 - 1e-9, 20001)
        vals = np.array([two_direction_eigenvalue(l1, l2, g) for g in gs])
        assert vals.max() == pytest.approx(contraction_factor(l1, l2), abs=1e-10)

    def test_unit_eigenvalue_with_weight_is_singular(self):
        with pytest.raises(SingularConfiguration):
            propagation_eigenvalues([1.0, 0.5], [0.6, 0.8])

    def test_weights_must_be_normalized(self):
        with pytest.raises(ValueError):
            propagation_eigenvalues([0.5, 0.3], [1.0, 1.0])

    def test_expanding_propagation_exists_for_contractive_matrix(self, rng):
        # some weight direction makes |lt| exceed 1 although rho(A) < 1
        found = False
        for _ in range(5000):
            lams = rng.uniform(-0.99, 0.99, 3)
            if np.any(np.abs(lams) < 1e-3):
                continue
            beta = rng.standard_normal(3)
            beta /= np.linalg.norm(beta)
            if np.max(np.abs(propagation_eigenvalues(lams, beta))) > 1.0:
                found = True
                break
        assert found


class TestRichardsonExperiment:
    def test_plain_ratio_approaches_dominant_eigenvalue_power(self):
        result = richardson_aa_experiment(SpectralPair(0.5, 0.9), 10)
        late = result.plain_errors[-1] / result.plain_errors[-2]
        assert late == pytest.approx(0.9**4, rel=1e-10)

    def test_four_step_bound(self):
        result = richardson_aa_experiment(SpectralPair(0.5, 0.9), 10)
        assert np.all(result.block_ratios <= result.bound * (1 + 1e-8))

    def test_non_contractive_rescue(self):
        result = richardson_aa_experiment(SpectralPair(1.5, 0.5), 30)
        assert result.aa_errors[-1] < 1e-10
        # plain Richardson from e0 = (1, 1): |e^i| = |(1.5^i, 0.5^i)|
        plain = np.linalg.norm(np.array([1.5, 0.5]) ** np.arange(121)[:, None], axis=1)
        np.testing.assert_allclose(plain[::4] / plain[0], result.plain_errors, rtol=1e-12)
        assert np.all(np.diff(plain) > 0)

    def test_degenerate_pair_reaches_machine_zero(self):
        result = richardson_aa_experiment(SpectralPair(0.6, 0.6), 2)
        assert result.aa_errors[1] < 1e-12

    def test_rejects_zero_eigenvalue(self):
        with pytest.raises(SingularConfiguration):
            SpectralPair(0.0, 0.5)

    @pytest.mark.parametrize("kw", [{"beta1": np.nan}, {"beta2": np.inf}])
    def test_rejects_non_finite_weight(self, kw):
        with pytest.raises(ValueError, match="finite"):
            SpectralPair(0.5, 0.9, **kw)


class TestPlaneSample:
    def test_acceleration_classification_on_unit_square(self):
        sample = sample_planes((-1, 1, -1, 1), 200)
        assert np.all(sample.accelerating | np.isclose(
            sample.r,
            np.maximum(np.abs(sample.lam1[None, :]), np.abs(sample.lam2[:, None])) ** 4,
            rtol=1e-12, atol=1e-15,
        ))

    def test_convergence_classification_above_one(self):
        sample = sample_planes((1, 3, 0, 1), 200)
        assert np.all(sample.converging)

    def test_symmetry_of_the_factor(self):
        sample = sample_planes((-1, 1, -1, 1), 120)
        assert np.max(np.abs(sample.r - sample.r.T)) <= 1e-14

    def test_csv_emission(self, tmp_path):
        sample = sample_planes((-1, 1, -1, 1), 4)
        path = tmp_path / "plane.csv"
        sample.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["lambda1", "lambda2", "r", "accel_flag", "conv_flag"]
        assert len(rows) == 1 + 16

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            sample_planes((-1, 1, -1, 1), 1)


def test_attainment_for_random_pairs(rng):
    # max over gamma of |lt1| coincides with the closed form
    for _ in range(10):
        l1, l2 = rng.uniform(-0.95, 0.95, 2)
        if min(abs(l1), abs(l2)) < 5e-2 or abs(l1 - l2) < 1e-2:
            continue
        gs = np.linspace(1e-6, 1 - 1e-6, 1001)
        coarse = max(two_direction_eigenvalue(l1, l2, g) for g in gs)
        res = minimize_scalar(
            lambda g: -two_direction_eigenvalue(l1, l2, g),
            bounds=(1e-9, 1 - 1e-9),
            method="bounded",
            options={"xatol": 1e-13},
        )
        best = max(coarse, -res.fun)
        assert best == pytest.approx(contraction_factor(l1, l2), abs=1e-8)
