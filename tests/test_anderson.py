import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from porosplit import anderson
from porosplit.anderson import AndersonConfig, AndersonWindow, mixing_weights


class TestMixingWeights:
    def test_single_column(self):
        alpha, fallback = mixing_weights(np.array([[1.0], [2.0]]))
        assert list(alpha) == [1.0] and not fallback

    def test_orthonormal_pair(self):
        alpha, fallback = mixing_weights(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert not fallback
        assert alpha == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_against_dense_kkt_oracle(self):
        F = np.array([[1.0, 0.9], [0.0, 0.1]])
        alpha, fallback = mixing_weights(F)
        assert not fallback
        # constrained least squares via the KKT system
        gram = F.T @ F
        kkt = np.block([[2 * gram, np.ones((2, 1))], [np.ones((1, 2)), np.zeros((1, 1))]])
        ref = np.linalg.solve(kkt, np.array([0.0, 0.0, 1.0]))[:2]
        assert np.max(np.abs(alpha - ref)) < 1e-12

    def test_kkt_oracle_many_columns(self, rng):
        F = rng.standard_normal((30, 5))
        alpha, fallback = mixing_weights(F)
        assert not fallback
        gram = F.T @ F
        kkt = np.block([[2 * gram, np.ones((5, 1))], [np.ones((1, 5)), np.zeros((1, 1))]])
        ref = np.linalg.solve(kkt, np.concatenate([np.zeros(5), [1.0]]))[:5]
        assert np.max(np.abs(alpha - ref)) < 1e-10

    @pytest.mark.parametrize(
        "columns",
        [
            [[1.0, 2.0], [1.0, 2.0]],
            [[1.0, 2.0], [0.5, 3.0], [1.0, 2.0]],
            [[np.inf, 2.0], [1.0, 2.0]],
            [[1.0, 2.0], [np.nan, 2.0], [0.5, 3.0]],
        ],
        ids=["repeated-2", "repeated-3", "inf-2", "nan-3"],
    )
    def test_duplicate_columns_fall_back_to_plain(self, columns):
        alpha, fallback = mixing_weights(np.array(columns).T)
        assert fallback
        assert list(alpha) == [0.0] * (len(columns) - 1) + [1.0]

    @pytest.mark.parametrize(
        "increments",
        # one increment vector is not a set of one-entry columns
        [np.array([3.0, 1.0, 2.0]), np.zeros((0, 2)), np.zeros((3, 0))],
        ids=["one-dimensional", "no-rows", "no-columns"],
    )
    def test_malformed_arrays_are_rejected(self, increments):
        with pytest.raises(ValueError):
            mixing_weights(increments)

    def test_condition_cap(self, rng, monkeypatch):
        monkeypatch.setattr(anderson, "COND_CAP", 1e6)  # read at call time
        base = rng.standard_normal(20)
        F = np.column_stack([base, base * (1 + 1e-15), rng.standard_normal(20)])
        alpha, fallback = mixing_weights(F)
        assert fallback and list(alpha) == [0.0, 0.0, 1.0]

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_weights_sum_to_one(self, cols, seed):
        gen = np.random.default_rng(seed)
        F = gen.standard_normal((12, cols))
        alpha, _ = mixing_weights(F)
        assert abs(alpha.sum() - 1.0) < 1e-14


class TestAndersonWindow:
    def test_depth_zero_is_bitwise_pass_through(self, rng):
        window = AndersonWindow(AndersonConfig(depth=0))
        for _ in range(5):
            image = rng.standard_normal(7)
            out, _, _ = window.push(image, rng.standard_normal(7))
            assert np.all(out == image)

    def test_window_never_exceeds_depth(self, rng):
        window = AndersonWindow(AndersonConfig(depth=3))
        for i in range(12):
            _, alpha, _ = window.push(rng.standard_normal(5), rng.standard_normal(5))
            assert len(alpha) - 1 <= 3

    def test_restarted_depth_sequence_pairs_plain_and_accelerated(self, rng):
        # AA*(1), a depth-1 window replaced every two pushes: depth pattern
        # 0, 1, 0, 1, ... -- one plain step, one mixed step
        depths = []
        for i in range(8):
            if i % 2 == 0:
                window = AndersonWindow(AndersonConfig(depth=1))
            _, alpha, _ = window.push(rng.standard_normal(4), rng.standard_normal(4))
            depths.append(len(alpha) - 1)
        assert depths == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_restarted_matches_explicit_alpha_on_linear_map(self, rng):
        # oracle: the one-difference least squares has the secant solution
        # alpha = ((d1 - d0) . d1) / |d1 - d0|^2 on the older image
        A = np.diag([1.4, 0.6, 0.3])
        x = np.array([1.0, 1.0, 1.0])
        for cycle in range(6):
            window = AndersonWindow(AndersonConfig(depth=1))  # the restart
            img0 = A @ x
            d0 = img0 - x
            x1 = window.push(img0, d0)[0]
            assert np.max(np.abs(x1 - img0)) == 0.0  # plain step
            img1 = A @ x1
            d1 = img1 - x1
            x2, alpha, fallback = window.push(img1, d1)
            assert not fallback
            a_ref = ((d1 - d0) @ d1) / ((d1 - d0) @ (d1 - d0))
            assert alpha[0] == pytest.approx(a_ref, abs=1e-12)
            expected = img1 + a_ref * (img0 - img1)
            assert np.max(np.abs(x2 - expected)) < 1e-12
            x = x2

    def test_no_deterioration_on_spd_contractions(self, rng):
        # windowed acceleration never worsens a linear SPD contraction:
        # its error stays at or below the plain Richardson error
        for _ in range(100):
            n = int(rng.integers(2, 7))
            lam = rng.uniform(0.05, 0.95, n)
            A = np.diag(lam)
            m = int(rng.integers(1, 4))
            x0 = rng.standard_normal(n)
            window = AndersonWindow(AndersonConfig(depth=m))
            x, y = x0.copy(), x0.copy()
            for _ in range(25):
                image = A @ x
                x = window.push(image, image - x)[0]
                y = A @ y
                if np.linalg.norm(y) > 1e-13:
                    assert np.linalg.norm(x) <= np.linalg.norm(y) * (1 + 1e-8)

    def test_mass_weighted_norm_is_used(self):
        # with strongly nonuniform weights the mixing optimum moves
        weights = np.array([100.0, 0.01])
        f0 = np.array([1.0, 0.0])
        f1 = np.array([0.0, 1.0])
        plain = AndersonWindow(AndersonConfig(depth=1))
        weighted = AndersonWindow(AndersonConfig(depth=1), weights=weights)
        img = np.zeros(2)
        plain.push(img, f0)
        weighted.push(img, f0)
        _, alpha_plain, _ = plain.push(img, f1)
        _, alpha_weighted, _ = weighted.push(img, f1)
        assert alpha_plain == pytest.approx([0.5, 0.5], abs=1e-14)
        # minimizing |sqrt(w) (alpha f0 + (1-alpha) f1)| favors damping f0
        assert alpha_weighted[0] == pytest.approx(0.01 / 100.01, rel=1e-10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AndersonConfig(depth=-1)
        with pytest.raises(ValueError, match="integer"):
            AndersonConfig(depth=1.0)
