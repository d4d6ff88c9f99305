import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from porosplit import constitutive as laws
from porosplit.constitutive import (
    InvalidInput,
    PorosityLaw,
    VanGenuchtenModel,
    capillary_pressure,
    equivalent_pore_pressure,
    mobility,
    mobility_derivative_wrt_p,
    porosity,
    saturation,
    saturation_derivative,
)

from conftest import VG_HOELDER, VG_SMOOTH

# frozen high-precision reference values (40-digit quadrature/evaluation)
PE_SMOOTH_778 = -5.985238251221241
PE_HOELDER_153 = -8.735562484095114
MOBILITY_04 = 5.924654824858439e-4
PC_04 = 7.780115933706871


class TestSaturation:
    def test_saturated_branch(self):
        assert saturation(0.5, VG_SMOOTH) == 1.0
        assert saturation(0.0, VG_SMOOTH) == 1.0

    def test_initial_states_of_both_benchmarks(self):
        # both parameter sets were chosen for an initial saturation of 0.4
        assert saturation(-7.78, VG_SMOOTH) == pytest.approx(0.40, abs=1e-4)
        assert saturation(-15.3, VG_HOELDER) == pytest.approx(0.40, abs=1e-4)

    def test_continuity_at_zero(self):
        assert saturation(-1e-12, VG_SMOOTH) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            saturation(np.nan, VG_SMOOTH)
        with pytest.raises(InvalidInput):
            saturation(np.inf, VG_HOELDER)

    @given(
        p=st.floats(min_value=-1e4, max_value=0.0),
        dp=st.floats(min_value=1e-8, max_value=1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_nondecreasing(self, p, dp):
        hi = min(p + dp, 0.0)
        assert saturation(p, VG_SMOOTH) <= saturation(hi, VG_SMOOTH) + 1e-15
        assert saturation(p, VG_HOELDER) <= saturation(hi, VG_HOELDER) + 1e-15

    def test_range(self):
        p = -np.logspace(-6, 5, 200)
        for vg in (VG_SMOOTH, VG_HOELDER):
            s = saturation(p, vg)
            assert np.all(s > 0) and np.all(s <= 1)


class TestSaturationDerivative:
    def test_zero_on_saturated_branch(self):
        assert saturation_derivative(1.0, VG_SMOOTH) == 0.0
        # value at p = 0 is the left limit, which vanishes for n > 1
        assert saturation_derivative(0.0, VG_SMOOTH) == 0.0

    @pytest.mark.parametrize("vg", [VG_SMOOTH, VG_HOELDER], ids=["smooth", "hoelder"])
    def test_matches_centered_differences(self, vg, rng):
        p = -np.exp(rng.uniform(np.log(1e-3), np.log(100.0), 1000))
        h = 1e-6 * np.abs(p)
        fd = (saturation(p + h, vg) - saturation(p - h, vg)) / (2 * h)
        exact = saturation_derivative(p, vg)
        # near p -> 0- the difference quotient cancels at machine precision;
        # compare to 1e-5 relative up to that roundoff floor
        floor = 4 * np.finfo(float).eps / (2 * h)
        assert np.all(np.abs(fd - exact) <= 1e-5 * np.abs(exact) + floor)

    def test_lipschitz_constant_smooth_set(self):
        # reported Lipschitz constant of the smooth retention curve is 0.12
        p = np.linspace(-100, -1e-6, 200001)
        sup = saturation_derivative(p, VG_SMOOTH).max()
        assert sup == pytest.approx(0.12, abs=2e-3)
        assert VG_SMOOTH.saturation_lipschitz() == pytest.approx(sup, rel=1e-6)

    def test_closed_form_lipschitz_is_supremum(self, rng):
        for _ in range(5):
            vg = VanGenuchtenModel(rng.uniform(0.05, 2.0), rng.uniform(1.1, 5.0), 1.0, 1.0)
            p = -np.logspace(-4, 4, 400001)
            assert saturation_derivative(p, vg).max() <= vg.saturation_lipschitz() * (1 + 1e-8)


class TestMobility:
    def test_endpoints(self):
        assert mobility(1.0, VG_SMOOTH) == pytest.approx(3e-2, rel=1e-14)
        assert mobility(0.0, VG_SMOOTH) == 0.0

    def test_reference_value(self):
        assert mobility(0.4, VG_SMOOTH) == pytest.approx(MOBILITY_04, rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            mobility(-0.1, VG_SMOOTH)
        with pytest.raises(InvalidInput):
            mobility(1.1, VG_SMOOTH)

    def test_continuous_across_full_saturation(self):
        # k_w(s_w(p)) approaches kappa/mu_w as p -> 0-
        left = mobility(saturation(-1e-9, VG_SMOOTH), VG_SMOOTH)
        assert left == pytest.approx(3e-2, rel=1e-9)


class TestMobilityDerivative:
    def test_saturated_branch(self):
        value, clamped = mobility_derivative_wrt_p(1.0, VG_SMOOTH)
        assert value == 0.0 and not clamped

    def test_matches_finite_differences(self):
        for vg, p in ((VG_SMOOTH, -7.78), (VG_HOELDER, -7.78), (VG_HOELDER, -0.5)):
            h = 1e-6 * abs(p)
            fd = (
                mobility(saturation(p + h, vg), vg)
                - mobility(saturation(p - h, vg), vg)
            ) / (2 * h)
            value, clamped = mobility_derivative_wrt_p(p, vg)
            assert not clamped
            assert value == pytest.approx(fd, rel=1e-5)

    def test_hoelder_blowup(self, monkeypatch):
        # |p|^(n-2) growth for n < 2: direct evaluation crosses 1e6 near -1e-14
        value, _ = mobility_derivative_wrt_p(-1e-14, VG_HOELDER)
        assert abs(value) > 1e6
        # ... and the default 1e12 cap engages deeper in the transition
        value, clamped = mobility_derivative_wrt_p(-1e-24, VG_HOELDER)
        assert clamped and abs(value) == 1e12
        # the cap is read at call time
        monkeypatch.setattr(laws, "DERIVATIVE_CAP", 1e6)
        value, clamped = mobility_derivative_wrt_p(-1e-14, VG_HOELDER)
        assert clamped and abs(value) == 1e6

    def test_never_nan(self):
        p = -np.logspace(-300, 3, 500)
        value, _ = mobility_derivative_wrt_p(p, VG_HOELDER)
        assert np.all(np.isfinite(value))

    def test_smooth_set_stays_bounded_near_zero(self):
        # n = 3 > 2: the derivative vanishes at the transition
        value, clamped = mobility_derivative_wrt_p(-1e-12, VG_SMOOTH)
        assert not clamped and abs(value) < 1e-10


class TestEquivalentPorePressure:
    def test_saturated_branch(self):
        assert equivalent_pore_pressure(3.0, VG_SMOOTH) == 3.0
        assert equivalent_pore_pressure(0.0, VG_SMOOTH) == 0.0

    def test_reference_values(self):
        assert equivalent_pore_pressure(-7.78, VG_SMOOTH) == pytest.approx(
            PE_SMOOTH_778, rel=1e-12
        )
        assert equivalent_pore_pressure(-15.3, VG_HOELDER) == pytest.approx(
            PE_HOELDER_153, rel=1e-12
        )

    @pytest.mark.parametrize("vg", [VG_SMOOTH, VG_HOELDER], ids=["smooth", "hoelder"])
    def test_against_adaptive_quadrature(self, vg):
        for p in (-0.01, -1.0, -7.78, -40.0, -500.0):
            ref, err = scipy.integrate.quad(
                lambda x: saturation(x, vg), 0.0, p, epsabs=0.0, epsrel=1e-12
            )
            assert err < 1e-10 * abs(ref)
            assert equivalent_pore_pressure(p, vg) == pytest.approx(ref, rel=1e-10)

    def test_slope_equals_saturation(self):
        h = 1e-6
        for p in (-7.78, -2.0, -30.0):
            fd = (
                equivalent_pore_pressure(p + h, VG_SMOOTH)
                - equivalent_pore_pressure(p - h, VG_SMOOTH)
            ) / (2 * h)
            assert fd == pytest.approx(saturation(p, VG_SMOOTH), rel=1e-6)

    def test_strictly_increasing(self):
        p = np.linspace(-200.0, 5.0, 400)
        pe = equivalent_pore_pressure(p, VG_HOELDER)
        assert np.all(np.diff(pe) > 0)

    def test_against_mpmath_oracle(self):
        # 40-digit reference p 2F1(m, 1/n; 1 + 1/n; -(a|p|)^n); n = 2 is the
        # degenerate (logarithmic) case of the large-argument expansion, and
        # (0.5, 8, -372.76) once exhausted a graded-panel quadrature
        p_values = -np.logspace(-8, 7, 31)
        cases = [(a, n, p_values)
                 for n in (1.001, 1.01, 1.4, 1.9, 1.999, 2.0, 2.001, 2.1, 3.0, 5.0, 8.0, 12.0)
                 for a in (0.1844, 0.627)]
        cases.append((0.5, 8.0, np.array([-372.76])))
        worst = 0.0
        for a, n, ps in cases:
            vg = VanGenuchtenModel(a, n, 1.0, 1.0)
            got = equivalent_pore_pressure(ps, vg)
            with mpmath.workdps(40):
                am, nm = mpmath.mpf(a), mpmath.mpf(n)
                for p, value in zip(ps, got):
                    pm = mpmath.mpf(p)
                    ref = pm * mpmath.hyp2f1(1 - 1 / nm, 1 / nm, 1 + 1 / nm,
                                             -(am * -pm) ** nm)
                    worst = max(worst, float(abs((value - ref) / ref)))
        assert worst <= 1e-14, worst


def pore_pressure_by_polyval(pw, vg):
    """The suction branch of p_E as first written, with the series
    constants recomputed and T(V) summed by numpy's polyval on every call."""
    from numpy.polynomial.polynomial import polyval
    from scipy.special import exprel, hyp2f1

    n, m, a = vg.n_vg, vg.m_vg, vg.a_vg
    ln_x = n * np.log(-a * pw)
    out = np.empty_like(pw)
    near = ln_x <= 0.0
    out[near] = pw[near] * hyp2f1(m, 1.0 / n, 1.0 + 1.0 / n, -np.exp(ln_x[near]))
    far = ~near
    ln_x = ln_x[far]
    ln_1px = ln_x + np.log1p(np.exp(-ln_x))
    eps = 1.0 - 2.0 / n
    k = np.arange(1, laws._SERIES_TERMS + 1)
    coeffs = np.concatenate([[0.0], np.cumprod((m + k - 1.0) / k) / (k + eps)])
    const = (n * 2.0 ** (-1.0 / n) * hyp2f1(1.0 / n, 2.0 / n, 1.0 + 1.0 / n, 0.5)
             + 2.0**-eps * polyval(0.5, coeffs))
    v_eps = np.exp(-eps * ln_1px)
    log_half = ln_1px - np.log(2.0)
    tame = np.abs(eps) * log_half < 1.0
    head = np.where(tame, v_eps * log_half * exprel(eps * np.where(tame, log_half, 0.0)),
                    (2.0**-eps - v_eps) / (eps or 1.0))
    v = np.exp(-ln_1px)
    out[far] = -(const + head - v_eps * polyval(v, coeffs)) / (n * a)
    return out


@pytest.mark.parametrize("n_vg", [1.4, 2.0, 3.0])
def test_series_constants_once_per_model_are_bitwise(n_vg):
    # X = (a |p|)^n crosses 1 at |p| = 1/a: both branches, the crossing
    # and a second model with the same n_vg, which shares the cached series
    for a in (0.627, 0.1844):
        vg = VanGenuchtenModel(a, n_vg, 1.0, 1.0)
        p = -np.concatenate([np.geomspace(1e-3, 1e3, 301), [1.0]]) / a
        expected = pore_pressure_by_polyval(p, vg)
        assert np.any(p * a < -1.0) and np.any(p * a > -1.0)
        for _ in range(2):
            assert np.array_equal(equivalent_pore_pressure(p, vg), expected)


class TestPorosity:
    def test_zero_increments(self):
        law = PorosityLaw(0.2, 1.0, 0.0)
        phi, ok = porosity(law, 0.0, 0.0)
        assert phi == 0.2 and ok

    def test_linear_update(self):
        law = PorosityLaw(0.2, 1.0, 0.0)
        phi, ok = porosity(law, 0.05, 0.0)
        assert phi == pytest.approx(0.25) and ok

    def test_out_of_range_is_flagged_not_raised(self):
        law = PorosityLaw(0.2, 1.0, 0.0)
        phi, ok = porosity(law, 0.9, 0.0)
        assert phi == pytest.approx(1.1) and not ok

    def test_vectorized(self):
        law = PorosityLaw(0.2, 0.5, 1e-3)
        phi, ok = porosity(law, np.array([0.0, 2.0]), np.array([0.0, 0.0]))
        assert phi == pytest.approx([0.2, 1.2])
        assert list(ok) == [True, False]


class TestCapillaryPressure:
    def test_full_saturation(self):
        assert capillary_pressure(1.0, VG_SMOOTH) == 0.0

    def test_reference_inverse(self):
        assert capillary_pressure(0.4, VG_SMOOTH) == pytest.approx(PC_04, rel=1e-12)
        assert saturation(-capillary_pressure(0.4, VG_SMOOTH), VG_SMOOTH) == pytest.approx(
            0.4, abs=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            capillary_pressure(0.0, VG_SMOOTH)
        with pytest.raises(InvalidInput):
            capillary_pressure(-0.2, VG_SMOOTH)

    @pytest.mark.parametrize("vg", [VG_SMOOTH, VG_HOELDER], ids=["smooth", "hoelder"])
    def test_round_trip(self, vg, rng):
        s = rng.uniform(0.01, 1.0, 100)
        back = saturation(-capillary_pressure(s, vg), vg)
        assert np.max(np.abs(back - s)) < 1e-10


def test_derivative_call_instrumentation():
    before = laws.derivative_call_counts()
    assert set(before) == {"saturation_derivative", "mobility_derivative_wrt_p"}
    saturation_derivative(-1.0, VG_SMOOTH)
    mobility_derivative_wrt_p(-1.0, VG_SMOOTH)
    mobility_derivative_wrt_p(-2.0, VG_SMOOTH)
    counts = laws.derivative_call_counts()
    assert counts["saturation_derivative"] - before["saturation_derivative"] == 1
    assert counts["mobility_derivative_wrt_p"] - before["mobility_derivative_wrt_p"] == 2


def test_model_validation():
    with pytest.raises(InvalidInput):
        VanGenuchtenModel(a_vg=-1.0, n_vg=3.0, kappa=1.0, mu_w=1.0)
    with pytest.raises(InvalidInput):
        VanGenuchtenModel(a_vg=0.1, n_vg=1.0, kappa=1.0, mu_w=1.0)
    with pytest.raises(InvalidInput):
        PorosityLaw(phi0=1.2, alpha=1.0)
