"""Van Genuchten-Mualem constitutive laws for unsaturated poromechanics.

Pointwise material laws shared by every linearization scheme:

* water retention      s_w(p) = (1 + (-a p)^n)^(-(n-1)/n)   for p <= 0, else 1,
* relative mobility    k_w(s) = (kappa/mu_w) sqrt(s) (1 - (1 - s^(n/(n-1)))^((n-1)/n))^2,
* equivalent pore pressure  p_E(p) = int_0^p s_w(xi) dxi,   so that dp_E = s_w dp,
  in closed form through the Gauss hypergeometric function,
* linear porosity update    phi = phi_0 + alpha d(div u) + (1/N) d(p_E).

All functions accept scalars or numpy arrays and are pure.  Calls to the two
derivative evaluators are counted globally so that derivative-free schemes can
assert that they never touch them (the counts never reset; callers compare
two readings).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import exprel, hyp2f1

__all__ = [
    "InvalidInput",
    "VanGenuchtenModel",
    "PorosityLaw",
    "saturation",
    "saturation_derivative",
    "mobility",
    "mobility_derivative_wrt_p",
    "equivalent_pore_pressure",
    "porosity",
    "capillary_pressure",
    "derivative_call_counts",
]

DERIVATIVE_CAP = 1e12


class InvalidInput(ValueError):
    """Raised for non-finite or out-of-range arguments to a material law."""


# Instrumentation: number of calls to derivative evaluators.  The L-scheme
# family advertises that it is derivative-free; tests assert these stay put.
_derivative_calls = {"saturation_derivative": 0, "mobility_derivative_wrt_p": 0}


def derivative_call_counts() -> dict:
    return dict(_derivative_calls)


@dataclass(frozen=True)
class VanGenuchtenModel:
    """Parameter set of the van Genuchten-Mualem retention/mobility model.

    Attributes:
        a_vg: inverse air-suction scale (1/Pa), > 0.
        n_vg: pore-size distribution index (-), > 1.
        kappa: intrinsic permeability (m^2), > 0.
        mu_w: dynamic fluid viscosity (Pa s), > 0.
    """

    a_vg: float
    n_vg: float
    kappa: float
    mu_w: float

    def __post_init__(self):
        if not (self.a_vg > 0 and self.n_vg > 1 and self.kappa > 0 and self.mu_w > 0):
            raise InvalidInput(
                "require a_vg > 0, n_vg > 1, kappa > 0, mu_w > 0, got "
                f"a_vg={self.a_vg}, n_vg={self.n_vg}, kappa={self.kappa}, mu_w={self.mu_w}"
            )

    @property
    def m_vg(self) -> float:
        """Mualem exponent m = 1 - 1/n."""
        return (self.n_vg - 1.0) / self.n_vg

    @property
    def mobility_scale(self) -> float:
        """kappa / mu_w, the fully saturated mobility."""
        return self.kappa / self.mu_w

    def saturation_lipschitz(self) -> float:
        """Exact Lipschitz constant of p -> s_w(p).

        The derivative a (n-1) x^(n-1) (1+x^n)^(-(2n-1)/n) of the suction
        branch (x = -a p) is maximal at x^n = (n-1)/n; the closed form below
        evaluates it there.
        """
        n = self.n_vg
        x = ((n - 1.0) / n) ** (1.0 / n)
        return self.a_vg * (n - 1.0) * x ** (n - 1.0) * (1.0 + x**n) ** (-(2.0 * n - 1.0) / n)


@dataclass(frozen=True)
class PorosityLaw:
    """Linear porosity law phi = phi0 + alpha d(div u) + inv_n d(p_E).

    Attributes:
        phi0: initial porosity in (0, 1).
        alpha: Biot coefficient in (0, 1].
        inv_n: inverse Biot modulus 1/N (1/Pa), >= 0.
    """

    phi0: float
    alpha: float
    inv_n: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.phi0 < 1.0):
            raise InvalidInput(f"phi0 must lie in (0,1), got {self.phi0}")
        if not (0.0 < self.alpha <= 1.0):
            raise InvalidInput(f"alpha must lie in (0,1], got {self.alpha}")
        if not self.inv_n >= 0.0:
            raise InvalidInput(f"inv_n must be >= 0, got {self.inv_n}")


def _as_array(p, name="p"):
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name} must be finite")
    return arr, arr.ndim == 0


def _maybe_scalar(values, scalar):
    return float(values) if scalar else values


def saturation(p, vg: VanGenuchtenModel):
    """Water saturation s_w(p) in (0, 1]; equals 1 for p >= 0."""
    arr, scalar = _as_array(p)
    out = np.ones_like(arr, dtype=float)
    wet = arr < 0.0
    if np.any(wet):
        x = -vg.a_vg * arr[wet]
        out[wet] = (1.0 + x**vg.n_vg) ** (-vg.m_vg)
    return _maybe_scalar(out, scalar)


def saturation_derivative(p, vg: VanGenuchtenModel):
    """d s_w / d p.  Zero on the saturated branch; the value at p = 0 is the
    (left) limit, which vanishes for every n_vg > 1."""
    _derivative_calls["saturation_derivative"] += 1
    arr, scalar = _as_array(p)
    out = np.zeros_like(arr, dtype=float)
    wet = arr < 0.0
    if np.any(wet):
        n = vg.n_vg
        x = -vg.a_vg * arr[wet]
        out[wet] = vg.a_vg * (n - 1.0) * x ** (n - 1.0) * (1.0 + x**n) ** (-(vg.m_vg + 1.0))
    return _maybe_scalar(out, scalar)


def mobility(s, vg: VanGenuchtenModel):
    """Mualem mobility k_w(s) = (kappa/mu_w) sqrt(s) (1-(1-s^(n/(n-1)))^m)^2."""
    arr, scalar = _as_array(s, name="s")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise InvalidInput("saturation must lie in [0, 1]")
    n = vg.n_vg
    theta = 1.0 - arr ** (n / (n - 1.0))
    out = vg.mobility_scale * np.sqrt(arr) * (1.0 - theta**vg.m_vg) ** 2
    return _maybe_scalar(out, scalar)


def mobility_derivative_wrt_p(p, vg: VanGenuchtenModel):
    """d k_w(s_w(p)) / d p via the chain rule, clamped to +-DERIVATIVE_CAP.

    Near the transition p -> 0- the derivative behaves like |p|^(n-2) and is
    unbounded for n_vg < 2 (Hoelder-continuous mobility).  Overflowing values
    are clamped to the finite sentinel DERIVATIVE_CAP and flagged instead of
    producing NaN/inf, so Newton-type schemes fail by divergence detection
    rather than by arithmetic faults.

    Returns:
        (value, clamped): derivative and a boolean mask (scalar bool for
        scalar input) marking entries that hit the cap.
    """
    _derivative_calls["mobility_derivative_wrt_p"] += 1
    arr, scalar = _as_array(p)
    out = np.zeros_like(arr, dtype=float)
    wet = arr < 0.0
    if np.any(wet):
        n = vg.n_vg
        m = vg.m_vg
        big = n / (n - 1.0)
        x = -vg.a_vg * arr[wet]
        with np.errstate(over="ignore", divide="ignore"):
            xn = x**n
            s = (1.0 + xn) ** (-m)
            dsdp = vg.a_vg * (n - 1.0) * x ** (n - 1.0) * (1.0 + xn) ** (-(m + 1.0))
            # theta = 1 - s^(n/(n-1)) computed without cancellation:
            # s^(n/(n-1)) = 1/(1+x^n) exactly.
            theta = xn / (1.0 + xn)
            bracket = 1.0 - theta**m
            dkds = vg.mobility_scale * (
                bracket**2 / (2.0 * np.sqrt(s))
                + 2.0 * np.sqrt(s) * bracket * m * big * theta ** (m - 1.0) * s ** (big - 1.0)
            )
            out[wet] = dkds * dsdp
    clamped = ~np.isfinite(out) | (np.abs(out) > DERIVATIVE_CAP)
    if np.any(clamped):
        out[clamped] = (np.sign(np.where(np.isnan(out[clamped]), 1.0, out[clamped]))
                        * DERIVATIVE_CAP)
    if scalar:
        return float(out), bool(clamped)
    return out, clamped


# ----------------------------------------------------------------------
# Equivalent pore pressure
# ----------------------------------------------------------------------
#
# With X = (a |p|)^n, p_E(p) = p int_0^1 (1 + X t^n)^(-m) dt
#                            = p 2F1(m, 1/n; 1 + 1/n; -X)        (p < 0).
# For X <= 1 scipy's hyp2f1 is accurate to a few ulp.  For X > 1 its
# large-argument transformation cancels catastrophically near n = 2, where
# the two connection terms meet in a logarithm (p_E = -asinh(a|p|)/a at
# n = 2 exactly).  There the substitution u = X t^n / (1 + X t^n) and a
# split of the u-integral at 1/2 give, with eps = 1 - 2/n and
# V = 1 / (1 + X) <= 1/2,
#
#   p_E = -(C + (2^-eps - V^eps)/eps - V^eps T(V)) / (n a),
#   T(V) = sum_{k>=1} (m)_k / (k! (k + eps)) V^k,
#   C = n 2^(-1/n) 2F1(1/n, 2/n; 1 + 1/n; 1/2) + 2^-eps T(1/2),
#
# where (2^-eps - V^eps)/eps tends to ln((1 + X)/2) as eps -> 0.  Both branches are analytic in p, so finite
# differences of the residuals stay clean.

_SERIES_TERMS = 56   # T(V) for V <= 1/2: the dropped tail is below 2^-56 of it


def _horner(coeffs, v):
    """sum_k coeffs[-1 - k] v^k by Horner's rule in place, bitwise equal to
    numpy's ``polyval(v, coeffs[::-1])``."""
    out = np.full_like(v, coeffs[0])
    for c in coeffs[1:]:
        out *= v
        out += c
    return out


@functools.cache
def _series(n, m):
    """T's coefficients, highest power first, and the constant C of the
    X > 1 branch for n_vg = n, m_vg = m."""
    eps = 1.0 - 2.0 / n
    k = np.arange(1, _SERIES_TERMS + 1)
    coeffs = np.concatenate([[0.0], np.cumprod((m + k - 1.0) / k) / (k + eps)])[::-1]
    coeffs.flags.writeable = False   # shared by every call with this n_vg
    const = (n * 2.0 ** (-1.0 / n) * hyp2f1(1.0 / n, 2.0 / n, 1.0 + 1.0 / n, 0.5)
             + 2.0**-eps * _horner(coeffs, np.array(0.5)))
    return coeffs, const


def _pore_pressure_suction(pw, vg: VanGenuchtenModel):
    """p_E on the suction branch p < 0 (see the comment above)."""
    n, m, a = vg.n_vg, vg.m_vg, vg.a_vg
    ln_x = n * np.log(-a * pw)
    out = np.empty_like(pw)
    near = ln_x <= 0.0
    out[near] = pw[near] * hyp2f1(m, 1.0 / n, 1.0 + 1.0 / n, -np.exp(ln_x[near]))
    far = ~near
    if np.any(far):
        ln_x = ln_x[far]
        ln_1px = ln_x + np.log1p(np.exp(-ln_x))
        eps = 1.0 - 2.0 / n
        coeffs, const = _series(n, m)
        v_eps = np.exp(-eps * ln_1px)
        log_half = ln_1px - np.log(2.0)   # ln((1 + X)/2) >= 0
        # (2^-eps - V^eps)/eps = V^eps L exprel(eps L), L = ln((1 + X)/2);
        # the exprel form is used where it cannot overflow (always at eps = 0)
        tame = np.abs(eps) * log_half < 1.0
        head = np.where(tame, v_eps * log_half * exprel(eps * np.where(tame, log_half, 0.0)),
                        (2.0**-eps - v_eps) / (eps or 1.0))
        v = np.exp(-ln_1px)
        out[far] = -(const + head - v_eps * _horner(coeffs, v)) / (n * a)
    return out


def equivalent_pore_pressure(p, vg: VanGenuchtenModel):
    """Equivalent pore pressure p_E(p) = int_0^p s_w(xi) dxi.

    Exactly p on the saturated branch (s_w = 1 there), continuous at p = 0,
    and in closed form p 2F1(m, 1/n; 1 + 1/n; -(a|p|)^n) on the suction
    branch, accurate to a few ulp for every n_vg > 1.
    """
    arr, scalar = _as_array(p)
    out = np.array(arr, dtype=float, ndmin=1)  # saturated branch: integrand is 1
    wet = out < 0.0
    if np.any(wet):
        out[wet] = _pore_pressure_suction(out[wet], vg)
    out = out.reshape(arr.shape)
    return _maybe_scalar(out, scalar)


def porosity(law: PorosityLaw, div_u_increment, pE_increment):
    """Porosity from the linear update law, plus an admissibility flag.

    Returns:
        (phi, admissible): porosity value(s) and elementwise flag marking
        phi in [0, 1].  Out-of-range porosity is flagged, never raised.
    """
    divu = np.asarray(div_u_increment, dtype=float)
    dpe = np.asarray(pE_increment, dtype=float)
    phi = law.phi0 + law.alpha * divu + law.inv_n * dpe
    admissible = (phi >= 0.0) & (phi <= 1.0)
    if phi.ndim == 0:
        return float(phi), bool(admissible)
    return phi, admissible


def capillary_pressure(s, vg: VanGenuchtenModel):
    """Capillary pressure p_c(s) = -s_w^{-1}(s) >= 0 for s in (0, 1]."""
    arr, scalar = _as_array(s, name="s")
    if np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise InvalidInput("saturation must lie in (0, 1]")
    x = np.maximum(arr ** (-1.0 / vg.m_vg) - 1.0, 0.0) ** (1.0 / vg.n_vg)
    return _maybe_scalar(x / vg.a_vg, scalar)
