"""Closed-form contraction theory for restarted Anderson acceleration on
symmetric linear Richardson iterations.

For F(x) = A x + b with symmetric A and an initial error spanned by two
eigenvectors (eigenvalues l1, l2 both nonzero), the restarted depth-1
acceleration contracts the error over every four iterations by at least

    r(l1, l2) = l1^2 l2^2 (l2 - l1)^2 / (|l1 (l1 - 1)| + |l2 (l2 - 1)|)^2.

The bound follows from the eigenvalues of the 4-step error propagation
matrix: with weights beta (sum beta_k^2 = 1) of the normalized direction
(A - I)^2 e / |(A - I)^2 e| in the eigenbasis,

    eta_j  = sum_{k != j} beta_k^2 (l_k - l_j) / (l_k - 1),
    lt_j   = [sum_k beta_k^2 l_k^2 eta_k^2]^{-1}
             * l_j^2 eta_j * sum_{k != j} beta_k^2 l_k^2 eta_k^2
                                           (l_k - l_j) / (l_k - 1).

r < max(|l1|, |l2|)^4 on the open unit square (acceleration; with equality
exactly on the anti-diagonal l2 = -l1) and r < 1 for l1 > 1 > l2 > 0, so a
single expanding eigendirection does not prevent convergence.  This module
evaluates these formulas, runs the matching Richardson experiments through
the generic acceleration window, and samples (l1, l2) planes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .anderson import AndersonConfig, AndersonWindow

__all__ = [
    "SingularConfiguration",
    "SpectralPair",
    "contraction_factor",
    "propagation_eigenvalues",
    "RichardsonResult",
    "richardson_aa_experiment",
    "PlaneSample",
    "sample_planes",
]


class SingularConfiguration(ValueError):
    """Raised when eigenvalues hit the removable singularities of the
    closed forms (zero eigenvalue, or a unit eigenvalue with weight)."""


def _contraction_grid(l1, l2):
    """Vectorized contraction factor without argument validation."""
    num = l1**2 * l2**2 * (l2 - l1) ** 2
    den = (np.abs(l1 * (l1 - 1.0)) + np.abs(l2 * (l2 - 1.0))) ** 2
    return num / den


def contraction_factor(l1: float, l2: float) -> float:
    """Worst-case 4-iteration contraction factor r(l1, l2) >= 0."""
    if l1 == 0.0 or l2 == 0.0:
        raise SingularConfiguration("eigenvalues must be nonzero")
    if abs(l1 * (l1 - 1.0)) + abs(l2 * (l2 - 1.0)) == 0.0:
        raise SingularConfiguration(
            f"degenerate eigenvalue pair ({l1}, {l2}): zero denominator"
        )
    return float(_contraction_grid(l1, l2))


def propagation_eigenvalues(lams, betas) -> np.ndarray:
    """Eigenvalues of the iteration-dependent 4-step error propagation
    matrix for direction weights ``betas`` (sum of squares 1).

    A single active direction is annihilated exactly; the formula's 0/0
    limit is resolved to zero in that case.
    """
    lams = np.asarray(lams, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if lams.shape != betas.shape or lams.ndim != 1:
        raise ValueError("need matching 1-d eigenvalue and weight arrays")
    if abs(np.sum(betas**2) - 1.0) > 1e-12:
        raise ValueError("weights must satisfy sum beta_k^2 = 1")
    active = betas != 0.0
    if np.any(np.abs(lams[active] - 1.0) < 1e-15):
        raise SingularConfiguration("unit eigenvalue carries nonzero weight")

    n = len(lams)
    b2 = betas**2
    ratio = np.zeros((n, n))  # ratio[k, j] = (l_k - l_j) / (l_k - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (lams[:, None] - lams[None, :]) / (lams[:, None] - 1.0)
    ratio[~active, :] = 0.0  # only weighted rows enter the sums below
    np.fill_diagonal(ratio, 0.0)

    eta = b2 @ ratio
    weights = b2 * lams**2 * eta**2
    denom = weights.sum()
    if denom == 0.0:
        return np.zeros(n)  # single-direction error: annihilated in one sweep
    third = weights @ ratio
    return lams**2 * eta * third / denom


@dataclass(frozen=True)
class SpectralPair:
    """Two nonzero eigenvalues of a symmetric iteration matrix together
    with the weights of the initial error in their eigendirections."""

    lam1: float
    lam2: float
    beta1: float = 1.0
    beta2: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.lam1, self.lam2, self.beta1, self.beta2])):
            raise ValueError("eigenvalues and weights must be finite")
        if self.lam1 == 0.0 or self.lam2 == 0.0:
            raise SingularConfiguration("eigenvalues must be nonzero")


@dataclass(frozen=True)
class RichardsonResult:
    """Error-norm histories recorded every four iterations."""

    pair: SpectralPair
    aa_errors: np.ndarray       # |e^i| at i = 0, 4, 8, ...
    plain_errors: np.ndarray    # same indices, plain Richardson

    @property
    def block_ratios(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.aa_errors[1:] / self.aa_errors[:-1]

    @property
    def bound(self) -> float:
        return contraction_factor(self.pair.lam1, self.pair.lam2)


def richardson_aa_experiment(pair: SpectralPair, n_quads: int) -> RichardsonResult:
    """Run ``4 * n_quads`` iterations of AA*(1), a depth-1 window replaced
    every two pushes, on the Richardson iteration F(x) = A x with A =
    diag(lam1, lam2) and error beta1 v1 + beta2 v2, recording the error norm
    every 4 iterations; plain Richardson is run alongside for comparison."""
    if n_quads < 1:
        raise ValueError("n_quads must be >= 1")
    A = np.diag([pair.lam1, pair.lam2])
    x_star = np.zeros(2)
    e0 = np.array([pair.beta1, pair.beta2], dtype=float)
    norm = np.linalg.norm(e0)
    if norm == 0.0:
        raise ValueError("initial error must be nonzero")
    e0 = e0 / norm

    def fixed_point(x):
        return A @ x

    n_iter = 4 * n_quads
    x = e0.copy()
    aa_full = [np.linalg.norm(x - x_star)]
    for i in range(n_iter):
        if i % 2 == 0:  # restart: a plain step, then one depth-1 step
            window = AndersonWindow(AndersonConfig(depth=1))
        image = fixed_point(x)
        x = window.push(image, image - x)[0]
        aa_full.append(np.linalg.norm(x - x_star))
    aa_full = np.array(aa_full)

    plain_full = [1.0]
    y = e0.copy()
    for _ in range(n_iter):
        y = fixed_point(y)
        plain_full.append(np.linalg.norm(y - x_star))
    plain_full = np.array(plain_full)

    idx = np.arange(0, n_iter + 1, 4)
    return RichardsonResult(
        pair=pair,
        aa_errors=aa_full[idx],
        plain_errors=plain_full[idx],
    )


@dataclass(frozen=True)
class PlaneSample:
    """Contraction factors and classification flags on a (l1, l2) grid."""

    lam1: np.ndarray            # 1-d cell-center coordinates
    lam2: np.ndarray
    r: np.ndarray               # shape (len(lam2), len(lam1))
    accelerating: np.ndarray    # r < max(|l1|, |l2|)^4
    converging: np.ndarray      # r < 1

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda1", "lambda2", "r", "accel_flag", "conv_flag"])
            for j, l2 in enumerate(self.lam2):
                for i, l1 in enumerate(self.lam1):
                    writer.writerow(
                        [f"{l1:.12g}", f"{l2:.12g}", f"{self.r[j, i]:.12g}",
                         int(self.accelerating[j, i]), int(self.converging[j, i])]
                    )


def sample_planes(rect, resolution: int) -> PlaneSample:
    """Evaluate r on a cell-centered grid over rect = (l1_min, l1_max,
    l2_min, l2_max).  Cell centers avoid the coordinate axes for symmetric
    ranges with even resolution."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if not np.all(np.isfinite(rect)):
        raise ValueError("plane bounds must be finite")
    l1_min, l1_max, l2_min, l2_max = rect
    lam1 = l1_min + (np.arange(resolution) + 0.5) * (l1_max - l1_min) / resolution
    lam2 = l2_min + (np.arange(resolution) + 0.5) * (l2_max - l2_min) / resolution
    g1, g2 = np.meshgrid(lam1, lam2)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = _contraction_grid(g1, g2)
    accel = r < np.maximum(np.abs(g1), np.abs(g2)) ** 4
    conv = r < 1.0
    return PlaneSample(lam1=lam1, lam2=lam2, r=r, accelerating=accel, converging=conv)
