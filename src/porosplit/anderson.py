"""Anderson acceleration as solver-agnostic post-processing.

Windowed AA(m) keeps the last m+1 fixed-point images F(x) together with
their increments F(x) - x.  The next iterate is the affine combination
sum_k alpha_k F(x^k) whose mixed increment has minimal Euclidean (optionally
diagonally weighted) norm subject to sum_k alpha_k = 1.  Depth 0 is an
exact pass-through of the underlying iteration.  A restart is always the
owner replacing the window by a fresh one: the restarted variant AA*(m) is
a window replaced every m+1 pushes (for m = 1, one plain step, then one
accelerated step).

The constrained least squares is solved in the unconstrained difference
formulation: with newest column f_last, minimize over gamma
|| f_last + sum_j gamma_j (f_j - f_last) ||_2 and map back, so the weights
sum to one by construction.  Every depth takes the same single ``lstsq``
solve; non-finite differences or a condition number past ``COND_CAP``
trigger a plain-step fallback instead of an exception: acceleration may
degrade an iteration, so a guarded step is preferable to a failure.

The window itself never judges the iterates it mixes.  The iteration
driver of ``porosplit.schemes`` replaces a window of depth two or more
whenever the increment at an iterate it returned exceeds
``AA_RESTART_FACTOR`` times the previous increment; the theory lab
(``porosplit.aa_theory``) replaces its depth-1 window every two pushes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from numbers import Integral

import numpy as np

__all__ = ["AndersonConfig", "AndersonWindow", "mixing_weights"]

COND_CAP = 1e10   # condition-number cap of the mixing least squares


@dataclass(frozen=True)
class AndersonConfig:
    """Acceleration depth m >= 0, an integer."""

    depth: int = 0

    def __post_init__(self):
        if not (isinstance(self.depth, Integral) and self.depth >= 0):
            raise ValueError("depth must be an integer >= 0")


def mixing_weights(increments: np.ndarray):
    """Constrained least-squares mixing weights for the given increment
    columns (oldest first, newest last).

    Minimizes ||F alpha||_2 subject to sum alpha = 1 via the difference
    reformulation, one ``lstsq`` solve for any number of columns.  Returns
    (alpha, fallback); on non-finite differences or rank deficiency beyond
    COND_CAP alpha degenerates to (0, ..., 0, 1), i.e. a plain step.
    """
    F = np.asarray(increments, dtype=float)
    if F.ndim != 2 or 0 in F.shape:
        raise ValueError("need a 2-D array of at least one non-empty increment column")
    m = F.shape[1] - 1
    if m == 0:
        return np.array([1.0]), False
    newest = F[:, -1]
    plain = np.zeros(m + 1)
    plain[-1] = 1.0
    diffs = F[:, :-1] - newest[:, None]
    if not np.all(np.isfinite(diffs)):
        return plain, True
    # the condition number from the singular values of the same solve
    gamma, _, _, sv = np.linalg.lstsq(diffs, -newest, rcond=None)
    if not sv[-1] > 0 or sv[0] / sv[-1] > COND_CAP:
        return plain, True
    alpha = np.empty(m + 1)
    alpha[:m] = gamma
    alpha[m] = 1.0 - gamma.sum()
    return alpha, False


class AndersonWindow:
    """Sliding store of the last depth+1 images and increments, two deques
    that drop their oldest entry on the push past depth+1.

    ``weights`` is an optional positive diagonal (e.g. mass-matrix diagonal)
    under which the mixing norm is taken, so that for PDE iterates the
    minimized quantity approximates the L2 norm.
    """

    def __init__(self, config: AndersonConfig, weights: np.ndarray | None = None):
        self._scale = None if weights is None else np.sqrt(np.asarray(weights, dtype=float))
        self._images = deque(maxlen=config.depth + 1)
        self._increments = deque(maxlen=config.depth + 1)

    def push(self, image: np.ndarray, increment: np.ndarray):
        """Store one fixed-point application and return the next iterate.

        Returns (iterate, alpha, fallback).
        """
        scaled = increment if self._scale is None else self._scale * increment
        self._images.append(np.asarray(image, dtype=float))
        self._increments.append(np.asarray(scaled, dtype=float))
        alpha, fallback = mixing_weights(np.column_stack(self._increments))
        iterate = alpha @ np.vstack(self._images)
        return iterate, alpha, fallback

