"""Quick self-check suite behind the ``check`` CLI verb.

A fast subset of the invariants the test suite covers in full: closed-form
contraction facts, assembly exactness on small meshes, the volume-balance
identity on a short coupled run, and acceleration-window basics.
"""

from __future__ import annotations

import numpy as np

from . import aa_theory, schemes
from .anderson import AndersonConfig, AndersonWindow, mixing_weights
from .config import ScenarioConfig
from .model import initial_state, volume_conservation_gap


def run_quick_checks(verbose: bool = False) -> int:
    failures = 0

    def check(name, ok):
        nonlocal failures
        if not ok:
            failures += 1
        if verbose:
            print(f"  {'ok ' if ok else 'FAIL'} {name}")

    check("r(l, l) = 0", aa_theory.contraction_factor(0.5, 0.5) == 0.0)
    check("r(1, l2) = 1", abs(aa_theory.contraction_factor(1.0, 0.7) - 1.0) < 1e-14)
    check("r symmetric",
          aa_theory.contraction_factor(0.3, -0.8) == aa_theory.contraction_factor(-0.8, 0.3))

    sample = aa_theory.sample_planes((-1, 1, -1, 1), 100)
    m4 = np.maximum(np.abs(sample.lam1[None, :]), np.abs(sample.lam2[:, None])) ** 4
    check("acceleration on the unit square", bool(np.all(sample.r < m4 + 1e-12)))

    alpha, fallback = mixing_weights(np.array([[1.0, 0.0], [0.0, 1.0]]))
    check("orthonormal columns mix half/half",
          not fallback and np.allclose(alpha, [0.5, 0.5]))

    window = AndersonWindow(AndersonConfig(depth=0))
    image = np.array([1.0, 2.0, 3.0])
    out = window.push(image, image.copy())[0]
    check("depth-0 window is a pass-through", bool(np.all(out == image)))

    config = ScenarioConfig(nx=8, ny=8, inflow_width=0.25, T=0.2)
    ops = config.operators()
    params = config.params_for(1.0)
    init = initial_state(config.mesh(), params, config.p0, ops)
    result = schemes.run_transient(
        config.scheme_config("fsnewton"), None, init, params, ops
    )
    check("short coupled run converges", result.completed)
    if result.completed:
        gap = max(
            np.abs(volume_conservation_gap(result.states[k + 1], result.states[k],
                                           params, ops)).max()
            for k in range(len(result.states) - 1)
        )
        check("volume balance exact to round-off", gap < 1e-13)
    return failures
