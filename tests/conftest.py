# porosplit first: importing it pins BLAS to one thread, which holds only
# if numpy is not imported yet
import porosplit  # noqa: F401

import contextlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from porosplit import schemes
from porosplit.config import default_config
from porosplit.fem import assemble
from porosplit.mesh import RectMesh
from porosplit.model import initial_state

# the two scenarios' constants, as the configuration defines them
TEST1, TEST2 = default_config("test1"), default_config("test2")
MU, LAM = TEST1.lame
VG_SMOOTH = TEST1.params_for(1.0).vg
VG_HOELDER = TEST2.params_for(1.0).vg
P0_SMOOTH = TEST1.p0
P0_HOELDER = TEST2.p0


def scenario_params(cfg, alpha=1.0, inv_n=0.0, **kw):
    """``cfg.params_for(alpha)`` with 1/N set on the law itself, so that it
    is exactly ``inv_n``, and the fields ``kw`` (tau, T, q_star, ...) replaced."""
    params = cfg.params_for(alpha)
    return replace(params, law=replace(params.law, inv_n=inv_n), **kw)


def smooth_params(alpha=1.0, inv_n=0.0, **kw):
    return scenario_params(TEST1, alpha, inv_n, **kw)


def hoelder_params(alpha=1.0, inv_n=0.0, **kw):
    return scenario_params(TEST2, alpha, inv_n, **kw)


def setup_problem(nx, ny, alpha=1.0, width=0.2, scenario="smooth", **kw):
    mesh = RectMesh(nx, ny, 1.0, 1.0, width)
    ops = assemble(mesh, MU, LAM)
    if scenario == "smooth":
        params = smooth_params(alpha=alpha, **kw)
        init = initial_state(mesh, params, P0_SMOOTH, ops)
    else:
        params = hoelder_params(alpha=alpha, **kw)
        init = initial_state(mesh, params, P0_HOELDER, ops)
    return mesh, ops, params, init


@contextlib.contextmanager
def pressure_iterates(name):
    """Record the pressure iterates of the iteration function
    ``schemes.<name>`` while the block runs: one list per time step, the
    pressure it was first called with followed by the pressure of every
    image it returned.  Without acceleration every image is the next
    iterate, so each list is the step's iterate sequence up to the
    accepted state."""
    steps = {}
    inner = getattr(schemes, name)

    def recording(state, prev, *args, **kwargs):
        image, inc, clamped = inner(state, prev, *args, **kwargs)
        steps.setdefault(prev.time, [state.p.copy()]).append(image.p.copy())
        return image, inc, clamped

    traces = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, name, recording)
        yield traces
    traces.extend(steps.values())


def natural(matrix, order):
    """A matrix given in ``order`` (matrix[i, j] = A[order[i], order[j]])
    back in A's numbering."""
    rank = np.argsort(order)
    return sp.csr_array(matrix)[rank][:, rank]


def backward_error(matrix, x, b):
    """Normwise backward error |A x - b| / (|b| + |A| |x|), with |A| the max
    row sum: the measure of ``SparseFactor``'s contract."""
    norm = abs(matrix).sum(axis=1).max()
    return np.linalg.norm(matrix @ x - b) / (np.linalg.norm(b) + norm * np.linalg.norm(x))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
