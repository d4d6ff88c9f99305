import contextlib

import numpy as np
import pytest
import scipy.sparse as sp

from porosplit import schemes
from porosplit.constitutive import PorosityLaw, VanGenuchtenModel
from porosplit.fem import assemble
from porosplit.mesh import RectMesh
from porosplit.model import PhysicsParams, initial_state

# plane-strain Lame parameters for E = 30, nu = 0.2
MU = 30.0 / (2.0 * 1.2)
LAM = 30.0 * 0.2 / (1.2 * 0.6)

VG_SMOOTH = VanGenuchtenModel(a_vg=0.1844, n_vg=3.0, kappa=3e-2, mu_w=1.0)
VG_HOELDER = VanGenuchtenModel(a_vg=0.627, n_vg=1.4, kappa=3e-2, mu_w=1.0)

P0_SMOOTH = -7.78
P0_HOELDER = -15.3


def smooth_params(alpha=1.0, inv_n=0.0, tau=0.1, T=1.0, q_star=-1.25):
    return PhysicsParams(
        vg=VG_SMOOTH,
        law=PorosityLaw(0.2, alpha, inv_n),
        mu=MU, lam=LAM, q_star=q_star, tau=tau, T=T,
    )


def hoelder_params(alpha=1.0, inv_n=0.0, tau=0.1, T=1.0, q_star=-0.175):
    return PhysicsParams(
        vg=VG_HOELDER,
        law=PorosityLaw(0.2, alpha, inv_n),
        mu=MU, lam=LAM, q_star=q_star, tau=tau, T=T,
    )


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


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
