"""Fixed-stress splitting schemes with Anderson acceleration for
unsaturated poromechanics (Richards flow coupled with linear elasticity),
plus the contraction theory of the restarted acceleration on linear
Richardson iterations.  The package root holds the library entry points;
everything else is reached under its module (``porosplit.schemes``, ...)."""

import os

# one BLAS thread unless a count is set; effective only before numpy's import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .anderson import AndersonConfig
from .config import ScenarioConfig
from .constitutive import PorosityLaw, VanGenuchtenModel
from .fem import assemble
from .model import initial_state
from .schemes import SchemeConfig, run_time_step, run_transient
from .sweep import emit_report, run_sweep

__all__ = [
    "ScenarioConfig", "run_sweep", "emit_report",
    "SchemeConfig", "AndersonConfig", "run_time_step",
    "run_transient", "initial_state", "assemble",
    "VanGenuchtenModel", "PorosityLaw",
]

__version__ = "0.1.0"
