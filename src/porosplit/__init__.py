"""Fixed-stress splitting schemes with Anderson acceleration for
unsaturated poromechanics (Richards flow coupled with linear elasticity),
plus the contraction theory of the restarted acceleration on linear
Richardson iterations."""

import os

# one BLAS thread unless a count is set; effective only before numpy's import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .anderson import AndersonConfig, AndersonWindow, mixing_weights
from .config import ConfigError, ScenarioConfig, load_config
from .constitutive import (
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
from .fem import DiscreteOperators, SparseFactor, assemble
from .mesh import RectMesh
from .model import (
    PhysicsParams,
    PoroState,
    inflow_rate,
    initial_state,
    newton_blocks,
    volume_conservation_gap,
)
from .schemes import (
    IterationReport,
    SchemeConfig,
    converged,
    fixed_stress_beta,
    fsl_iteration,
    fsl_local_iteration,
    fsmp_iteration,
    fsnewton_iteration,
    newton_iteration,
    run_time_step,
    run_transient,
)
from .sweep import SweepReport, SweepRow, emit_report, run_sweep

__version__ = "0.1.0"
