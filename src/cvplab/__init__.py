"""cvplab: a numerical laboratory for causal variational principles.

Discrete weighted point measures, causal-action minimization under a
volume constraint, second-variation positivity functionals, jet-space
Gram forms, fragmentation schemes, linearized field equations, and
surface-layer integrals.
"""

from __future__ import annotations

from .action import action, action_difference, el_report, ell, ell_gradient
from .config import (ExperimentConfig, RunState, load_config, load_state,
                     parse_config, save_state)
from .errors import (CvpError, DimensionMismatchError,
                     InfeasibleProjectionError, NegativeDiagonalError,
                     NonFiniteIterateError, SchemaError, UnsupportedOrderError,
                     WeightPositivityError)
from .geometry import ChartManifold
from .jets import (FormEvaluator, GramReport, gram_spectrum, nabla1_nabla2_L,
                   translation)
from .kernels import (CompactSupportKernel, GaussianKernel, InversePowerKernel,
                      RadialKernel, kernel_from_dict, lagrangian_derivatives,
                      lagrangian_eval, pair_tables, verify_lagrangian)
from .linfield import (arc_regions, linfield_residual, osi_report,
                       random_regions, solve_linfield, surface_layer_integral)
from .measure import DiscreteMeasure, random_measure
from .optimizer import OptimizerConfig, OptimizerTrace, minimize, project_volume
from .variations import (deformed_actions, frag_lower_bound,
                         frag_second_variation, frag_second_variation_rescaled,
                         fragment_deform, optimal_weights, sample_scheme,
                         second_variation_fd, stability_probe, volume_preserved)

__version__ = "0.1.0"
