"""Numerical verification toolkit for parabolic equations with interior
degeneracy: structural hypothesis checks, Hardy-Poincare and Carleman-type
inequality verification, observability estimation and HUM null control."""

from .coefficients import CoefficientModel, HypothesisReport, check_hypotheses
from .control import (ControlSolution, ObservabilityReport, estimate_observability,
                      synthesize_null_control)
from .grid import (Field, SpaceTimeGrid, TridiagonalOperator, assemble_operator,
                   dirichlet_eigenmodes, integrate_space, integrate_spacetime)
from .inequalities import (CaccioppoliReport, CarlemanReport, HardyWeight, HPReport,
                           IdentityReport, caccioppoli_check, carleman_identity_check,
                           carleman_scan, default_s_values, hp_verify,
                           manufactured_adjoint_pair)
from .solvers import (ControlConfig, PotentialModel, energy_trace, solve_adjoint,
                      solve_forward)
from .weights import WeightParams, b_integral, c2_min, exp2s_phi, psi, theta

__version__ = "0.1.0"
