"""Numerics for left-invariant integral functionals on stratified groups.

Group arithmetic in exponential coordinates (nilpotent, step at most 3),
horizontal calculus, group-local mollification, integral functionals with
structural property checks, probe-based integrand recovery and a
variational-limit bracketing experiment.
"""

from .groups import (StratifiedGroup, HomogeneousNorm, GroupAxiomError,
                     euclidean, heisenberg, engel, preset)
from .fields import (GridDomain, DomainError, ScalarField, constant_field,
                     probe_field, from_expression, quadratic_field, grid_field,
                     translate_field, horizontal_gradient)
from .mollify import MollifierFamily, erode_domain, convolve
from .functionals import (Integrand, PowerIntegrand, QuadraticIntegrand,
                          MaxAffineIntegrand, TabulatedIntegrand,
                          OffsetIntegrand, ShiftedArgIntegrand, Functional,
                          IntegrandFunctional, BlackBoxFunctional,
                          jensen_check, sandwich_check, lsc_check)
from .recovery import (HypothesisError, uniform_xi_grid, RecoveredIntegrand,
                       recover_integrand, constancy_probe, verify_uniqueness,
                       MinimizeResult, minimize_convex, gamma_experiment)
from .config import ConfigError, integrand_from_config, load_config

__version__ = "0.1.0"

__all__ = [
    "StratifiedGroup", "HomogeneousNorm", "GroupAxiomError",
    "euclidean", "heisenberg", "engel", "preset",
    "GridDomain", "DomainError", "ScalarField", "constant_field",
    "probe_field", "from_expression", "quadratic_field", "grid_field",
    "translate_field", "horizontal_gradient",
    "MollifierFamily", "erode_domain", "convolve",
    "Integrand", "PowerIntegrand", "QuadraticIntegrand",
    "MaxAffineIntegrand", "TabulatedIntegrand", "OffsetIntegrand",
    "ShiftedArgIntegrand", "integrand_from_config", "Functional",
    "IntegrandFunctional", "BlackBoxFunctional",
    "jensen_check", "sandwich_check", "lsc_check",
    "HypothesisError", "uniform_xi_grid", "RecoveredIntegrand",
    "recover_integrand", "constancy_probe", "verify_uniqueness",
    "MinimizeResult", "minimize_convex", "gamma_experiment",
    "ConfigError", "load_config",
]
