"""Analytical stack and Monte-Carlo oracle for sensing-assisted THz coverage."""

from .channel import (LinkBudget, antenna_gain, effective_noise,
                      expected_interference, expected_noise,
                      interference_probability, received_power)
from .config import (C_LIGHT, AbsorptionTable, ConfigError, Deployment,
                     SystemParams, absorption_at, default_deployment,
                     default_system, load_config)
from .coverage import (CoverageQuery, CoverageResult, coverage_probability,
                       coverage_sweep)
from .mcsim import (McEstimate, estimate_blockage, estimate_coverage,
                    estimate_misalignment, estimate_timeout)
from .misalignment import (MisalignmentBreakdown, beam_misalignment,
                           blockage_probability, expected_closest_blockage,
                           speed_underestimate_probability,
                           timeout_probability)
from .pattern import (InfeasibleRequirementError, PatternRequirement,
                      brute_force_pattern, objective, optimal_pattern)
from .schemes import scheme_ability
from .sensing import (SCHEMES, SensingAbility, SensingPattern, a_theta,
                      baseline_5g_ability, perfect_ability, sensing_ability,
                      ssb_ability)
from .specfun import (QuadratureError, QuadratureSpec, integrate_oscillatory,
                      integrate_semi_infinite)

__version__ = "0.1.0"
