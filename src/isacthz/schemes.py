"""Scheme catalogue: maps comparison-case names onto sensing abilities.

* jsrs     -- tracking pilots configured by the closed-form optimal pattern
              (detection radius c / (2 f_scs), trackable speed = the scene's
              user speed).
* perfect  -- idealised sensing, no estimation error.
* 5g       -- positioning ability required of general V2X service.
* ssb      -- sweep blocks reused for both detection and tracking.
"""

from __future__ import annotations

from .config import C_LIGHT, Deployment, SystemParams
from .pattern import PatternRequirement, optimal_pattern
from .sensing import (SCHEMES, SensingAbility, SensingPattern,
                      baseline_5g_ability, perfect_ability, sensing_ability,
                      ssb_ability)

__all__ = ["default_requirement", "jsrs_pattern", "scheme_ability"]


def default_requirement(system: SystemParams, deploy: Deployment) -> PatternRequirement:
    """Reference requirement: full single-spacing range, track the user speed."""
    return PatternRequirement(d_max_req=C_LIGHT / (2.0 * system.f_scs),
                              v_max_req=deploy.v)


def jsrs_pattern(system: SystemParams, deploy: Deployment) -> SensingPattern:
    return optimal_pattern(default_requirement(system, deploy), system,
                           deploy.theta_b)


def scheme_ability(scheme: str, system: SystemParams,
                   deploy: Deployment) -> SensingAbility:
    if scheme == "jsrs":
        return sensing_ability(jsrs_pattern(system, deploy), system, deploy.theta_b)
    if scheme == "perfect":
        return perfect_ability()
    if scheme == "5g":
        return baseline_5g_ability()
    if scheme == "ssb":
        return ssb_ability(system, deploy.theta_b)
    raise ValueError(f"unknown scheme '{scheme}'; choose from {SCHEMES}")
