"""OFDM sensing-ability formulas: resolutions, unambiguous ranges, and the
transverse-motion factor A_theta.

Resolution laws (comb pilots with frequency spacing U and time spacing V):

    delta_r = c / (2 U B_s)            longitudinal range resolution
    delta_v = c / (2 f_c V T_s)        velocity resolution
    d_max   = c / (2 U f_scs)          unambiguous range
    v_max   = min(U c f_scs / (20 f_c), c / (2 f_c V T_sym))

The transverse factor A_theta converts the longitudinal resolution into the
average motion resolution across a randomly oriented trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .config import C_LIGHT, SystemParams

__all__ = [
    "SensingPattern",
    "SensingAbility",
    "a_theta",
    "ability_from_spans",
    "sensing_ability",
    "ssb_ability",
    "baseline_5g_ability",
    "perfect_ability",
    "SCHEMES",
]

SCHEMES = ("jsrs", "perfect", "5g", "ssb")


def a_theta(theta_b: float) -> float:
    """Average transverse-to-longitudinal resolution ratio for beamwidth theta_b.

    sin(theta_b) / (pi - 2 theta_b) * ln((1 + cos theta_b) / (1 - cos theta_b)),
    defined for 0 < theta_b < pi/2 (the denominator vanishes at pi/2).
    """
    if not 0.0 < theta_b < 0.5 * math.pi:
        raise ValueError("a_theta requires 0 < theta_b < pi/2")
    c = math.cos(theta_b)
    return math.sin(theta_b) / (math.pi - 2.0 * theta_b) * math.log((1.0 + c) / (1.0 - c))


@dataclass(frozen=True)
class SensingPattern:
    """Pilot resource split: continuous ratio alpha plus materialised counts.

    N_s = round(n_rs^alpha) symbols and N_f = round(n_rs^(1-alpha))
    subcarriers; B_s and T_s are the materialised spans.  The continuous
    alpha is kept so the optimiser can work with the exact exponent.
    """

    alpha: float
    u: int
    v: int
    n_s: int
    n_f: int
    b_s: float
    t_s: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.u < 1 or self.v < 1:
            raise ValueError("insert spacings U, V must be >= 1")
        if self.n_s < 1 or self.n_f < 1:
            raise ValueError("materialised pilot counts must be >= 1")
        if not (self.b_s > 0.0 and self.t_s > 0.0):
            raise ValueError("pilot spans must be positive")

    @classmethod
    def materialize(cls, alpha: float, u: int, v: int,
                    system: SystemParams) -> "SensingPattern":
        """Round n_rs^alpha / n_rs^(1-alpha) to integer counts and validate
        the resource-budget invariants.  A count that exceeds its budget by
        no more than the rounding step is clipped to the cap; anything
        larger is a genuine violation and raises."""
        n_rs = system.n_rs
        cap_f, cap_s = system.subcarrier_cap, system.symbol_cap
        n_s_raw = n_rs ** alpha
        n_f_raw = n_rs ** (1.0 - alpha)
        n_s = max(1, round(n_s_raw))
        n_f = max(1, round(n_f_raw))
        if n_f > cap_f:
            if n_f_raw <= cap_f + 0.5 + 1e-6:
                n_f = cap_f
            else:
                raise ValueError("pattern bandwidth exceeds the available band")
        if n_s > cap_s:
            if n_s_raw <= cap_s + 0.5 + 1e-6:
                n_s = cap_s
            else:
                raise ValueError("pattern duration exceeds the data duration")
        slack = 0.5 * (n_s + n_f) + 0.25
        if abs(n_s * n_f - n_rs) > slack:
            raise ValueError("N_s * N_f drifted beyond rounding slack of n_rs")
        return cls(alpha=alpha, u=u, v=v, n_s=n_s, n_f=n_f,
                   b_s=n_f * system.f_scs, t_s=n_s * system.t_sym)


@dataclass(frozen=True)
class SensingAbility:
    """Achieved resolutions and unambiguous limits.

    Unbounded limits (baselines that do not constrain range or speed) are
    represented as math.inf; serialisation writes them as empty cells.
    """

    delta_r: float
    delta_db: float
    delta_v: float
    d_max: float
    v_max: float

    def __post_init__(self):
        if self.delta_r < 0 or self.delta_db < 0 or self.delta_v < 0:
            raise ValueError("resolutions must be >= 0")
        if self.d_max <= 0 or self.v_max <= 0:
            raise ValueError("unambiguous limits must be > 0")
        if math.isfinite(self.d_max) and self.delta_r > self.d_max * (1 + 1e-12):
            raise ValueError("delta_r cannot exceed d_max")


def sensing_ability(pattern: SensingPattern, system: SystemParams,
                    theta_b: float) -> SensingAbility:
    """Abilities achieved by a pilot pattern at beamwidth theta_b."""
    return ability_from_spans(pattern.u, pattern.v, pattern.b_s, pattern.t_s,
                              system, theta_b)


def ability_from_spans(u: int, v: int, b_s: float, t_s: float,
                       system: SystemParams, theta_b: float) -> SensingAbility:
    """Abilities for directly specified pilot spans (reference-table rows)."""
    if u < 1 or v < 1 or b_s <= 0.0 or t_s <= 0.0:
        raise ValueError("spans and spacings must be positive")
    at = a_theta(theta_b)
    delta_r = C_LIGHT / (2.0 * u * b_s)
    delta_v = C_LIGHT / (2.0 * system.f_c * v * t_s)
    d_max = C_LIGHT / (2.0 * u * system.f_scs)
    v_max = min(u * C_LIGHT * system.f_scs / (20.0 * system.f_c),
                C_LIGHT / (2.0 * system.f_c * v * system.t_sym))
    return SensingAbility(delta_r=delta_r, delta_db=at * delta_r,
                          delta_v=delta_v, d_max=d_max, v_max=v_max)


def ssb_ability(system: SystemParams, theta_b: float) -> SensingAbility:
    """Abilities when the sweep blocks alone do both detection and tracking:
    one block spanning b_ssb by t_ssb, whose speed limit is the symbol
    Doppler limit c / (2 f_c T_sym) alone."""
    return replace(ability_from_spans(1, 1, system.b_ssb, system.t_ssb, system,
                                      theta_b),
                   v_max=C_LIGHT / (2.0 * system.f_c * system.t_sym))


def baseline_5g_ability() -> SensingAbility:
    """Positioning ability required of general V2X service: 0.3 m, 1 m/s."""
    return SensingAbility(delta_r=0.3, delta_db=0.3, delta_v=1.0,
                          d_max=math.inf, v_max=math.inf)


def perfect_ability() -> SensingAbility:
    """Idealised sensing with no estimation error."""
    return SensingAbility(delta_r=0.0, delta_db=0.0, delta_v=0.0,
                          d_max=math.inf, v_max=math.inf)
