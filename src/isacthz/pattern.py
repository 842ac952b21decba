"""Optimal pilot-pattern selection and its brute-force verification oracle.

Given a required detection radius and trackable speed, the closed form
picks the largest insert spacings satisfying the unambiguous-range and
Doppler constraints,

    U = floor(c / (2 f_scs d_req)),   V = floor(c / (2 f_c T_sym v_req)),

and the time-to-frequency exponent from the stationarity condition of the
misalignment objective delta_v * tau + delta_db,

    alpha = 1/2 [ log_N( U f_scs tau / (V f_c T_sym A_theta) ) + 1 ],

clamped into the feasible interval.  The brute-force search sweeps a dense
alpha grid and every feasible (U, V) pair and must land on the same point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import C_LIGHT, SystemParams
from .sensing import SensingPattern, a_theta

__all__ = [
    "PatternRequirement",
    "InfeasibleRequirementError",
    "objective",
    "alpha_bounds",
    "optimal_alpha",
    "optimal_pattern",
    "brute_force_pattern",
]

# hard caps on the brute-force search space (1 m range / 0.1 m/s speed floor)
_BRUTE_DMAX_FLOOR = 1.0
_BRUTE_VMAX_FLOOR = 0.1
# alpha points the brute-force search tries
_BRUTE_GRID = 10000


class InfeasibleRequirementError(ValueError):
    """The requested range/speed cannot be met by any integer spacing."""


@dataclass(frozen=True)
class PatternRequirement:
    """Sensing requirements the pattern must satisfy; the pilot budget
    n_rs it spends is the system's."""

    d_max_req: float
    v_max_req: float

    def __post_init__(self):
        if not self.d_max_req > 0.0:
            raise ValueError("d_max_req must be > 0")
        if not self.v_max_req > 0.0:
            raise ValueError("v_max_req must be > 0")


def objective(alpha, u: int, v: int, system: SystemParams, theta_b: float):
    """Misalignment driver delta_v * tau + delta_db at continuous alpha.

    c tau / (2 f_c V N^alpha T_sym) + c A_theta / (2 U N^(1-alpha) f_scs).
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0.0) or np.any(alpha >= 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if u < 1 or v < 1:
        raise ValueError("U, V must be >= 1")
    at = a_theta(theta_b)
    n = system.n_rs
    time_term = C_LIGHT * system.tau / (2.0 * system.f_c * v * n ** alpha * system.t_sym)
    freq_term = C_LIGHT * at / (2.0 * u * n ** (1.0 - alpha) * system.f_scs)
    out = time_term + freq_term
    return float(out) if out.ndim == 0 else out


def alpha_bounds(system: SystemParams) -> tuple:
    """Feasible alpha interval: the open-interval guard [0.01, 0.99]
    intersected with the bandwidth and duration budgets
    N^(1-alpha) f_scs <= b_tot and N^alpha T_sym <= t_tot.

    The budget bounds are phrased against the integer subcarrier/symbol
    caps plus half a rounding step, so any alpha inside the interval
    materialises without tripping the resource invariants."""
    # log 1 = 0; optimal_alpha takes the bounds before its own log(n_rs)
    if system.n_rs < 2:
        raise ValueError("n_rs must be >= 2")
    log_n = math.log(system.n_rs)
    lo = max(0.01, 1.0 - math.log(system.subcarrier_cap + 0.5) / log_n)
    hi = min(0.99, math.log(system.symbol_cap + 0.5) / log_n)
    if lo >= hi:
        raise InfeasibleRequirementError(
            "no alpha satisfies the bandwidth/duration budgets for this n_rs")
    return lo, hi


def _spacings(req: PatternRequirement, system: SystemParams) -> tuple:
    u_hi = math.floor(C_LIGHT / (2.0 * system.f_scs * req.d_max_req))
    v_hi = math.floor(C_LIGHT / (2.0 * system.f_c * system.t_sym * req.v_max_req))
    if u_hi < 1:
        raise InfeasibleRequirementError(
            f"required range {req.d_max_req} m exceeds the unambiguous limit "
            f"{C_LIGHT / (2.0 * system.f_scs):.1f} m at U = 1")
    if v_hi < 1:
        raise InfeasibleRequirementError(
            f"required speed {req.v_max_req} m/s exceeds the unambiguous limit "
            f"{C_LIGHT / (2.0 * system.f_c * system.t_sym):.2f} m/s at V = 1")
    # Doppler spacing floor: U f_scs >= 20 f_c v_req / c
    u_lo = max(1, math.ceil(20.0 * system.f_c * req.v_max_req / (C_LIGHT * system.f_scs) - 1e-12))
    if u_lo > u_hi:
        raise InfeasibleRequirementError(
            "range and Doppler-spacing constraints leave no feasible U")
    return u_lo, u_hi, v_hi


def optimal_alpha(u: int, v: int, system: SystemParams, theta_b: float) -> float:
    """Stationary point of the objective in alpha, clamped into the
    feasible interval (the objective is convex, so clamping is exact)."""
    lo, hi = alpha_bounds(system)
    at = a_theta(theta_b)
    ratio = u * system.f_scs * system.tau / (v * system.f_c * system.t_sym * at)
    alpha = 0.5 * (math.log(ratio) / math.log(system.n_rs) + 1.0)
    return min(max(alpha, lo), hi)


def optimal_pattern(req: PatternRequirement, system: SystemParams,
                    theta_b: float) -> SensingPattern:
    """Closed-form optimal pattern for the given requirements."""
    u_lo, u_hi, v_hi = _spacings(req, system)
    alpha = optimal_alpha(u_hi, v_hi, system, theta_b)
    return SensingPattern.materialize(alpha, u_hi, v_hi, system)


def brute_force_pattern(req: PatternRequirement, system: SystemParams,
                        theta_b: float) -> SensingPattern:
    """Exhaustive argmin over a dense alpha grid and all feasible (U, V).

    Verification oracle for the closed form; ties break lexicographically
    on (objective, U, V, alpha) so the result is deterministic.
    """
    u_lo, u_hi, v_hi = _spacings(req, system)
    u_cap = max(1, math.floor(C_LIGHT / (2.0 * system.f_scs * _BRUTE_DMAX_FLOOR)))
    v_cap = max(1, math.floor(C_LIGHT / (2.0 * system.f_c * system.t_sym * _BRUTE_VMAX_FLOOR)))
    u_hi = min(u_hi, u_cap)
    v_hi = min(v_hi, v_cap)

    lo, hi = alpha_bounds(system)
    alphas = np.linspace(lo, hi, _BRUTE_GRID)
    best = None
    for u in range(u_lo, u_hi + 1):
        for v in range(1, v_hi + 1):
            vals = objective(alphas, u, v, system, theta_b)
            i = int(np.argmin(vals))
            cand = (float(vals[i]), u, v, float(alphas[i]))
            if best is None or cand < best:
                best = cand
    _, u, v, alpha = best
    return SensingPattern.materialize(alpha, u, v, system)
