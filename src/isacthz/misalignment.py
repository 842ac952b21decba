"""Beam-misalignment probability: imperfect-sensing and association-timeout
terms in closed form.

Component pieces:

* blockage_probability -- complement of the void probability of the
  2 r_b wide corridor against users and blockers,
  1 - exp(-(lambda_m + lambda_s)(r - 2 r_b) 2 r_b).
* timeout_probability -- both nearest nodes blocked, an integral over the
  joint nearest-two distance density whose inner part has an erfcx
  closed form.
* speed_underestimate_probability -- the tracked speed falls short of the
  beam-crossing rate: the beam length, exponential with density
  mu_g = n_b sqrt(lambda_b) / pi, falls in crossing_miss_window.
* expected_closest_blockage -- the nearest-node blockage averaged over its
  distance, in erfc closed form (it counts the vanishing r1 < 2 r_b mass
  as blocked).

The total is the additive union bound p_ms = min(p_err + p_to, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from .channel import log_void_probability
from .config import Deployment
from .sensing import SensingAbility
from .specfun import integrate_semi_infinite

__all__ = [
    "MisalignmentBreakdown",
    "blockage_probability",
    "timeout_probability",
    "speed_underestimate_probability",
    "crossing_miss_window",
    "expected_closest_blockage",
    "beam_misalignment",
    "beam_switch_density",
]


@dataclass(frozen=True)
class MisalignmentBreakdown:
    """Misalignment probability with its two constituents."""

    p_err: float
    p_to: float
    p_ms: float

    def __post_init__(self):
        for name in ("p_err", "p_to", "p_ms"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be a probability, got {val}")


def beam_switch_density(deploy: Deployment) -> float:
    """Density of beam-switch points along the trajectory, n_b sqrt(lambda_b)/pi."""
    return deploy.n_b * math.sqrt(deploy.lambda_b) / math.pi


def blockage_probability(deploy: Deployment, r):
    """Corridor blockage probability of a link of length r >= 2 r_b."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 2.0 * deploy.r_b):
        raise ValueError("blockage_probability requires r >= 2 r_b")
    out = -np.expm1(log_void_probability(deploy.obstacle_density, deploy.r_b, r))
    return float(out) if out.ndim == 0 else out


def _lemma_constants(deploy: Deployment):
    w1 = deploy.obstacle_density * 2.0 * deploy.r_b
    beta = deploy.lambda_b * math.pi
    w2 = 2.0 * deploy.r_b * math.sqrt(beta) + w1 / (2.0 * math.sqrt(beta))
    return w1, beta, w2


def timeout_probability(deploy: Deployment) -> float:
    """Probability that the two nearest nodes are both corridor-blocked.

    (2 lambda_b pi)^2 int_{2 r_b}^inf r1 p_B(r1) g(r1) dr1 with the inner
    integral g(r1) = int_{r1}^inf p_B(r2) e^{-beta r2^2} r2 dr2 in closed
    form (beta = lambda_b pi, b = e^{-w1 (r1 - 2 r_b)} = 1 - p_B(r1)):

      g = e^{-beta r1^2} [(1 - b)/(2 beta)
          + b w1 sqrt(pi)/(4 beta^{3/2}) erfcx(sqrt(beta) r1 + w1/(2 sqrt(beta)))],

    the scaled complementary error function keeping every factor finite.
    """
    if deploy.lambda_b <= 0.0 or deploy.obstacle_density == 0.0:
        return 0.0
    w1, beta, _ = _lemma_constants(deploy)
    root = math.sqrt(beta)

    def outer(r1):
        r1 = np.asarray(r1, dtype=float)
        exponent = log_void_probability(deploy.obstacle_density, deploy.r_b, r1)
        b = np.exp(exponent)
        p_block = -np.expm1(exponent)
        g = np.exp(-beta * r1 ** 2) * (
            p_block / (2.0 * beta)
            + b * w1 * math.sqrt(math.pi) / (4.0 * beta * root)
            * sp.erfcx(root * r1 + w1 / (2.0 * root)))
        return r1 * p_block * g

    integral = integrate_semi_infinite(outer, 2.0 * deploy.r_b)
    return (2.0 * deploy.lambda_b * math.pi) ** 2 * integral


def crossing_miss_window(deploy: Deployment, ability: SensingAbility,
                         tau: float) -> tuple:
    """Beam lengths (lo, hi) = (max((v - dv) tau - ddb, 0), v tau) whose
    crossing within one burst period the tracked speed misses.  lo is
    clamped at zero so coarse resolutions cannot push the miss probability
    past that of the crossing itself."""
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    return (max((deploy.v - ability.delta_v) * tau - ability.delta_db, 0.0),
            deploy.v * tau)


def speed_underestimate_probability(deploy: Deployment, ability: SensingAbility,
                                    tau: float) -> float:
    """Probability the tracked speed misses an upcoming beam crossing: the
    exponential beam length falls in crossing_miss_window,
    exp(-mu_g lo) - exp(-mu_g hi), floored at zero.
    """
    lo, hi = crossing_miss_window(deploy, ability, tau)
    mu_g = beam_switch_density(deploy)
    return max(math.exp(-mu_g * lo) - math.exp(-mu_g * hi), 0.0)


def expected_closest_blockage(deploy: Deployment) -> float:
    """Nearest-node blockage probability averaged over its distance.

    1 - e^{2 r_b w1 + w1^2/(4 lambda_b pi)} [e^{-w2^2} -
    (w1 / (2 sqrt(lambda_b))) erfc(w2)].

    Evaluated through the scaled complementary error function: the prefactor
    exponent minus w2^2 collapses to -4 lambda_b pi r_b^2, which keeps the
    expression finite where the raw form would overflow.
    """
    if deploy.obstacle_density == 0.0:
        return 0.0
    if deploy.lambda_b <= 0.0:
        return 1.0  # the nearest node sits arbitrarily far away
    w1, beta, w2 = _lemma_constants(deploy)
    scaled = float(sp.erfcx(w2))  # erfc(w2) * exp(w2^2)
    inner = 1.0 - w1 / (2.0 * math.sqrt(deploy.lambda_b)) * scaled
    return 1.0 - math.exp(-4.0 * beta * deploy.r_b ** 2) * inner


def beam_misalignment(deploy: Deployment, ability: SensingAbility,
                      tau: float) -> MisalignmentBreakdown:
    """Total misalignment probability for one sensing ability.

    p_err couples the speed-underestimate event with the nearest node being
    reachable (not blocked); p_to is ability-independent.  The sum is a
    union bound and is capped at one.
    """
    p_ve = speed_underestimate_probability(deploy, ability, tau)
    p_err = p_ve * (1.0 - expected_closest_blockage(deploy))
    p_to = timeout_probability(deploy)
    return MisalignmentBreakdown(p_err=p_err, p_to=p_to, p_ms=min(p_err + p_to, 1.0))
