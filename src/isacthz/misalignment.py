"""Beam-misalignment probability: imperfect-sensing and association-timeout
terms with their closed forms and quadrature checks.

Component pieces:

* blockage_probability -- void probability of the 2 r_b wide corridor,
  1 - exp(-(lambda_s + lambda_m)(r - 2 r_b) 2 r_b).
* timeout_probability -- both nearest nodes blocked, an integral over the
  joint nearest-two distance density whose inner part has an erfcx
  closed form.
* speed_underestimate_probability -- the tracked speed falls short of the
  beam-crossing rate; exponential beam-length law with density
  mu_g = n_b sqrt(lambda_b) / pi.
* expected_closest_blockage -- the nearest-node blockage averaged over its
  distance; erfc closed form plus a direct quadrature used as the
  normative cross-check (the closed form counts the vanishing r1 < 2 r_b
  mass as blocked, and the quadrature integrates that same definition).

The total is the additive union bound p_ms = min(p_err + p_to, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sp

from .config import Deployment
from .sensing import SensingAbility
from .specfun import (DEFAULT_QUADRATURE, QuadratureSpec,
                      integrate_semi_infinite)

__all__ = [
    "MisalignmentBreakdown",
    "blockage_probability",
    "timeout_probability",
    "speed_underestimate_probability",
    "expected_closest_blockage",
    "expected_closest_blockage_quadrature",
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
    w1 = (deploy.lambda_s + deploy.lambda_m) * 2.0 * deploy.r_b
    out = 1.0 - np.exp(-w1 * (r - 2.0 * deploy.r_b))
    return float(out) if out.ndim == 0 else out


def _lemma_constants(deploy: Deployment):
    w1 = (deploy.lambda_s + deploy.lambda_m) * 2.0 * deploy.r_b
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
    if deploy.lambda_b <= 0.0 or deploy.lambda_s + deploy.lambda_m == 0.0:
        return 0.0
    w1, beta, _ = _lemma_constants(deploy)
    two_rb = 2.0 * deploy.r_b
    root = math.sqrt(beta)

    def outer(r1):
        r1 = np.asarray(r1, dtype=float)
        exponent = -w1 * (r1 - two_rb)
        b = np.exp(exponent)
        p_block = -np.expm1(exponent)
        g = np.exp(-beta * r1 ** 2) * (
            p_block / (2.0 * beta)
            + b * w1 * math.sqrt(math.pi) / (4.0 * beta * root)
            * sp.erfcx(root * r1 + w1 / (2.0 * root)))
        return r1 * p_block * g

    integral = integrate_semi_infinite(outer, two_rb)
    return (2.0 * deploy.lambda_b * math.pi) ** 2 * integral


def speed_underestimate_probability(deploy: Deployment, ability: SensingAbility,
                                    tau: float) -> float:
    """Probability the tracked speed misses an upcoming beam crossing.

    exp(-mu_g * max((v - dv) tau - ddb, 0)) - exp(-mu_g v tau), floored at
    zero.  The first exponent is clamped at zero so coarse resolutions
    cannot push the result past the complement of the crossing event.
    """
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    mu_g = beam_switch_density(deploy)
    lo = max((deploy.v - ability.delta_v) * tau - ability.delta_db, 0.0)
    hi = deploy.v * tau
    return max(math.exp(-mu_g * lo) - math.exp(-mu_g * hi), 0.0)


def expected_closest_blockage(deploy: Deployment) -> float:
    """Nearest-node blockage probability averaged over its distance.

    1 - e^{2 r_b w1 + w1^2/(4 lambda_b pi)} [e^{-w2^2} -
    (w1 / (2 sqrt(lambda_b))) erfc(w2)].

    Evaluated through the scaled complementary error function: the prefactor
    exponent minus w2^2 collapses to -4 lambda_b pi r_b^2, which keeps the
    expression finite where the raw form would overflow.
    """
    if deploy.lambda_s + deploy.lambda_m == 0.0:
        return 0.0
    if deploy.lambda_b <= 0.0:
        return 1.0  # the nearest node sits arbitrarily far away
    w1, beta, w2 = _lemma_constants(deploy)
    scaled = float(sp.erfcx(w2))  # erfc(w2) * exp(w2^2)
    inner = 1.0 - w1 / (2.0 * math.sqrt(deploy.lambda_b)) * scaled
    return 1.0 - math.exp(-4.0 * beta * deploy.r_b ** 2) * inner


def expected_closest_blockage_quadrature(deploy: Deployment,
                                         spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Direct quadrature of the defining integral of the closed form above:
    1 - int_{2 r_b}^inf e^{-w1 (r - 2 r_b)} f_{r1}(r) dr with the nearest
    distance density f_{r1}(r) = 2 pi lambda_b r e^{-lambda_b pi r^2}.

    The complement form mirrors the closed form exactly: the (tiny)
    probability mass of a nearest node inside 2 r_b counts as blocked.
    """
    if deploy.lambda_s + deploy.lambda_m == 0.0:
        return 0.0
    if deploy.lambda_b <= 0.0:
        return 1.0
    w1, beta, _ = _lemma_constants(deploy)
    two_rb = 2.0 * deploy.r_b

    def unblocked(r):
        return (np.exp(-w1 * (r - two_rb))
                * 2.0 * math.pi * deploy.lambda_b * r * np.exp(-beta * r ** 2))

    return 1.0 - integrate_semi_infinite(unblocked, two_rb, spec)


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
