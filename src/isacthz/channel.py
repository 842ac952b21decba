"""THz link budget, noise, and per-interferer probabilities.

The propagation model is spreading loss times molecular absorption,
P(r) = A r^-2 exp(-K r), with the composite constant
A = P_t * G_b * G_m * c^2 / (16 pi^2 f_c^2) and ideal cone antennas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import C_LIGHT, Deployment, SystemParams
from .specfun import exp1

__all__ = [
    "LOWER_BOUND_MODES",
    "LinkBudget",
    "antenna_gain",
    "received_power",
    "reradiation_constant",
    "orientation_odds",
    "sweep_weight",
    "log_void_probability",
    "lower_bound_radius",
    "interference_probability",
    "expected_interference",
    "expected_noise",
    "effective_noise",
]

# inner radius of the interfering-node field: 2 r_b (theorem) or r1
# (derivation), see lower_bound_radius
LOWER_BOUND_MODES = ("theorem", "derivation")


def antenna_gain(theta: float) -> float:
    """Main-lobe gain 2 / (1 - cos(theta/2)) of an ideal cone of width theta."""
    if not 0.0 < theta <= math.pi:
        raise ValueError("antenna_gain requires 0 < theta <= pi")
    return 2.0 / (1.0 - math.cos(0.5 * theta))


@dataclass(frozen=True)
class LinkBudget:
    """Composite link constants for one (system, deployment) pair.

    The cone gains of the deployment's beamwidths enter A only.

    Attributes:
        a: Composite power constant A [W m^2].
        k_abs: Absorption coefficient [1/m].
    """

    a: float
    k_abs: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError("LinkBudget.a must be > 0")
        if not self.k_abs >= 0.0:
            raise ValueError("LinkBudget.k_abs must be >= 0")

    @classmethod
    def from_params(cls, system: SystemParams, deploy: Deployment) -> "LinkBudget":
        g_b = antenna_gain(deploy.theta_b)
        g_m = antenna_gain(deploy.theta_m)
        a = system.p_t * g_b * g_m * C_LIGHT ** 2 / (16.0 * math.pi ** 2 * system.f_c ** 2)
        return cls(a=a, k_abs=system.k_abs)


def received_power(budget: LinkBudget, r):
    """A r^-2 exp(-K r); accepts scalar or array distances r > 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("received_power requires r > 0")
    out = budget.a * r ** -2 * np.exp(-budget.k_abs * r)
    return float(out) if out.ndim == 0 else out


def reradiation_constant(budget: LinkBudget, deploy: Deployment) -> float:
    """A K / (n_b n_m): a node at r re-radiates absorbed power
    A K r^-2 e^(-K r) / (n_b n_m) toward the typical user."""
    return budget.a * budget.k_abs / (deploy.n_b * deploy.n_m)


def orientation_odds(deploy: Deployment) -> float:
    """Accidental mutual-orientation odds (theta_b / 2 pi)(theta_m / 2 pi),
    the largest sweep weight (reached at p_ms = 1)."""
    return (deploy.theta_b / (2.0 * math.pi)) * (deploy.theta_m / (2.0 * math.pi))


def sweep_weight(deploy: Deployment, system: SystemParams, p_ms: float) -> float:
    """Phase/orientation factor w_s(p_ms) of the interferer probability.

    Combines the sweep duty cycle n_b T_ssb / tau, the misalignment leak
    during the data phase, and the accidental mutual-orientation odds
    (theta_b / 2 pi)(theta_m / 2 pi).
    """
    if not 0.0 <= p_ms <= 1.0:
        raise ValueError("p_ms must be a probability")
    duty = deploy.n_b * system.t_ssb / system.tau
    if duty > 1.0:
        raise ValueError("n_b * t_ssb exceeds the burst period tau")
    return (duty + (1.0 - duty) * p_ms) * orientation_odds(deploy)


def log_void_probability(density: float, r_b: float, r):
    """-density (r - 2 r_b) 2 r_b: the log probability that a PPP of the
    given density leaves empty the 2 r_b wide corridor of a link of length
    r >= 2 r_b, whose blocking centres lie along (r_b, r - r_b)."""
    return -density * (r - 2.0 * r_b) * (2.0 * r_b)


def lower_bound_radius(mode: str, deploy: Deployment, r1: float) -> float:
    """Inner radius of the interfering-node field: 2 r_b in theorem mode,
    the serving distance r1 in derivation mode."""
    if mode not in LOWER_BOUND_MODES:
        raise ValueError(f"lower_bound_mode must be one of {LOWER_BOUND_MODES}")
    return 2.0 * deploy.r_b if mode == "theorem" else r1


def interference_probability(deploy: Deployment, system: SystemParams, r, p_ms: float):
    """Probability that a node at distance r interferes with the typical user.

    Product of the sweep/misalignment factor, the orientation odds, and the
    line-of-sight void probability over the total density
    lambda_b + lambda_m + lambda_s.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 2.0 * deploy.r_b):
        raise ValueError("interference requires r >= 2 r_b")
    w_s = sweep_weight(deploy, system, p_ms)
    out = w_s * np.exp(log_void_probability(deploy.total_density, deploy.r_b, r))
    return float(out) if out.ndim == 0 else out


def expected_interference(budget: LinkBudget, deploy: Deployment,
                          system: SystemParams, r1: float, p_ms: float) -> float:
    """Mean aggregate interference from nodes beyond r1.

    2 pi lambda_b w_s e^{4 lambda r_b^2} A E1(2 lambda r_b r1 + K r1).
    """
    if r1 < 2.0 * deploy.r_b:
        raise ValueError("expected_interference requires r1 >= 2 r_b")
    if deploy.lambda_b == 0.0:
        return 0.0
    lam = deploy.total_density
    w_s = sweep_weight(deploy, system, p_ms)
    arg = 2.0 * lam * deploy.r_b * r1 + budget.k_abs * r1
    return (2.0 * math.pi * deploy.lambda_b * w_s
            * math.exp(4.0 * lam * deploy.r_b ** 2) * budget.a
            * exp1(arg))


def expected_noise(budget: LinkBudget, deploy: Deployment,
                   system: SystemParams, r1: float) -> float:
    """Mean total noise: thermal floor plus network re-radiated absorption.

    P_N^T + 2 pi lambda_b A K / (n_b n_m) * E1(K r1).
    """
    if not r1 > 0.0:
        raise ValueError("expected_noise requires r1 > 0")
    thermal = system.thermal_noise_power
    if deploy.lambda_b == 0.0 or budget.k_abs == 0.0:
        return thermal
    pref = 2.0 * math.pi * deploy.lambda_b * reradiation_constant(budget, deploy)
    return thermal + pref * exp1(budget.k_abs * r1)


def effective_noise(budget: LinkBudget, deploy: Deployment,
                    system: SystemParams, r1: float) -> float:
    """Constant noise seen at the demodulation test: thermal plus the
    serving node's own re-radiated absorption at distance r1."""
    if not r1 > 0.0:
        raise ValueError("effective_noise requires r1 > 0")
    self_abs = (reradiation_constant(budget, deploy)
                * r1 ** -2 * math.exp(-budget.k_abs * r1))
    return system.thermal_noise_power + self_abs
