"""Quadrature primitives shared by the analytical modules.

Everything here is pure and stateless: adaptive Gauss-Kronrod integrators
for finite intervals and for semi-infinite integrands with decaying tails,
and a panel-marching integrator for oscillatory kernels of the form

    envelope(s) * [sin(phi2(s)) - sin(phi1(s))] / (pi * s).

All integrand callables must accept numpy arrays (they are evaluated on
batches of quadrature nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "integrate_interval",
    "integrate_semi_infinite",
    "integrate_oscillatory",
]


class QuadratureError(RuntimeError):
    """Adaptive integration did not converge within the allowed subdivisions.

    Attributes:
        partial: Best available estimate of the integral.
        error_bound: Estimated bound on the remaining error.
    """

    def __init__(self, message: str, partial: float, error_bound: float):
        super().__init__(f"{message} (partial={partial:.6e}, bound={error_bound:.3e})")
        self.partial = partial
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance budget for the adaptive integrators.

    Attributes:
        abs_tol: Absolute tolerance on the integral value.
        rel_tol: Relative tolerance on the integral value.
        max_subdivisions: Total panel-split budget before giving up.
        tail_cutoff_envelope: Semi-infinite truncation threshold; the tail
            is dropped once a panel contributes less than this fraction of
            the running estimate.
    """

    abs_tol: float = 1e-14
    rel_tol: float = 1e-10
    max_subdivisions: int = 4000
    tail_cutoff_envelope: float = 1e-12

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0 or self.tail_cutoff_envelope <= 0:
            raise ValueError("quadrature tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


# -----------------------------------------------------------------------------
# Gauss-Kronrod 7/15 panel rule
# -----------------------------------------------------------------------------

_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GK_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


def _gk15(f: Callable, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel; returns (integral, error_estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _GK_NODES), dtype=float)
    ik = half * float(np.dot(_GK_WK, fx))
    ig = half * float(np.dot(_GK_WG, fx))
    err = (200.0 * abs(ik - ig)) ** 1.5 if ik != ig else 0.0
    # never report less than float roundoff on the panel
    err = max(err, abs(ik) * 1e-15)
    return ik, err


def _adaptive_panel(f: Callable, a: float, b: float, tol: float, budget: list):
    """Adaptive bisection of one panel until its error beats tol.

    `budget` is a one-element mutable list holding the remaining number of
    splits shared across the whole call.
    """
    val, err = _gk15(f, a, b)
    stack = [(a, b, val, err)]
    total, total_err = 0.0, 0.0
    while stack:
        a0, b0, v0, e0 = stack.pop()
        if e0 <= tol:
            total += v0
            total_err += e0
            continue
        if budget[0] <= 0:
            total += v0
            total_err += e0
            continue
        budget[0] -= 1
        m = 0.5 * (a0 + b0)
        vl, el = _gk15(f, a0, m)
        vr, er = _gk15(f, m, b0)
        stack.append((a0, m, vl, el))
        stack.append((m, b0, vr, er))
    return total, total_err


def integrate_interval(f: Callable, a: float, b: float, tol: float = 1e-12,
                       max_splits: int = 2000) -> float:
    """Adaptive Gauss-Kronrod integral of f over the finite interval [a, b].

    Raises QuadratureError (carrying the partial value and an error bound)
    once the max_splits budget is spent.
    """
    budget = [max_splits]
    val, err = _adaptive_panel(f, a, b, tol, budget)
    if budget[0] <= 0:
        raise QuadratureError("interval quadrature did not converge", val, err)
    return val


def integrate_semi_infinite(f: Callable, lower: float,
                            spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Integrate f over [lower, inf) for integrands with a decaying envelope.

    Marches panels of geometrically growing width, each refined adaptively
    with Gauss-Kronrod 7/15, and truncates once consecutive panels fall
    below spec.tail_cutoff_envelope relative to the running estimate.

    Raises QuadratureError (carrying the partial value and an error bound)
    if the subdivision budget is exhausted before the tail dies out.
    """
    budget = [spec.max_subdivisions]
    h = 1.0
    a = float(lower)
    total = 0.0
    total_err = 0.0
    negligible_streak = 0
    panels = 0
    while True:
        b = a + h
        tol = max(spec.abs_tol, spec.rel_tol * abs(total)) * 0.25
        val, err = _adaptive_panel(f, a, b, tol, budget)
        total += val
        total_err += err
        panels += 1
        scale = max(abs(total), spec.abs_tol)
        if abs(val) < spec.tail_cutoff_envelope * scale:
            negligible_streak += 1
            if negligible_streak >= 2 and panels >= 3:
                return total
        else:
            negligible_streak = 0
        if budget[0] <= 0 or panels > 300:
            raise QuadratureError(
                "semi-infinite quadrature did not converge", total,
                total_err + abs(val))
        a = b
        h *= 2.0


# -----------------------------------------------------------------------------
# Oscillatory kernel: envelope(s) * [sin(phi2) - sin(phi1)] / (pi s)
# -----------------------------------------------------------------------------

def _euler_accelerate(partial_sums: np.ndarray):
    """Iterated averaging of a partial-sum sequence; returns (value, spread)."""
    t = np.asarray(partial_sums, dtype=float)
    last = t[-1]
    prev = last
    while t.size > 1:
        t = 0.5 * (t[1:] + t[:-1])
        prev = last
        last = t[-1]
    return last, abs(last - prev)


def _phase_scale_probe(phi, lower):
    """Find an s where the phase is O(1); sets the first panel width."""
    base = max(lower, 0.0)
    for k in range(-18, 19):
        s = 10.0 ** k
        if abs(float(phi(base + s))) > 1.0:
            return s
    return 10.0 ** 18


def _oscillatory_single(envelope: Callable, phi: Callable,
                        spec: QuadratureSpec, lower: float):
    """D(phi) = int_lower^inf envelope(s) sin(phi(s)) / (pi s) ds.

    phi must vanish at s = 0, which makes the kernel finite there.  Panels
    track the local half-period of phi, so their contributions alternate
    once the kernel oscillates; the tail is summed with iterated averaging
    (Euler-style acceleration).  Integration stops when the accelerated
    tail stabilises within tolerance or the envelope falls below
    spec.tail_cutoff_envelope.
    """

    def integrand(s):
        s = np.asarray(s, dtype=float)
        p = np.asarray(phi(s), dtype=float)
        env = np.asarray(envelope(s), dtype=float)
        s_safe = np.where(s == 0.0, 1e-300, s)
        val = env * np.sin(p) / (np.pi * s_safe)
        return np.where(s == 0.0, 0.0, val)

    def _alternating(vals):
        recent = [v for v in vals[-10:] if v != 0.0]
        if len(recent) < 4:
            return False
        flips = sum(1 for u, w in zip(recent, recent[1:]) if u * w < 0.0)
        return flips >= 0.6 * (len(recent) - 1)

    h = max(_phase_scale_probe(phi, lower) / 4.0, 1e-300)
    budget = [spec.max_subdivisions]
    a = float(lower)
    env_ref = max(abs(float(envelope(a + h))), 1e-300)

    partial = 0.0
    sums = []
    vals = []
    panels = 0
    stable = 0
    while True:
        b = a + h
        tol = max(spec.abs_tol, spec.rel_tol * abs(partial)) * 0.1
        val, err = _adaptive_panel(integrand, a, b, tol, budget)
        partial += val
        sums.append(partial)
        vals.append(val)
        panels += 1

        oscillating = _alternating(vals)
        if oscillating and len(sums) >= 6:
            # alternating panel sums: accelerated tail estimate
            est, est_err = _euler_accelerate(sums[-24:])
            target = max(spec.abs_tol, spec.rel_tol * abs(est))
            if est_err < target:
                stable += 1
                if stable >= 3:
                    return est, est_err + err
            else:
                stable = 0
        else:
            est, est_err = partial, abs(val) + err
            stable = 0
            # a dead integrand (equal phases, or envelope long gone)
            if panels >= 6 and all(
                    abs(u) <= max(spec.abs_tol, spec.rel_tol * abs(partial)) * 0.01
                    for u in vals[-4:]):
                return partial, est_err

        env_b = abs(float(envelope(b)))
        if env_b < spec.tail_cutoff_envelope * env_ref and panels >= 4:
            # envelope dead: the raw sum is the value; bound the lost tail
            bound = env_b * 2.0 / (math.pi * max(b, 1e-300)) * h
            if oscillating:
                return est, est_err + bound
            return partial, err + bound

        if budget[0] <= 0 or panels >= spec.max_subdivisions:
            raise QuadratureError(
                "oscillatory quadrature did not converge", est, max(est_err, abs(val)))

        # next panel length: local half-period of phi
        slope = abs(float(phi(b)) - float(phi(a))) / h
        if slope * h < 0.1:
            h_next = h * 2.0
        else:
            h_next = min(max(math.pi / slope, 0.25 * h), 4.0 * h)
        a = b
        h = h_next


def integrate_oscillatory(envelope: Callable, phi1: Callable, phi2: Callable,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE,
                          lower: float = 0.0):
    """Integrate envelope(s) * [sin(phi2(s)) - sin(phi1(s))] / (pi s) on [lower, inf).

    The two sine terms generally oscillate on very different scales (their
    linear slopes can be orders of magnitude apart), so they are integrated
    as separate Dirichlet-type kernels, each with panels paced by its own
    phase, and the results subtracted.  Both phases must vanish at s = 0,
    which keeps each kernel finite at the lower end.

    Returns:
        (value, error_estimate)

    Raises:
        QuadratureError: when the panel budget runs out first.
    """
    v2, e2 = _oscillatory_single(envelope, phi2, spec, lower)
    v1, e1 = _oscillatory_single(envelope, phi1, spec, lower)
    return v2 - v1, e1 + e2
