"""Coverage probability via real/imaginary characteristic-function inversion.

The aggregate of interference and re-radiated absorption noise from the
node field is a shot-noise functional of the PPP.  Its distribution enters
through two semi-infinite integrals over node distance,

  f_r(s) = int_L^inf r [1 - cos(2 pi s I_int(r)) p_I(r)
                          - cos(2 pi s I_abs(r)) (1 - p_I(r))] dr
  f_i(s) = int_L^inf r [    sin(2 pi s I_int(r)) p_I(r)
                          + sin(2 pi s I_abs(r)) (1 - p_I(r))] dr

with I_abs(r) = (A K / n_b n_m) r^-2 e^-Kr (absorption re-radiation from
any node) and I_int(r) = A (1 + K / n_b n_m) r^-2 e^-Kr (an actively
interfering node).  The conditional coverage term is then the oscillatory
inversion integral

  p_cm = int_0^inf e^{-2 pi lam_b f_r(s)} / (pi s)
             [sin(2 pi s P_c(r1)/T + f_1(s)) - sin(f_1(s))] ds,

with f_1(s) = -2 pi lam_b f_i(s) - 2 pi s P_n_eff, and the coverage
probability is p_cvp = (1 - p_ms) p_cm.

Numerics: for large s the distance integrands oscillate rapidly near the
lower bound; the evaluation splits each integral at the radius where the
phase drops below a fixed budget (a Lambert-W closed form), integrates
the slow side with adaptive panels, and replaces the fast side by its
exact leading term plus the first integration-by-parts endpoint
correction.  Both parts are tabulated once per (budget, deployment,
sweep weight w_s, lower bound) on a log grid and interpolated, which is
what lets one field serve a whole (r1, threshold) sweep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import lambertw

from .channel import LinkBudget, effective_noise, received_power, sweep_weight
from .config import Deployment, SystemParams
from .misalignment import beam_misalignment
from .sensing import SensingAbility
from .specfun import (QuadratureError, QuadratureSpec, integrate_interval,
                      integrate_oscillatory, integrate_semi_infinite)

__all__ = [
    "CoverageQuery",
    "CoverageResult",
    "ShotNoiseField",
    "coverage_probability",
    "coverage_sweep",
    "clear_field_cache",
]

LOWER_BOUND_MODES = ("theorem", "derivation")

# phase budget separating the numerically-resolved slow zone from the
# endpoint-corrected fast zone of the distance integrals
_PHASE_BUDGET = 60.0

DEFAULT_COVERAGE_QUADRATURE = QuadratureSpec(
    abs_tol=1e-7, rel_tol=1e-6, max_subdivisions=60000,
    tail_cutoff_envelope=1e-10)

_INNER_QUAD = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-9,
                             max_subdivisions=4000,
                             tail_cutoff_envelope=1e-13)


@dataclass(frozen=True)
class CoverageQuery:
    """One coverage evaluation point."""

    r1: float
    threshold: float
    lower_bound_mode: str = "theorem"

    def __post_init__(self):
        if not self.threshold > 0.0:
            raise ValueError("threshold must be > 0 (linear SINR)")
        if self.lower_bound_mode not in LOWER_BOUND_MODES:
            raise ValueError(f"lower_bound_mode must be one of {LOWER_BOUND_MODES}")


@dataclass(frozen=True)
class CoverageResult:
    """Coverage probability with its constituents."""

    p_cvp: float
    p_cm: float
    p_ms: float
    integral_abs_error: float

    def __post_init__(self):
        for name in ("p_cvp", "p_cm", "p_ms"):
            val = getattr(self, name)
            if not -1e-9 <= val <= 1.0 + 1e-9:
                raise ValueError(f"{name} out of [0, 1]: {val}")


class ShotNoiseField:
    """Tabulated f_r / f_i pair for one (budget, deployment, sweep weight
    w_s, lower bound); w_s = sweep_weight(deploy, system, p_ms) is all the
    field reads of the system and the misalignment probability."""

    def __init__(self, budget: LinkBudget, deploy: Deployment, w_s: float,
                 lower_bound: float):
        if lower_bound < 2.0 * deploy.r_b:
            raise ValueError("field lower bound below 2 r_b")
        self.deploy = deploy
        self.w_s = w_s
        self.lower = lower_bound
        self.k = budget.k_abs
        self.c_abs = budget.a * budget.k_abs / (deploy.n_b * deploy.n_m)
        self.c_int = budget.a * (1.0 + budget.k_abs / (deploy.n_b * deploy.n_m))
        self.lam_block = deploy.lambda_b + deploy.lambda_m + deploy.lambda_s
        self._tables = None

    # -- geometry helpers ---------------------------------------------------

    def _g(self, r):
        return r ** -2.0 * np.exp(-self.k * r)

    def _p_int(self, r):
        two_rb = 2.0 * self.deploy.r_b
        return self.w_s * np.exp(-self.lam_block * (r - two_rb) * two_rb)

    def _phase_radius(self, s: float, c_x: float, target: float) -> float:
        """Radius where the phase 2 pi s c_x r^-2 e^{-k r} falls to `target`,
        clamped to the lower bound: with x = 2 pi s c_x / target the phase
        equation r^2 e^{k r} = x gives r = (2/k) W0(k sqrt(x) / 2)."""
        root = math.sqrt(2.0 * math.pi * s * c_x / target)
        if self.k == 0.0:
            return max(self.lower, root)
        return max(self.lower,
                   2.0 / self.k * lambertw(0.5 * self.k * root).real)

    # -- exact evaluation ---------------------------------------------------

    def _fast_zone_endpoint(self, s, c_x, a, b, kind, weight):
        """First-order endpoint value of int_a^b r h(r) trig(phase) dr over
        the rapidly-oscillating zone; kind is 'cos' or 'sin' and h is the
        weight callable (p_I(r) for interference, 1 for absorption)."""

        def term(r):
            phase = 2.0 * math.pi * s * c_x * self._g(r)
            dphase = -phase * (2.0 / r + self.k)
            w = float(weight(np.asarray(r, dtype=float)))
            if kind == "cos":
                return r * w * math.sin(phase) / dphase
            return -r * w * math.cos(phase) / dphase

        return term(b) - term(a)

    def exact(self, s: float):
        """Directly evaluated (f_r(s), f_i(s)); the normative slow path.

        On [lower, r_split] (interference phase above the budget) the unit
        term integrates to an area, the interference cosine/sine collapse
        to weighted endpoint corrections, and the absorption trig terms are
        endpoint-corrected on their own fast zone then integrated
        numerically where slow.  Beyond r_split everything is slow and the
        cosine bracket is evaluated in the cancellation-free form
        (1-p) 2 sin^2(ph_a/2) + p 2 sin^2(ph_i/2).
        """
        if s <= 0.0:
            raise ValueError("shot-noise parts need s > 0")
        lower = self.lower
        r_abs = self._phase_radius(s, self.c_abs, _PHASE_BUDGET)
        r_int = self._phase_radius(s, self.c_int, _PHASE_BUDGET)
        r_split = max(r_abs, r_int)  # c_int >= c_abs, so this is r_int

        def bracket_r(r):
            ph_a = 2.0 * math.pi * s * self.c_abs * self._g(r)
            ph_i = 2.0 * math.pi * s * self.c_int * self._g(r)
            p = self._p_int(r)
            return r * 2.0 * ((1.0 - p) * np.sin(0.5 * ph_a) ** 2
                              + p * np.sin(0.5 * ph_i) ** 2)

        def bracket_i(r):
            ph_a = 2.0 * math.pi * s * self.c_abs * self._g(r)
            ph_i = 2.0 * math.pi * s * self.c_int * self._g(r)
            p = self._p_int(r)
            return r * (np.sin(ph_i) * p + np.sin(ph_a) * (1.0 - p))

        f_r = integrate_semi_infinite(bracket_r, r_split, _INNER_QUAD)
        f_i = integrate_semi_infinite(bracket_i, r_split, _INNER_QUAD)

        if r_split > lower:
            f_r += 0.5 * (r_split ** 2 - lower ** 2)
            # interference trig terms: fast on the whole zone
            f_r -= self._fast_zone_endpoint(s, self.c_int, lower, r_split, "cos", self._p_int)
            f_i += self._fast_zone_endpoint(s, self.c_int, lower, r_split, "sin", self._p_int)
            if r_abs > lower:
                # absorption fast zone; the (1 - p_I) weight is within
                # ~1e-4 of one and is dropped from the endpoint term
                f_r -= self._fast_zone_endpoint(s, self.c_abs, lower, r_abs, "cos", np.ones_like)
                f_i += self._fast_zone_endpoint(s, self.c_abs, lower, r_abs, "sin", np.ones_like)
            if r_abs < r_split:
                seg_lo = max(r_abs, lower)

                def slow_abs_r(r):
                    ph_a = 2.0 * math.pi * s * self.c_abs * self._g(r)
                    return -r * np.cos(ph_a) * (1.0 - self._p_int(r))

                def slow_abs_i(r):
                    ph_a = 2.0 * math.pi * s * self.c_abs * self._g(r)
                    return r * np.sin(ph_a) * (1.0 - self._p_int(r))

                f_r += integrate_interval(slow_abs_r, seg_lo, r_split, tol=1e-12)
                f_i += integrate_interval(slow_abs_i, seg_lo, r_split, tol=1e-12)
        return f_r, f_i

    # -- tabulation ---------------------------------------------------------

    def _build_tables(self):
        if self.deploy.lambda_b <= 0.0:
            raise ValueError("shot-noise field needs lambda_b > 0")
        g0 = self._g(self.lower)
        s_lo = 1e-3 / (2.0 * math.pi * self.c_int * g0)
        # envelope target: e^{-2 pi lam_b f_r} below 1e-12
        f_target = 27.7 / (2.0 * math.pi * self.deploy.lambda_b)
        s_hi = s_lo * 1e6
        for _ in range(60):
            fr, _fi = self.exact(s_hi)
            if fr >= f_target:
                break
            s_hi *= 10.0
        grid = np.geomspace(s_lo, s_hi, max(36, int(28 * math.log10(s_hi / s_lo))))
        fr = np.empty_like(grid)
        fi = np.empty_like(grid)
        for i, s in enumerate(grid):
            fr[i], fi[i] = self.exact(float(s))
        ln_s = np.log(grid)
        fr = np.maximum(fr, 1e-300)
        self._tables = (
            grid[0], grid[-1],
            PchipInterpolator(ln_s, np.log(fr), extrapolate=False),
            PchipInterpolator(ln_s, fi, extrapolate=False),
            fr[0], fi[0], fr[-1], fi[-1],
        )

    def parts(self, s):
        """Interpolated (f_r, f_i); quadratic/linear extensions below the
        tabulated range, clamped above it (the envelope is dead there)."""
        if self._tables is None:
            self._build_tables()
        s_lo, s_hi, fr_ip, fi_ip, fr0, fi0, fr1, fi1 = self._tables
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        fr = np.empty_like(s)
        fi = np.empty_like(s)
        below = s < s_lo
        above = s > s_hi
        mid = ~(below | above)
        if np.any(mid):
            ln = np.log(s[mid])
            fr[mid] = np.exp(fr_ip(ln))
            fi[mid] = fi_ip(ln)
        if np.any(below):
            ratio = s[below] / s_lo
            fr[below] = fr0 * ratio ** 2
            fi[below] = fi0 * ratio
        if np.any(above):
            fr[above] = fr1
            fi[above] = fi1
        if scalar:
            return float(fr[0]), float(fi[0])
        return fr, fi


# Fields are small (a few hundred tabulated points) and a sweep touches at
# most one per (scheme, lower bound); the bound keeps long-lived processes
# from accumulating them.
@functools.lru_cache(maxsize=64)
def _field_for(budget: LinkBudget, deploy: Deployment, w_s: float,
               lower_bound: float) -> ShotNoiseField:
    return ShotNoiseField(budget, deploy, w_s, lower_bound)


def clear_field_cache():
    _field_for.cache_clear()


def coverage_probability(query: CoverageQuery, budget: LinkBudget,
                         deploy: Deployment, system: SystemParams,
                         ability: SensingAbility) -> CoverageResult:
    """Analytic coverage probability at one (r1, threshold) point."""
    if query.r1 < 2.0 * deploy.r_b:
        raise ValueError("coverage requires r1 >= 2 r_b")
    p_ms = beam_misalignment(deploy, ability, system.tau).p_ms
    y = received_power(budget, query.r1) / query.threshold
    p_eff = effective_noise(budget, deploy, system, query.r1)

    if deploy.lambda_b <= 0.0:
        # no node field: the SINR test is deterministic against the
        # effective noise (thermal plus the serving node's re-radiation)
        p_cm = 1.0 if y > p_eff else 0.0
        return CoverageResult(p_cvp=(1.0 - p_ms) * p_cm, p_cm=p_cm,
                              p_ms=p_ms, integral_abs_error=0.0)

    lower = 2.0 * deploy.r_b if query.lower_bound_mode == "theorem" else query.r1
    fld = _field_for(budget, deploy, sweep_weight(deploy, system, p_ms), lower)
    two_pi_lb = 2.0 * math.pi * deploy.lambda_b

    def envelope(s):
        fr, _ = fld.parts(s)
        return np.exp(-two_pi_lb * fr)

    def phi1(s):
        s = np.asarray(s, dtype=float)
        _, fi = fld.parts(s)
        return -two_pi_lb * fi - 2.0 * math.pi * s * p_eff

    def phi2(s):
        s = np.asarray(s, dtype=float)
        _, fi = fld.parts(s)
        return -two_pi_lb * fi - 2.0 * math.pi * s * p_eff + 2.0 * math.pi * s * y

    p_cm, err = integrate_oscillatory(envelope, phi1, phi2,
                                      DEFAULT_COVERAGE_QUADRATURE)

    tol = max(DEFAULT_COVERAGE_QUADRATURE.abs_tol, 10.0 * err, 1e-6)
    if p_cm < -10.0 * max(tol, 1e-4) or p_cm > 1.0 + 10.0 * max(tol, 1e-4):
        raise QuadratureError(
            "conditional coverage escaped [0, 1]; inversion integrand suspect",
            p_cm, err)
    p_cm_clamped = min(max(p_cm, 0.0), 1.0)
    return CoverageResult(p_cvp=(1.0 - p_ms) * p_cm_clamped, p_cm=p_cm_clamped,
                          p_ms=p_ms, integral_abs_error=err)


def coverage_sweep(r1_grid, threshold_grid, schemes, budget: LinkBudget,
                   deploy: Deployment, system: SystemParams,
                   abilities: dict, lower_bound_mode: str = "theorem"):
    """Cross-product coverage table.

    abilities maps scheme name -> SensingAbility.  Returns a list of dict
    rows (scheme, r1_m, threshold_db, p_ms, p_cm, p_cvp, abs_err); schemes
    share the tabulated shot-noise field whenever their p_ms coincides.
    """
    rows = []
    for scheme in schemes:
        ability = abilities[scheme]
        for r1 in r1_grid:
            for thr in threshold_grid:
                q = CoverageQuery(r1=float(r1), threshold=float(thr),
                                  lower_bound_mode=lower_bound_mode)
                res = coverage_probability(q, budget, deploy, system, ability)
                rows.append({
                    "scheme": scheme,
                    "r1_m": float(r1),
                    "threshold_db": 10.0 * math.log10(thr),
                    "p_ms": res.p_ms,
                    "p_cm": res.p_cm,
                    "p_cvp": res.p_cvp,
                    "abs_err": res.integral_abs_error,
                })
    return rows
