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
interfering node).  The conditional coverage term is then the Gil-Pelaez
difference F(y) - F(0), y = P_c(r1)/T, of two Dirichlet kernels

  p_cm = D(f_1 + 2 pi s y) - D(f_1),
  D(phi) = int_0^inf e^{-2 pi lam_b f_r(s)} sin(phi(s)) / (pi s) ds,

with f_1(s) = -2 pi lam_b f_i(s) - 2 pi s P_n_eff, and the coverage
probability is p_cvp = (1 - p_ms) p_cm.  The threshold-free half D(f_1)
reads only the field and r1: it is integrated once per (budget, deployment,
sweep weight, lower bound, effective noise) and cached, so a cell whose
half is cached integrates only its own threshold's kernel.

Numerics: for large s the distance integrands oscillate rapidly near the
lower bound.  The evaluation splits each bracket by source, absorption
and interference, and each source at the radius where its phase drops
below a fixed budget (a Lambert-W closed form).  Beyond that radius the
source is integrated with adaptive panels, both sources of every s-point
as members of one batch of semi-infinite tails.  Nearer in, the trig
terms are replaced by their first integration-by-parts endpoint
corrections and the unit terms by closed-form areas, among them the
line-of-sight area between the two radii.  Both parts are affine in the
sweep weight w_s of the interferer probability, f = F0 + w_s F1, so the
four weight-free components (F0_r, F1_r, F0_i, F1_i) are tabulated once
per (budget, deployment, lower bound) on a log s-grid: the whole grid is
evaluated in lockstep batches of _S_CHUNK s-points, each quadrature step
integrating every pending panel of every s-point in one call.  Each sweep
weight then reads its own interpolants off that shared table, which is
what lets one table serve every scheme and a whole (r1, threshold)
sweep.  Each kernel reads its envelope and phase from one lookup of those
interpolants per node set or panel edge.  The cell-independent part of
that lookup, the envelope e^{-2 pi lam_b f_r} and the phase -2 pi lam_b
f_i at the probe points and at the nodes of the first panel's geometric
head (which depend only on the first panel width), is looked up once per
field view and kept in the view's memo; the cell's 2 pi s (y - P_n_eff)
is added by the kernel.  The memo holds at most one entry per possible
first width plus the probe and goes with its view, so clear_field_cache()
drops it.

Cost: a table build is almost all semi-infinite quadrature of the slow
zones, two members per s-point, each usually closing within its first
block of root panels (specfun._ROOT_BLOCK).  One batched integrand writes
the four components at the 15 Gauss-Kronrod nodes of every pending panel
into one array.  Its two trig brackets, 2 sin^2(ph/2) and sin ph, both
come from one tan(ph/4) (_half_angle_brackets): on a 2-vCPU Xeon guest
with numpy 2.4.6, float64 np.sin at phases of 0-60 rad costs 17-25 ns an
element and np.tan 2-3 ns, and the node weight r^-2 e^{-k r} divides by
r * r, 1.1-1.6 ns an element against 3.3-4.5 ns for r ** -2.0.  The end
of the grid is searched a few decades at a time, so few s-points past it
are integrated only to be discarded.
"""

from __future__ import annotations

import bisect
import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, lambertw

from .channel import (LOWER_BOUND_MODES, LinkBudget, effective_noise,
                      log_void_probability, lower_bound_radius,
                      orientation_odds, received_power, reradiation_constant,
                      sweep_weight)
from .config import Deployment, SystemParams
from .misalignment import beam_misalignment
from .schemes import scheme_ability
from .sensing import SensingAbility
from .specfun import (QuadratureError, QuadratureSpec, integrate_oscillatory,
                      integrate_semi_infinite_batch)

__all__ = [
    "CoverageQuery",
    "CoverageResult",
    "ShotNoiseField",
    "coverage_probability",
    "coverage_sweep",
    "clear_field_cache",
]

# phase budget separating the numerically-resolved slow zone from the
# endpoint-corrected fast zone of the distance integrals
_PHASE_BUDGET = 60.0

DEFAULT_COVERAGE_QUADRATURE = QuadratureSpec(
    abs_tol=1e-7, rel_tol=1e-6, max_subdivisions=60000,
    tail_cutoff_envelope=1e-10)

# s-points per lockstep quadrature batch of the table.  Every s-point's
# members march on their own, so the batch size moves no value; larger
# batches were no faster and hold more node sets at once.
_S_CHUNK = 32

# decades per round of the table's end search.  A round integrates all of
# its decades, so a round of 8 integrates at most 7 past the envelope
# target; the default tables reach it 8-16 decades into the search, and
# lambda_b in 5e-4..8e-3 with n_b = n_m in 16..1024 at 8-28.
_DECADE_ROUND = 8

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
    """Interpolated f_r / f_i pair for one (budget, deployment, sweep weight
    w_s, lower bound); w_s = sweep_weight(deploy, system, p_ms) is all the
    field reads of the system and the misalignment probability.

    Both parts are affine in the weight, f = F0 + w_s F1, so the weight-free
    table (F0_r, F1_r, F0_i, F1_i) is tabulated once per (budget,
    deployment, lower bound) and shared by every weight; this view builds
    its interpolants from that table on first use."""

    def __init__(self, budget: LinkBudget, deploy: Deployment, w_s: float,
                 lower_bound: float):
        if lower_bound < 2.0 * deploy.r_b:
            raise ValueError("field lower bound below 2 r_b")
        self.budget = budget
        self.deploy = deploy
        self.w_s = w_s
        self.lower = lower_bound
        self.k = budget.k_abs
        self.c_abs = reradiation_constant(budget, deploy)
        self.c_int = budget.a + self.c_abs
        self._tables = None
        # the inversion kernels' envelope and phase at their
        # cell-independent nodes, kept by integrate_oscillatory
        self.memo = {}

    # -- geometry helpers ---------------------------------------------------

    def _g(self, r):
        g = np.exp(-self.k * r)
        g /= r * r
        return g

    def _p_los(self, r):
        """Line-of-sight odds of a node at r; p_I(r) = w_s times this."""
        return np.exp(log_void_probability(self.deploy.total_density,
                                           self.deploy.r_b, r))

    def _phase_radius(self, s, c_x: float, target: float):
        """Radius where the phase 2 pi s c_x r^-2 e^{-k r} falls to `target`,
        clamped to the lower bound: with x = 2 pi s c_x / target the phase
        equation r^2 e^{k r} = x gives r = (2/k) W0(k sqrt(x) / 2)."""
        root = np.sqrt(2.0 * math.pi * np.asarray(s, dtype=float) * c_x / target)
        if self.k == 0.0:
            return np.maximum(self.lower, root)
        return np.maximum(self.lower,
                          2.0 / self.k * lambertw(0.5 * self.k * root).real)

    # -- split evaluation ---------------------------------------------------

    def _fast_zone_endpoint(self, s, c_x, a, b, weighted: bool):
        """First-order endpoint values of int_a^b r h(r) trig(phase) dr over
        the rapidly-oscillating zone, as (cos part, sin part); h is the
        line-of-sight odds when weighted, else 1."""

        def term(r):
            phase = 2.0 * math.pi * s * c_x * self._g(r)
            scale = r / (-phase * (2.0 / r + self.k))
            if weighted:
                scale = scale * self._p_los(r)
            return scale * np.sin(phase), -scale * np.cos(phase)

        cos_b, sin_b = term(b)
        cos_a, sin_a = term(a)
        return cos_b - cos_a, sin_b - sin_a

    def _los_area(self, a, b):
        """int_a^b r p_los(r) dr in closed form: with c = 2 r_b lambda_total and
        x = c (b - a), p_los(a) [a P(1, x) / c + P(2, x) / c^2], where
        P(1, x) = 1 - e^-x and P(2, x) = 1 - (1 + x) e^-x (regularized lower
        incomplete gamma) keep every term positive, free of cancellation."""
        c = 2.0 * self.deploy.r_b * self.deploy.total_density
        x = c * (b - a)
        return self._p_los(a) * (-a * np.expm1(-x) / c + gammainc(2.0, x) / c ** 2)

    def _split_chunk(self, s: np.ndarray) -> np.ndarray:
        """(F0_r, F1_r, F0_i, F1_i) at the s-points, shape (4, len(s)).

        The brackets are split by source, p = w_s p_los: f_r's is
        (1-p) 2 sin^2(ph_a/2) + p 2 sin^2(ph_i/2) and f_i's
        (1-p) sin ph_a + p sin ph_i, so no large area cancels (at k = 0 the
        absorption terms vanish).  Each source is integrated from where its
        phase falls to the budget, in one batch of two members per s-point:
        absorption from r_abs, into F0 at weight 1 and F1 at weight -p_los,
        and interference from r_split, into F1 at weight p_los.  Nearer in,
        the trig terms collapse to endpoint corrections, absorption on
        [lower, r_abs] at weight 1 and interference on [lower, r_split] at
        weight p_los, and the unit terms take closed forms: both sources'
        together the area on [lower, r_abs], the interference one the
        line-of-sight area w_s int r p_los dr on [r_abs, r_split].
        """
        lower, n = self.lower, s.size
        r_abs = self._phase_radius(s, self.c_abs, _PHASE_BUDGET)
        r_split = self._phase_radius(s, self.c_int, _PHASE_BUDGET)  # c_int >= c_abs
        # members 0..n-1 absorb, n..2n-1 interfere
        rate = 2.0 * math.pi * np.concatenate((s * self.c_abs, s * self.c_int))
        weight = np.repeat([-1.0, 1.0], n)

        def source(r, owner):
            out = np.empty((4, *r.shape))
            half, sin = out[0], out[2]
            _half_angle_brackets(rate[owner][:, None] * self._g(r), half, sin)
            half *= r
            sin *= r
            p = weight[owner][:, None] * self._p_los(r)
            np.multiply(p, half, out=out[1])
            np.multiply(p, sin, out=out[3])
            # F0 holds the absorption members only
            out[0::2, owner >= n] = 0.0
            return out

        both = integrate_semi_infinite_batch(source, np.concatenate((r_abs, r_split)),
                                             _INNER_QUAD)
        out = both[:, :n] + both[:, n:]
        fast = np.flatnonzero(r_split > lower)
        if fast.size:
            # c_int > c_abs, so r_abs < r_split here
            sf, rs, ra = s[fast], r_split[fast], r_abs[fast]
            out[0, fast] += 0.5 * (ra ** 2 - lower ** 2)
            out[1, fast] += self._los_area(ra, rs)
            # interference trig terms: fast on the whole zone
            cos_i, sin_i = self._fast_zone_endpoint(sf, self.c_int, lower, rs, True)
            out[1, fast] -= cos_i
            out[3, fast] += sin_i
            absorb = ra > lower
            if absorb.any():
                # absorption fast zone; the (1 - p_I) weight is within
                # ~1e-4 of one and is dropped from the endpoint term
                cos_a, sin_a = self._fast_zone_endpoint(
                    sf[absorb], self.c_abs, lower, ra[absorb], False)
                out[0, fast[absorb]] -= cos_a
                out[2, fast[absorb]] += sin_a
        return out

    def _split_parts(self, s) -> np.ndarray:
        """(F0_r, F1_r, F0_i, F1_i) at the s-points, shape (4, len(s)), with
        f_r = F0_r + w_s F1_r and f_i = F0_i + w_s F1_i; batched over at most
        _S_CHUNK s-points at a time.  Reads no weight."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any(s <= 0.0):
            raise ValueError("shot-noise parts need s > 0")
        return np.concatenate([self._split_chunk(s[i:i + _S_CHUNK])
                               for i in range(0, s.size, _S_CHUNK)], axis=1)

    # -- tabulation ---------------------------------------------------------

    def _tabulate(self):
        """(s grid, (4, n) split values) of the weight-free table.

        The grid runs from where the interference phase at the lower bound
        is 1e-3 to the first decade where e^{-2 pi lam_b f_r} falls below
        1e-12 for every sweep weight, i.e. at both ends of the weight range
        [0, orientation odds].  That decade is searched from 10^6 times the
        start in rounds of _DECADE_ROUND decades, each round one batch,
        stopping at the first round that reaches it; the search gives up at
        10^66 times the start and ends the grid there."""
        if self.deploy.lambda_b <= 0.0:
            raise ValueError("shot-noise field needs lambda_b > 0")
        s_lo = 1e-3 / (2.0 * math.pi * self.c_int * self._g(self.lower))
        f_target = 27.7 / (2.0 * math.pi * self.deploy.lambda_b)
        w_max = orientation_odds(self.deploy)
        decades = s_lo * 10.0 ** np.arange(6, 66)
        s_hi = s_lo * 1e66
        for i in range(0, decades.size, _DECADE_ROUND):
            f0, f1 = self._split_parts(decades[i:i + _DECADE_ROUND])[:2]
            reached = np.minimum(f0, f0 + w_max * f1) >= f_target
            if reached.any():
                s_hi = decades[i + int(np.argmax(reached))]
                break
        grid = np.geomspace(s_lo, s_hi, max(36, int(28 * math.log10(s_hi / s_lo))))
        return grid, self._split_parts(grid)

    def parts(self, s):
        """Interpolated (f_r, f_i); quadratic/linear extensions below the
        tabulated range, clamped above it (the envelope is dead there).

        The PCHIP pieces are evaluated from their power-form coefficients
        (_pchip_coefficients).  A float s (np.float64 included), as at the
        panel edges of the inversion, or a 0-d array takes a scalar path of
        bisect and math; a float is not coerced to an array on the way.  An
        array s gathers the coefficients of its pieces with np.take, so
        that each of the cubic's terms reads one contiguous block rather
        than a view strided across the table's pieces."""
        if self._tables is None:
            grid, split = _split_table(self.budget, self.deploy, self.lower)
            fr = np.maximum(split[0] + self.w_s * split[1], 1e-300)
            fi = split[2] + self.w_s * split[3]
            ln_s = np.log(grid)
            # (4, 2, pieces): the log f_r and the f_i cubic of each piece
            coef = _pchip_coefficients(ln_s, np.stack((np.log(fr), fi)))
            # the scalar path reads flat copies: 8 coefficients per piece
            self._tables = (float(grid[0]), float(grid[-1]), ln_s, coef,
                            array("d", ln_s),
                            array("d", coef.transpose(2, 1, 0).ravel()))
        s_lo, s_hi, knots, coef, flat_knots, flat_coef = self._tables
        # piece i holds knots[i] <= ln s < knots[i + 1], the last one closed:
        # the count of inner knots at or below ln s
        if isinstance(s, float) or np.ndim(s) == 0:
            s = float(s)
            ratio = min(s / s_lo, 1.0)
            ln = math.log(min(max(s, s_lo), s_hi))
            i = bisect.bisect_right(flat_knots, ln, 1, len(flat_knots) - 1) - 1
            d = ln - flat_knots[i]
            return (math.exp(_cubic(flat_coef, d, 8 * i)) * (ratio * ratio),
                    _cubic(flat_coef, d, 8 * i + 4) * ratio)
        s = np.asarray(s, dtype=float)
        ratio = np.minimum(s / s_lo, 1.0)
        ln = np.log(np.minimum(np.maximum(s, s_lo), s_hi))
        i = np.searchsorted(knots[1:-1], ln, side="right")
        log_fr, fi = _cubic(coef.take(i, axis=2), ln - knots[i])
        return np.exp(log_fr) * (ratio * ratio), fi * ratio


def _half_angle_brackets(ph, half, sin):
    """Write 2 sin^2(ph/2) into `half` and sin ph into `sin` from one tan,
    overwriting ph: with t = tan(ph/4) and q = 1 + t^2, 2 sin^2(ph/2) is
    8 t^2 / q^2 and sin ph is 4 t (1 - t^2) / q^2.  No double lies within
    about 1e-19 of a pole of tan, so |t| stays below about 1e19 and q^2 is
    finite."""
    t = np.multiply(ph, 0.25, out=ph)
    np.tan(t, out=t)
    np.multiply(t, t, out=half)
    np.subtract(1.0, half, out=sin)
    sin *= t
    np.add(half, 1.0, out=t)
    t *= t
    np.divide(4.0, t, out=t)
    sin *= t
    half *= t
    half *= 2.0


def _cubic(c, d, k=0):
    """c[k] d^3 + c[k+1] d^2 + c[k+2] d + c[k+3], summed in scipy's power form."""
    dd = d * d
    return c[k + 3] + c[k + 2] * d + c[k + 1] * dd + c[k] * (dd * d)


def _pchip_coefficients(x, y):
    """Power-form coefficients (4, rows, n - 1) of the monotone piecewise
    cubic Hermite interpolants of the rows of y (rows, n) on the knots x,
    n >= 3, with the arithmetic of scipy's PchipInterpolator(x, row).c.

    Inner slopes are Fritsch-Carlson (SIAM J. Numer. Anal. 17, 1980): zero
    where the neighbouring secants differ in sign or one is flat, else the
    weighted harmonic mean of Fritsch-Butland (1984); the end slopes are
    one-sided three-point estimates, held to the secant's sign and to three
    times its size where the data turn."""
    h = np.diff(x)
    m = np.diff(y) / h
    left, right = m[:, :-1], m[:, 1:]
    flat = (np.sign(left) != np.sign(right)) | (left == 0.0) | (right == 0.0)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        d[:, 1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / left + w2 / right) / (w1 + w2)))
    d[:, 0] = _pchip_end(h[0], h[1], m[:, 0], m[:, 1])
    d[:, -1] = _pchip_end(h[-1], h[-2], m[:, -1], m[:, -2])
    t = (d[:, :-1] + d[:, 1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:, :-1]) / h - t, d[:, :-1], y[:, :-1]))


def _pchip_end(h0, h1, m0, m1):
    """End slope from the two nearest secants m0 (width h0) and m1."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    turn = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(turn, 3.0 * m0, d))


# A table is a few hundred s-points of four components, shared by every
# sweep weight; a sweep touches one per lower bound.
@functools.lru_cache(maxsize=16)
def _split_table(budget: LinkBudget, deploy: Deployment, lower_bound: float):
    # a weight-free field: the table reads only the geometry
    return ShotNoiseField(budget, deploy, 0.0, lower_bound)._tabulate()


# Per-weight views hold only their interpolants; the bound keeps
# long-lived processes from accumulating them.
@functools.lru_cache(maxsize=64)
def _field_for(budget: LinkBudget, deploy: Deployment, w_s: float,
               lower_bound: float) -> ShotNoiseField:
    return ShotNoiseField(budget, deploy, w_s, lower_bound)


def _kernel(budget: LinkBudget, deploy: Deployment, w_s: float,
            lower_bound: float, p_eff: float, y: float):
    """(value, error) of the Dirichlet kernel D(phi1 + 2 pi s y) on the
    field of (budget, deploy, w_s, lower_bound) at effective noise p_eff."""
    fld = _field_for(budget, deploy, w_s, lower_bound)
    two_pi_lb = 2.0 * math.pi * deploy.lambda_b

    def terms(s):
        # envelope and the cell-independent phase -2 pi lam_b f_i from one
        # field lookup; the cell's 2 pi s (y - p_eff) goes in as rates
        fr, fi = fld.parts(s)
        return np.exp(-two_pi_lb * fr), -two_pi_lb * fi
    return integrate_oscillatory(terms, spec=DEFAULT_COVERAGE_QUADRATURE,
                                 rates=(-p_eff, y), memo=fld.memo)


# The threshold-free half D(phi1) of every cell: two floats per (scheme,
# r1, lower bound); a QuadratureError propagates and is not stored.
@functools.lru_cache(maxsize=1024)
def _threshold_free_kernel(budget: LinkBudget, deploy: Deployment, w_s: float,
                           lower_bound: float, p_eff: float):
    return _kernel(budget, deploy, w_s, lower_bound, p_eff, 0.0)


def clear_field_cache():
    """Empty the split tables, the per-weight views built from them and the
    threshold-free kernels integrated on those views."""
    _split_table.cache_clear()
    _field_for.cache_clear()
    _threshold_free_kernel.cache_clear()


def coverage_probability(query: CoverageQuery, budget: LinkBudget,
                         deploy: Deployment, system: SystemParams,
                         ability: SensingAbility) -> CoverageResult:
    """Analytic coverage probability at one (r1, threshold) point."""
    return _coverage_row(query.r1, [query.threshold], query.lower_bound_mode,
                         budget, deploy, system,
                         beam_misalignment(deploy, ability, system.tau).p_ms)[0]


def _coverage_row(r1: float, thresholds, mode: str, budget: LinkBudget,
                  deploy: Deployment, system: SystemParams, p_ms: float) -> list:
    """A CoverageResult per threshold at one r1 and a given p_ms: the
    threshold-free kernel D(phi1), the y = 0 one, from its cache, then one
    kernel per y."""
    for thr in thresholds:
        CoverageQuery(r1, thr, mode)  # validates the threshold and the mode
    if r1 < 2.0 * deploy.r_b:
        raise ValueError("coverage requires r1 >= 2 r_b")
    ys = [received_power(budget, r1) / thr for thr in thresholds]
    p_eff = effective_noise(budget, deploy, system, r1)
    w_s = sweep_weight(deploy, system, p_ms)

    if deploy.lambda_b <= 0.0:
        # no node field: the SINR test is deterministic against the
        # effective noise (thermal plus the serving node's re-radiation)
        p_cms = [1.0 if y > p_eff else 0.0 for y in ys]
        return [CoverageResult(p_cvp=(1.0 - p_ms) * p_cm, p_cm=p_cm, p_ms=p_ms,
                               integral_abs_error=0.0) for p_cm in p_cms]

    key = (budget, deploy, w_s, lower_bound_radius(mode, deploy, r1), p_eff)
    v1, e1 = _threshold_free_kernel(*key)
    row = []
    for y in ys:
        v2, e2 = _kernel(*key, y)
        p_cm, err = v2 - v1, e1 + e2
        slack = 10.0 * max(10.0 * err, 1e-4)
        if p_cm < -slack or p_cm > 1.0 + slack:
            raise QuadratureError(
                "conditional coverage escaped [0, 1]; inversion integrand suspect",
                p_cm, err)
        p_cm = min(max(p_cm, 0.0), 1.0)
        row.append(CoverageResult(p_cvp=(1.0 - p_ms) * p_cm, p_cm=p_cm, p_ms=p_ms,
                                  integral_abs_error=err))
    return row


def coverage_sweep(r1_grid, threshold_grid, schemes, budget: LinkBudget,
                   deploy: Deployment, system: SystemParams,
                   lower_bound_mode: str = "theorem"):
    """Cross-product coverage table.

    Each scheme's sensing ability is derived from (system, deploy) by
    scheme_ability.  Returns a list of dict rows (scheme, r1_m,
    threshold_db, p_ms, p_cm, p_cvp, abs_err).  One tabulated shot-noise
    field per lower bound serves every scheme, and one _coverage_row per
    (scheme, r1) every threshold.
    """
    thresholds = [float(thr) for thr in threshold_grid]
    rows = []
    for scheme in schemes:
        # p_ms depends on neither r1 nor the threshold
        ability = scheme_ability(scheme, system, deploy)
        p_ms = beam_misalignment(deploy, ability, system.tau).p_ms
        for r1 in r1_grid:
            results = _coverage_row(float(r1), thresholds, lower_bound_mode,
                                    budget, deploy, system, p_ms)
            rows += [{"scheme": scheme, "r1_m": float(r1),
                      "threshold_db": 10.0 * math.log10(thr), "p_ms": res.p_ms,
                      "p_cm": res.p_cm, "p_cvp": res.p_cvp,
                      "abs_err": res.integral_abs_error}
                     for thr, res in zip(thresholds, results)]
    return rows
