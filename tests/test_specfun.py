import math

import numpy as np
import pytest
import scipy.special as sp
from scipy.interpolate import PchipInterpolator

from isacthz import specfun
from isacthz.specfun import (QuadratureError, QuadratureSpec,
                             integrate_oscillatory, integrate_semi_infinite,
                             integrate_semi_infinite_batch)


# -----------------------------------------------------------------------------
# Oracle of integrate_oscillatory: the scalar march, one GK15 panel at a time
# with separate envelope and phase callables
# -----------------------------------------------------------------------------

GK_NODES, GK_WK, GK_WG = specfun._GK_NODES, specfun._GK_WK, specfun._GK_WG


def _gk15(f, a: float, b: float):
    """One Gauss-Kronrod 7/15 panel; returns (integral, error_estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * GK_NODES), dtype=float)
    ik = half * float(np.dot(GK_WK, fx))
    ig = half * float(np.dot(GK_WG, fx))
    err = (200.0 * abs(ik - ig)) ** 1.5 if ik != ig else 0.0
    # never report less than float roundoff on the panel
    err = max(err, abs(ik) * 1e-15)
    return ik, err


def _adaptive_panel(f, a: float, b: float, tol: float, budget: list):
    """Adaptive bisection of one panel until its error beats tol.

    The oscillatory march refines its panels one at a time with this, as
    each panel's width depends on the one before.  `budget` is a
    one-element mutable list holding the remaining number of splits shared
    across the whole call.
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


def euler_loop(partial_sums: np.ndarray):
    """Iterated averaging of a partial-sum sequence, one pass at a time;
    returns (value, spread)."""
    t = np.asarray(partial_sums, dtype=float)
    last = t[-1]
    prev = last
    while t.size > 1:
        t = 0.5 * (t[1:] + t[:-1])
        prev = last
        last = t[-1]
    return last, abs(last - prev)


def _phase_scale_probe(phi):
    """Find an s where the phase is O(1); sets the first panel width."""
    for k in range(-18, 19):
        s = 10.0 ** k
        if abs(float(phi(s))) > 1.0:
            return s
    return 10.0 ** 18


def _oscillatory_single(envelope, phi, spec=specfun.DEFAULT_QUADRATURE,
                        head=specfun._HEAD_LEVELS):
    """D(phi) = int_0^inf envelope(s) sin(phi(s)) / (pi s) ds.

    phi must vanish at s = 0, which makes the kernel finite there.  Panels
    track the local half-period of phi, so their contributions alternate
    once the kernel oscillates; the tail is summed with iterated averaging
    (Euler-style acceleration).  The first panel [0, h] is integrated
    as pieces with edges h 2^-k, k = head ... 0, after 0 itself, each
    to that panel's tolerance; head = 0 keeps it whole, bisected toward 0.
    Integration stops when the accelerated tail stabilises within tolerance
    or the envelope falls below spec.tail_cutoff_envelope.
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

    h = max(_phase_scale_probe(phi) / 4.0, 1e-300)
    budget = [spec.max_subdivisions]
    a = 0.0
    env_ref = max(abs(float(envelope(a + h))), 1e-300)

    partial = 0.0
    sums = []
    vals = []
    panels = 0
    stable = 0
    while True:
        b = a + h
        tol = max(spec.abs_tol, spec.rel_tol * abs(partial)) * 0.1
        edges = [a, b]
        if not panels:
            edges = [a] + [a + h * 2.0 ** -k for k in range(head, -1, -1)]
        val = err = 0.0
        for lo, hi in zip(edges, edges[1:]):
            v, e = _adaptive_panel(integrand, lo, hi, tol, budget)
            val += v
            err += e
        partial += val
        sums.append(partial)
        vals.append(val)
        panels += 1

        oscillating = _alternating(vals)
        if oscillating and len(sums) >= 6:
            # alternating panel sums: accelerated tail estimate
            est, est_err = euler_loop(sums[-24:])
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


def oscillatory_oracle(envelope, phi1, phi2, spec=specfun.DEFAULT_QUADRATURE,
                       head=specfun._HEAD_LEVELS):
    """The Gil-Pelaez difference D(phi2) - D(phi1) of coverage, and its
    summed error, by the scalar march with the terms as three callables;
    head = 0 gives the layout that bisects the first panel."""
    v2, e2 = _oscillatory_single(envelope, phi2, spec, head)
    v1, e1 = _oscillatory_single(envelope, phi1, spec, head)
    return v2 - v1, e1 + e2


class TestSemiInfinite:
    def test_exponential(self):
        assert integrate_semi_infinite(lambda r: np.exp(-r), 0.0) == \
            pytest.approx(1.0, rel=1e-12)

    def test_matches_e1(self):
        val = integrate_semi_infinite(lambda r: np.exp(-r) / r, 1.0)
        assert val == pytest.approx(sp.exp1(1.0), rel=1e-11)

    def test_gaussian_moment(self):
        val = integrate_semi_infinite(lambda r: r * np.exp(-np.pi * r ** 2), 0.0)
        assert val == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-12)

    def test_linear_scaling(self):
        f = lambda r: np.exp(-0.3 * r) * np.cos(r) ** 2
        base = integrate_semi_infinite(f, 0.0)
        for c in (3.0, 0.02, 250.0):
            scaled = integrate_semi_infinite(lambda r: c * f(r), 0.0)
            assert abs(scaled - c * base) <= 1e-9 * abs(c * base)

    def test_large_first_panel_converges(self):
        # the first panel (about 1.3e4) is measured against its own estimate:
        # against abs_tol alone, Gauss-Kronrod roundoff would keep it from
        # converging within the split budget
        val = integrate_semi_infinite(lambda r: 2e4 * np.exp(-r), 0.0)
        assert val == pytest.approx(2e4, rel=1e-12)

    def test_non_convergence_reports_partial(self):
        spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3,
                              tail_cutoff_envelope=1e-15)
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(lambda r: np.sin(50.0 * r) ** 2 * np.exp(-0.01 * r),
                                    0.0, spec)
        assert err.value.partial != 0.0
        assert err.value.error_bound > 0.0


class TestBatch:
    RATES = np.array([0.3, 1.0, 2.5, 7.0, 0.05])
    STARTS = np.array([0.0, 1.0, 0.5, 3.0, 20.0])

    @staticmethod
    def _decay(k):
        return lambda x: np.exp(-k * x) * (1.0 + np.cos(3.0 * x) ** 2)

    def test_semi_infinite_batch_equals_single_calls(self):
        rates = self.RATES

        def f(x, owner):
            return self._decay(rates[owner][:, None])(x)[None]

        batch = integrate_semi_infinite_batch(f, self.STARTS)
        assert batch.shape == (1, rates.size)
        for m, (k, lo) in enumerate(zip(rates, self.STARTS)):
            single = integrate_semi_infinite(self._decay(k), lo)
            assert abs(batch[0, m] - single) <= 1e-15 * abs(single)

    def test_members_closing_in_different_rounds(self):
        # e^-x dies within the first block; (1 + x)^-3 still adds more than
        # the tail cutoff beyond it and needs a second round
        decays = (lambda x: np.exp(-x), lambda x: (1.0 + x) ** -3.0)

        def f(x, owner):
            return np.where(owner[:, None] == 0, decays[0](x), decays[1](x))[None]

        batch = integrate_semi_infinite_batch(f, np.zeros(2))
        for m, g in enumerate(decays):
            single = integrate_semi_infinite(g, 0.0)
            assert abs(batch[0, m] - single) <= 1e-15 * abs(single)
        assert batch[0] == pytest.approx([1.0, 0.5], rel=1e-10)

    def test_components_on_leading_axis(self):
        # int_0^inf x^n e^-x = n! for each component, over shared panels
        val = integrate_semi_infinite_batch(
            lambda x, owner: np.stack([np.exp(-x), x * np.exp(-x),
                                       x ** 2 * np.exp(-x)]), [0.0])
        assert val[:, 0] == pytest.approx([1.0, 1.0, 2.0], rel=1e-12)

    def test_semi_infinite_member_out_of_budget_raises(self):
        spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3,
                              tail_cutoff_envelope=1e-15)
        hard = np.array([False, False, True])

        def f(x, owner):
            return np.where(hard[owner][:, None],
                            np.sin(50.0 * x) ** 2 * np.exp(-0.01 * x),
                            np.exp(-x))[None]

        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite_batch(f, np.zeros(3), spec)
        assert err.value.partial != 0.0
        assert err.value.error_bound > 0.0

    def test_empty_batch_raises_before_integrand(self):
        def f(x, owner):
            raise AssertionError("integrand called on an empty batch")

        with pytest.raises(ValueError, match="empty batch"):
            integrate_semi_infinite_batch(f, [])


def _terms(envelope, phi):
    """The two terms of a Dirichlet kernel as one callable."""
    def terms(s):
        s = np.asarray(s, dtype=float)
        return envelope(s), phi(s)
    return terms


# (envelope, phi1, phi2) of the TestOscillatory integrands, by name: each
# phase with the envelope is one kernel
_ZERO = lambda s: 0.0 * np.asarray(s, float)
_ONE = lambda s: np.ones_like(np.asarray(s, float))
# a slope piecewise cubic in ln s, with a knot every unit from ln s = -30 to
# 0: like an interpolated field, it has a kink on every scale that the
# first panel [0, 1/4] spans
_LN_S_CUBIC = PchipInterpolator(np.arange(-30.0, 1.0),
                                np.random.default_rng(5).uniform(0.5, 1.5, 31))


def _ln_s_cubic_phase(s):
    s = np.asarray(s, float)
    return 2.0 * np.pi * s * _LN_S_CUBIC(np.log(np.clip(s, np.exp(-30.0), 1.0)))

KERNELS = {
    "arctan": (lambda s: np.exp(-s), _ZERO,
               lambda s: 2.0 * np.pi * np.asarray(s, float)),
    "equal_phases": (lambda s: np.exp(-s), lambda s: 3.0 * np.asarray(s, float) ** 2,
                     lambda s: 3.0 * np.asarray(s, float) ** 2),
    "two_scale": (_ONE, lambda s: -2e-10 * np.asarray(s, float),
                  lambda s: 3e-5 * np.asarray(s, float)),
    "negative_margin": (_ONE, lambda s: 2e-10 * np.asarray(s, float),
                        lambda s: -3e-5 * np.asarray(s, float)),
    "ln_s_cubic": (lambda s: np.exp(-np.asarray(s, float)), _ZERO, _ln_s_cubic_phase),
}


class TestOscillatory:
    """One Dirichlet kernel per call, against closed forms and the scalar
    march."""

    def test_arctan_identity(self):
        # int_0^inf e^-s sin(2 pi s) / (pi s) ds = atan(2 pi) / pi
        env, _, phi = KERNELS["arctan"]
        val, err = integrate_oscillatory(_terms(env, phi))
        assert val == pytest.approx(math.atan(2.0 * math.pi) / math.pi, abs=1e-6)

    def test_zero_phase_vanishes(self):
        val, _ = integrate_oscillatory(_terms(lambda s: np.exp(-s), _ZERO))
        assert val == 0.0

    def test_two_scale_dirichlet(self):
        # D(c s) = sign(c) / 2 at envelope 1, on slopes five decades apart
        for c, half in ((3e-5, 0.5), (-2e-10, -0.5)):
            val, _ = integrate_oscillatory(_terms(_ONE, lambda s: c * s))
            assert val == pytest.approx(half, abs=1e-12)

    def test_negative_margin_dirichlet(self):
        for c, half in ((-3e-5, -0.5), (2e-10, 0.5)):
            val, _ = integrate_oscillatory(_terms(_ONE, lambda s: c * s))
            assert val == pytest.approx(half, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_block_march_equals_scalar_march(self, name):
        envelope, *phases = KERNELS[name]
        for phi in phases:
            val, err = integrate_oscillatory(_terms(envelope, phi))
            ref, ref_err = _oscillatory_single(envelope, phi)
            assert abs(val - ref) <= 1e-12
            assert err == pytest.approx(ref_err, rel=1e-6, abs=1e-15)

    def test_exhausted_budget_raises(self):
        spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3,
                              tail_cutoff_envelope=1e-15)
        env, _, phi = KERNELS["arctan"]
        with pytest.raises(QuadratureError) as err:
            integrate_oscillatory(_terms(env, phi), spec)
        assert math.isfinite(err.value.partial)
        assert math.isfinite(err.value.error_bound)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_euler_closed_form_equals_loop(self, n):
        # partial sums of the alternating series of log 2, shifted so that
        # no value is near zero
        sums = 1.0 + np.cumsum((-1.0) ** np.arange(n) / np.arange(1.0, n + 1.0))
        val, spread = specfun._euler_accelerate(sums)
        ref, ref_spread = euler_loop(sums)
        assert abs(val - ref) <= 1e-15 * abs(ref)
        assert abs(spread - ref_spread) <= 1e-15 * abs(ref)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)
        with pytest.raises(ValueError):
            QuadratureSpec(tail_cutoff_envelope=-1.0)
        # NaN compares false both ways; abs_tol = nan used to run the
        # semi-infinite integrator to its panel cap
        for field in ("abs_tol", "rel_tol", "tail_cutoff_envelope",
                      "max_subdivisions"):
            with pytest.raises(ValueError):
                QuadratureSpec(**{field: math.nan})
