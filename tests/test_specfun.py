import math

import numpy as np
import pytest
import scipy.special as sp

from isacthz.specfun import (QuadratureError, QuadratureSpec,
                             integrate_interval, integrate_interval_batch,
                             integrate_oscillatory, integrate_semi_infinite,
                             integrate_semi_infinite_batch)


class TestInterval:
    def test_exhausted_budget_raises(self):
        f = lambda r: np.sin(50.0 * r) ** 2
        with pytest.raises(QuadratureError) as err:
            integrate_interval(f, 0.0, 40.0, max_splits=2)
        assert err.value.partial != 0.0
        assert err.value.error_bound > 0.0
        assert integrate_interval(f, 0.0, 40.0) == \
            pytest.approx(20.0 - math.sin(4000.0) / 200.0, rel=1e-10)


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

    def test_interval_batch_equals_single_calls(self):
        freqs = self.RATES * 10.0
        ends = self.STARTS + np.array([0.5, 40.0, 3.0, 20.0, 7.5])

        def f(x, owner):
            return (np.sin(freqs[owner][:, None] * x) ** 2)[None]

        batch = integrate_interval_batch(f, self.STARTS, ends)
        for m, (c, a, b) in enumerate(zip(freqs, self.STARTS, ends)):
            single = integrate_interval(lambda x: np.sin(c * x) ** 2, a, b)
            assert abs(batch[0, m] - single) <= 1e-15 * abs(single)

    def test_components_on_leading_axis(self):
        # int_0^inf x^n e^-x = n! for each component, over shared panels
        val = integrate_semi_infinite_batch(
            lambda x, owner: np.stack([np.exp(-x), x * np.exp(-x),
                                       x ** 2 * np.exp(-x)]), [0.0])
        assert val[:, 0] == pytest.approx([1.0, 1.0, 2.0], rel=1e-12)

    def test_interval_member_out_of_budget_raises(self):
        hard = np.array([False, True, False])

        def f(x, owner):
            return np.where(hard[owner][:, None], np.sin(50.0 * x) ** 2, x)[None]

        with pytest.raises(QuadratureError) as err:
            integrate_interval_batch(f, np.zeros(3), np.full(3, 40.0), max_splits=2)
        assert err.value.partial != 0.0
        assert err.value.error_bound > 0.0

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


class TestOscillatory:
    def test_arctan_identity(self):
        val, err = integrate_oscillatory(lambda s: np.exp(-s),
                                         lambda s: 0.0 * np.asarray(s, float),
                                         lambda s: 2.0 * np.pi * np.asarray(s, float))
        assert val == pytest.approx(math.atan(2.0 * math.pi) / math.pi, abs=1e-6)

    def test_equal_phases_vanish(self):
        phi = lambda s: 3.0 * np.asarray(s, float) ** 2
        val, _ = integrate_oscillatory(lambda s: np.exp(-s), phi, phi)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_two_scale_dirichlet(self):
        # sign(y) / 2 + sign(p) / 2 with vastly different slopes
        one = lambda s: np.ones_like(np.asarray(s, float))
        val, _ = integrate_oscillatory(one,
                                       lambda s: -2e-10 * np.asarray(s, float),
                                       lambda s: 3e-5 * np.asarray(s, float))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_negative_margin_dirichlet(self):
        one = lambda s: np.ones_like(np.asarray(s, float))
        val, _ = integrate_oscillatory(one,
                                       lambda s: 2e-10 * np.asarray(s, float),
                                       lambda s: -3e-5 * np.asarray(s, float))
        assert val == pytest.approx(-1.0, abs=1e-8)


class TestQuadratureSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)
        with pytest.raises(ValueError):
            QuadratureSpec(tail_cutoff_envelope=-1.0)
