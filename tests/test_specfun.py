import math

import numpy as np
import pytest
import scipy.special as sp

from isacthz.specfun import (QuadratureError, QuadratureSpec,
                             integrate_interval, integrate_oscillatory,
                             integrate_semi_infinite)


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

    def test_non_convergence_reports_partial(self):
        spec = QuadratureSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3,
                              tail_cutoff_envelope=1e-15)
        with pytest.raises(QuadratureError) as err:
            integrate_semi_infinite(lambda r: np.sin(50.0 * r) ** 2 * np.exp(-0.01 * r),
                                    0.0, spec)
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
