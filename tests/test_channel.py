import math
from dataclasses import replace

import numpy as np
import pytest

from isacthz.channel import (LinkBudget, antenna_gain, effective_noise,
                             expected_interference, expected_noise,
                             interference_probability, los_probability,
                             path_weight, received_power, sweep_weight,
                             weight_radius)
from isacthz.config import Deployment, SystemParams
from isacthz.specfun import QuadratureSpec, integrate_semi_infinite

SYS = SystemParams()
DEP = Deployment()
BUD = LinkBudget.from_params(SYS, DEP)

TIGHT = QuadratureSpec(abs_tol=1e-30, rel_tol=1e-12, max_subdivisions=8000,
                       tail_cutoff_envelope=1e-14)


def _toy_budget(a=1.0, k=0.0):
    return LinkBudget(a=a, k_abs=k)


class TestLinkBudget:
    @pytest.mark.parametrize("a, k", [(0.0, 0.0), (math.nan, 0.0), (1.0, -1.0),
                                      (1.0, math.nan)],
                             ids=["zero_a", "nan_a", "negative_k", "nan_k"])
    def test_validation(self, a, k):
        # a NaN K used to pass and reach the estimators: the Monte-Carlo
        # coverage read 0.0 +- 0.0 and the inversion raised QuadratureError
        with pytest.raises(ValueError):
            replace(BUD, a=a, k_abs=k)


class TestAntennaGain:
    def test_isotropic_limit(self):
        assert antenna_gain(math.pi) == pytest.approx(2.0)

    def test_two_thirds_pi(self):
        assert antenna_gain(2.0 * math.pi / 3.0) == pytest.approx(4.0)

    def test_strictly_decreasing(self):
        thetas = np.linspace(0.01, math.pi - 0.01, 100)
        gains = [antenna_gain(t) for t in thetas]
        assert all(g1 > g2 for g1, g2 in zip(gains, gains[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            antenna_gain(0.0)
        with pytest.raises(ValueError):
            antenna_gain(3.5)


class TestReceivedPower:
    def test_inverse_square(self):
        assert received_power(_toy_budget(), 2.0) == pytest.approx(0.25)

    def test_with_absorption(self):
        assert received_power(_toy_budget(k=0.01), 10.0) == \
            pytest.approx(9.048374180359595e-3, rel=1e-12)

    def test_halved_absorption_ratio(self):
        k = 0.02
        r = 100.0
        full = received_power(_toy_budget(k=k), r)
        half = received_power(_toy_budget(k=k / 2), r)
        assert half / full == pytest.approx(math.exp(k * r / 2.0), rel=1e-12)

    def test_strictly_decreasing(self):
        rs = np.linspace(0.5, 200.0, 400)
        for k in (0.0, 0.01, 0.35):
            p = received_power(_toy_budget(k=k), rs)
            assert np.all(np.diff(p) < 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            received_power(BUD, 0.0)


class TestInterferenceProbability:
    def test_silent_when_aligned_and_no_sweep(self):
        sys_nosweep = replace(SYS, t_ssb=1e-30)
        assert interference_probability(DEP, sys_nosweep, 10.0, 0.0) < 1e-25

    def test_orientation_only_at_contact(self):
        sys_nosweep = replace(SYS, t_ssb=1e-30)
        val = interference_probability(DEP, sys_nosweep, 2 * DEP.r_b, 1.0)
        assert val == pytest.approx(DEP.theta_b * DEP.theta_m / (4 * math.pi ** 2),
                                    rel=1e-9)
        assert los_probability(DEP, 2 * DEP.r_b) == 1.0

    def test_reference_value(self):
        # frozen scalar evaluation at the reference parameter set
        assert interference_probability(DEP, SYS, 10.0, 0.025) == \
            pytest.approx(6.82581365792933e-06, rel=1e-12)
        lam = DEP.lambda_b + DEP.lambda_m + DEP.lambda_s
        assert los_probability(DEP, 10.0) == pytest.approx(
            math.exp(-lam * 2 * DEP.r_b * (10.0 - 2 * DEP.r_b)), rel=1e-14)

    def test_probability_range_and_monotone(self):
        rs = np.linspace(1.0, 300.0, 300)
        vals = interference_probability(DEP, SYS, rs, 0.3)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) <= 0.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            interference_probability(DEP, SYS, 0.5, 0.0)
        with pytest.raises(ValueError):
            interference_probability(DEP, SYS, 10.0, 1.5)


class TestExpectedInterference:
    def test_zero_without_nodes(self):
        assert expected_interference(BUD, replace(DEP, lambda_b=0.0), SYS,
                                     20.0, 0.3) == 0.0

    def test_zero_when_silent(self):
        sys_nosweep = replace(SYS, t_ssb=1e-300)
        val = expected_interference(BUD, DEP, sys_nosweep, 20.0, 0.0)
        assert val < 1e-280

    def test_reference_value(self):
        assert expected_interference(BUD, DEP, SYS, 20.0, 0.025) == \
            pytest.approx(3.2644454658931024e-13, rel=1e-10)

    def test_matches_quadrature(self):
        lam = DEP.lambda_b + DEP.lambda_m + DEP.lambda_s
        w_s = sweep_weight(DEP, SYS, 0.025)

        def integrand(r):
            return (2 * math.pi * DEP.lambda_b * r * w_s
                    * np.exp(-lam * (r - 2 * DEP.r_b) * 2 * DEP.r_b)
                    * BUD.a * r ** -2.0 * np.exp(-BUD.k_abs * r))

        ref = integrate_semi_infinite(integrand, 20.0, TIGHT)
        val = expected_interference(BUD, DEP, SYS, 20.0, 0.025)
        assert val == pytest.approx(ref, rel=1e-9)


class TestExpectedNoise:
    def test_thermal_floor_without_absorption(self):
        bud0 = LinkBudget(a=BUD.a, k_abs=0.0)
        assert expected_noise(bud0, DEP, SYS, 20.0) == SYS.thermal_noise_power

    def test_thermal_floor_without_nodes(self):
        assert expected_noise(BUD, replace(DEP, lambda_b=0.0), SYS, 20.0) == \
            SYS.thermal_noise_power

    def test_reference_value(self):
        assert expected_noise(BUD, DEP, SYS, 20.0) == \
            pytest.approx(5.325817445298926e-12, rel=1e-10)

    def test_matches_quadrature(self):
        def integrand(r):
            return (2 * math.pi * DEP.lambda_b * BUD.a * BUD.k_abs
                    / (DEP.n_b * DEP.n_m) * r ** -1.0 * np.exp(-BUD.k_abs * r))

        ref = SYS.thermal_noise_power + integrate_semi_infinite(integrand, 20.0, TIGHT)
        assert expected_noise(BUD, DEP, SYS, 20.0) == pytest.approx(ref, rel=1e-9)

    def test_never_below_thermal(self):
        for r1 in (1.0, 5.0, 20.0, 120.0):
            assert expected_noise(BUD, DEP, SYS, r1) >= SYS.thermal_noise_power


class TestEffectiveNoise:
    def test_thermal_without_absorption(self):
        bud0 = LinkBudget(a=BUD.a, k_abs=0.0)
        assert effective_noise(bud0, DEP, SYS, 20.0) == SYS.thermal_noise_power

    def test_beam_count_scaling(self):
        base = effective_noise(BUD, DEP, SYS, 20.0) - SYS.thermal_noise_power
        doubled = effective_noise(BUD, replace(DEP, n_b=2 * DEP.n_b), SYS, 20.0) \
            - SYS.thermal_noise_power
        assert doubled == pytest.approx(base / 2.0, rel=1e-12)

    def test_reference_value(self):
        assert effective_noise(BUD, DEP, SYS, 20.0) == \
            pytest.approx(6.093566566165472e-12, rel=1e-12)


class TestWeightRadius:
    @pytest.mark.parametrize("k", [0.0, 0.35, 3.0])
    def test_solves_the_weight_equation(self, k):
        # r^2 e^(k r) = x over eleven decades of x, one call for the array
        x = np.logspace(-4.0, 7.0, 23)
        r = weight_radius(k, x)
        assert np.allclose(r ** 2 * np.exp(k * r), x, rtol=1e-13, atol=0.0)
        assert x * path_weight(k, r) == pytest.approx(np.ones_like(x), rel=1e-13)
        assert weight_radius(k, 0.0) == 0.0
        assert weight_radius(k, math.inf) == math.inf


@pytest.mark.parametrize("make, match", [
    (lambda: expected_interference(BUD, DEP, SYS, 0.5, 0.0), "r1 >= 2 r_b"),
    (lambda: expected_noise(BUD, DEP, SYS, 0.0), "r1 > 0"),
    (lambda: effective_noise(BUD, DEP, SYS, -1.0), "r1 > 0"),
], ids=["interference", "noise", "effective_noise"])
def test_rejections(make, match):
    with pytest.raises(ValueError, match=match):
        make()
