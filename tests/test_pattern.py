import math
from dataclasses import replace

import numpy as np
import pytest

from isacthz.config import Deployment, SystemParams
from isacthz.pattern import (InfeasibleRequirementError, PatternRequirement,
                             alpha_bounds, brute_force_pattern, objective,
                             optimal_alpha, optimal_pattern)
from isacthz.sensing import a_theta

SYS = SystemParams()
DEP = Deployment()
THETA = DEP.theta_b


class TestObjective:
    def test_reference_point(self):
        # frozen direct evaluation at the reference parameter set
        assert objective(0.5, 1, 5, SYS, THETA) == \
            pytest.approx(0.13766536494336365, rel=1e-12)

    def test_balanced_terms_centre_the_ratio(self):
        # when U f_scs tau equals V f_c T_sym A_theta the optimum is 1/2
        at = a_theta(THETA)
        tau = SYS.f_c * SYS.t_sym * at / SYS.f_scs
        sys_bal = replace(SYS, tau=tau)
        assert optimal_alpha(1, 1, sys_bal, THETA) == pytest.approx(0.5, abs=1e-12)
        grid = np.linspace(0.2, 0.8, 2001)
        vals = objective(grid, 1, 1, sys_bal, THETA)
        assert abs(grid[int(np.argmin(vals))] - 0.5) < 1e-3

    def test_convex_midpoint(self):
        rng = np.random.default_rng(20240811)
        for _ in range(100):
            a, b = np.sort(rng.uniform(0.02, 0.98, size=2))
            if b - a < 1e-3:
                continue
            u = int(rng.integers(1, 6))
            v = int(rng.integers(1, 9))
            mid = 0.5 * (a + b)
            lhs = objective(mid, u, v, SYS, THETA)
            rhs = 0.5 * (objective(a, u, v, SYS, THETA)
                         + objective(b, u, v, SYS, THETA))
            assert lhs <= rhs + 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            objective(0.0, 1, 1, SYS, THETA)
        with pytest.raises(ValueError):
            objective(0.5, 0, 1, SYS, THETA)


class TestOptimalPattern:
    def test_reference_requirement(self):
        req = PatternRequirement(78.1, 19.44)
        pat = optimal_pattern(req, SYS, THETA)
        assert pat.u == 1
        assert pat.v == 5
        assert pat.alpha == pytest.approx(0.3144, abs=1e-3)

    def test_exact_floor_boundary(self):
        d_req = 3e8 / (4.0 * SYS.f_scs)
        pat = optimal_pattern(PatternRequirement(d_req, 19.44), SYS, THETA)
        assert pat.u == 2

    def test_infeasible_speed(self):
        v_too_fast = 3e8 / (2.0 * SYS.f_c * SYS.t_sym) * 1.01
        with pytest.raises(InfeasibleRequirementError):
            optimal_pattern(PatternRequirement(40.0, v_too_fast), SYS, THETA)

    def test_infeasible_range(self):
        d_too_far = 3e8 / (2.0 * SYS.f_scs) * 1.01
        with pytest.raises(InfeasibleRequirementError):
            optimal_pattern(PatternRequirement(d_too_far, 19.44), SYS, THETA)

    def test_stationarity(self):
        # numerical derivative of the objective vanishes at the optimum
        req = PatternRequirement(78.1, 19.44)
        pat = optimal_pattern(req, SYS, THETA)
        lo, hi = alpha_bounds(SYS)
        assert lo < pat.alpha < hi  # interior optimum for this case
        h = 1e-6
        d = (objective(pat.alpha + h, pat.u, pat.v, SYS, THETA)
             - objective(pat.alpha - h, pat.u, pat.v, SYS, THETA)) / (2 * h)
        # derivative scale is objective * ln(n_rs); require 1e-6 relative
        scale = objective(pat.alpha, pat.u, pat.v, SYS, THETA) \
            * math.log(SYS.n_rs)
        assert abs(d) < 1e-6 * scale

    def _stationary_alpha(self, system, theta):
        ratio = (SYS.f_scs * system.tau
                 / (5.0 * system.f_c * system.t_sym * a_theta(theta)))
        return 0.5 * (math.log(ratio) / math.log(system.n_rs) + 1.0)

    def test_monotone_in_frequency(self):
        # the stationary exponent falls strictly as the carrier rises;
        # the clamped value can only flatten at the resource bound
        freqs = np.linspace(0.12e12, 1.8e12, 12)
        stationary = [self._stationary_alpha(replace(SYS, f_c=f), THETA)
                      for f in freqs]
        assert all(a1 > a2 for a1, a2 in zip(stationary, stationary[1:]))
        clamped = [optimal_alpha(1, 5, replace(SYS, f_c=f), THETA)
                   for f in freqs]
        assert all(a1 >= a2 for a1, a2 in zip(clamped, clamped[1:]))
        interior = [optimal_alpha(1, 5, replace(SYS, f_c=f), THETA)
                    for f in np.linspace(0.12e12, 0.6e12, 6)]
        assert all(a1 > a2 for a1, a2 in zip(interior, interior[1:]))

    def test_monotone_in_transverse_factor(self):
        # wider beams (larger transverse factor) pull resources to frequency
        thetas = [2 * math.pi / n for n in (512, 256, 128, 64, 32, 16)]
        assert all(a_theta(t1) < a_theta(t2)
                   for t1, t2 in zip(thetas, thetas[1:]))
        stationary = [self._stationary_alpha(SYS, t) for t in thetas]
        assert all(a1 > a2 for a1, a2 in zip(stationary, stationary[1:]))
        interior = [optimal_alpha(1, 5, SYS, t)
                    for t in (2 * math.pi / n for n in (512, 256, 128, 64))]
        assert all(a1 > a2 for a1, a2 in zip(interior, interior[1:]))


class TestBruteForce:
    def test_matches_closed_form(self):
        req = PatternRequirement(78.1, 19.44)
        pat = optimal_pattern(req, SYS, THETA)
        bf = brute_force_pattern(req, SYS, THETA)
        assert bf.u == pat.u
        assert bf.v == pat.v
        assert abs(bf.alpha - pat.alpha) < 1e-3

    def test_never_beats_closed_form(self):
        req = PatternRequirement(30.0, 10.0)
        sys_req = replace(SYS, n_rs=2000)
        pat = optimal_pattern(req, sys_req, THETA)
        bf = brute_force_pattern(req, sys_req, THETA)
        gap = (objective(bf.alpha, bf.u, bf.v, sys_req, THETA)
               - objective(pat.alpha, pat.u, pat.v, sys_req, THETA))
        assert gap >= -1e-12

    def test_beats_random_feasible_triples(self):
        req = PatternRequirement(78.1, 19.44)
        pat = optimal_pattern(req, SYS, THETA)
        best = objective(pat.alpha, pat.u, pat.v, SYS, THETA)
        rng = np.random.default_rng(7)
        lo, hi = alpha_bounds(SYS)
        u_hi = math.floor(3e8 / (2 * SYS.f_scs * req.d_max_req))
        v_hi = math.floor(3e8 / (2 * SYS.f_c * SYS.t_sym * req.v_max_req))
        for _ in range(1000):
            alpha = rng.uniform(lo, hi)
            u = int(rng.integers(1, u_hi + 1))
            v = int(rng.integers(1, v_hi + 1))
            assert objective(alpha, u, v, SYS, THETA) >= best - 1e-12

    def test_one_reference_signal_rejected(self):
        # log(n_rs) = 0 would divide by zero in the stationary exponent
        sys1 = replace(SYS, n_rs=1)
        for search in (optimal_pattern, brute_force_pattern):
            with pytest.raises(ValueError, match="n_rs must be >= 2"):
                search(PatternRequirement(78.1, 19.44), sys1, THETA)
        with pytest.raises(ValueError, match="n_rs must be >= 2"):
            alpha_bounds(sys1)
        with pytest.raises(ValueError, match="n_rs must be >= 2"):
            optimal_alpha(1, 1, sys1, THETA)


@pytest.mark.parametrize("make, match", [
    (lambda: PatternRequirement(0.0, 19.44), "d_max_req must be > 0"),
    (lambda: PatternRequirement(78.1, math.nan), "v_max_req must be > 0"),
    # 11 symbols and 52 subcarriers cannot hold 5000 pilots
    (lambda: alpha_bounds(replace(SYS, t_tot=5e-5, b_tot=1e8, b_ssb=1e8)),
     "no alpha satisfies"),
], ids=["d_max_req", "v_max_req", "no_feasible_alpha"])
def test_rejections(make, match):
    with pytest.raises(ValueError, match=match):
        make()
