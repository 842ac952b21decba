import math
from dataclasses import replace

import pytest

from isacthz.config import Deployment, SystemParams
from isacthz.sensing import (SensingAbility, SensingPattern, a_theta,
                             ability_from_spans, baseline_5g_ability,
                             perfect_ability, sensing_ability, ssb_ability)

SYS = SystemParams()
DEP = Deployment()


class TestATheta:
    def test_reference_beam_count(self):
        assert a_theta(2 * math.pi / 128) == pytest.approx(0.1195, abs=1e-4)

    def test_sixty_degrees(self):
        assert a_theta(math.pi / 3) == pytest.approx(0.9085, abs=1e-4)

    def test_vanishes_for_narrow_beams(self):
        assert a_theta(1e-3) < a_theta(1e-2) < a_theta(1e-1)
        assert a_theta(1e-6) < 1e-4

    def test_below_one(self):
        for n in (8, 16, 32, 64, 128, 256, 512):
            assert 0.0 < a_theta(2 * math.pi / n) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            a_theta(math.pi / 2)
        with pytest.raises(ValueError):
            a_theta(0.0)


class TestReferenceGridValues:
    """Values of the reference numerology grid, worked from the formulas."""

    def test_unambiguous_range(self):
        ab = ability_from_spans(1, 1, SYS.b_ssb, SYS.t_ssb, SYS, DEP.theta_b)
        assert ab.d_max == pytest.approx(78.1, rel=1e-2)

    def test_pilot_motion_resolution(self):
        ab = ability_from_spans(2, 1, 0.1e9, 0.5e-3, SYS, DEP.theta_b)
        assert ab.delta_db == pytest.approx(0.090, rel=1e-2)

    def test_velocity_resolution(self):
        sys22 = replace(SYS, f_c=0.22e12)
        ab = ability_from_spans(2, 1, 0.1e9, 0.5e-3, sys22, DEP.theta_b)
        assert ab.delta_v == pytest.approx(1.36, rel=5e-3)

    def test_unambiguous_velocity(self):
        sys22 = replace(SYS, f_c=0.22e12)
        ab = ability_from_spans(2, 1, 0.1e9, 0.5e-3, sys22, DEP.theta_b)
        assert ab.v_max * 3.6 == pytest.approx(550.3, rel=1e-3)

    def test_bandwidth_halves_resolution(self):
        a1 = ability_from_spans(2, 1, 0.1e9, 0.5e-3, SYS, DEP.theta_b)
        a2 = ability_from_spans(2, 1, 0.2e9, 0.5e-3, SYS, DEP.theta_b)
        assert a2.delta_db == pytest.approx(a1.delta_db / 2.0, rel=1e-12)
        assert a2.delta_r == pytest.approx(a1.delta_r / 2.0, rel=1e-12)

    def test_duration_halves_velocity_resolution(self):
        a1 = ability_from_spans(2, 1, 0.1e9, 0.5e-3, SYS, DEP.theta_b)
        a2 = ability_from_spans(2, 1, 0.1e9, 1.0e-3, SYS, DEP.theta_b)
        assert a2.delta_v == pytest.approx(a1.delta_v / 2.0, rel=1e-12)

    def test_transverse_factor_relation(self):
        for u in (1, 2, 3):
            ab = ability_from_spans(u, 2, 0.15e9, 0.8e-3, SYS, DEP.theta_b)
            assert ab.delta_db / ab.delta_r == \
                pytest.approx(a_theta(DEP.theta_b), rel=1e-12)
            assert ab.delta_db < ab.delta_r


class TestSsbAbility:
    def test_motion_resolution(self):
        ab = ssb_ability(SYS, DEP.theta_b)
        assert ab.delta_db == pytest.approx(0.039, rel=3e-3)

    def test_range(self):
        ab = ssb_ability(SYS, DEP.theta_b)
        assert ab.d_max == pytest.approx(78.1, rel=1e-3)

    def test_velocity_resolution(self):
        ab = ssb_ability(SYS, DEP.theta_b)
        assert ab.delta_v == pytest.approx(24.73, rel=1e-3)


class TestBaselines:
    def test_positioning_requirement(self):
        ab = baseline_5g_ability()
        assert ab.delta_db == 0.3
        assert ab.delta_v == 1.0
        assert math.isinf(ab.d_max)
        assert math.isinf(ab.v_max)

    def test_perfect(self):
        ab = perfect_ability()
        assert ab.delta_db == 0.0
        assert ab.delta_v == 0.0

    def test_pattern_independent(self):
        # baselines do not change with the pilot budget
        assert baseline_5g_ability() == baseline_5g_ability()
        assert perfect_ability() == perfect_ability()


class TestPatternMaterialisation:
    def test_counts_multiply_back(self):
        pat = SensingPattern.materialize(0.5, 1, 1, SYS)
        slack = 0.5 * (pat.n_s + pat.n_f) + 0.25
        assert abs(pat.n_s * pat.n_f - SYS.n_rs) <= slack

    def test_resource_caps_respected(self):
        # the feasibility bound sits exactly at the rounding step; the
        # materialised count must clip to the subcarrier cap
        from isacthz.pattern import alpha_bounds
        sys_big = replace(SYS, n_rs=100000)
        lo, _ = alpha_bounds(sys_big)
        pat = SensingPattern.materialize(lo, 1, 1, sys_big)
        assert pat.b_s <= SYS.b_tot
        assert pat.t_s <= SYS.t_tot

    def test_hard_violation_raises(self):
        with pytest.raises(ValueError):
            SensingPattern.materialize(0.05, 1, 1, replace(SYS, n_rs=100000))

    def test_ability_consistency(self):
        pat = SensingPattern.materialize(0.4, 2, 3, SYS)
        ab = sensing_ability(pat, SYS, DEP.theta_b)
        assert ab.delta_r == pytest.approx(3e8 / (2 * pat.u * pat.b_s))
        assert ab.delta_r <= ab.d_max

    def test_invalid_ability(self):
        with pytest.raises(ValueError):
            SensingAbility(delta_r=10.0, delta_db=1.0, delta_v=1.0,
                           d_max=5.0, v_max=10.0)
