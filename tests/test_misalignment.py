import math
from dataclasses import replace

import numpy as np
import pytest

from isacthz.channel import log_void_probability
from isacthz.config import Deployment, SystemParams
from isacthz.misalignment import (beam_misalignment, beam_switch_density,
                                  blockage_probability,
                                  expected_closest_blockage,
                                  speed_underestimate_probability,
                                  timeout_probability)
from isacthz.schemes import scheme_ability
from isacthz.sensing import (SCHEMES, SensingAbility, baseline_5g_ability,
                             perfect_ability)
from isacthz.specfun import (DEFAULT_QUADRATURE, QuadratureSpec,
                             integrate_semi_infinite)

SYS = SystemParams()
DEP = Deployment()


def nested_timeout_probability(deploy):
    """Oracle of timeout_probability: (2 lambda_b pi)^2 times the nested
    semi-infinite quadrature of int_{2 r_b}^inf r1 p_B(r1) g(r1) dr1 with
    g(r1) = int_{r1}^inf p_B(r2) e^{-lambda_b pi r2^2} r2 dr2, the inner
    budget ten times tighter than the outer."""
    w1 = (deploy.lambda_s + deploy.lambda_m) * 2.0 * deploy.r_b
    beta = deploy.lambda_b * math.pi
    two_rb = 2.0 * deploy.r_b
    spec = DEFAULT_QUADRATURE
    inner_spec = QuadratureSpec(abs_tol=spec.abs_tol * 0.1,
                                rel_tol=spec.rel_tol * 0.1,
                                max_subdivisions=spec.max_subdivisions,
                                tail_cutoff_envelope=spec.tail_cutoff_envelope)

    def g_inner(r1):
        def f(r2):
            return (1.0 - np.exp(-w1 * (r2 - two_rb))) * np.exp(-beta * r2 ** 2) * r2
        return integrate_semi_infinite(f, r1, inner_spec)

    def outer(r1):
        return np.array([x * (1.0 - math.exp(-w1 * (x - two_rb))) * g_inner(x)
                         for x in np.atleast_1d(r1)])

    return (2.0 * beta) ** 2 * integrate_semi_infinite(outer, two_rb, spec)


def expected_closest_blockage_quadrature(deploy, spec=DEFAULT_QUADRATURE):
    """Oracle of expected_closest_blockage: direct quadrature of its defining
    integral 1 - int_{2 r_b}^inf p_void(r) f_{r1}(r) dr with the nearest
    distance density f_{r1}(r) = 2 pi lambda_b r e^{-lambda_b pi r^2}.

    The complement form mirrors the closed form exactly: the (tiny)
    probability mass of a nearest node inside 2 r_b counts as blocked.
    """
    if deploy.obstacle_density == 0.0:
        return 0.0
    if deploy.lambda_b <= 0.0:
        return 1.0
    beta = deploy.lambda_b * math.pi

    def unblocked(r):
        return (np.exp(log_void_probability(deploy.obstacle_density,
                                            deploy.r_b, r))
                * 2.0 * beta * r * np.exp(-beta * r ** 2))

    return 1.0 - integrate_semi_infinite(unblocked, 2.0 * deploy.r_b, spec)


class TestBlockageProbability:
    def test_zero_at_contact(self):
        assert blockage_probability(DEP, 2 * DEP.r_b) == 0.0

    def test_zero_without_obstacles(self):
        empty = replace(DEP, lambda_s=0.0, lambda_m=0.0)
        for r in (1.0, 10.0, 200.0):
            assert blockage_probability(empty, r) == 0.0

    def test_reference_value(self):
        assert blockage_probability(DEP, 52.0) == pytest.approx(0.6394, abs=5e-5)

    def test_monotone_in_range(self):
        rs = np.linspace(1.0, 200.0, 100)
        vals = blockage_probability(DEP, rs)
        assert np.all(np.diff(vals) > 0.0)
        assert np.all((vals >= 0.0) & (vals < 1.0))

    def test_domain(self):
        with pytest.raises(ValueError):
            blockage_probability(DEP, 0.5)

    def test_just_past_contact(self):
        # 1 - e^-x loses about 1.5e-9 relative here; -expm1(-x) keeps it
        r = 2 * DEP.r_b + 1e-6
        x = DEP.obstacle_density * (r - 2 * DEP.r_b) * (2 * DEP.r_b)
        ref = -math.expm1(-x)
        assert abs(blockage_probability(DEP, r) - ref) <= 1e-15 * ref


class TestTimeoutProbability:
    def test_zero_without_obstacles(self):
        empty = replace(DEP, lambda_s=0.0, lambda_m=0.0)
        assert timeout_probability(empty) == 0.0

    def test_reference_value(self):
        # frozen from the nested-quadrature evaluation at the defaults
        assert timeout_probability(DEP) == pytest.approx(0.052991, abs=2e-6)

    def test_decreasing_in_node_density(self):
        vals = [timeout_probability(replace(DEP, lambda_b=lb))
                for lb in (1e-3, 2e-3, 5e-3, 2e-2)]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_matches_closed_form_inner(self):
        # the erfcx closed form of the inner integral, against the nested
        # semi-infinite quadrature of both integrals
        for lb in (1e-3, 1e-2, 0.2):
            for ls in (0.0, 1.5e-2):
                dep = replace(DEP, lambda_b=lb, lambda_s=ls)
                assert timeout_probability(dep) == pytest.approx(
                    nested_timeout_probability(dep), rel=1e-12)

    def test_sparse_nodes_dense_blockers(self):
        # the outer integrand's first panel is about 2e4 here; it must
        # converge rather than spend the split budget on roundoff
        dep = replace(DEP, lambda_b=1e-5, lambda_s=5.0)
        p_to = timeout_probability(dep)
        assert p_to == pytest.approx(0.99995, abs=1e-5)
        assert p_to == pytest.approx(nested_timeout_probability(dep), rel=1e-12)

    def test_certain_without_nodes(self):
        # with no node, both nearest nodes sit arbitrarily far away and
        # are blocked: the limit of p_to as lambda_b falls to zero
        empty = replace(DEP, lambda_b=0.0)
        assert timeout_probability(empty) == 1.0
        sparse = timeout_probability(replace(DEP, lambda_b=1e-7))
        assert abs(1.0 - sparse) < 2e-3
        for scheme in SCHEMES:
            ability = scheme_ability(scheme, SYS, empty)
            got = beam_misalignment(empty, ability, SYS.tau)
            assert (got.p_err, got.p_to, got.p_ms) == (0.0, 1.0, 1.0), scheme
        # nothing blocks without obstacles, nodes or not
        assert timeout_probability(replace(empty, lambda_m=0.0, lambda_s=0.0)) == 0.0


class TestSpeedUnderestimate:
    def test_perfect_sensing(self):
        assert speed_underestimate_probability(DEP, perfect_ability(), SYS.tau) == 0.0

    def test_stationary_user(self):
        still = replace(DEP, v=0.0)
        val = speed_underestimate_probability(still, baseline_5g_ability(), SYS.tau)
        assert val == 0.0

    def test_reference_value(self):
        assert speed_underestimate_probability(DEP, baseline_5g_ability(), SYS.tau) \
            == pytest.approx(0.3897018337721107, rel=1e-10)

    def test_clamped_never_negative(self):
        coarse = SensingAbility(delta_r=50.0, delta_db=50.0, delta_v=100.0,
                                d_max=100.0, v_max=200.0)
        val = speed_underestimate_probability(DEP, coarse, SYS.tau)
        mu = beam_switch_density(DEP)
        assert 0.0 <= val <= 1.0 - math.exp(-mu * DEP.v * SYS.tau) + 1e-15


class TestClosestBlockage:
    def test_zero_without_obstacles(self):
        empty = replace(DEP, lambda_s=0.0, lambda_m=0.0)
        assert expected_closest_blockage(empty) == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_matches_quadrature(self):
        closed = expected_closest_blockage(DEP)
        quad = expected_closest_blockage_quadrature(DEP)
        assert closed == pytest.approx(quad, rel=1e-8)

    def test_quadrature_grid(self):
        for lb in (1e-3, 2e-3, 5e-3):
            for lsm in (1e-2, 2e-2):
                dep = replace(DEP, lambda_b=lb, lambda_m=lsm / 2, lambda_s=lsm / 2)
                closed = expected_closest_blockage(dep)
                quad = expected_closest_blockage_quadrature(dep)
                assert closed == pytest.approx(quad, rel=1e-8)

    def test_decreases_for_denser_nodes(self):
        # denser nodes shorten the nearest link; within the studied density
        # range the averaged blockage falls.  (Far beyond it, the closed
        # form saturates towards one because the overlap event r1 < 2 r_b
        # counts as blocked; the quadrature oracle reproduces that too.)
        vals = [expected_closest_blockage(replace(DEP, lambda_b=lb))
                for lb in (1e-3, 2e-3, 5e-3, 1e-2)]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


class TestBeamMisalignment:
    def test_perfect_reduces_to_timeout(self):
        m = beam_misalignment(DEP, perfect_ability(), SYS.tau)
        assert m.p_err == 0.0
        assert m.p_ms == m.p_to == timeout_probability(DEP)

    def test_no_obstacles_no_misalignment(self):
        empty = replace(DEP, lambda_s=0.0, lambda_m=0.0)
        m = beam_misalignment(empty, perfect_ability(), SYS.tau)
        assert m.p_ms == 0.0

    def test_timeout_harder_than_single_blockage(self):
        for lb in (1e-3, 2e-3, 5e-3):
            dep = replace(DEP, lambda_b=lb)
            assert timeout_probability(dep) <= expected_closest_blockage(dep)

    def test_monotone_in_resolution(self):
        # p_ms never grows when the resolutions sharpen
        dvs = np.linspace(0.2, 4.0, 5)
        ddbs = np.linspace(0.02, 0.4, 5)
        prev = None
        for dv, ddb in zip(dvs, ddbs):
            ab = SensingAbility(delta_r=ddb, delta_db=ddb, delta_v=dv,
                                d_max=100.0, v_max=100.0)
            val = beam_misalignment(DEP, ab, SYS.tau).p_ms
            if prev is not None:
                assert val >= prev - 1e-15
            prev = val

    def test_grid_monotone_both_axes(self):
        grid = np.zeros((5, 5))
        dvs = np.linspace(0.1, 3.0, 5)
        ddbs = np.linspace(0.01, 0.35, 5)
        for i, dv in enumerate(dvs):
            for j, ddb in enumerate(ddbs):
                ab = SensingAbility(delta_r=ddb, delta_db=ddb, delta_v=dv,
                                    d_max=100.0, v_max=100.0)
                grid[i, j] = beam_misalignment(DEP, ab, SYS.tau).p_ms
        assert np.all(np.diff(grid, axis=0) >= -1e-15)
        assert np.all(np.diff(grid, axis=1) >= -1e-15)

    def test_union_bound_capped(self):
        dense = replace(DEP, lambda_s=2.0)
        m = beam_misalignment(dense, baseline_5g_ability(), SYS.tau)
        assert 0.0 <= m.p_ms <= 1.0
