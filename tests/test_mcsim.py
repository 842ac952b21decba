import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from isacthz.channel import LinkBudget
from isacthz.config import default_deployment, default_system
from isacthz.mcsim import (_blocked_bulk, _ppp_disc, estimate_blockage,
                           estimate_coverage, estimate_misalignment,
                           estimate_timeout, nearest_two_distances)
from isacthz.misalignment import (beam_misalignment, blockage_probability,
                                  timeout_probability)
from isacthz.sensing import baseline_5g_ability
from isacthz.schemes import scheme_ability

SYS = default_system()
DEP = default_deployment()
BUD = LinkBudget.from_params(SYS, DEP)


class TestSceneSampling:
    def test_no_nodes_without_density(self):
        pts = _ppp_disc(np.random.default_rng(3), 0.0, 100.0)
        assert pts.shape == (0, 2)

    def test_seed_determinism(self):
        p1 = _ppp_disc(np.random.default_rng(17), DEP.lambda_s, 80.0)
        p2 = _ppp_disc(np.random.default_rng(17), DEP.lambda_s, 80.0)
        assert np.array_equal(p1, p2)

    def test_mean_count(self):
        counts = [_ppp_disc(np.random.default_rng(seed), DEP.lambda_b,
                            100.0).shape[0] for seed in range(400)]
        expect = DEP.lambda_b * math.pi * 100.0 ** 2
        sigma = math.sqrt(expect / len(counts))
        assert abs(np.mean(counts) - expect) < 3.5 * sigma

    def test_points_inside_window(self):
        pts = _ppp_disc(np.random.default_rng(3),
                        DEP.lambda_m + DEP.lambda_s, 50.0)
        assert pts.shape[0] > 0
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= 50.0)


def _blocked(obstacles, p_to):
    """Corridor test of the link origin -> p_to against a point list."""
    obs = np.asarray(obstacles, dtype=float).reshape(-1, 2)
    return bool(_blocked_bulk(obs[:, 0], obs[:, 1], np.array([obs.shape[0]]),
                              np.array([float(p_to[0])]),
                              np.array([float(p_to[1])]), DEP.r_b)[0])


class TestCorridor:
    def test_empty_scene_unblocked(self):
        assert not _blocked([], (20.0, 0.0))

    def test_midpoint_blocker(self):
        assert _blocked([[10.0, 0.0]], (20.0, 0.0))

    def test_lateral_window(self):
        assert _blocked([[10.0, 0.49 * DEP.r_b]], (20, 0))
        assert not _blocked([[10.0, 1.01 * DEP.r_b]], (20, 0))

    def test_longitudinal_window(self):
        # corridor spans (r_b, r - r_b) along the link
        assert not _blocked([[0.3, 0.0]], (20, 0))
        assert _blocked([[1.0, 0.0]], (20, 0))
        assert not _blocked([[19.8, 0.0]], (20, 0))

    def test_endpoints_excluded(self):
        assert not _blocked([[0.0, 0.0], [20.0, 0.0]], (20.0, 0.0))
        # an oblique link's own endpoint, as the coverage estimator passes it
        end = (33.0 * math.cos(2.1), 33.0 * math.sin(2.1))
        assert not _blocked([end], end)

    def test_short_link_never_blocked(self):
        assert not _blocked([[0.4, 0.0]], (0.8, 0.0))

    def test_links_grouped_by_counts(self):
        # one call, three links: each sees only its own obstacle group
        blocked = _blocked_bulk(np.array([10.0, 0.0, 5.0]),
                                np.array([0.0, 10.0, 5.0]),
                                np.array([1, 0, 2]),
                                np.array([20.0, 20.0, 0.0]),
                                np.array([0.0, 0.0, 20.0]), DEP.r_b)
        assert blocked.tolist() == [True, False, True]


class TestEstimators:
    def test_blockage_matches_formula(self):
        est = estimate_blockage(DEP, 52.0, 40000, 11)
        ref = blockage_probability(DEP, 52.0)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    def test_blockage_grid(self):
        for r in (10.0, 25.0, 75.0):
            est = estimate_blockage(DEP, r, 20000, int(r))
            ref = blockage_probability(DEP, r)
            assert abs(est.mean - ref) <= 3.5 * est.std_error

    def test_timeout_matches_formula(self):
        est = estimate_timeout(DEP, 60000, 12)
        ref = timeout_probability(DEP)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    def test_shared_obstacles_overshoot(self):
        # one common obstacle field correlates the two corridors; the
        # closed form multiplies void probabilities and must undershoot it
        indep = estimate_timeout(DEP, 120000, 13)
        shared = estimate_timeout(DEP, 120000, 13, shared_obstacles=True)
        assert shared.mean > indep.mean
        ref = timeout_probability(DEP)
        assert (shared.mean - ref) / shared.std_error > 4.0

    def test_determinism(self):
        a = estimate_timeout(DEP, 20000, 21)
        b = estimate_timeout(DEP, 20000, 21)
        assert a == b

    def test_std_error_scaling(self):
        small = estimate_blockage(DEP, 30.0, 10000, 31)
        large = estimate_blockage(DEP, 30.0, 40000, 32)
        ratio = small.std_error / large.std_error
        assert ratio == pytest.approx(2.0, rel=0.2)

    def test_misalignment_estimates(self):
        ests = estimate_misalignment(DEP, baseline_5g_ability(), SYS.tau,
                                     40000, 14)
        ref = beam_misalignment(DEP, baseline_5g_ability(), SYS.tau)
        assert abs(ests["p_err"].mean - ref.p_err) <= 3.0 * ests["p_err"].std_error
        assert abs(ests["p_ms"].mean - ref.p_ms) <= 3.0 * ests["p_ms"].std_error


class TestNearestTwo:
    def test_ordering(self):
        r1, r2 = nearest_two_distances(DEP, 5000, 40)
        assert np.all(r1 <= r2)

    def test_joint_density(self):
        # exact transform: r1^2 and r2^2 - r1^2 are independent
        # exponentials with rate lambda_b pi under the joint law
        r1, r2 = nearest_two_distances(DEP, 30000, 41)
        rate = DEP.lambda_b * math.pi
        u = 1.0 - np.exp(-rate * r1 ** 2)
        v = 1.0 - np.exp(-rate * (r2 ** 2 - r1 ** 2))
        k = 8
        counts, _, _ = np.histogram2d(u, v, bins=k, range=[[0, 1], [0, 1]])
        _, p = stats.chisquare(counts.ravel(),
                               f_exp=np.full(k * k, len(u) / k ** 2))
        assert p > 0.01


class TestCoverageEstimator:
    def test_trivial_threshold(self):
        ability = scheme_ability("perfect", SYS, DEP)
        dep0 = replace(DEP, lambda_s=0.0, lambda_m=0.0)  # p_ms = 0
        est = estimate_coverage(dep0, BUD, SYS, ability, 10.0, 1e-9, 4000, 50)
        assert est.mean > 0.999

    def test_noise_only_deterministic(self):
        from isacthz.channel import effective_noise, received_power
        dep0 = replace(DEP, lambda_b=0.0, lambda_s=0.0, lambda_m=0.0)
        ability = scheme_ability("perfect", SYS, DEP)
        for r1, thr in ((20.0, 1.0), (40.0, 10.0 ** 2.0)):
            est = estimate_coverage(dep0, BUD, SYS, ability, r1, thr, 2000, 51)
            margin = received_power(BUD, r1) / thr \
                - effective_noise(BUD, dep0, SYS, r1)
            assert est.mean == (1.0 if margin > 0.0 else 0.0)
            assert est.std_error == 0.0

    def test_determinism(self):
        ability = scheme_ability("jsrs", SYS, DEP)
        a = estimate_coverage(DEP, BUD, SYS, ability, 20.0, 10.0, 5000, 52)
        b = estimate_coverage(DEP, BUD, SYS, ability, 20.0, 10.0, 5000, 52)
        assert a == b

    def test_guard_band_sufficiency(self):
        ability = scheme_ability("jsrs", SYS, DEP)
        base = estimate_coverage(DEP, BUD, SYS, ability, 20.0, 10.0, 30000, 53,
                                 window_radius=60.0)
        wide = estimate_coverage(DEP, BUD, SYS, ability, 20.0, 10.0, 30000, 54,
                                 window_radius=120.0)
        combined = math.hypot(base.std_error, wide.std_error)
        assert abs(base.mean - wide.mean) <= 3.0 * combined

    def test_validation(self):
        ability = scheme_ability("perfect", SYS, DEP)
        with pytest.raises(ValueError):
            estimate_coverage(DEP, BUD, SYS, ability, 0.3, 1.0, 100, 1)
        with pytest.raises(ValueError):
            estimate_coverage(DEP, BUD, SYS, ability, 20.0, -1.0, 100, 1)
        with pytest.raises(ValueError):
            estimate_coverage(DEP, BUD, SYS, ability, 20.0, 1.0, 100, 1,
                              lower_bound_mode="nonsense")

    def test_window_must_be_positive(self):
        # 0 used to run at the default radius and -100 like 100
        ability = scheme_ability("perfect", SYS, DEP)
        for window in (0.0, -100.0, math.nan):
            with pytest.raises(ValueError):
                estimate_coverage(DEP, BUD, SYS, ability, 20.0, 1.0, 100, 1,
                                  window_radius=window)

    def test_window_must_exceed_lower_bound(self):
        # at or inside the lower-bound radius the annulus is empty or negative
        ability = scheme_ability("perfect", SYS, DEP)
        for mode, r1, window in (("theorem", 20.0, 2.0 * DEP.r_b),
                                 ("theorem", 20.0, 0.5 * DEP.r_b),
                                 ("derivation", 40.0, 40.0),
                                 ("derivation", 40.0, 30.0)):
            with pytest.raises(ValueError, match="lower-bound radius"):
                estimate_coverage(DEP, BUD, SYS, ability, r1, 1.0, 100, 1,
                                  lower_bound_mode=mode, window_radius=window)


class TestPinnedStream:
    """Estimates recorded at a fixed seed; the sampler's draw order is part
    of the contract, so a refactor must reproduce them exactly."""

    def test_coverage_urban(self):
        ability = scheme_ability("jsrs", SYS, DEP)
        est = estimate_coverage(DEP, BUD, SYS, ability, 20.0, 10 ** 0.5, 20000, 52)
        assert est.mean == 0.8498

    def test_coverage_derivation(self):
        ability = scheme_ability("5g", SYS, DEP)
        est = estimate_coverage(DEP, BUD, SYS, ability, 10.0, 1.0, 20000, 53,
                                lower_bound_mode="derivation")
        assert est.mean == 0.62665

    def test_coverage_open_field(self):
        dep0 = replace(DEP, lambda_m=0.0, lambda_s=0.0)
        ability = scheme_ability("perfect", SYS, DEP)
        est = estimate_coverage(dep0, BUD, SYS, ability, 20.0, 10 ** 0.5, 2048, 4,
                                window_radius=500.0)
        assert est.mean == 0.953125

    def test_blockage(self):
        assert estimate_blockage(DEP, 52.0, 20000, 3).mean == 0.6385

    def test_timeout(self):
        assert estimate_timeout(DEP, 20000, 9).mean == 0.0505
        assert estimate_timeout(DEP, 20000, 9, shared_obstacles=True).mean == 0.0557

    def test_misalignment(self):
        ests = estimate_misalignment(DEP, scheme_ability("jsrs", SYS, DEP),
                                     SYS.tau, 20000, 14)
        assert ests["p_err"].mean == 0.04335
