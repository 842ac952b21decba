import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from isacthz import mcsim
from isacthz.channel import LinkBudget, effective_noise, received_power
from isacthz.config import default_deployment, default_system
from isacthz.mcsim import (McEstimate, _batches, _blocked_bulk,
                           _nearest_two_batch, _ppp_disc, _union_boxes,
                           default_window_radius, estimate_blockage,
                           estimate_coverage, estimate_misalignment,
                           estimate_timeout, nearest_two_distances)
from isacthz.misalignment import (beam_misalignment, beam_switch_density,
                                  blockage_probability, timeout_probability)
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

    def test_sparse_window(self):
        # about 0.011 nodes per trial: nearly every trial, trailing ones
        # included, holds an empty slice of the per-trial sums
        dep = replace(DEP, lambda_b=1e-6, lambda_s=0.0)
        bud = LinkBudget.from_params(SYS, dep)
        ability = scheme_ability("jsrs", SYS, dep)
        r1, thr = 20.0, 1.0
        assert received_power(bud, r1) / thr \
            > effective_noise(bud, dep, SYS, r1)
        est = estimate_coverage(dep, bud, SYS, ability, r1, thr, 20000, 55,
                                window_radius=60.0)
        aligned = 1.0 - beam_misalignment(dep, ability, SYS.tau).p_ms
        assert abs(est.mean - aligned) <= max(0.02, 3.0 * est.std_error)

    def test_default_window_beyond_cap(self):
        # the 1500 m cap used to undercut r1 + 20 m, so from r1 = 1500 m a
        # derivation-mode window left no annulus and raised
        assert default_window_radius(SYS, DEP, 1600.0) == 1620.0
        ability = scheme_ability("perfect", SYS, DEP)
        est = estimate_coverage(DEP, BUD, SYS, ability, 1600.0, 1.0, 200, 57,
                                lower_bound_mode="derivation")
        assert 0.0 <= est.mean <= 1.0 and est.trials == 200

    def test_candidate_corridors_see_whole_field(self, monkeypatch):
        # the users and blockers drawn for a trial with marked candidates
        # (listed after the serving node at (r1, 0)) must cover every
        # candidate corridor: their count there is Poisson with mean
        # (lambda_m + lambda_s) 2 r_b (r - 2 r_b) per candidate
        dep = replace(DEP, n_b=8, n_m=8)
        r1, r_b = 20.0, dep.r_b
        scenes = []

        def record(obs_x, obs_y, counts, bs_x, bs_y, r_b):
            scenes.append((obs_x[:counts[0]], obs_y[:counts[0]], bs_x, bs_y))
            return _blocked_bulk(obs_x, obs_y, counts, bs_x, bs_y, r_b)

        monkeypatch.setattr(mcsim, "_blocked_bulk", record)
        estimate_coverage(dep, LinkBudget.from_params(SYS, dep), SYS,
                          scheme_ability("jsrs", SYS, dep), r1, 10.0, 4000, 58,
                          window_radius=150.0)
        seen = mean = 0.0
        for obs_x, obs_y, bs_x, bs_y in scenes:
            cut = np.flatnonzero((obs_x == r1) & (obs_y == 0.0))[0] + 1
            r = np.hypot(bs_x, bs_y)[:, None]
            lon = (obs_x[cut:] * bs_x[:, None] + obs_y[cut:] * bs_y[:, None]) / r
            lat = (obs_y[cut:] * bs_x[:, None] - obs_x[cut:] * bs_y[:, None]) / r
            seen += np.sum((np.abs(lat) < r_b) & (lon > r_b) & (lon < r - r_b))
            mean += (dep.lambda_m + dep.lambda_s) * 2.0 * r_b * np.sum(r - 2.0 * r_b)
        assert mean > 1000.0
        assert abs(seen - mean) < 5.0 * math.sqrt(mean)

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


def _obstacle_field(rng, density, radii):
    """Per-trial PPP discs with individual radii; flat coords + counts."""
    counts = rng.poisson(density * math.pi * radii ** 2)
    total = int(counts.sum())
    rad = np.repeat(radii, counts) * np.sqrt(rng.random(total))
    ang = 2.0 * math.pi * rng.random(total)
    return rad * np.cos(ang), rad * np.sin(ang), counts


def _whole_disc(quantity, trials, seed, ability=None):
    """The link estimators as they sampled before the box draws: every
    obstacle on a disc of radius (longest link) + r_b about the origin."""
    density = DEP.lambda_m + DEP.lambda_s
    hits = 0
    for rng, b in _batches(trials, seed):
        event = np.ones(b, dtype=bool)
        if quantity == "blockage":
            ends = np.full((b, 1), 52.0 + 0j)
        else:
            if quantity == "p_err":
                lo = max((DEP.v - ability.delta_v) * SYS.tau
                         - ability.delta_db, 0.0)
                d_b = rng.exponential(1.0 / beam_switch_density(DEP), size=b)
                event = (d_b > lo) & (d_b < DEP.v * SYS.tau)
            r12, a12 = _nearest_two_batch(rng, DEP, b)
            ends = r12 * np.exp(1j * a12)  # link end points as x + iy
            if quantity == "p_err":
                ends = ends[:, :1]
        radii = np.abs(ends).max(axis=1) + DEP.r_b
        field = _obstacle_field(rng, density, radii)
        blocked = np.ones(b, dtype=bool)
        for k in range(ends.shape[1]):
            if k and quantity == "timeout_independent":
                field = _obstacle_field(rng, density, radii)
            blocked &= _blocked_bulk(*field, ends[:, k].real, ends[:, k].imag,
                                     DEP.r_b)
        if quantity == "p_err":  # a sensing error needs an unblocked link
            blocked = ~blocked
        hits += int((event & blocked).sum())
    return McEstimate.from_hits(hits, trials)


class TestWholeDiscOracle:
    """The box and union draws against whole-disc draws at fixed seeds."""

    @staticmethod
    def _agree(est, ref):
        assert abs(est.mean - ref.mean) \
            <= 4.0 * math.hypot(est.std_error, ref.std_error)

    def test_blockage(self):
        self._agree(estimate_blockage(DEP, 52.0, 100000, 60),
                    _whole_disc("blockage", 40000, 61))

    def test_timeout_independent(self):
        self._agree(estimate_timeout(DEP, 100000, 62),
                    _whole_disc("timeout_independent", 100000, 63))

    def test_timeout_shared(self):
        self._agree(estimate_timeout(DEP, 100000, 64, shared_obstacles=True),
                    _whole_disc("timeout_shared", 100000, 65))

    def test_p_err(self):
        ability = scheme_ability("jsrs", SYS, DEP)
        ests = estimate_misalignment(DEP, ability, SYS.tau, 100000, 66)
        self._agree(ests["p_err"], _whole_disc("p_err", 100000, 67, ability))

    @pytest.mark.parametrize("a2, overlap", [
        (0.0, 2.0 * DEP.r_b * 20.0),   # collinear: box 1 lies inside box 2
        (math.pi / 2, DEP.r_b ** 2),   # perpendicular: an r_b square
    ])
    def test_union_overlap_sampled_once(self, a2, overlap):
        density, trials = 0.2, 20000
        r12 = np.tile([20.0, 30.0], (trials, 1))
        a12 = np.tile([0.0, a2], (trials, 1))
        x, y, counts = _union_boxes(np.random.default_rng(68), density,
                                    r12, a12, DEP.r_b)

        def inside(r, a):
            lon = x * math.cos(a) + y * math.sin(a)
            lat = -x * math.sin(a) + y * math.cos(a)
            return (lon >= 0.0) & (lon <= r) & (np.abs(lat) < DEP.r_b)

        assert counts.sum() == x.size
        assert np.all(inside(20.0, 0.0) | inside(30.0, a2))
        expect = density * overlap
        seen = np.sum(inside(20.0, 0.0) & inside(30.0, a2)) / trials
        assert abs(seen - expect) <= 4.0 * math.sqrt(expect / trials)


class TestPinnedStream:
    """Estimates recorded at a fixed seed; the sampler's draw order is part
    of the contract, so a refactor must reproduce them exactly.  Recorded
    after the switch to box, union and thinned-mark sampling."""

    def test_coverage_urban(self):
        ability = scheme_ability("jsrs", SYS, DEP)
        est = estimate_coverage(DEP, BUD, SYS, ability, 20.0, 10 ** 0.5, 20000, 52)
        assert est.mean == 0.8527

    def test_coverage_derivation(self):
        ability = scheme_ability("5g", SYS, DEP)
        est = estimate_coverage(DEP, BUD, SYS, ability, 10.0, 1.0, 20000, 53,
                                lower_bound_mode="derivation")
        assert est.mean == 0.6302

    def test_coverage_open_field(self):
        dep0 = replace(DEP, lambda_m=0.0, lambda_s=0.0)
        ability = scheme_ability("perfect", SYS, DEP)
        est = estimate_coverage(dep0, BUD, SYS, ability, 20.0, 10 ** 0.5, 2048, 4,
                                window_radius=500.0)
        assert est.mean == 0.9541015625

    def test_blockage(self):
        assert estimate_blockage(DEP, 52.0, 20000, 3).mean == 0.64165

    def test_timeout(self):
        assert estimate_timeout(DEP, 20000, 9).mean == 0.0536
        assert estimate_timeout(DEP, 20000, 9, shared_obstacles=True).mean == 0.0592

    def test_misalignment(self):
        ests = estimate_misalignment(DEP, scheme_ability("jsrs", SYS, DEP),
                                     SYS.tau, 20000, 14)
        assert ests["p_err"].mean == 0.04275
