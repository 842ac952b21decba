import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from isacthz import mcsim
from isacthz.channel import (LinkBudget, effective_noise, lower_bound_radius,
                             received_power, reradiation_constant,
                             sweep_weight)
from isacthz.config import Deployment, SystemParams
from isacthz.coverage import CoverageQuery, coverage_probability
from isacthz.mcsim import (McEstimate, _batches, _blocked_bulk,
                           _blocked_frame, _grouped_sums, _link_box,
                           _ppp_disc, _scattered_field, _scattered_points,
                           _split_radius,
                           default_window_radius,
                           estimate_blockage,
                           estimate_coverage, estimate_misalignment,
                           estimate_timeout)
from isacthz.misalignment import (beam_misalignment, beam_switch_density,
                                  blockage_probability,
                                  speed_underestimate_probability,
                                  timeout_probability)
from isacthz.sensing import baseline_5g_ability
from isacthz.schemes import scheme_ability

SYS = SystemParams()
DEP = Deployment()
BUD = LinkBudget.from_params(SYS, DEP)


def _nearest_two_window(rng, deploy, b):
    """The nearest-two draw before the exact sampler: a Poisson(36) window
    of nodes per trial, of which the two nearest are kept."""
    # window large enough that the second-nearest lies inside w.h.p.
    r_win = math.sqrt(36.0 / (deploy.lambda_b * math.pi))
    mean = deploy.lambda_b * math.pi * r_win ** 2  # = 36
    counts = rng.poisson(mean, size=b)
    counts = np.maximum(counts, 2)  # probability ~1e-9 guard, keeps shapes sane
    max_n = int(counts.max())
    rad = r_win * np.sqrt(rng.random((b, max_n)))
    ang = 2.0 * math.pi * rng.random((b, max_n))
    rad = np.where(np.arange(max_n) < counts[:, None], rad, np.inf)
    order = np.argpartition(rad, (0, 1), axis=1)[:, :2]  # nearest first
    rows = np.arange(b)[:, None]
    return rad[rows, order], ang[rows, order]


def window_distances(samples, seed):
    """The two nearest nodes' distances, drawn by the window oracle."""
    out = np.concatenate([_nearest_two_window(rng, DEP, b)[0]
                          for rng, b in _batches(samples, seed)])
    return out[:, 0], out[:, 1]


def joint_distance_gof(r1, r2, k):
    """Chi-square p-value of (r1, r2) against the nearest-two joint law:
    r1^2 and r2^2 - r1^2 are independent exponentials with rate lambda_b pi,
    so their CDF values fill the unit square uniformly (k x k bins)."""
    rate = DEP.lambda_b * math.pi
    u = 1.0 - np.exp(-rate * r1 ** 2)
    v = 1.0 - np.exp(-rate * (r2 ** 2 - r1 ** 2))
    counts, _, _ = np.histogram2d(u, v, bins=k, range=[[0, 1], [0, 1]])
    return stats.chisquare(counts.ravel(),
                           f_exp=np.full(k * k, len(u) / k ** 2)).pvalue


class TestSceneSampling:
    def test_no_nodes_without_density(self):
        rng = np.random.default_rng(3)
        pts = _ppp_disc(rng, 0.0, 100.0)
        assert pts.shape == (0, 2)
        # an empty draw consumes nothing of the stream
        assert rng.random() == np.random.default_rng(3).random()
        # radii sqrt(u R^2), u drawn after the count and before the angles
        pts = _ppp_disc(np.random.default_rng(5), DEP.lambda_s, 100.0)
        ref = np.random.default_rng(5)
        u = ref.random(ref.poisson(DEP.lambda_s * (math.pi * 100.0 ** 2)))
        rr, th = np.sqrt(u * 100.0 ** 2), 2.0 * math.pi * ref.random(u.size)
        assert u.size > 0
        assert np.array_equal(pts, np.column_stack([rr * np.cos(th), rr * np.sin(th)]))

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

    @staticmethod
    def _turned(lon, lat, owner, r, cos, sin):
        """`_blocked_bulk` on frame boxes turned by per-link (cos, sin),
        the obstacles grouped by link as it reads them."""
        order = np.argsort(owner, kind="stable")
        lon, lat, owner = lon[order], lat[order], owner[order]
        c, s = cos[owner], sin[owner]
        return _blocked_bulk(lon * c - lat * s, lon * s + lat * c,
                             np.bincount(owner, minlength=r.size), r * cos,
                             r * sin, DEP.r_b)

    def test_frame_test_matches_turned_boxes(self):
        # the link estimators test their boxes in the link frame; the
        # rotating test must agree on the same boxes at random angles
        # (the box draws no lateral offset; the turned boxes get their own)
        rng = np.random.default_rng(80)
        r = rng.uniform(2.0 * DEP.r_b, 80.0, 4000)
        lon, owner = _link_box(rng, 0.03, r, DEP.r_b)
        lat = DEP.r_b * rng.uniform(-1.0, 1.0, lon.size)
        th = rng.uniform(0.0, 2.0 * math.pi, r.size)
        frame = _blocked_frame(lon, owner, r, DEP.r_b)
        assert 0.2 < frame.mean() < 0.8
        assert np.array_equal(
            frame, self._turned(lon, lat, owner, r, np.cos(th), np.sin(th)))

    def test_frame_test_edges(self):
        # one obstacle per 20 m link, on each corridor edge and one ulp
        # inside it; the edges are open.  The frame test reads the
        # longitudinal ones; quarter turns rotate exactly, so the rotating
        # test must see every edge
        r_b, r = DEP.r_b, 20.0
        inside = np.nextafter
        lon = np.array([10.0, 10.0, r_b, r - r_b,
                        10.0, 10.0, inside(r_b, r), inside(r - r_b, 0.0)])
        lat = np.array([r_b, -r_b, 0.0, 0.0,
                        inside(r_b, 0.0), inside(-r_b, 0.0), 0.0, 0.0])
        owner, length = np.arange(lon.size), np.full(lon.size, r)
        expect = [False] * 4 + [True] * 4
        ends = np.array([2, 3, 6, 7])
        frame = _blocked_frame(lon[ends], np.arange(ends.size),
                               length[ends], r_b)
        assert frame.tolist() == [expect[k] for k in ends]
        for cos, sin in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)):
            turned = self._turned(lon, lat, owner, length,
                                  np.full(lon.size, cos), np.full(lon.size, sin))
            assert turned.tolist() == expect


def _count_gof(counts, pmf):
    """Chi-square p-value of observed counts against per-sample pmfs,
    pmf(k) -> expected frequency of k summed over the samples; the upper
    cells are pooled until each expects at least 5."""
    cells, k = [], 0
    while pmf(k) >= 5.0:
        cells.append((k, pmf(k)))
        k += 1
    tail = len(counts) - sum(e for _, e in cells)
    obs = [int((counts == j).sum()) for j, _ in cells]
    obs.append(int((counts >= k).sum()))
    exp = [e for _, e in cells] + [tail]
    if exp[-1] < 5.0:  # fold a thin tail into the last cell
        obs[-2:], exp[-2:] = [sum(obs[-2:])], [sum(exp[-2:])]
    return stats.chisquare(obs, exp).pvalue


class TestLinkBox:
    """`_link_box` draws one Poisson field per batch on the box of its
    longest link, a uniform owner per point; each link must still see an
    independent PPP of the given density in its own corridor."""

    def test_corridor_counts_are_poisson(self):
        rng = np.random.default_rng(90)
        r_b, density = DEP.r_b, DEP.obstacle_density
        r = rng.uniform(2.0 * r_b, 80.0, 20000)
        lon, owner = _link_box(rng, density, r, r_b)
        inside = (lon > r_b) & (lon < (r - r_b)[owner])
        counts = np.bincount(owner[inside], minlength=r.size)
        mean = density * 2.0 * r_b * (r - 2.0 * r_b)
        # links pooled in bins of similar expected count
        for part in np.array_split(np.argsort(mean), 5):
            pmf = lambda k, m=mean[part]: stats.poisson.pmf(k, m).sum()
            assert _count_gof(counts[part], pmf) > 1e-3
        # owners are uniform: the first half of the links holds its share
        half = r.size // 2
        share = mean[:half].sum() / mean.sum()
        assert stats.binomtest(int(counts[:half].sum()), int(counts.sum()),
                               share).pvalue > 1e-3

    def test_blocked_frequency_per_length(self):
        rng = np.random.default_rng(91)
        r = rng.uniform(2.0 * DEP.r_b, 80.0, 20000)
        blocked = _blocked_frame(*_link_box(rng, DEP.obstacle_density, r,
                                            DEP.r_b), r, DEP.r_b)
        edges = np.linspace(2.0 * DEP.r_b, 80.0, 9)
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (r >= lo) & (r < hi)
            p = blockage_probability(DEP, r[sel])
            sigma = math.sqrt((p * (1.0 - p)).sum()) / sel.sum()
            assert abs(blocked[sel].mean() - p.mean()) <= 4.0 * sigma

    def test_points_past_the_end_never_block(self):
        # links of 20 and 30 m in a batch whose box reaches 52 m: an
        # obstacle on the link's end, one ulp past it, or at the box's far
        # edge lies outside its corridor
        r_b = DEP.r_b
        r = np.array([20.0, 30.0, 52.0])
        lon, owner = _link_box(np.random.default_rng(92), 1.0, r, r_b)
        assert lon.size > 0 and np.all((lon >= 0.0) & (lon < 52.0))
        lon = np.array([20.0, np.nextafter(20.0, np.inf), 52.0,
                        30.0, np.nextafter(30.0, np.inf), 52.0,
                        52.0, np.nextafter(52.0, np.inf)])
        owner = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        assert not _blocked_frame(lon, owner, r, r_b).any()


class _CountingRng:
    """A generator that counts the unit exponentials drawn from it."""

    def __init__(self, rng):
        self.rng, self.exponentials = rng, 0

    def standard_exponential(self, size):
        self.exponentials += int(np.prod(size))
        return self.rng.standard_exponential(size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


class TestNearestLinks:
    """A timeout needs both nearest links blocked and a sensing error an
    open nearest link, so the second node and its link's field are drawn
    only behind a blocked nearest link, independent of the nearest link's
    field."""

    def test_second_field_only_behind_a_blocked_link(self, monkeypatch):
        drawn, asked, boxes = [], [], []
        nearest_distances, link_box = mcsim._nearest_distances, mcsim._link_box

        def nearest(rng, deploy, b):
            r1, second = nearest_distances(rng, deploy, b)

            def spy(idx):
                asked.append((idx.copy(), second(idx)))
                return asked[-1][1]

            drawn.append(r1)
            return r1, spy

        def box(rng, density, r, r_b):
            boxes.append(r.copy())
            return link_box(rng, density, r, r_b)

        monkeypatch.setattr(mcsim, "_nearest_distances", nearest)
        monkeypatch.setattr(mcsim, "_link_box", box)
        rngs = [(_CountingRng(rng), b) for rng, b in _batches(100000, 94)]
        verdicts = [mcsim._nearest_links_blocked(rng, DEP, b)
                    for rng, b in rngs]
        # one box per link batch: the nearest links, then the second links
        # of the blocked ones, whose second node alone is drawn
        assert len(boxes) == 2 * len(drawn) == 2 * len(asked)
        increments, r2, second = [], [], []
        for k, (r1, (near, both), (rng, b)) in enumerate(zip(drawn, verdicts,
                                                             rngs)):
            idx, r2_k = asked[k]
            assert np.array_equal(idx, np.flatnonzero(near))
            assert rng.exponentials == b + idx.size
            assert np.array_equal(boxes[2 * k], r1)
            assert np.array_equal(boxes[2 * k + 1], r2_k)
            assert not (both & ~near).any()
            increments.append(DEP.lambda_b * math.pi
                              * (r2_k ** 2 - r1[idx] ** 2))
            r2.append(r2_k)
            second.append(both[near])
        r2, second = np.concatenate(r2), np.concatenate(second)
        assert 0.15 < r2.size / 100000 < 0.21
        # the second node lies a unit exponential of pi lambda_b r^2 past
        # the nearest one
        assert stats.kstest(np.concatenate(increments), "expon").pvalue > 0.01
        # the second link sees its own field: blocked at its own length's
        # rate, whatever blocked the nearest one
        for part in np.array_split(np.argsort(r2), 8):
            p = blockage_probability(DEP, r2[part])
            sigma = math.sqrt((p * (1.0 - p)).sum()) / part.size
            assert abs(second[part].mean() - p.mean()) <= 4.0 * sigma

    def test_estimators_count_both_blocked(self):
        hits = sum(int(mcsim._nearest_links_blocked(rng, DEP, b)[1].sum())
                   for rng, b in _batches(20000, 95))
        est = McEstimate.from_hits(hits, 20000)
        assert estimate_timeout(DEP, 20000, 95) == est
        ability = scheme_ability("jsrs", SYS, DEP)
        assert estimate_misalignment(DEP, ability, SYS.tau, 20000,
                                     95)["p_to"] == est

    def test_blocker_free_scenes(self):
        # no nearest link is blocked, so no second field is drawn at all
        dep0 = replace(DEP, lambda_m=0.0, lambda_s=0.0)
        assert timeout_probability(dep0) == 0.0
        assert estimate_timeout(dep0, 2000, 96).mean == 0.0


class TestScatteredCounts:
    @pytest.mark.parametrize("mean", [0.004, 0.5])
    def test_poisson_counts(self, mean):
        _, owner = _scattered_field(np.random.default_rng(93), mean, 200000,
                                    0.0, 1.0)
        counts = np.bincount(owner, minlength=200000)
        assert counts.shape == (200000,)
        n = counts.size
        assert _count_gof(counts, lambda k: n * stats.poisson.pmf(k, mean)) \
            > 1e-3
        # the slots are uniform: both halves hold the same law
        halves = np.split(counts, 2)
        top = 1 if mean < 0.1 else 3  # the last cell, k >= top, expects > 5
        table = [[int((h == k).sum()) for k in range(top)]
                 + [int((h >= top).sum())] for h in halves]
        assert stats.chi2_contingency(table).pvalue > 1e-3


class _TopRng:
    """A generator whose Poisson totals are `n` and whose every uniform is
    the largest one numpy's random() returns, 1 - 2^-53."""

    def __init__(self, n):
        self.n = n

    def poisson(self, mean):
        return self.n

    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)


class TestScatteredPoints:
    """`_scattered_points` splits one uniform U per point into its owner,
    floor(b U), and its position's uniform, b U - floor(b U): owners uniform
    on 0 .. b - 1, positions uniform on [0, 1), the two independent, and
    each slot's count Poisson(mean)."""

    @pytest.mark.parametrize("b", [1, 2, 3, 5, 1469, 8191, 8192, 17094])
    def test_largest_uniform_stays_in_the_last_slot(self, b):
        owner, u = _scattered_points(_TopRng(4), 1.0, b)
        assert owner.tolist() == [b - 1] * 4
        assert np.all((u >= 0.0) & (u < 1.0))

    @pytest.mark.parametrize("b, seed", [(37, 100), (8192, 101)])
    def test_owner_and_position_uniform_and_independent(self, b, seed):
        owner, u = _scattered_points(np.random.default_rng(seed),
                                     200000 / b, b)
        assert owner.dtype.kind == "i" and owner.size > 190000
        assert np.all((owner >= 0) & (owner < b))
        assert np.all((u >= 0.0) & (u < 1.0))
        assert stats.chisquare(np.bincount(owner, minlength=b)).pvalue > 1e-3
        assert stats.kstest(u, "uniform").pvalue > 1e-3
        # 8 owner classes (slot mod 8) against 8 position bins
        table, _, _ = np.histogram2d(owner % 8, u, bins=8,
                                     range=[[0, 8], [0, 1]])
        assert stats.chi2_contingency(table).pvalue > 1e-3

    @pytest.mark.parametrize("mean, b", [(0.5, 8192), (3.0, 9250)])
    def test_poisson_counts_per_slot(self, mean, b):
        owner, _ = _scattered_points(np.random.default_rng(102), mean, b)
        counts = np.bincount(owner, minlength=b)
        assert counts.shape == (b,)
        assert _count_gof(counts, lambda k: b * stats.poisson.pmf(k, mean)) \
            > 1e-3


class TestGroupedSums:
    def test_float_without_values(self):
        sums = _grouped_sums(np.array([]), np.array([], dtype=int), 3)
        sums *= 0.5  # an int64 result cannot take a float update
        assert sums.dtype == np.float64 and sums.tolist() == [0.0] * 3

    def test_sums_per_group(self):
        sums = _grouped_sums(np.array([1.0, 2.0, 4.0]), np.array([0, 2, 0]),
                             3)
        assert sums.tolist() == [5.0, 0.0, 2.0]


@pytest.mark.parametrize("make, match", [
    (lambda: McEstimate(0.5, 0.1, 0), "trials must be >= 1"),
    (lambda: McEstimate(0.5, -0.1, 10), "std_error must be >= 0"),
    (lambda: estimate_blockage(DEP, 0.9, 100, 1), "r >= 2 r_b"),
    (lambda: estimate_timeout(DEP, 999, 1), "at least 1e3 trials"),
], ids=["no_trials", "negative_error", "short_link", "few_trials"])
def test_rejections(make, match):
    with pytest.raises(ValueError, match=match):
        make()


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
        """The Monte-Carlo corridor never blocks a nearest link shorter than
        2 r_b, which the analytic p_err counts as blocked, so the estimator
        reads p_err + p_ve (1 - exp(-4 pi lambda_b r_b^2)), and p_ms with
        it; the gap (0.00244 for 5g, about 1 sigma here) is added to the
        analytic values until one rule for such links serves both sides
        (ROADMAP item 7), when it goes."""
        ability = baseline_5g_ability()
        ests = estimate_misalignment(DEP, ability, SYS.tau, 40000, 14)
        ref = beam_misalignment(DEP, ability, SYS.tau)
        p_ve = speed_underestimate_probability(DEP, ability, SYS.tau)
        gap = -p_ve * math.expm1(-4.0 * math.pi * DEP.lambda_b * DEP.r_b ** 2)
        assert abs(ests["p_err"].mean - (ref.p_err + gap)) \
            <= 3.0 * ests["p_err"].std_error
        assert abs(ests["p_ms"].mean - (ref.p_ms + gap)) \
            <= 3.0 * ests["p_ms"].std_error

    def test_misalignment_reads_one_scene(self):
        # p_to is the timeout draw itself, and p_ms the union of two
        # disjoint events; 2^14 trials keep every frequency exact in binary
        ability = scheme_ability("jsrs", SYS, DEP)
        for trials, seed in ((20000, 14), (2 ** 14, 15)):
            ests = estimate_misalignment(DEP, ability, SYS.tau, trials, seed)
            assert ests["p_to"] == estimate_timeout(DEP, trials, seed)
        assert ests["p_ms"].mean == ests["p_err"].mean + ests["p_to"].mean

    def test_misalignment_trial_floor(self):
        ability = baseline_5g_ability()
        with pytest.raises(ValueError, match="trials must be >= 1"):
            estimate_misalignment(DEP, ability, SYS.tau, 0, 16)
        with pytest.raises(ValueError, match="at least 1e3 trials"):
            estimate_misalignment(DEP, ability, SYS.tau, 999, 16)


def nearest_two(deploy, samples, seed):
    """(r1, r2) of the two nearest nodes as the link estimators draw them,
    `_nearest_distances` over `_batches`."""
    r1, r2 = [], []
    for rng, b in _batches(samples, seed):
        near, second = mcsim._nearest_distances(rng, deploy, b)
        r1.append(near)
        r2.append(second(np.arange(b)))
    return np.concatenate(r1), np.concatenate(r2)


class TestNearestTwo:
    def test_ordering(self):
        r1, r2 = nearest_two(DEP, 5000, 40)
        assert np.all(r1 <= r2)

    def test_joint_density(self):
        # on the window oracle: the library sampler is the joint law itself
        assert joint_distance_gof(*window_distances(30000, 41), 8) > 0.01

    def test_matches_window_oracle(self):
        # two-sample KS of the exact sampler against the window draw
        r1, r2 = nearest_two(DEP, 40000, 42)
        w1, w2 = window_distances(40000, 43)
        for a, b in ((r1, w1), (r2, w2), (r2 ** 2 - r1 ** 2, w2 ** 2 - w1 ** 2)):
            assert stats.ks_2samp(a, b).pvalue > 0.01

    def test_empty_node_field(self):
        # used to divide by zero; the exponential draw would return inf
        dep0 = replace(DEP, lambda_b=0.0)
        with pytest.raises(ValueError, match="lambda_b > 0"):
            nearest_two(dep0, 100, 44)
        with pytest.raises(ValueError, match="lambda_b > 0"):
            estimate_timeout(dep0, 1000, 44)

    def test_batches_are_spawn_children(self):
        # batch k's generator is child k of SeedSequence(seed).spawn, though
        # each is seeded only as its batch starts
        batches = list(_batches(100 * 37 + 5, 46, 37))
        assert len(batches) == 101 and batches[-1][1] == 5
        children = np.random.SeedSequence(46).spawn(101)
        for k in (0, 50, 100):
            assert batches[k][0].bit_generator.state == np.random.default_rng(
                children[k]).bit_generator.state

    def test_trials_must_be_positive(self):
        # 0 trials used to die in numpy's concatenate or in hits / trials
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trials must be >= 1"):
                list(_batches(trials, 45))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            nearest_two(DEP, 0, 45)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            estimate_blockage(DEP, 52.0, 0, 45)


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

    def test_scaled_sinr_frequency(self):
        # alignment is not drawn: the estimate is the SINR frequency p_cm
        # and its binomial standard error, each times the analytic 1 - p_ms
        ability = scheme_ability("jsrs", SYS, DEP)
        args = (DEP, BUD, SYS, ability, 20.0, 10 ** 0.5, 20000, 52)
        hits, p_ms = mcsim._cm_hits(*args, "theorem", None)
        assert p_ms == beam_misalignment(DEP, ability, SYS.tau).p_ms > 0.0
        p = hits / 20000
        assert 0.0 < p < 1.0
        est = estimate_coverage(*args)
        assert est.mean == (1.0 - p_ms) * p
        assert est.std_error == (1.0 - p_ms) * math.sqrt(p * (1 - p) / 20000)
        assert est.trials == 20000

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

    @pytest.mark.parametrize("dep, r1, threshold, mode", [
        (DEP, 0.3, 1.0, "theorem"),
        (DEP, 20.0, 0.0, "theorem"),
        (DEP, 20.0, -1.0, "derivation"),
        (DEP, 20.0, 1.0, "nonsense"),
        (replace(DEP, n_b=2048, n_m=2048), 20.0, 1.0, "theorem"),
    ], ids=["r1_inside_2rb", "zero_threshold", "negative_threshold",
            "unknown_mode", "burst_exceeds_tau"])
    def test_rejects_what_the_analytic_side_rejects(self, dep, r1, threshold,
                                                    mode):
        # the burst case (duty n_b t_ssb / tau = 1.83) used to return 0.95
        # where the analytic sweep weight raises
        bud = LinkBudget.from_params(SYS, dep)
        ability = scheme_ability("perfect", SYS, dep)
        with pytest.raises(ValueError):
            coverage_probability(CoverageQuery(r1, threshold, mode), bud, dep,
                                 SYS, ability)
        with pytest.raises(ValueError):
            estimate_coverage(dep, bud, SYS, ability, r1, threshold, 100, 1,
                              lower_bound_mode=mode)

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
        # (lambda_m + lambda_s) 2 r_b (r - 2 r_b) per candidate.  Lossless
        # at 20 dB, every aligned trial holding a marked node stays open
        # between the interference bounds and reaches the corridor test
        dep = replace(DEP, n_b=8, n_m=8)
        bud = replace(LinkBudget.from_params(SYS, dep), k_abs=0.0)
        r1, r_b = 20.0, dep.r_b
        scenes = []

        def record(obs_x, obs_y, counts, bs_x, bs_y, r_b):
            scenes.append((obs_x[:counts[0]], obs_y[:counts[0]], bs_x, bs_y))
            return _blocked_bulk(obs_x, obs_y, counts, bs_x, bs_y, r_b)

        monkeypatch.setattr(mcsim, "_blocked_bulk", record)
        estimate_coverage(dep, bud, SYS, scheme_ability("jsrs", SYS, dep), r1,
                          100.0, 4000, 58, window_radius=150.0)
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
            r12, a12 = _nearest_two_window(rng, DEP, b)
            ends = r12 * np.exp(1j * a12)  # link end points as x + iy
            if quantity == "p_err":
                ends = ends[:, :1]
        radii = np.abs(ends).max(axis=1) + DEP.r_b
        field = _obstacle_field(rng, density, radii)
        blocked = np.ones(b, dtype=bool)
        for k in range(ends.shape[1]):
            if k:  # each link of the timeout event has its own field
                field = _obstacle_field(rng, density, radii)
            blocked &= _blocked_bulk(*field, ends[:, k].real, ends[:, k].imag,
                                     DEP.r_b)
        if quantity == "p_err":  # a sensing error needs an unblocked link
            blocked = ~blocked
        hits += int((event & blocked).sum())
    return McEstimate.from_hits(hits, trials)


class TestWholeDiscOracle:
    """The box draws against whole-disc draws at fixed seeds."""

    @staticmethod
    def _agree(est, ref):
        assert abs(est.mean - ref.mean) \
            <= 4.0 * math.hypot(est.std_error, ref.std_error)

    def test_blockage(self):
        self._agree(estimate_blockage(DEP, 52.0, 100000, 60),
                    _whole_disc("blockage", 40000, 61))

    def test_timeout_independent(self):
        self._agree(estimate_timeout(DEP, 100000, 62),
                    _whole_disc("timeout", 100000, 63))

    def test_p_err(self):
        ability = scheme_ability("jsrs", SYS, DEP)
        ests = estimate_misalignment(DEP, ability, SYS.tau, 100000, 66)
        self._agree(ests["p_err"], _whole_disc("p_err", 100000, 67, ability))


# nodes per batch of the whole-window oracle, the coverage estimator's
# budget when the oracle was written, so that its batches, and so its
# stream, stay as they were
_WINDOW_NODES = 2_700_000


def whole_window_coverage(deploy, budget, system, ability, r1, threshold,
                          trials, seed, lower_bound_mode="theorem",
                          window_radius=None):
    """`estimate_coverage` as it sampled before the near/far split: every
    node's radius and weight drawn on the whole window."""
    r_lo = lower_bound_radius(lower_bound_mode, deploy, r1)
    r_win = (default_window_radius(system, deploy, r1) if window_radius is None
             else window_radius)
    p_ms = beam_misalignment(deploy, ability, system.tau).p_ms
    q_mark = sweep_weight(deploy, system, p_ms)
    c_abs = reradiation_constant(budget, deploy)
    margin = received_power(budget, r1) / threshold - \
        effective_noise(budget, deploy, system, r1)
    span = r_win ** 2 - r_lo ** 2
    area = math.pi * span
    size = max(1, int(_WINDOW_NODES // max(deploy.lambda_b * area, 1.0)))
    hits = 0
    for rng, b in _batches(trials, seed, size):
        counts = rng.poisson(deploy.lambda_b * area, size=b)
        ends = np.cumsum(counts)
        starts = ends - counts
        rad = np.sqrt(r_lo ** 2 + span * rng.random(int(ends[-1])))
        g = np.exp(-budget.k_abs * rad) / rad ** 2
        i_eff = np.zeros(b)
        busy = counts > 0
        i_eff[busy] = c_abs * np.add.reduceat(g, starts[busy])
        # trial t's first m[t] nodes are its marked candidates
        m = rng.binomial(counts, q_mark)
        aligned = rng.random(b) >= p_ms
        for t, c in zip(np.flatnonzero(m), m[m > 0]):
            r_t = rad[starts[t]:ends[t]]
            ang = 2.0 * math.pi * rng.random(r_t.size)
            x, y = r_t * np.cos(ang), r_t * np.sin(ang)
            others = _ppp_disc(rng, deploy.obstacle_density,
                               r_t[:c].max() + deploy.r_b)
            obs_x = np.concatenate([x, [r1], others[:, 0]])
            obs_y = np.concatenate([y, [0.0], others[:, 1]])
            blocked = _blocked_bulk(np.tile(obs_x, c), np.tile(obs_y, c),
                                    np.full(c, obs_x.size), x[:c], y[:c],
                                    deploy.r_b)
            r_j = r_t[:c][~blocked]
            i_eff[t] += budget.a * np.sum(np.exp(-budget.k_abs * r_j) / r_j ** 2)
        hits += int((aligned & (i_eff < margin)).sum())
    return McEstimate.from_hits(hits, trials)


def _agree(est, ref, sigmas):
    assert abs(est.mean - ref.mean) \
        <= sigmas * math.hypot(est.std_error, ref.std_error)


DEP8 = replace(DEP, n_b=8, n_m=8)
BUD8 = LinkBudget.from_params(SYS, DEP8)
DENSE = replace(DEP, lambda_b=2e-2)
# n_b = n_m = 8, lossless at 20 dB: about a quarter of the trials hold a
# marked node whose interference may cross the margin
BUSY = replace(DEP8, lambda_b=5e-3)
BUSY_BUD = replace(LinkBudget.from_params(SYS, BUSY), k_abs=0.0)


class TestWholeWindowOracle:
    """The near/far split against whole-window draws at fixed seeds."""

    @pytest.mark.parametrize("dep, bud, scheme, r1, db, mode, window, trials", [
        (DEP, BUD, "jsrs", 20.0, 5.0, "theorem", None, 40000),
        (DEP, BUD, "5g", 10.0, 0.0, "derivation", None, 40000),
        (replace(DEP, lambda_m=0.0, lambda_s=0.0), BUD, "perfect", 20.0, 5.0,
         "theorem", 500.0, 16384),
        (DEP8, BUD8, "jsrs", 20.0, -10.0, "theorem", None, 20000),
        (DENSE, LinkBudget.from_params(SYS, DENSE), "jsrs", 20.0, 5.0,
         "theorem", None, 20000),
        (DEP, replace(BUD, k_abs=0.0), "jsrs", 20.0, 5.0, "theorem", None,
         40000),
        (DEP, BUD, "jsrs", 38.0, 5.0, "theorem", None, 20000),
        (DEP, BUD, "5g", 20.0, 5.0, "theorem", None, 20000),
        (DEP, BUD, "jsrs", 5.0, 15.0, "derivation", None, 20000),
        (DEP, BUD, "jsrs", 38.0, 15.0, "theorem", None, 20000),
    ], ids=["urban", "derivation", "open_field", "narrow_beams", "dense",
            "lossless", "far_serving", "5g", "derivation_near",
            "no_margin"])
    def test_agrees(self, dep, bud, scheme, r1, db, mode, window, trials):
        ability = scheme_ability(scheme, SYS, dep)
        thr = 10.0 ** (db / 10.0)
        est = estimate_coverage(dep, bud, SYS, ability, r1, thr, trials, 70,
                                lower_bound_mode=mode, window_radius=window)
        ref = whole_window_coverage(dep, bud, SYS, ability, r1, thr, trials,
                                    71, lower_bound_mode=mode,
                                    window_radius=window)
        _agree(est, ref, 3.0)


def _split_inputs(dep, bud, scheme, r1, db, mode):
    """`_split_radius`'s arguments as `estimate_coverage` forms them."""
    p_ms = beam_misalignment(dep, scheme_ability(scheme, SYS, dep), SYS.tau).p_ms
    margin = received_power(bud, r1) / 10.0 ** (db / 10.0) \
        - effective_noise(bud, dep, SYS, r1)
    return (reradiation_constant(bud, dep), dep.lambda_b, bud.k_abs,
            lower_bound_radius(mode, dep, r1),
            default_window_radius(SYS, dep, r1), margin)


def _far_bound(c_abs, lambda_b, k_abs, r_lo, r_out, margin, r):
    """The absorption bound of the ring (r, r_out) over the margin."""
    return c_abs * lambda_b * math.pi * (r_out ** 2 - r ** 2) \
        * math.exp(-k_abs * r) / r ** 2 / margin


def _zone_radii(*args):
    """(r_in, r_near) as `estimate_coverage` splits its unmarked nodes."""
    c_abs, lambda_b, k_abs, r_lo, r_win, margin = args
    r_near = _split_radius(*args)
    return _split_radius(c_abs, lambda_b, k_abs, r_lo, r_near, margin,
                         mcsim._MID_SLACK), r_near


def _disc_bound(c_abs, lambda_b, k_abs, r_lo, r_out, margin, r):
    """The wider bound of the ring (r, r_out), its whole disc out to r_out
    at the weight of r, over the margin."""
    return c_abs * lambda_b * math.pi * r_out ** 2 \
        * math.exp(-k_abs * r) / r ** 2 / margin


class TestSplitRadius:
    """The near/far split is a radius whose far absorption bound stays
    within a fixed share of the margin, and the inner/mid split one whose
    mid bound does: each where the ring's wider disc bound meets its
    share, clamped to the ring."""

    @pytest.mark.parametrize("dep, bud, scheme, r1, db, mode", [
        (DEP, BUD, "jsrs", 20.0, 5.0, "theorem"),
        (DEP, BUD, "5g", 10.0, 0.0, "derivation"),
        (DEP, BUD, "jsrs", 38.0, 5.0, "theorem"),
        (DEP, BUD, "jsrs", 20.0, 42.0, "theorem"),
        (DENSE, LinkBudget.from_params(SYS, DENSE), "jsrs", 20.0, 5.0,
         "theorem"),
    ], ids=["urban", "derivation", "far_serving", "thin_margin", "dense"])
    def test_smallest_radius_within_the_bound(self, dep, bud, scheme, r1,
                                              db, mode):
        args = _split_inputs(dep, bud, scheme, r1, db, mode)
        r_lo, r_win = args[3], args[4]
        r = _split_radius(*args)
        assert r_lo < r <= r_win
        assert _far_bound(*args, r) <= mcsim._SPLIT_SLACK
        if r < r_win:
            assert _disc_bound(*args, r) == pytest.approx(
                mcsim._SPLIT_SLACK, rel=1e-12)
        r_in, r_near = _zone_radii(*args)
        assert r_near == r and r_lo <= r_in <= r_near
        mid = args[:4] + (r_near, args[5])
        assert _far_bound(*mid, r_in) <= mcsim._MID_SLACK
        if r_lo < r_in < r_near:
            assert _disc_bound(*mid, r_in) == pytest.approx(
                mcsim._MID_SLACK, rel=1e-12)

    def test_lower_bound_without_margin(self):
        c_abs, lambda_b, k_abs, r_lo, r_win, margin = _split_inputs(
            DEP, BUD, "jsrs", 38.0, 15.0, "theorem")
        assert margin < 0.0
        for m in (margin, 0.0):
            assert _split_radius(c_abs, lambda_b, k_abs, r_lo, r_win, m) == r_lo
            assert _zone_radii(c_abs, lambda_b, k_abs, r_lo, r_win, m) \
                == (r_lo, r_lo)

    def test_lower_bound_without_absorption(self):
        # k = 0 leaves no absorption noise: every unmarked node is far
        args = _split_inputs(DEP, replace(BUD, k_abs=0.0), "jsrs", 20.0, 5.0,
                             "theorem")
        assert args[0] == 0.0 and args[5] > 0.0
        assert _split_radius(*args) == args[3]
        assert _zone_radii(*args) == (args[3], args[3])

    def test_lower_bound_where_the_bound_holds(self):
        args = _split_inputs(DEP, BUD, "jsrs", 20.0, -10.0, "derivation")
        assert _far_bound(*args, args[3]) <= mcsim._SPLIT_SLACK
        assert _split_radius(*args) == args[3]


class TestFarCap:
    """A first-stage trial bounds its undrawn far count by `_far_cap`; the
    count exceeds it with probability below 2^-64, and the cap is the
    ceiling of the sub-gamma tail point."""

    @pytest.mark.parametrize("mean", np.logspace(-6.0, 6.0, 25))
    def test_tail_below_two_to_the_minus_64(self, mean):
        cap, tail = mcsim._far_cap(mean), 64.0 * math.log(2.0)
        assert mean <= cap <= mean + math.sqrt(2.0 * tail * mean) \
            + tail / 3.0 + 1.0
        assert special.pdtrc(cap, mean) < 2.0 ** -64

    def test_no_far_nodes(self):
        assert mcsim._far_cap(0.0) == 0


def _urban_zones():
    """(r_lo, r_in, r_near, r_win) and the expected unmarked inner, mid and
    far nodes per trial at the urban point (jsrs, 20 m, 5 dB)."""
    args = _split_inputs(DEP, BUD, "jsrs", 20.0, 5.0, "theorem")
    radii = (args[3],) + _zone_radii(*args) + (args[4],)
    p_ms = beam_misalignment(DEP, scheme_ability("jsrs", SYS, DEP),
                             SYS.tau).p_ms
    unmarked = (1.0 - sweep_weight(DEP, SYS, p_ms)) * DEP.lambda_b * math.pi
    return radii, tuple(unmarked * (r_out ** 2 - r_in ** 2)
                        for r_in, r_out in zip(radii, radii[1:]))


class _RingCountRng:
    """A generator that records each per-trial Poisson draw (a `poisson`
    call with a size, as `_cm_hits` draws its ring counts) as (mean,
    counts) in `drawn`."""

    def __init__(self, rng, drawn):
        self.rng, self.drawn = rng, drawn

    def poisson(self, lam, size=None):
        out = self.rng.poisson(lam, size=size)
        if size is not None:
            self.drawn.append((lam, out))
        return out

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _spy_rings(monkeypatch):
    """Lists that `_cm_hits` fills, in draw order, with (mean, counts) of
    every ring count draw and (r_in, r_out, radii) of every ring radii
    draw; `_ppp_disc`'s radii (r_in = 0) are left out."""
    counts, radii = [], []
    batches, annulus_radii = mcsim._batches, mcsim._annulus_radii

    def spied_batches(*args):
        for rng, b in batches(*args):
            yield _RingCountRng(rng, counts), b

    def ring_radii(rng, n, r_in, r_out):
        r = annulus_radii(rng, n, r_in, r_out)
        if r_in > 0.0:
            radii.append((r_in, r_out, r))
        return r

    monkeypatch.setattr(mcsim, "_batches", spied_batches)
    monkeypatch.setattr(mcsim, "_annulus_radii", ring_radii)
    return counts, radii


def _poisson_gof(counts, mean, cells=8):
    """Chi-square p-value of counts against Poisson(mean), in cells cut at
    the law's quantiles."""
    edges = np.unique(stats.poisson.ppf(np.linspace(0, 1, cells + 1)[1:-1],
                                        mean))
    obs = np.bincount(np.searchsorted(edges, counts), minlength=edges.size + 1)
    cdf = np.concatenate([[0.0], stats.poisson.cdf(edges, mean), [1.0]])
    return stats.chisquare(obs, np.diff(cdf) * counts.size).pvalue


class TestScatteredFields:
    """A coverage batch draws its unmarked inner and its marked nodes each as
    one Poisson total whose points fall in uniform trials.  The unmarked
    rings past the inner one, mid then far, are drawn for open trials only:
    the trials bounds s leave open draw ring s's per-trial Poisson counts
    and ring s - 1's radii, in trial order; each trial still open is handed
    exactly the radii it owns."""

    def test_near_field_law(self, monkeypatch):
        fields = []

        def field(rng, mean, b, r_in, r_out):
            fields.append((mean, b, r_in, r_out)
                          + scattered(rng, mean, b, r_in, r_out))
            return fields[-1][4:]

        scattered = mcsim._scattered_field
        monkeypatch.setattr(mcsim, "_scattered_field", field)
        counts, _ = _spy_rings(monkeypatch)
        # batches of a few trials, so that a trial no point can fall in shows
        monkeypatch.setattr(mcsim, "_NODE_BUDGET", 60)
        ability = scheme_ability("jsrs", SYS, DEP)
        estimate_coverage(DEP, BUD, SYS, ability, 20.0, 10 ** 0.5, 20000, 97)
        (r_lo, r_in, r_near, r_win), (inner_mean, mid_mean, far_mean) = \
            _urban_zones()
        assert r_lo < r_in < r_near
        # a batch draws its inner and marked nodes, then the mid counts of
        # the trials its first bounds leave open and the far counts of those
        # its second bounds leave open
        inner, marked = fields[0::2], fields[1::2]
        mid, far = counts[0::2], counts[1::2]
        assert len(inner) == len(marked) == len(mid) == len(far)
        # the budget counts an inner or marked node whole and a trial's own
        # arrays as _TRIAL_NODES of them, and no ring node:
        # 60 // (0.58 + 0.004 + 1.2) = 33 trials a batch
        assert max(f[1] for f in inner) == 33
        assert sum(f[1] for f in inner) == 20000
        for f in inner:
            assert f[0] == pytest.approx(inner_mean, rel=1e-12)
            assert f[2:4] == (r_lo, r_in)
        assert all(f[2:4] == (r_lo, r_win) for f in marked)
        for (m_mid, c_mid), (m_far, c_far), g in zip(mid, far, inner):
            assert m_mid == pytest.approx(mid_mean, rel=1e-12)
            assert m_far == pytest.approx(far_mean, rel=1e-12)
            assert c_far.size <= c_mid.size <= g[1]
        n = np.concatenate([np.bincount(f[-1], minlength=f[1])
                            for f in inner])
        assert _count_gof(n, lambda k: n.size
                          * stats.poisson.pmf(k, inner_mean)) > 1e-3
        # r^2 is uniform on [r_lo^2, r_in^2]
        r2 = np.concatenate([f[4] for f in inner]) ** 2
        assert stats.kstest(r2, "uniform", args=(
            r_lo ** 2, r_in ** 2 - r_lo ** 2)).pvalue > 1e-3

    def test_ring_counts_only_for_open_trials(self, monkeypatch):
        decided = []

        def decide(lo, hi, margin):
            decided.append((lo, hi) + decisions(lo, hi, margin))
            return decided[-1][2:]

        decisions = mcsim._bound_decisions
        monkeypatch.setattr(mcsim, "_bound_decisions", decide)
        counts, _ = _spy_rings(monkeypatch)
        estimate_coverage(DEP, BUD, SYS, scheme_ability("jsrs", SYS, DEP),
                          20.0, 10 ** 0.5, 100000, 95)
        (_, r_in, r_near, _), (_, mid_mean, far_mean) = _urban_zones()
        # one node of a ring at the weight of its inner radius, and the
        # first bounds' cap of its count
        step_mid, step_far = (reradiation_constant(BUD, DEP)
                              * math.exp(-BUD.k_abs * r) / r ** 2
                              for r in (r_in, r_near))
        cap_mid, cap_far = mcsim._far_cap(mid_mean), mcsim._far_cap(far_mean)
        assert 3 * len(counts) == 2 * len(decided) > 0
        mids = []
        for k in range(len(counts) // 2):
            (lo, hi, _, open_), (lo_2, hi_2, _, open_2), (lo_3, hi_3, _, _) = \
                decided[3 * k:3 * k + 3]
            (m_mid, mid), (m_far, far) = counts[2 * k:2 * k + 2]
            assert m_mid == pytest.approx(mid_mean, rel=1e-12)
            assert m_far == pytest.approx(far_mean, rel=1e-12)
            # drawn for the open trials alone, which the next bounds read
            assert mid.size == int(open_.sum()) == lo_2.size
            assert far.size == int(open_2.sum()) == lo_3.size
            assert np.array_equal(lo_2, lo[open_])
            # each open trial's next bounds hold its own count of the ring
            # where the last held the cap, and the third no mid count, its
            # mid nodes being in lo with their radii
            np.testing.assert_allclose(
                hi_2 - lo_2, (hi - lo)[open_] + (mid - cap_mid) * step_mid,
                rtol=1e-9)
            np.testing.assert_allclose(
                hi_3 - lo_3, (hi_2 - lo_2)[open_2] - mid[open_2] * step_mid
                + (far - cap_far) * step_far, rtol=1e-9)
            mids.append(mid)
        mids = np.concatenate(mids)
        assert 1000 < mids.size < 0.1 * 100000
        assert _count_gof(mids, lambda k: mids.size
                          * stats.poisson.pmf(k, mid_mean)) > 1e-3

    def test_ring_radii_drawn_late(self, monkeypatch):
        # the first and second bounds open every trial, so that all of them
        # draw their mid counts, mid radii and far counts; the third opens
        # every 50th trial besides those it leaves open, which draw their
        # far radii
        calls = []

        def decide(lo, hi, margin):
            calls.append((lo.size,) + decisions(lo, hi, margin))
            if len(calls) % 3:
                return np.zeros(lo.size, bool), np.ones(lo.size, bool)
            hit, open_ = calls[-1][1:]
            hit[::50], open_[::50] = False, True
            return hit, open_

        decisions = mcsim._bound_decisions
        monkeypatch.setattr(mcsim, "_bound_decisions", decide)
        counts, radii = _spy_rings(monkeypatch)
        estimate_coverage(DEP, BUD, SYS, scheme_ability("jsrs", SYS, DEP),
                          20.0, 10 ** 0.5, 20000, 99)
        (_, r_in, r_near, r_win), (_, mid_mean, far_mean) = _urban_zones()
        assert len(radii) == len(counts) == 2 * len(calls) // 3
        assert sum(c[0] for c in calls[1::3]) \
            == sum(c[0] for c in calls[2::3]) == 20000
        for k in range(len(calls) // 3):
            (_, mid), (_, far) = counts[2 * k:2 * k + 2]
            (*ring_mid, r_mid), (*ring_far, r_far) = radii[2 * k:2 * k + 2]
            assert ring_mid == [r_in, r_near] and ring_far == [r_near, r_win]
            # the radii of every trial's mid nodes, once they are counted,
            # and the far ones of the trials the third bounds leave open
            assert mid.size == far.size == calls[3 * k + 2][0]
            assert r_mid.size == mid.sum()
            assert r_far.size == far[calls[3 * k + 2][2]].sum()
        mid, far = (np.concatenate([c for _, c in counts[j::2]])
                    for j in (0, 1))
        assert mid.sum() > 0.9 * mid_mean * 20000
        assert _poisson_gof(far, far_mean) > 1e-3
        # r^2 is uniform on each ring
        for (r_a, r_b), drawn in (((r_in, r_near), radii[0::2]),
                                  ((r_near, r_win), radii[1::2])):
            r2 = np.concatenate([r for _, _, r in drawn]) ** 2
            assert r2.size > 10000
            assert stats.kstest(r2, "uniform", args=(
                r_a ** 2, r_b ** 2 - r_a ** 2)).pvalue > 1e-3

    @pytest.mark.parametrize("dep, bud, db, window, trials", [
        (BUSY, BUSY_BUD, 20.0, 150.0, 8000),
        (DEP8, BUD8, -10.0, None, 20000),
    ], ids=["busy", "narrow_beams"])
    def test_open_trials_get_their_own_radii(self, monkeypatch, dep, bud, db,
                                             window, trials):
        fields, opened, handed = [], [], []

        def field(rng, mean, b, r_in, r_out):
            fields.append(scattered(rng, mean, b, r_in, r_out))
            return fields[-1]

        def decide(lo, hi, margin):
            hit, open_ = decisions(lo, hi, margin)
            opened.append(open_)
            return hit, open_

        def resolve(rng, deploy, budget, r1, lo, unmarked, marked):
            handed.append((unmarked, marked))
            return resolve_whole(rng, deploy, budget, r1, lo, unmarked, marked)

        scattered, decisions = mcsim._scattered_field, mcsim._bound_decisions
        resolve_whole = mcsim._resolve
        monkeypatch.setattr(mcsim, "_scattered_field", field)
        monkeypatch.setattr(mcsim, "_bound_decisions", decide)
        monkeypatch.setattr(mcsim, "_resolve", resolve)
        counts, radii = _spy_rings(monkeypatch)
        estimate_coverage(dep, bud, SYS, scheme_ability("jsrs", SYS, dep),
                          20.0, 10.0 ** (db / 10.0), trials, 98,
                          window_radius=window)
        n_open = n_inner = n_mid = n_marked = 0
        for k, (unmarked, marked) in enumerate(handed):
            # the trials each stage of bounds left open, as batch indices
            first = np.flatnonzero(opened[3 * k])
            second = first[opened[3 * k + 1]]
            o = second[opened[3 * k + 2]]
            assert len(unmarked) == len(marked) == o.size
            (rad, owner), (r_m, m_owner) = fields[2 * k], fields[2 * k + 1]
            # a ring's radii are drawn in trial order, each open trial's as
            # many as it counted
            (_, mid), (_, far) = counts[2 * k:2 * k + 2]
            mid, far = mid[opened[3 * k + 1]], far[opened[3 * k + 2]]
            r_mid, r_far = radii[2 * k][2], radii[2 * k + 1][2]
            assert r_mid.size == mid.sum() and r_far.size == far.sum()
            mid_t = dict(zip(second, np.split(r_mid, np.cumsum(mid)[:-1])))
            far_t = np.split(r_far, np.cumsum(far)[:-1])
            for t, far_r, unmarked_t, marked_t in zip(o, far_t, unmarked,
                                                      marked):
                inner_t = rad[owner == t]
                assert np.array_equal(unmarked_t, np.concatenate(
                    [inner_t, mid_t[t], far_r]))
                assert np.array_equal(marked_t, r_m[m_owner == t])
                n_inner += inner_t.size
                n_mid += mid_t[t].size
                n_marked += marked_t.size
            n_open += o.size
        assert n_marked > 0
        if dep is BUSY:
            assert n_open > 0.15 * trials
        else:  # BUSY is lossless, so it draws no inner or mid node
            assert n_inner > 0 and n_mid > 0


class TestDecisionRule:
    """Trials are decided from interference bounds before their far field
    and corridors are drawn; only the open ones are drawn whole."""

    def test_open_trials_resolve_as_the_oracle(self, monkeypatch):
        opened = []

        def spy(rng, deploy, budget, r1, lo, *rest):
            opened.append(lo.size)
            return resolve(rng, deploy, budget, r1, lo, *rest)

        resolve = mcsim._resolve
        monkeypatch.setattr(mcsim, "_resolve", spy)
        ability = scheme_ability("jsrs", SYS, BUSY)
        est = estimate_coverage(BUSY, BUSY_BUD, SYS, ability, 20.0, 100.0,
                                8000, 72, window_radius=150.0)
        assert sum(opened) > 0.15 * 8000
        ref = whole_window_coverage(BUSY, BUSY_BUD, SYS, ability, 20.0, 100.0,
                                    8000, 73, window_radius=150.0)
        _agree(est, ref, 3.0)

    def test_bounds_decide_as_the_full_draw(self, monkeypatch):
        # every trial is opened by all three stages and drawn whole; the
        # ones any stage's bounds decided must come out the same, each
        # between that stage's bounds
        decided, resolved, corridors = [], [], []

        def decide(lo, hi, margin):
            hit, open_ = bound_decisions(lo, hi, margin)
            decided.append((lo, hi, hit, open_, margin))
            return np.zeros_like(hit), np.ones_like(hit)

        def resolve(*args):
            resolved.append(resolve_whole(*args))
            return resolved[-1]

        def blocked(*args):
            corridors.append(args[2].size)
            return _blocked_bulk(*args)

        bound_decisions, resolve_whole = mcsim._bound_decisions, mcsim._resolve
        monkeypatch.setattr(mcsim, "_bound_decisions", decide)
        monkeypatch.setattr(mcsim, "_resolve", resolve)
        monkeypatch.setattr(mcsim, "_blocked_bulk", blocked)
        estimate_coverage(DEP8, BUD8, SYS, scheme_ability("jsrs", SYS, DEP8),
                          20.0, 0.1, 4000, 74)
        assert len(decided) == 3 * len(resolved)
        counts = []
        for stage in (0, 1, 2):  # the first bounds, the second, the third
            hits = misses = 0
            for (lo, hi, hit, open_, margin), i_eff in zip(decided[stage::3],
                                                           resolved):
                assert lo.size == i_eff.size
                assert np.all(lo <= i_eff)
                assert np.all(i_eff <= hi * (1.0 + 1e-12))
                assert np.all(i_eff[hit] < margin)
                missed = ~hit & ~open_
                assert np.all(i_eff[missed] >= margin)
                hits += int(hit.sum())
                misses += int(missed.sum())
            counts.append((hits, misses))
        # each kind of decision is exercised in each stage, and so are the
        # corridors; the mid counts let the second bounds find more hits
        # than the first, on the same lower bounds, and the third decide
        # more than the second
        assert all(h > 100 and m > 100 for h, m in counts)
        assert counts[1][0] > counts[0][0] and counts[1][1] == counts[0][1]
        assert counts[2][0] > counts[1][0] and counts[2][1] >= counts[1][1]
        assert sum(corridors) > 500


class TestEdgeCells:
    """Cells where a ring is empty: without a margin every unmarked node is
    far and every trial misses on its first bounds; without absorption no
    node adds noise and every unmarked node is far again.  Draws of no
    points, or over no trials, come back empty."""

    def _spied(self, monkeypatch, *args, **kwargs):
        """(hits, [(mean, b, owners)] of every scattered draw, [(mean,
        counts)] of every ring count draw, [open mask] of every stage of
        bounds) of one `_cm_hits` call."""
        owners, opened = [], []

        def scattered_points(rng, mean, b):
            drawn = draw_points(rng, mean, b)
            owners.append((mean, b, drawn[0]))
            return drawn

        def decide(lo, hi, margin):
            hit, open_ = decisions(lo, hi, margin)
            opened.append(open_)
            return hit, open_

        decisions, draw_points = mcsim._bound_decisions, mcsim._scattered_points
        monkeypatch.setattr(mcsim, "_scattered_points", scattered_points)
        monkeypatch.setattr(mcsim, "_bound_decisions", decide)
        counts, radii = _spy_rings(monkeypatch)
        hits = mcsim._cm_hits(*args, **kwargs)[0]
        for mean, b, own in owners:
            if mean == 0.0 or b == 0:
                assert own.size == 0 and own.dtype.kind == "i"
        for mean, c in counts:
            assert c.dtype.kind == "i" and (mean > 0.0 or not c.any())
        assert len(radii) == len(counts)
        for (_, c), (_, _, r) in zip(counts, radii):
            assert r.size <= c.sum()
        return hits, owners, counts, opened

    def test_every_trial_misses(self, monkeypatch):
        args = _split_inputs(DEP, BUD, "5g", 38.0, 15.0, "theorem")
        assert args[5] <= 0.0 and _zone_radii(*args) == (args[3], args[3])
        hits, owners, counts, opened = self._spied(
            monkeypatch, DEP, BUD, SYS, scheme_ability("5g", SYS, DEP), 38.0,
            10.0 ** 1.5, 20000, 41, "theorem", None)
        assert hits == 0
        # the first bounds open nothing, so no ring count is drawn
        assert not any(o.any() for o in opened[0::3])
        assert [c.size for _, c in counts] == [0] * 2 * len(opened[0::3])

    def test_lossless(self, monkeypatch):
        bud = replace(BUD, k_abs=0.0)
        ability = scheme_ability("jsrs", SYS, DEP)
        hits, owners, counts, opened = self._spied(
            monkeypatch, DEP, bud, SYS, ability, 20.0, 10 ** 0.5, 20000, 42,
            "theorem", None)
        # no inner or mid node: only the marked draw holds points, and the
        # first bounds open only trials holding a marked node, as every other
        # one sees no interference at all and is a hit
        inner, marked, mid = owners[0::2], owners[1::2], counts[0::2]
        assert all(m == 0.0 for m, _, _ in inner)
        assert all(m == 0.0 for m, _ in mid)
        n_marked = 0
        for (_, b, own), (_, c), open_ in zip(marked, mid, opened[0::3]):
            holding = np.bincount(own, minlength=b) > 0
            assert c.size == open_.sum() and not (open_ & ~holding).any()
            n_marked += int(holding.sum())
        assert sum(c.size for _, c in mid) > 0
        assert 20000 - n_marked <= hits < 20000

    def test_empty_draws(self):
        rng = np.random.default_rng(5)
        for mean, b in ((0.0, 0), (4.0, 0), (0.0, 100)):
            counts = rng.poisson(mean, size=b)
            assert counts.shape == (b,) and counts.dtype.kind == "i"
            assert not counts.any()
            own, u = _scattered_points(rng, mean, b)
            assert own.size == u.size == 0 and own.dtype.kind == "i"
        for r_in, r_out in ((10.0, 20.0), (10.0, 10.0)):
            rad = mcsim._annulus_radii(rng, 0, r_in, r_out)
            assert rad.shape == (0,) and rad.dtype == np.float64


class TestPinnedStream:
    """Estimates recorded at a fixed seed; the sampler's draw order is part
    of the contract, so a refactor must reproduce them exactly.  A change
    that moves the draw order re-records the pins it moves, beside a
    two-tree agreement record (`tools/mc_agreement.py`) showing the law
    unchanged; CHANGES.md keeps each pin's history.  Every derivation trial
    clears the threshold, so that pin holds the miss count at 0 rather than
    the draw order."""

    def test_coverage_urban(self):
        ability = scheme_ability("jsrs", SYS, DEP)
        hits = mcsim._cm_hits(DEP, BUD, SYS, ability, 20.0, 10 ** 0.5, 20000,
                              52, "theorem", None)[0]
        assert hits / 20000 == 0.9435

    def test_coverage_derivation(self):
        ability = scheme_ability("5g", SYS, DEP)
        hits = mcsim._cm_hits(DEP, BUD, SYS, ability, 10.0, 1.0, 20000, 53,
                              "derivation", None)[0]
        assert hits / 20000 == 1.0

    def test_coverage_open_field(self):
        dep0 = replace(DEP, lambda_m=0.0, lambda_s=0.0)
        ability = scheme_ability("perfect", SYS, DEP)
        est = estimate_coverage(dep0, BUD, SYS, ability, 20.0, 10 ** 0.5, 2048, 4,
                                window_radius=500.0)
        assert est.mean == 0.94189453125

    def test_blockage(self):
        assert estimate_blockage(DEP, 52.0, 20000, 3).mean == 0.63665

    def test_timeout(self):
        assert estimate_timeout(DEP, 20000, 9).mean == 0.053

    def test_misalignment(self):
        ests = estimate_misalignment(DEP, scheme_ability("jsrs", SYS, DEP),
                                     SYS.tau, 20000, 14)
        assert ests["p_err"].mean == 0.04215

    def test_window_oracle_stream(self, monkeypatch):
        # the window oracle is the nearest-two draw these were recorded with
        def window(rng, deploy, b):
            r12 = _nearest_two_window(rng, deploy, b)[0]
            return r12[:, 0], lambda idx: r12[idx, 1]

        monkeypatch.setattr(mcsim, "_nearest_distances", window)
        assert estimate_timeout(DEP, 20000, 9).mean == 0.05175
        ests = estimate_misalignment(DEP, scheme_ability("jsrs", SYS, DEP),
                                     SYS.tau, 20000, 14)
        assert ests["p_err"].mean == 0.0409
