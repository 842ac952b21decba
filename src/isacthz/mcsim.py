"""Independent stochastic-geometry Monte-Carlo oracle.

Every analytical quantity in the package has a counterpart here that is
estimated from Poisson point process draws and explicit corridor geometry
rather than from the closed forms.  Estimators are deterministic in
(seed, parameters, trials): work is cut into fixed-size batches, each on
its own substream spawned from the master seed.  A link-estimator batch
holds `_BATCH` trials, a coverage batch about `_NODE_BUDGET` drawn nodes,
each trial's own arrays counted as `_TRIAL_NODES` of them.

Blockage geometry: a link of length r is blocked when some obstacle
centre falls inside the rectangle of width 2 r_b around the segment
whose longitudinal extent is (r_b, r - r_b) (area 2 r_b (r - 2 r_b), the
exact void-probability exponent of the analytic model).  One corridor
test, `_blocked_frame`, serves every estimator: it reads obstacles by
their longitudinal offset in their link's frame, every one of them
already inside the corridor's width.  The link estimators draw their
obstacles in that frame and that width; `_blocked_bulk` turns the
coverage estimator's obstacles into the frame and drops those at
|lateral offset| >= r_b.  An endpoint lies at longitudinal offset 0 or
r and so never blocks its own link.

Only what that test can see is sampled.  By the restriction property,
a PPP's points in a region are Poisson(density * area) uniform draws
independent of the rest of the plane, and by the colouring theorem one
Poisson total over many boxes, each point given a uniform box, is an
independent PPP in every box.  A point's box and its place in it come
from one uniform U (`_scattered_points`): over b boxes, with u = b U, the
box is floor(u) and u - floor(u) is the uniform of its place.  For b a
power of two (every full batch of links) the two are exactly independent
and uniform, the place on the lattice of spacing b 2^-53; otherwise the
one rounding of b U moves a box's probability by about b 2^-53 relative,
and the box is at most b - 1 for every b.  So a batch of links draws its
obstacles as one field on the shared frame box [0, max r] x (-r_b, r_b),
each point owned by a uniform link: each link sees its own field, as the
analytic timeout multiplies the two links' void probabilities, and the
corridor test ignores the points past a link's end.  The box is as wide
as the corridor, so a point's lateral offset never decides a verdict
and is not drawn.  By the mapping theorem, pi lambda_b r^2 over the
nodes is a unit-rate PPP on [0, inf), so a user's nearest node is drawn
exactly from one unit exponential and the second from that plus another:
the link estimators truncate nothing to a window.  A timeout needs both
links blocked and a sensing error an open nearest link, so the second
node, its increment and its link's field, which is independent of the
nearest one's, are drawn only behind a blocked nearest link.  A
misalignment trial reads both of its events, the sensing error and the
timeout, off one such scene.

By independent thinning, a coverage trial's marked nodes (those whose
sweep and orientation marks fire, q_mark of all) and its unmarked ones
are independent PPPs.  Its marked nodes, on the whole window, and its
unmarked inner ones, inside R_in, are each drawn as one Poisson total
per batch whose points each fall in a uniform trial, as a link batch's
obstacles do: a point's owning trial and its radius come from one
uniform, a trial's count or weight sum is one (weighted) bincount over
the owners, and only the trials left open gather the radii they own (a
stable sort by owner).  The unmarked nodes past R_in fall into two
rings, mid (R_in, R) and far (R, window edge): R is the radius where the
far ring's absorption bound, its expected count at the weight of R,
falls to `_SPLIT_SLACK` of the margin, and R_in the one inside it where
the mid ring's bound falls to `_MID_SLACK` of it (`_split_radius`; both
the lower-bound radius when the margin is not positive or without
absorption).  As the weight e^(-k r) / r^2 does not rise with r, a
trial's interference lies between lo, the absorption noise of the nodes
drawn with radii, and hi, which adds every marked node unblocked and
each ring's nodes at the weight of its inner radius.  A trial is a hit
when hi lies below the margin and a miss when lo reaches it.  The bounds
are taken three times, s = 0, 1, 2: the rings before ring s - 1 are in
lo with their radii, ring s - 1 is counted, and the rings past it stand
at `_far_cap` nodes.  After each decision the trials left open draw ring
s - 1's radii, in trial order, and ring s's per-trial Poisson counts;
disjoint rings of a PPP are independent, so drawing a ring late leaves
the law as it is.  Only the trials the third bounds leave open and that
hold a marked node draw angles and a user/blocker disc around their
corridors.  Each decision is the one the whole draw would make, except
when a trial found a hit on a capped count holds more nodes than the
cap, an event of probability below 2^-64 per ring and trial.  So the
estimate is exact in law but for them, and R_in and R set only how many
stay open.

The model's inputs come from the modules that define them: the densities
from `config`, the sweep weight (q_mark), re-radiation constant and
lower-bound radius from `channel`, the beam-crossing miss window from
`misalignment`.  Every blockage, timeout and interference event is drawn
from corridor geometry.  No alignment is drawn: `estimate_coverage`
scales its SINR frequency by the analytic 1 - p_ms instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (LinkBudget, effective_noise, lower_bound_radius,
                      received_power, reradiation_constant, sweep_weight)
from .config import Deployment, SystemParams
from .misalignment import (beam_misalignment, beam_switch_density,
                           crossing_miss_window)
from .sensing import SensingAbility

__all__ = ["McEstimate", "estimate_blockage", "estimate_timeout",
           "estimate_misalignment", "estimate_coverage",
           "default_window_radius"]

_BATCH = 8192
# expected drawn nodes per estimate_coverage batch, each inner or marked
# node 24 bytes (its radius, its weight and its owning trial), a trial's own
# arrays (three 8-byte ones and four masks, about 28 bytes) 1.2; mid and far
# nodes are drawn only for open trials, a few in a hundred.  A batch's
# arrays then peak at about 0.7-0.8 MB (tracemalloc), inside the 2 MB
# per-core L2 and small enough that glibc keeps the freed heap: repeated
# 1e5-trial calls take no page faults, where a budget of 38_000 took 600-800
# and 2.7e6, with the mid owners of every trial, about 2100 a call
_NODE_BUDGET = 30_000
_TRIAL_NODES = 1.2
# far absorption bound, as a share of the margin; a looser split leaves
# more trials open (0.5 opened 6889 of 1e5 at n_b = 8, 20 m, -10 dB
# against 125, and ran 8x slower)
_SPLIT_SLACK = 1e-3
# mid absorption bound, as a share of the margin; from 0.01 to 0.2 the
# urban call (1e5 trials) ran within 7% of its best, at 0.05, where the
# bounds holding the mid counts left about 199 of 1e5 trials open (45 at
# 0.01, 893 at 0.2), measured before the capped first bounds came in
_MID_SLACK = 0.05


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with its binomial standard error."""

    mean: float
    std_error: float
    trials: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")

    @classmethod
    def from_hits(cls, hits: int, trials: int) -> "McEstimate":
        """Binomial frequency hits / trials with its standard error."""
        p = hits / trials
        return cls(mean=p, std_error=math.sqrt(p * (1 - p) / trials),
                   trials=trials)

    def sigmas_off(self, reference: float) -> float:
        """Distance from a reference value in standard errors."""
        if self.std_error == 0.0:
            return 0.0 if self.mean == reference else math.inf
        return (self.mean - reference) / self.std_error


def _batches(trials: int, seed: int, size: int = _BATCH):
    """Yield (rng, size) per fixed-size batch, each on its own substream."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_batches = (trials + size - 1) // size
    seqs = np.random.SeedSequence(seed).spawn(n_batches)
    for k, seq in enumerate(seqs):
        yield np.random.default_rng(seq), min(size, trials - k * size)


def _ppp_disc(rng, density: float, radius: float) -> np.ndarray:
    """Homogeneous PPP on the disc r <= radius."""
    area = math.pi * radius ** 2
    n = rng.poisson(density * area)
    rr = _annulus_radii(rng, n, 0.0, radius)
    th = 2.0 * math.pi * rng.random(n)
    return np.column_stack([rr * np.cos(th), rr * np.sin(th)])


def _blocked_frame(lon, owner, r, r_b):
    """Corridor test in the links' own frames, link i running from the
    origin to (r[i], 0): obstacle j of link owner[j] sits at longitudinal
    offset lon[j], inside the corridor's width.  Returns a boolean
    'blocked' per link."""
    hit = (lon > r_b) & (lon < (r - r_b)[owner])
    blocked = np.zeros(r.size, dtype=bool)
    blocked[owner[hit]] = True
    return blocked


def _blocked_bulk(obs_x, obs_y, counts, bs_x, bs_y, r_b):
    """Vectorised corridor test; one segment origin->(bs_x, bs_y) per link,
    every link of positive length.

    obs_* are flattened obstacle coordinates grouped by link with sizes
    `counts`; each is turned into its link's frame, and those inside the
    corridor's width go to `_blocked_frame`.
    """
    r = np.hypot(bs_x, bs_y)
    ux, uy = bs_x / r, bs_y / r
    owner = np.repeat(np.arange(bs_x.size), counts)
    lat = -obs_x * uy[owner] + obs_y * ux[owner]
    inside = np.abs(lat) < r_b
    owner = owner[inside]
    lon = obs_x[inside] * ux[owner] + obs_y[inside] * uy[owner]
    return _blocked_frame(lon, owner, r, r_b)


def _link_box(rng, density: float, r: np.ndarray, r_b: float):
    """An independent PPP per link on the batch's shared frame box
    [0, max r] x (-r_b, r_b), each link running from the origin to (r, 0);
    returns the flat longitudinal offsets and the link owning each point,
    in no order.  A point's link and its offset come from one uniform
    (`_scattered_points`), the offset its position uniform times max r.

    The box is the corridor's width, so no lateral offset is drawn.  Points
    past a link's end stay: `_blocked_frame` ignores lon >= r - r_b, so
    each link sees exactly a PPP of the given density in its corridor.
    """
    top = r.max()
    owner, lon = _scattered_points(rng, density * 2.0 * r_b * top, r.size)
    lon *= top
    return lon, owner


def _blocked_links(rng, deploy: Deployment, r: np.ndarray) -> np.ndarray:
    """Corridor test of links of lengths r, each against its own user and
    blocker field (density lambda_m + lambda_s) drawn on the shared box."""
    return _blocked_frame(*_link_box(rng, deploy.obstacle_density, r, deploy.r_b),
                          r, deploy.r_b)


def estimate_blockage(deploy: Deployment, r: float, trials: int,
                      seed: int) -> McEstimate:
    """Empirical corridor-blockage frequency of a link of length r.

    Obstacles are the user and blocker fields (density lambda_m + lambda_s),
    matching the analytic link-blockage law.
    """
    if r < 2.0 * deploy.r_b:
        raise ValueError("estimate_blockage requires r >= 2 r_b")
    hits = 0
    for rng, b in _batches(trials, seed):
        hits += int(_blocked_links(rng, deploy, np.full(b, r)).sum())
    return McEstimate.from_hits(hits, trials)


def _nearest_distances(rng, deploy: Deployment, b: int) -> tuple:
    """Distance of the nearest node to the origin in b scenes, and a
    function that returns the second nearest node's distance in the scenes
    given to it by index, drawing its exponential increment only then.

    pi lambda_b r^2 maps the node PPP onto a unit-rate PPP on [0, inf), so
    the k-th nearest node's pi lambda_b r^2 is the k-th partial sum of unit
    exponentials.
    """
    if not deploy.lambda_b > 0.0:
        raise ValueError("nearest-two distances need lambda_b > 0")
    scale = math.pi * deploy.lambda_b
    e1 = rng.standard_exponential(b)

    def second(idx):
        return np.sqrt((e1[idx] + rng.standard_exponential(idx.size)) / scale)

    return np.sqrt(e1 / scale), second


def _nearest_links_blocked(rng, deploy: Deployment, b: int) -> tuple:
    """Corridor verdicts (nearest blocked, both blocked) of the links to
    the two nearest nodes in b scenes, each link against its own obstacle
    field.  The second node and its link's field are drawn only for the
    scenes whose nearest link is blocked: no other verdict reads them."""
    r1, second = _nearest_distances(rng, deploy, b)
    near = _blocked_links(rng, deploy, r1)
    both = near.copy()
    behind = np.flatnonzero(near)
    if behind.size:
        both[behind] = _blocked_links(rng, deploy, second(behind))
    return near, both


def estimate_timeout(deploy: Deployment, trials: int, seed: int) -> McEstimate:
    """Fraction of scenes whose two nearest nodes are both corridor-blocked,
    each link's corridor tested against its own obstacle field."""
    if trials < 1000:
        raise ValueError("estimate_timeout needs at least 1e3 trials")
    hits = 0
    for rng, b in _batches(trials, seed):
        hits += int(_nearest_links_blocked(rng, deploy, b)[1].sum())
    return McEstimate.from_hits(hits, trials)


def estimate_misalignment(deploy: Deployment, ability: SensingAbility,
                          tau: float, trials: int, seed: int) -> dict:
    """Monte-Carlo counterparts of the misalignment constituents, all read
    off one scene per trial.

    A trial draws the corridor verdicts of its two nearest links as
    estimate_timeout does, so 'p_to' equals estimate_timeout at the same
    seed, and then the beam-coverage length from its exponential law, as a
    unit exponential against the miss window scaled by mu_g.
    'p_err' counts a missed crossing with the nearest link open, 'p_to'
    both links blocked.  The two events are disjoint, so 'p_ms' is the
    frequency of their union and its hits are the sum of theirs.
    """
    if 1 <= trials < 1000:  # _batches rejects fewer than one
        raise ValueError("estimate_misalignment needs at least 1e3 trials")
    mu_g = beam_switch_density(deploy)
    lo, hi = crossing_miss_window(deploy, ability, tau)
    lo_g, hi_g = lo * mu_g, hi * mu_g
    err = to = 0
    for rng, b in _batches(trials, seed):
        near, both = _nearest_links_blocked(rng, deploy, b)
        d_b = rng.standard_exponential(b)  # beam length times mu_g
        err += int(((d_b > lo_g) & (d_b < hi_g) & ~near).sum())
        to += int(both.sum())
    return {"p_err": McEstimate.from_hits(err, trials),
            "p_to": McEstimate.from_hits(to, trials),
            "p_ms": McEstimate.from_hits(err + to, trials)}


def default_window_radius(system: SystemParams, deploy: Deployment,
                          r1: float) -> float:
    """Simulation disc radius capturing the interference and noise tails;
    past `reach` (14 absorption lengths, at least 60 m) absorption leaves a
    node's weight e^(-k r) / r^2 negligible."""
    reach = max(60.0, 14.0 / max(system.k_abs, 1e-2))
    los = 5.0 / max(2.0 * deploy.total_density * deploy.r_b, 1e-3)
    return max(min(max(reach, los), 1500.0), r1 + 20.0)


def _split_radius(c_abs: float, lambda_b: float, k_abs: float, r_lo: float,
                  r_out: float, margin: float,
                  share: float = _SPLIT_SLACK) -> float:
    """Smallest r in [r_lo, r_out] at which the absorption bound of the ring
    (r, r_out), c_abs lambda_b pi (r_out^2 - r^2) e^(-k r) / r^2, its
    expected node count at the weight of r, is at most share * margin.

    r_lo when that bound already holds there (c_abs = 0 included) or when
    margin <= 0, where every trial misses.  The bound falls with r and is 0
    at r_out, so bisection finds the radius to a relative 1e-10.
    """
    cap = share * margin

    def fails(r):
        return c_abs * lambda_b * math.pi * (r_out ** 2 - r ** 2) \
            * math.exp(-k_abs * r) / r ** 2 > cap

    if not margin > 0.0 or not fails(r_lo):
        return r_lo
    lo, hi = r_lo, r_out
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if fails(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _far_cap(mean: float) -> int:
    """Smallest count F whose Poisson(mean) upper tail P(N > F) the Chernoff
    bound P(N >= n) <= e^(n - mean) (mean / n)^n, n > mean, puts below
    2^-64.  The bound falls with n past the mean, so F is found by doubling
    and bisection."""
    if not mean > 0.0:
        return 0
    target = -64.0 * math.log(2.0)

    def holds(n):
        return n > mean and n - mean + n * math.log(mean / n) < target

    lo, hi = 0, 1
    while not holds(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi - 1


def _annulus_radii(rng, n: int, r_in: float, r_out: float) -> np.ndarray:
    """Radii of n points drawn uniformly on the annulus r_in <= r <= r_out."""
    return _annulus_map(rng.random(n), r_in, r_out)


def _annulus_map(u: np.ndarray, r_in: float, r_out: float) -> np.ndarray:
    """Radii on the annulus r_in <= r <= r_out of uniforms u on [0, 1),
    r^2 linear in u, computed in u's array."""
    u *= r_out ** 2 - r_in ** 2
    u += r_in ** 2
    return np.sqrt(u, out=u)


def _weights(rad: np.ndarray, k_abs: float) -> np.ndarray:
    """Path weights e^(-k r) / r^2, non-increasing in r."""
    g = np.multiply(rad, -k_abs)
    np.exp(g, out=g)
    g /= rad
    g /= rad
    return g


def _grouped_sums(values: np.ndarray, owner: np.ndarray,
                  size: int) -> np.ndarray:
    """Sum of the values each of `size` slots owns, always float64 (bincount
    of no values is int64)."""
    sums = np.bincount(owner, weights=values, minlength=size)
    return sums.astype(float, copy=False)


def _scattered_points(rng, mean: float, b: int) -> tuple:
    """The slot owning each point of b independent Poisson(mean) counts and
    a uniform on [0, 1) for its position, in draw order, both from one
    uniform per point: with u = b U, the owner is floor(u) and the
    position's uniform u - floor(u).

    For b a power of two, b U is exact, so the owner is uniform on
    0 .. b - 1 and the position uniform on the lattice of spacing b 2^-53,
    independent of each other.  Otherwise b U is rounded once, which moves
    a slot's probability by about b 2^-53 relative; as U <= 1 - 2^-53 and
    b (1 - 2^-53) rounds below b, the owner is at most b - 1 for every b.
    """
    u = rng.random(rng.poisson(mean * b))
    u *= b
    owner = u.astype(np.intp)
    u -= owner
    return owner, u


def _scattered_field(rng, mean: float, b: int, r_in: float,
                     r_out: float) -> tuple:
    """Radii of b independent PPPs of Poisson(mean) points on the annulus
    r_in <= r <= r_out, and the slot owning each, in draw order: a point's
    slot and radius come from one uniform (`_scattered_points`), the radius
    its position uniform mapped onto the annulus."""
    owner, u = _scattered_points(rng, mean, b)
    return _annulus_map(u, r_in, r_out), owner


def _per_trial(rad: np.ndarray, owner: np.ndarray, open_) -> list:
    """The radii each open trial owns (open_ a mask over the owners'
    slots), one array per open trial in trial order, each in draw order."""
    sel = np.flatnonzero(open_[owner])
    sel = sel[np.argsort(owner[sel], kind="stable")]
    own, rad = owner[sel], rad[sel]
    o = np.flatnonzero(open_)
    return [rad[i:j] for i, j in zip(np.searchsorted(own, o),
                                     np.searchsorted(own, o, "right"))]


def _bound_decisions(lo, hi, margin):
    """(hit, open) masks of trials whose interference lies in [lo, hi]: a
    hit when hi < margin, open when lo < margin <= hi, a miss otherwise."""
    hit = hi < margin
    return hit, ~hit & (lo < margin)


def _resolve(rng, deploy: Deployment, budget: LinkBudget, r1: float, lo,
             unmarked, marked) -> np.ndarray:
    """Interference i_eff of open trials, each drawn whole.

    lo holds their absorption noise, every node's radius being drawn;
    unmarked and marked hold one array per trial of its unmarked and of its
    marked radii.  Each trial holding a marked node draws the angles of all
    its nodes and the user/blocker disc around its marked nodes' corridors,
    in trial order.
    """
    i_eff = lo.copy()
    for t, r_m in enumerate(marked):
        c = r_m.size
        if not c:
            continue
        # marked nodes first
        r_t = np.concatenate([r_m, unmarked[t]])
        ang = 2.0 * math.pi * rng.random(r_t.size)
        x, y = r_t * np.cos(ang), r_t * np.sin(ang)
        others = _ppp_disc(rng, deploy.obstacle_density,
                           r_m.max() + deploy.r_b)
        obs_x = np.concatenate([x, [r1], others[:, 0]])
        obs_y = np.concatenate([y, [0.0], others[:, 1]])
        blocked = _blocked_bulk(np.tile(obs_x, c), np.tile(obs_y, c),
                                np.full(c, obs_x.size), x[:c], y[:c],
                                deploy.r_b)
        i_eff[t] += budget.a * _weights(r_m[~blocked], budget.k_abs).sum()
    return i_eff


def estimate_coverage(deploy: Deployment, budget: LinkBudget,
                      system: SystemParams, ability: SensingAbility,
                      r1: float, threshold: float, trials: int, seed: int,
                      lower_bound_mode: str = "theorem",
                      window_radius: float | None = None) -> McEstimate:
    """Fraction of trials with SINR above the threshold, times 1 - p_ms.

    The serving node is pinned at distance r1; interfering nodes are a PPP
    on the annulus between the lower-bound radius (2 r_b in theorem mode,
    r1 in derivation mode) and the window edge.  Every node re-radiates
    absorption noise; a node interferes at full power when its sweep/
    misalignment and orientation marks fire and its corridor to the origin
    is geometrically unblocked (other nodes, users and blockers all count
    as obstacles).  Alignment is independent of the scene and not drawn:
    the frequency and its standard error are scaled by the analytic 1 -
    p_ms for the given ability (Rao-Blackwell: no more variance).
    """
    hits, p_ms = _cm_hits(deploy, budget, system, ability, r1, threshold,
                          trials, seed, lower_bound_mode, window_radius)
    cm, aligned = McEstimate.from_hits(hits, trials), 1.0 - p_ms
    return McEstimate(aligned * cm.mean, aligned * cm.std_error, trials)


def _cm_hits(deploy: Deployment, budget: LinkBudget, system: SystemParams,
             ability: SensingAbility, r1: float, threshold: float,
             trials: int, seed: int, lower_bound_mode: str,
             window_radius: float | None) -> tuple:
    """(hits, p_ms) of `estimate_coverage`'s trials: how many have SINR
    above the threshold, each decided by its geometry alone, and the
    analytic misalignment probability, which sets the sweep weight."""
    if r1 < 2.0 * deploy.r_b:
        raise ValueError("estimate_coverage requires r1 >= 2 r_b")
    if not threshold > 0.0:
        raise ValueError("threshold must be > 0 (linear SINR)")
    r_lo = lower_bound_radius(lower_bound_mode, deploy, r1)
    r_win = (default_window_radius(system, deploy, r1) if window_radius is None
             else window_radius)
    if not r_win > r_lo:  # NaN included
        raise ValueError("window_radius must exceed the lower-bound radius")

    p_ms = beam_misalignment(deploy, ability, system.tau).p_ms
    q_mark = sweep_weight(deploy, system, p_ms)
    c_abs = reradiation_constant(budget, deploy)
    margin = received_power(budget, r1) / threshold - \
        effective_noise(budget, deploy, system, r1)
    r_near = _split_radius(c_abs, deploy.lambda_b, budget.k_abs, r_lo, r_win,
                           margin)
    r_in = _split_radius(c_abs, deploy.lambda_b, budget.k_abs, r_lo, r_near,
                         margin, _MID_SLACK)

    # expected unmarked inner and marked nodes per trial, and per unmarked
    # ring past the inner one its radii, its expected nodes per trial and
    # c_abs times the weight of its inner radius
    area = deploy.lambda_b * math.pi
    unmarked = (1.0 - q_mark) * area
    inner_mean = unmarked * (r_in ** 2 - r_lo ** 2)
    mark_mean = q_mark * area * (r_win ** 2 - r_lo ** 2)
    rings = [(r_a, r_b, unmarked * (r_b ** 2 - r_a ** 2),
              c_abs * (math.exp(-budget.k_abs * r_a) / r_a ** 2))
             for r_a, r_b in ((r_in, r_near), (r_near, r_win))]
    caps = [w * _far_cap(mean) for _, _, mean, w in rings]
    size = max(1, int(_NODE_BUDGET // (inner_mean + mark_mean + _TRIAL_NODES)))
    hits = 0
    for rng, b in _batches(trials, seed, size):
        rad, owner = _scattered_field(rng, inner_mean, b, r_lo, r_in)
        r_m, m_owner = _scattered_field(rng, mark_mean, b, r_lo, r_win)
        g_m = _grouped_sums(_weights(r_m, budget.k_abs), m_owner, b)
        # absorption noise of every node drawn with its radius
        lo = _grouped_sums(_weights(rad, budget.k_abs), owner, b)
        lo += g_m
        lo *= c_abs
        g_m *= budget.a  # every marked node unblocked
        counted, drawn = 0.0, []
        for s in range(len(rings) + 1):
            # ring s - 1 counted, and the rings past it at their _far_cap
            hi = g_m + lo
            hi += counted + sum(caps[s:])
            hit, open_ = _bound_decisions(lo, hi, margin)
            hits += int(hit.sum())
            keep = np.flatnonzero(open_)
            idx = idx[keep] if s else keep  # the open trials in the batch
            lo, g_m = lo[keep], g_m[keep]
            if s:  # the open trials draw ring s - 1's radii
                r_a, r_b, _, _ = rings[s - 1]
                at = np.repeat(np.arange(keep.size), count[keep])
                r = _annulus_radii(rng, at.size, r_a, r_b)
                lo += c_abs * _grouped_sums(_weights(r, budget.k_abs), at,
                                            keep.size)
                drawn.append((r, idx[at]))
            if s < len(rings):  # and ring s's counts
                count = rng.poisson(rings[s][2], size=keep.size)
                counted = count * rings[s][3]
        left = np.zeros(b, dtype=bool)
        left[idx] = True
        unmarked_t = [np.concatenate(radii) for radii in zip(
            *(_per_trial(r, at, left) for r, at in [(rad, owner)] + drawn))]
        i_eff = _resolve(rng, deploy, budget, r1, lo, unmarked_t,
                         _per_trial(r_m, m_owner, left))
        hits += int((i_eff < margin).sum())
        del rad, owner  # else they live on while the next batch draws its own
    return hits, p_ms
