"""Independent stochastic-geometry Monte-Carlo oracle.

Every analytical quantity in the package has a counterpart here that is
estimated from Poisson point process draws and explicit corridor geometry
rather than from the closed forms.  Estimators are deterministic in
(seed, parameters, trials): work is cut into fixed-size batches, each on
its own substream spawned from the master seed.  A link-estimator batch
holds `_BATCH` trials, a coverage batch about `_NODE_BUDGET` near nodes.

Blockage geometry: a link of length r is blocked when some obstacle
centre falls inside the rectangle of width 2 r_b around the segment
whose longitudinal extent is (r_b, r - r_b) (area 2 r_b (r - 2 r_b), the
exact void-probability exponent of the analytic model).  One corridor
test, `_blocked_bulk`, serves every estimator; an endpoint lies at
longitudinal offset 0 or r and so never blocks its own link.

Only what that test can see is sampled.  By the restriction property,
a PPP's points in a region are Poisson(density * area) uniform draws
independent of the rest of the plane: a link's obstacles are drawn in
its frame box [0, r] x (-r_b, r_b), each link from its own field, as the
analytic timeout multiplies the two links' void probabilities.  By
independent thinning, a coverage trial holds Binomial(nodes, q_mark)
marked nodes, and as its nodes are i.i.d. its first ones can stand for
them; only trials holding one draw angles and a user/blocker disc around
their corridors.  By the mapping theorem, pi lambda_b r^2 over the nodes
is a unit-rate PPP on [0, inf), so a user's two nearest nodes are drawn
exactly from two exponential partial sums: the link estimators truncate
nothing to a window.  A misalignment trial reads both of its events, the
sensing error and the timeout, off one such scene.

A coverage trial's annulus is split at the absorption reach R (at most
the window radius).  Its near nodes, inside R, are drawn with their
radii; its far nodes only as a Poisson count with a Binomial count of
marked ones.  As the weight e^(-k r) / r^2 does not rise with r, the
interference lies between lo, the near absorption noise, and hi, which
adds every marked near node unblocked and every far node at the weight
of R.  A trial is a hit when aligned with hi below the margin and a miss
when misaligned or lo reaches it; only the trials left open draw their
far radii, angles, user/blocker discs and corridors.  The decision is
the one the whole draw would make, so the estimate is exact in law.  At
k = 0 the reach is 1400 m: a lossless trial holds far nodes only in a
wider window.

The model's inputs come from the modules that define them: the densities
from `config`, the sweep weight (q_mark), re-radiation constant and
lower-bound radius from `channel`, the beam-crossing miss window from
`misalignment`.  Every blockage, timeout and interference event is drawn
from corridor geometry; only a coverage trial's alignment takes the
analytic misalignment probability.
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
           "nearest_two_distances", "default_window_radius"]

_BATCH = 8192
_NODE_BUDGET = 2_700_000  # expected nodes per estimate_coverage batch


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
    n = rng.poisson(density * area) if density > 0.0 and area > 0.0 else 0
    rr = np.sqrt(rng.random(n) * radius ** 2)
    th = 2.0 * math.pi * rng.random(n)
    return np.column_stack([rr * np.cos(th), rr * np.sin(th)])


def _blocked_bulk(obs_x, obs_y, counts, bs_x, bs_y, r_b):
    """Vectorised corridor test; one segment origin->(bs_x, bs_y) per link.

    obs_* are flattened obstacle coordinates grouped by link with sizes
    `counts`; returns a boolean 'blocked' per link.
    """
    n_trials = bs_x.size
    r = np.hypot(bs_x, bs_y)
    with np.errstate(invalid="ignore", divide="ignore"):
        ux = np.where(r > 0, bs_x / np.maximum(r, 1e-300), 0.0)
        uy = np.where(r > 0, bs_y / np.maximum(r, 1e-300), 0.0)
    idx = np.repeat(np.arange(n_trials), counts)
    lon = obs_x * ux[idx] + obs_y * uy[idx]
    lat = -obs_x * uy[idx] + obs_y * ux[idx]
    hit = (np.abs(lat) < r_b) & (lon > r_b) & (lon < r[idx] - r_b)
    return np.bincount(idx[hit], minlength=n_trials) > 0


def _link_box(rng, density: float, r: np.ndarray, r_b: float):
    """PPP on each link's frame box [0, r] x (-r_b, r_b), the link running
    from the origin to (r, 0); returns flat coords grouped by link + counts."""
    counts = rng.poisson(density * 2.0 * r_b * r)
    total = int(counts.sum())
    lon = np.repeat(r, counts) * rng.random(total)
    return lon, r_b * (2.0 * rng.random(total) - 1.0), counts


def _blocked_links(rng, deploy: Deployment, r: np.ndarray) -> np.ndarray:
    """Corridor test of links of lengths r, each against its own user and
    blocker field (density lambda_m + lambda_s) drawn in its box."""
    return _blocked_bulk(*_link_box(rng, deploy.obstacle_density, r, deploy.r_b),
                         r, np.zeros(r.size), deploy.r_b)


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


def _nearest_two_batch(rng, deploy: Deployment, b: int) -> np.ndarray:
    """Radii, shape (b, 2), of the two nearest nodes to the origin for b
    trials, nearest first.

    pi lambda_b r^2 maps the node PPP onto a unit-rate PPP on [0, inf), so
    the two smallest values are the first two partial sums of unit
    exponentials.
    """
    if not deploy.lambda_b > 0.0:
        raise ValueError("nearest-two distances need lambda_b > 0")
    e = rng.standard_exponential((b, 2)).cumsum(axis=1)
    return np.sqrt(e / (math.pi * deploy.lambda_b))


def nearest_two_distances(deploy: Deployment, samples: int, seed: int):
    """Sampled (r1, r2) distances of the two nearest nodes to the origin."""
    out = np.concatenate([_nearest_two_batch(rng, deploy, b)
                          for rng, b in _batches(samples, seed)])
    return out[:, 0], out[:, 1]


def _nearest_links_blocked(rng, deploy: Deployment, b: int) -> tuple:
    """Corridor verdicts (nearest, second) of the links to the two nearest
    nodes in b scenes, each link against its own obstacle field."""
    r12 = _nearest_two_batch(rng, deploy, b)
    return (_blocked_links(rng, deploy, r12[:, 0]),
            _blocked_links(rng, deploy, r12[:, 1]))


def estimate_timeout(deploy: Deployment, trials: int, seed: int) -> McEstimate:
    """Fraction of scenes whose two nearest nodes are both corridor-blocked,
    each link's corridor tested against its own obstacle field."""
    if trials < 1000:
        raise ValueError("estimate_timeout needs at least 1e3 trials")
    hits = 0
    for rng, b in _batches(trials, seed):
        near, second = _nearest_links_blocked(rng, deploy, b)
        hits += int((near & second).sum())
    return McEstimate.from_hits(hits, trials)


def estimate_misalignment(deploy: Deployment, ability: SensingAbility,
                          tau: float, trials: int, seed: int) -> dict:
    """Monte-Carlo counterparts of the misalignment constituents, all read
    off one scene per trial.

    A trial draws the corridor verdicts of its two nearest links as
    estimate_timeout does, so 'p_to' equals estimate_timeout at the same
    seed, and then the beam-coverage length from its exponential law.
    'p_err' counts a missed crossing with the nearest link open, 'p_to'
    both links blocked.  The two events are disjoint, so 'p_ms' is the
    frequency of their union and its hits are the sum of theirs.
    """
    if 1 <= trials < 1000:  # _batches rejects fewer than one
        raise ValueError("estimate_misalignment needs at least 1e3 trials")
    mu_g = beam_switch_density(deploy)
    lo, hi = crossing_miss_window(deploy, ability, tau)
    err = to = 0
    for rng, b in _batches(trials, seed):
        near, second = _nearest_links_blocked(rng, deploy, b)
        d_b = rng.exponential(1.0 / mu_g, size=b)
        err += int(((d_b > lo) & (d_b < hi) & ~near).sum())
        to += int((near & second).sum())
    return {"p_err": McEstimate.from_hits(err, trials),
            "p_to": McEstimate.from_hits(to, trials),
            "p_ms": McEstimate.from_hits(err + to, trials)}


def _absorption_reach(k_abs: float) -> float:
    """Radius past which absorption leaves a node's weight e^(-k r) / r^2
    negligible: 14 absorption lengths, at least 60 m."""
    return max(60.0, 14.0 / max(k_abs, 1e-2))


def default_window_radius(system: SystemParams, deploy: Deployment,
                          r1: float) -> float:
    """Simulation disc radius capturing the interference and noise tails."""
    los = 5.0 / max(2.0 * deploy.total_density * deploy.r_b, 1e-3)
    return max(min(max(_absorption_reach(system.k_abs), los), 1500.0),
               r1 + 20.0)


def _annulus_radii(rng, n: int, r_in: float, r_out: float) -> np.ndarray:
    """Radii of n points drawn uniformly on the annulus r_in <= r <= r_out."""
    rad = rng.random(n)
    rad *= r_out ** 2 - r_in ** 2
    rad += r_in ** 2
    return np.sqrt(rad, out=rad)


def _weights(rad: np.ndarray, k_abs: float) -> np.ndarray:
    """Path weights e^(-k r) / r^2, non-increasing in r."""
    g = np.multiply(rad, -k_abs)
    np.exp(g, out=g)
    g /= rad
    g /= rad
    return g


def _grouped_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each group of a flat array laid out in groups of `counts`."""
    return np.bincount(np.repeat(np.arange(counts.size), counts),
                       weights=values, minlength=counts.size)


def _bound_decisions(lo, hi, aligned, margin):
    """(hit, open) masks of trials whose interference lies in [lo, hi]: a
    hit when aligned and hi < margin, open when aligned and lo < margin <=
    hi, a miss otherwise."""
    hit = aligned & (hi < margin)
    return hit, aligned & ~hit & (lo < margin)


def _resolve(rng, deploy: Deployment, budget: LinkBudget, r1: float,
             c_abs: float, lo, near, far, ring) -> np.ndarray:
    """Interference i_eff of open trials, each drawn whole.

    lo holds their near absorption sums and near = (rad, starts, counts,
    marks) their near nodes, slices of the flat radii rad whose first
    `marks` are marked.  far = (counts, marks) of their far nodes, whose
    radii are drawn here on the ring (r_near, r_win).  Each trial holding
    a marked node then draws the angles of all its nodes and the user/
    blocker disc around its marked nodes' corridors, in trial order.
    """
    rad, starts, counts, marks = near
    f_counts, f_marks = far
    r_far = _annulus_radii(rng, int(f_counts.sum()), *ring)
    i_eff = lo + c_abs * _grouped_sums(_weights(r_far, budget.k_abs), f_counts)
    f_starts = np.cumsum(f_counts) - f_counts
    for t in np.flatnonzero(marks + f_marks):
        m, m_f = marks[t], f_marks[t]
        r_n = rad[starts[t]:starts[t] + counts[t]]
        r_f = r_far[f_starts[t]:f_starts[t] + f_counts[t]]
        # marked nodes first
        r_t = np.concatenate([r_n[:m], r_f[:m_f], r_n[m:], r_f[m_f:]])
        c = m + m_f
        ang = 2.0 * math.pi * rng.random(r_t.size)
        x, y = r_t * np.cos(ang), r_t * np.sin(ang)
        others = _ppp_disc(rng, deploy.obstacle_density,
                           r_t[:c].max() + deploy.r_b)
        obs_x = np.concatenate([x, [r1], others[:, 0]])
        obs_y = np.concatenate([y, [0.0], others[:, 1]])
        blocked = _blocked_bulk(np.tile(obs_x, c), np.tile(obs_y, c),
                                np.full(c, obs_x.size), x[:c], y[:c],
                                deploy.r_b)
        i_eff[t] += budget.a * _weights(r_t[:c][~blocked], budget.k_abs).sum()
    return i_eff


def estimate_coverage(deploy: Deployment, budget: LinkBudget,
                      system: SystemParams, ability: SensingAbility,
                      r1: float, threshold: float, trials: int, seed: int,
                      lower_bound_mode: str = "theorem",
                      window_radius: float | None = None) -> McEstimate:
    """Fraction of trials with aligned beams and SINR above the threshold.

    The serving node is pinned at distance r1; interfering nodes are a PPP
    on the annulus between the lower-bound radius (2 r_b in theorem mode,
    r1 in derivation mode) and the window edge.  Every node re-radiates
    absorption noise; a node interferes at full power when its sweep/
    misalignment and orientation marks fire and its corridor to the origin
    is geometrically unblocked (other nodes, users and blockers all count
    as obstacles).  Alignment is an independent Bernoulli with the
    analytic misalignment probability for the given ability.
    """
    if r1 < 2.0 * deploy.r_b:
        raise ValueError("estimate_coverage requires r1 >= 2 r_b")
    if not threshold > 0.0:
        raise ValueError("threshold must be > 0 (linear SINR)")
    r_lo = lower_bound_radius(lower_bound_mode, deploy, r1)
    r_win = (default_window_radius(system, deploy, r1) if window_radius is None
             else window_radius)
    if not r_win > r_lo:  # NaN included
        raise ValueError("window_radius must exceed the lower-bound radius")
    r_near = min(r_win, max(_absorption_reach(budget.k_abs), r1 + 20.0))

    p_ms = beam_misalignment(deploy, ability, system.tau).p_ms
    q_mark = sweep_weight(deploy, system, p_ms)
    c_abs = reradiation_constant(budget, deploy)
    margin = received_power(budget, r1) / threshold - \
        effective_noise(budget, deploy, system, r1)

    near_mean = deploy.lambda_b * math.pi * (r_near ** 2 - r_lo ** 2)
    far_mean = deploy.lambda_b * math.pi * (r_win ** 2 - r_near ** 2)
    g_edge = math.exp(-budget.k_abs * r_near) / r_near ** 2  # far weight cap
    size = max(1, int(_NODE_BUDGET // max(near_mean, 1.0)))
    hits = 0
    for rng, b in _batches(trials, seed, size):
        counts = rng.poisson(near_mean, size=b)
        ends = np.cumsum(counts)
        starts = ends - counts
        rad = _annulus_radii(rng, int(ends[-1]), r_lo, r_near)
        g = _weights(rad, budget.k_abs)
        lo = np.zeros(b)  # near absorption noise
        busy = counts > 0  # reduceat cannot express an empty slice
        lo[busy] = c_abs * np.add.reduceat(g, starts[busy])
        # trial t's first m[t] near nodes are its marked ones, and it holds
        # m_far[t] marked among far[t] far nodes
        m = rng.binomial(counts, q_mark)
        far = rng.poisson(far_mean, size=b)
        m_far = rng.binomial(far, q_mark)
        aligned = rng.random(b) >= p_ms
        # flat indices of the marked near nodes, grouped by trial
        head = np.repeat(starts - np.cumsum(m) + m, m) + np.arange(m.sum())
        marked = budget.a * _grouped_sums(g[head], m)
        del g
        hi = lo + marked + g_edge * (c_abs * far + budget.a * m_far)
        hit, open_ = _bound_decisions(lo, hi, aligned, margin)
        o = np.flatnonzero(open_)
        i_eff = _resolve(rng, deploy, budget, r1, c_abs, lo[o],
                         (rad, starts[o], counts[o], m[o]), (far[o], m_far[o]),
                         (r_near, r_win))
        hits += int(hit.sum()) + int((i_eff < margin).sum())
    return McEstimate.from_hits(hits, trials)
