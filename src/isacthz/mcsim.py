"""Independent stochastic-geometry Monte-Carlo oracle.

Every analytical quantity in the package has a counterpart here that is
estimated from Poisson point process draws and explicit corridor geometry
rather than from the closed forms.  Estimators are deterministic in
(seed, parameters, trials): work is cut into fixed-size batches and each
batch consumes its own substream spawned from the master seed, so an
estimate depends only on those three inputs.

Blockage geometry: a link of length r is blocked when some obstacle
centre falls inside the rectangle of width 2 r_b around the segment
whose longitudinal extent is (r_b, r - r_b) (area 2 r_b (r - 2 r_b), the
exact void-probability exponent of the analytic model).  One corridor
test, `_blocked_bulk`, serves every estimator; an endpoint lies at
longitudinal offset 0 or r and so never blocks its own link.

The timeout estimator defaults to drawing an independent obstacle field
per link.  The analytic timeout multiplies the two void probabilities,
i.e. it treats the two corridors' blockage as conditionally independent;
with a single shared obstacle field the corridors overlap near the origin
and the empirical probability sits many sigma above the formula.  The
shared-field variant stays available for quantifying exactly that gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget, effective_noise, received_power
from .config import Deployment, SystemParams
from .misalignment import beam_misalignment, beam_switch_density
from .sensing import SensingAbility

__all__ = [
    "McEstimate",
    "estimate_blockage",
    "estimate_timeout",
    "estimate_misalignment",
    "estimate_coverage",
    "nearest_two_distances",
    "default_window_radius",
]

_BATCH = 8192


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


def _batches(trials: int, seed: int):
    """Yield (rng, size) per fixed-size batch, each on its own substream."""
    n_batches = (trials + _BATCH - 1) // _BATCH
    seqs = np.random.SeedSequence(seed).spawn(n_batches)
    for k, seq in enumerate(seqs):
        yield np.random.default_rng(seq), min(_BATCH, trials - k * _BATCH)


def _ppp_disc(rng, density: float, radius: float) -> np.ndarray:
    """Homogeneous PPP on the disc r <= radius."""
    area = math.pi * radius ** 2
    n = rng.poisson(density * area) if density > 0.0 and area > 0.0 else 0
    if n == 0:
        return np.empty((0, 2))
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


def _obstacle_field(rng, density: float, radii: np.ndarray):
    """Per-trial PPP discs with individual radii; returns flat coords + counts."""
    means = density * math.pi * radii ** 2
    counts = rng.poisson(means)
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0), np.empty(0), counts)
    rad = np.repeat(radii, counts) * np.sqrt(rng.random(total))
    ang = 2.0 * math.pi * rng.random(total)
    return rad * np.cos(ang), rad * np.sin(ang), counts


def estimate_blockage(deploy: Deployment, r: float, trials: int,
                      seed: int) -> McEstimate:
    """Empirical corridor-blockage frequency of a link of length r.

    Obstacles are the user and blocker fields (density lambda_m + lambda_s),
    matching the analytic link-blockage law.
    """
    if r < 2.0 * deploy.r_b:
        raise ValueError("estimate_blockage requires r >= 2 r_b")
    density = deploy.lambda_m + deploy.lambda_s
    hits = 0
    for rng, b in _batches(trials, seed):
        radii = np.full(b, r + deploy.r_b)
        ox, oy, counts = _obstacle_field(rng, density, radii)
        blocked = _blocked_bulk(ox, oy, counts,
                                np.full(b, r), np.zeros(b), deploy.r_b)
        hits += int(blocked.sum())
    return McEstimate.from_hits(hits, trials)


def _nearest_two_batch(rng, deploy: Deployment, b: int):
    """Positions of the two nearest nodes to the origin for b trials."""
    # window large enough that the second-nearest lies inside w.h.p.
    r_win = math.sqrt(36.0 / (deploy.lambda_b * math.pi))
    mean = deploy.lambda_b * math.pi * r_win ** 2  # = 36
    counts = rng.poisson(mean, size=b)
    counts = np.maximum(counts, 2)  # probability ~1e-9 guard, keeps shapes sane
    max_n = int(counts.max())
    u = rng.random((b, max_n))
    rad = r_win * np.sqrt(u)
    ang = 2.0 * math.pi * rng.random((b, max_n))
    col = np.arange(max_n)
    rad = np.where(col[None, :] < counts[:, None], rad, np.inf)
    order = np.argpartition(rad, 1, axis=1)[:, :2]
    rows = np.arange(b)[:, None]
    r12 = rad[rows, order]
    a12 = ang[rows, order]
    swap = r12[:, 0] > r12[:, 1]
    r12[swap] = r12[swap][:, ::-1]
    a12[swap] = a12[swap][:, ::-1]
    return r12, a12


def nearest_two_distances(deploy: Deployment, samples: int, seed: int):
    """Sampled (r1, r2) distances of the two nearest nodes to the origin."""
    out = np.concatenate([_nearest_two_batch(rng, deploy, b)[0]
                          for rng, b in _batches(samples, seed)])
    return out[:, 0], out[:, 1]


def estimate_timeout(deploy: Deployment, trials: int, seed: int,
                     shared_obstacles: bool = False) -> McEstimate:
    """Fraction of scenes whose two nearest nodes are both corridor-blocked.

    By default each link's corridor is tested against its own obstacle
    field, matching the analytic factorisation of the two blockage events;
    shared_obstacles=True uses one common field instead (physically shared
    geometry, which the closed form does not model).
    """
    if trials < 1000:
        raise ValueError("estimate_timeout needs at least 1e3 trials")
    density = deploy.lambda_m + deploy.lambda_s
    hits = 0
    for rng, b in _batches(trials, seed):
        r12, a12 = _nearest_two_batch(rng, deploy, b)
        b1x, b1y = r12[:, 0] * np.cos(a12[:, 0]), r12[:, 0] * np.sin(a12[:, 0])
        b2x, b2y = r12[:, 1] * np.cos(a12[:, 1]), r12[:, 1] * np.sin(a12[:, 1])
        radii = r12[:, 1] + deploy.r_b
        ox, oy, counts = _obstacle_field(rng, density, radii)
        blocked1 = _blocked_bulk(ox, oy, counts, b1x, b1y, deploy.r_b)
        if shared_obstacles:
            blocked2 = _blocked_bulk(ox, oy, counts, b2x, b2y, deploy.r_b)
        else:
            ox2, oy2, counts2 = _obstacle_field(rng, density, radii)
            blocked2 = _blocked_bulk(ox2, oy2, counts2, b2x, b2y, deploy.r_b)
        hits += int((blocked1 & blocked2).sum())
    return McEstimate.from_hits(hits, trials)


def estimate_misalignment(deploy: Deployment, ability: SensingAbility,
                          tau: float, trials: int, seed: int) -> dict:
    """Monte-Carlo counterparts of the misalignment constituents.

    The sensing-error event draws the beam-coverage length from its
    exponential law and the nearest node's blockage from corridor geometry;
    the timeout term reuses estimate_timeout.  Returns a dict with
    'p_err', 'p_to' and 'p_ms' estimates (p_ms as the additive bound).
    """
    mu_g = beam_switch_density(deploy)
    density = deploy.lambda_m + deploy.lambda_s
    lo = max((deploy.v - ability.delta_v) * tau - ability.delta_db, 0.0)
    hi = deploy.v * tau

    hits = 0
    for rng, b in _batches(trials, seed):
        d_b = rng.exponential(1.0 / mu_g, size=b)
        miss = (d_b > lo) & (d_b < hi)
        r12, a12 = _nearest_two_batch(rng, deploy, b)
        b1x, b1y = r12[:, 0] * np.cos(a12[:, 0]), r12[:, 0] * np.sin(a12[:, 0])
        ox, oy, counts = _obstacle_field(rng, density, r12[:, 0] + deploy.r_b)
        blocked1 = _blocked_bulk(ox, oy, counts, b1x, b1y, deploy.r_b)
        hits += int((miss & ~blocked1).sum())
    err = McEstimate.from_hits(hits, trials)
    to = estimate_timeout(deploy, trials, seed + 1)
    p_ms = min(err.mean + to.mean, 1.0)
    se = math.sqrt(err.std_error ** 2 + to.std_error ** 2)
    return {
        "p_err": err,
        "p_to": to,
        "p_ms": McEstimate(p_ms, se, trials),
    }


def default_window_radius(system: SystemParams, deploy: Deployment,
                          r1: float) -> float:
    """Simulation disc radius capturing the interference and noise tails."""
    reach = 14.0 / max(system.k_abs, 1e-2)
    lam = deploy.lambda_b + deploy.lambda_m + deploy.lambda_s
    reach = max(reach, 5.0 / max(2.0 * lam * deploy.r_b, 1e-3))
    return min(max(60.0, r1 + 20.0, reach), 1500.0)


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
    if threshold <= 0.0:
        raise ValueError("threshold must be > 0")
    if lower_bound_mode not in ("theorem", "derivation"):
        raise ValueError("lower_bound_mode must be 'theorem' or 'derivation'")
    r_lo = 2.0 * deploy.r_b if lower_bound_mode == "theorem" else r1
    r_win = (default_window_radius(system, deploy, r1) if window_radius is None
             else window_radius)
    if not r_win > r_lo:  # NaN included
        raise ValueError("window_radius must exceed the lower-bound radius")

    p_ms = beam_misalignment(deploy, ability, system.tau).p_ms
    duty = deploy.n_b * system.t_ssb / system.tau
    q_mark = (duty + (1.0 - duty) * p_ms) / (deploy.n_b * deploy.n_m)
    k_over_a = budget.k_abs / (deploy.n_b * deploy.n_m) * budget.a
    margin = received_power(budget, r1) / threshold - \
        effective_noise(budget, deploy, system, r1)
    obstacle_density = deploy.lambda_m + deploy.lambda_s

    hits = 0
    for rng, b in _batches(trials, seed):
        counts = rng.poisson(deploy.lambda_b * math.pi * (r_win ** 2 - r_lo ** 2),
                             size=b)
        total = int(counts.sum())
        rad = np.sqrt(rng.random(total) * (r_win ** 2 - r_lo ** 2) + r_lo ** 2)
        ang = 2.0 * math.pi * rng.random(total)
        idx = np.repeat(np.arange(b), counts)
        # absorption re-radiation weights, built in place to keep the
        # batch's node-sized temporaries down to one
        g = np.exp(-budget.k_abs * rad)
        g *= rad ** -2
        g *= k_over_a
        i_eff = np.bincount(idx, weights=g, minlength=b)
        del g

        marks = rng.random(total) < q_mark
        aligned = rng.random(b) >= p_ms

        if np.any(marks):
            # corridor test only for the rare marked candidates; trial t
            # owns the nodes [starts[t], starts[t + 1]) and draws its own
            # user/blocker field, in ascending trial order
            starts = np.concatenate(([0], np.cumsum(counts)))
            for t in np.unique(idx[marks]):
                lo, hi = starts[t], starts[t + 1]
                x = rad[lo:hi] * np.cos(ang[lo:hi])
                y = rad[lo:hi] * np.sin(ang[lo:hi])
                others = _ppp_disc(rng, obstacle_density, r_win)
                obs_x = np.concatenate([x, [r1], others[:, 0]])
                obs_y = np.concatenate([y, [0.0], others[:, 1]])
                cand = np.flatnonzero(marks[lo:hi])
                blocked = _blocked_bulk(
                    np.tile(obs_x, cand.size), np.tile(obs_y, cand.size),
                    np.full(cand.size, obs_x.size), x[cand], y[cand], deploy.r_b)
                for r_j in rad[lo:hi][cand[~blocked]]:
                    i_eff[t] += budget.a * r_j ** -2 * math.exp(-budget.k_abs * r_j)

        hits += int((aligned & (i_eff < margin)).sum())
    return McEstimate.from_hits(hits, trials)
