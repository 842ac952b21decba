"""Quadrature primitives and special functions shared by the analytical
modules.

Everything here is pure; the one state, the oscillatory integrator's
memo, is a dict its caller owns.  There is an adaptive Gauss-Kronrod
integrator for semi-infinite integrands with decaying tails, and a
panel-marching integrator for one Dirichlet-type kernel

    D(phi) = int_0^inf envelope(s) sin(phi(s)) / (pi * s) ds,

whose envelope and phase come from one callable, so each node set costs
one evaluation.  The phase's part linear in s goes in as coefficients, so
that the callable can be one function shared by a family of kernels; the
memo keeps the callable's values at the nodes no coefficient moves: the
probe points, and the head of the first panel per first panel width.
All integrand callables must accept numpy arrays (they are evaluated on
batches of quadrature nodes).

The one batch integrator, `integrate_semi_infinite_batch`, marches a
whole batch of tails in rounds of panel blocks; the scalar
`integrate_semi_infinite` is a batch of one.  One refinement loop,
`_refine`, bisects the panels of that march and of the oscillatory
integrator.  A batched integrand is called as f(x, owner): x holds the
15 Gauss-Kronrod nodes of each of P pending panels, shape (P, 15), and
owner (shape (P,)) the batch member each panel belongs to.  It returns
shape (C, P, 15), its C components on the leading axis; every component
of a member is integrated over the same panels, each against its own
tolerance.

The four special functions the analytical chain needs, exp1 (E1), erfcx,
lambert_w0 (real W0) and gammainc2 (P(2, x)), are written here with numpy
and math alone, so that no runtime import loads scipy; each matches
scipy.special to 1e-14 relative over the arguments the package reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "integrate_semi_infinite",
    "integrate_semi_infinite_batch",
    "integrate_oscillatory",
    "exp1",
    "erfcx",
    "lambert_w0",
    "gammainc2",
]


class QuadratureError(RuntimeError):
    """Adaptive integration did not converge within the allowed subdivisions.

    Attributes:
        partial: Best available estimate of the integral.
        error_bound: Estimated bound on the remaining error.
    """

    def __init__(self, message: str, partial: float, error_bound: float):
        super().__init__(f"{message} (partial={partial:.6e}, bound={error_bound:.3e})")
        self.partial = partial
        self.error_bound = error_bound


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance budget for the adaptive integrators.

    Attributes:
        abs_tol: Absolute tolerance on the integral value.
        rel_tol: Relative tolerance on the integral value.
        max_subdivisions: Total panel-split budget before giving up.
        tail_cutoff_envelope: Semi-infinite truncation threshold; the tail
            is dropped once a panel contributes less than this fraction of
            the running estimate.
    """

    abs_tol: float = 1e-14
    rel_tol: float = 1e-10
    max_subdivisions: int = 4000
    tail_cutoff_envelope: float = 1e-12

    def __post_init__(self):
        if not all(tol > 0 for tol in (self.abs_tol, self.rel_tol,
                                       self.tail_cutoff_envelope)):
            raise ValueError("quadrature tolerances must be > 0")
        if not self.max_subdivisions >= 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_QUADRATURE = QuadratureSpec()


# -----------------------------------------------------------------------------
# Gauss-Kronrod 7/15 panel rule
# -----------------------------------------------------------------------------

_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GK_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


# -----------------------------------------------------------------------------
# Batched lockstep march (integrand contract in the module docstring)
# -----------------------------------------------------------------------------

# nodes on [0, 1] and half-weights, so that a panel [a, b] needs only b - a
_GK_UNIT = 0.5 * (1.0 + _GK_NODES)
_GK_WEIGHTS = 0.5 * np.stack([_GK_WK, _GK_WG], axis=1)


def _gk15_batch(f: Callable, a: np.ndarray, b: np.ndarray, owner: np.ndarray):
    """Gauss-Kronrod 7/15 on P panels; returns the (2C, P) stack of the C
    integrals over the C error estimates."""
    width = b - a
    x = a[:, None] + width[:, None] * _GK_UNIT
    both = np.asarray(f(x, owner), dtype=float) @ _GK_WEIGHTS
    comps = both.shape[0]
    # each rule scaled along the panels into one array, the error built in
    # place: a (C, P, 2) * (P, 1) broadcast and a concatenation cost more
    # than the products
    out = np.empty((2 * comps, width.size))
    ik, err = out[:comps], out[comps:]
    np.multiply(both[..., 0], width, out=ik)
    np.multiply(both[..., 1], width, out=err)
    err -= ik
    np.abs(err, out=err)
    err *= 200.0
    err **= 1.5
    # never report less than float roundoff on the panel
    np.maximum(err, np.abs(ik) * 1e-15, out=err)
    return out


# Root panels a semi-infinite member marches per block, of width 1, 2, 4,
# ...: a feature near the lower end is never hidden in one wide panel.  A
# member's tolerances and stop rule read only the panels up to where it
# stops, so the block size moves no value of a member that stops within
# it; spare panels lie in the dead tail and cost one node set each.
# Measured root panels per member: 9 for every member of the default
# shot-noise tables, whose root blocks start past their lead panels, and
# for the default timeout_probability; 11-12 for the table at a tenth of
# the default absorption and 12 for the timeout at lambda_b = 1e-5; 7 at
# three times the default absorption; 3-13 for the lossless table, of
# which 327 of 3816 members need 13.  Twelve closes all but those last
# members in one round, without sizing the block to the default
# deployment alone.
_ROOT_BLOCK = 12
_ROOT_EDGES = 2.0 ** np.arange(_ROOT_BLOCK + 1) - 1.0


def _refine(f: Callable, pa, pb, owner, est, tols, budget, cell=None):
    """Refine the panels [pa_j, pb_j], with Gauss-Kronrod estimates est (as
    from _gk15_batch), in lockstep until every component's error beats the
    tolerance in tols (C, P) of the cell the panel is a piece of: cell_j,
    by default panel j itself.  Each split is charged to the budget of the
    cell's owner, budget[owner[cell_j]], updated in place; an owner asking
    for more splits than it has left accepts those panels unrefined and has
    spent its budget.  Returns the (2, C, P) values and errors of the P
    cells, each the sum over its pieces."""
    comps, cells = tols.shape
    cell = np.arange(cells) if cell is None else cell
    own = owner[cell]
    done_cells, done_est = [], []
    while True:
        # a comparison per component: on a few panels, cheaper than a reduce
        want = est[comps] > tols[0][cell]
        for c in range(1, comps):
            want |= est[comps + c] > tols[c][cell]
        splitting = want.any()
        if splitting:
            budget -= np.bincount(own[want], minlength=budget.size)
            if budget.min() < 0:
                short = budget < 0
                want &= ~short[own]
                budget[short] = 0
                splitting = want.any()
        if not splitting:
            done_cells.append(cell)
            done_est.append(est)
            # rows 0..C-1 sum each panel's value, C..2C-1 its error
            return _member_sums(np.concatenate(done_est, axis=1), np.concatenate(done_cells),
                                cells).reshape(2, comps, cells)
        keep = ~want
        done_cells.append(cell[keep])
        done_est.append(est[:, keep])
        sa, sb, cell = pa[want], pb[want], cell[want]
        mid = 0.5 * (sa + sb)
        pa, pb = np.concatenate((sa, mid)), np.concatenate((mid, sb))
        cell = np.concatenate((cell, cell))
        own = owner[cell]
        est = _gk15_batch(f, pa, pb, own)


def _open_tolerances(roots, before, fresh, spec):
    """Tolerances (C, L, _ROOT_BLOCK) of the blocks just opened, from their
    root estimates (C, L, _ROOT_BLOCK) and the running totals before them
    (C, L); the blocks that `fresh` picks (an index, or None for none) open
    with their member's very first panel, which is referenced to its own
    estimate."""
    ahead = before[:, :, None] + np.cumsum(roots, axis=2) - roots
    if fresh is not None:
        ahead[:, fresh, 0] = roots[:, fresh, 0]
    return np.maximum(spec.abs_tol, spec.rel_tol * np.abs(ahead)) * 0.25


def _member_sums(values, owner, members):
    """(R, members) sums of the (R, P) panel values by owner."""
    rows = values.shape[0]
    index = np.arange(rows)[:, None] * members + owner
    return np.bincount(index.ravel(), weights=values.ravel(),
                       minlength=rows * members).reshape(rows, members)


def _lead_panels(a, lead):
    """(starts, ends, owners) of the nonempty lead panels of the members
    starting at a, and each member's last lead edge.  A row of lead holds
    a member's edges; NaN, or an edge below the one before it, adds no
    panel."""
    edges = np.fmax.accumulate(np.concatenate((a[:, None], np.reshape(lead, (a.size, -1))), axis=1),
                               axis=1)
    la, lb = edges[:, :-1], edges[:, 1:]
    use = lb > la
    return la[use], lb[use], np.nonzero(use)[0], edges[:, -1]


def _close_blocks(vals, errs, done, total, total_err, marched, last_small, spec):
    """Take the refined blocks (C, D, _ROOT_BLOCK) of the `done` members,
    each after `marched` root panels, panel by panel, updating in place
    their totals and whether their last panel was small; returns
    (finished, error bounds (C, D))."""
    run = np.cumsum(vals, axis=2)
    run += total[:, done, None]
    small = np.logical_and.reduce(
        np.abs(vals) < spec.tail_cutoff_envelope * np.maximum(np.abs(run), spec.abs_tol))
    # a small panel after a small one stops its member, three panels in
    stop = small & np.concatenate((last_small[done, None], small[:, :-1]), axis=1)
    stop[:, :max(2 - marched, 0)] = False
    finished = stop.any(axis=1)
    pick = (slice(None), np.arange(done.size),
            np.where(finished, np.argmax(stop, axis=1), _ROOT_BLOCK - 1))
    total[:, done] = run[pick]
    total_err[:, done] += np.cumsum(errs, axis=2)[pick]
    last_small[done] = small[:, -1]
    return finished, total_err[:, done] + np.abs(vals[pick])


def integrate_semi_infinite_batch(f: Callable, lower,
                                  spec: QuadratureSpec = DEFAULT_QUADRATURE,
                                  lead=None) -> np.ndarray:
    """Batched integrals of f over [lower_m, inf), m < M, for decaying
    integrands; f follows the batched integrand contract of the module
    docstring.

    An adaptive Gauss-Kronrod 7/15 march: each round lays out one block of
    _ROOT_BLOCK panels (width 1, 2, 4, ...) per open member, evaluates them
    in one integrand call and refines them with _refine; a member splits at
    most spec.max_subdivisions panels in all.  Each panel is refined to
    max(abs_tol, rel_tol |reference|) / 4 per component, the reference
    being the running total up to it with the panels before it in its
    block at their estimates (for the very first panel, its own estimate).
    A member stops at the first root panel that makes two consecutive,
    three root panels at least, below spec.tail_cutoff_envelope times the
    running total in every component.

    lead, (M, J), lays each member's first stretch on panels of its own
    ahead of the root panels: member m integrates [lower_m, lead[m, 0]],
    [lead[m, 0], lead[m, 1]], ... and its root block starts at its last
    lead edge.  A row ascends; NaN pads it past the member's last edge,
    and a member with no nonempty lead panel marches as without lead.
    With edges where an oscillating integrand's phase has fallen by pi,
    2 pi, ..., the lead panels take the oscillation that root panels would
    bisect round after round (Longman, Proc. Camb. Phil. Soc. 52, 1956).
    They are evaluated and refined in the first round, with the first root
    block, each to max(abs_tol, rel_tol |the member's lead estimate|) / 4,
    the lead estimate being the sum of its lead panels' estimates.  That
    estimate opens the running total the first root panel is referenced
    to; the refined lead sum replaces it before the stop rule, which reads
    root panels only, takes the block.  A call without lead is the march
    without them, bit for bit.

    Returns the (C, M) integrals.  Raises ValueError for an empty batch and
    QuadratureError for the first member of a round that has spent its
    budget or passed 300 root panels without stopping, with its partial
    value in the component with the largest error bound.
    """
    a = np.array(lower, dtype=float).ravel()  # a copy: marched in place
    members = a.size
    if not members:
        raise ValueError("empty batch: no lower bound to integrate from")
    # every member opens in round 0 and each round moves every open one
    # by a block, so the root panel width and count are shared by all
    first, marched = 1.0, 0
    budget = np.full(members, spec.max_subdivisions)
    last_small = np.zeros(members, dtype=bool)
    live = np.arange(members)
    # the blocks that open with their member's very first panel
    lead_n, fresh = 0, slice(None)
    if lead is not None:
        lead_a, lead_b, lead_owner, a = _lead_panels(a, lead)
        lead_n = lead_a.size
        if lead_n:
            fresh = np.bincount(lead_owner, minlength=members) == 0
    total = total_err = None
    while True:
        # blocks of width first, 2 first, 4 first, ... from a, after the
        # lead panels in round 0
        edges = a[live, None] + first * _ROOT_EDGES
        pa, pb = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        owner = np.repeat(live, _ROOT_BLOCK)
        if lead_n:
            pa, pb, owner = (np.concatenate(pair) for pair in (
                (lead_a, pa), (lead_b, pb), (lead_owner, owner)))
        est = _gk15_batch(f, pa, pb, owner)
        comps = est.shape[0] // 2
        if total is None:
            total, total_err = np.zeros((2, comps, members))
        # in round 0 the lead estimates open the running totals
        before = (_member_sums(est[:comps, :lead_n], lead_owner, members) if lead_n
                  else total[:, live])
        roots = est[:comps, lead_n:].reshape(comps, live.size, _ROOT_BLOCK)
        tols = _open_tolerances(roots, before, fresh, spec).reshape(comps, -1)
        if lead_n:
            lead_tols = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(before[:, lead_owner]))
            tols = np.concatenate((lead_tols * 0.25, tols), axis=1)
        found = _refine(f, pa, pb, owner, est, tols, budget)
        if lead_n:
            total[:], total_err[:] = _member_sums(
                found[..., :lead_n].reshape(2 * comps, -1), lead_owner,
                members).reshape(2, comps, members)
        vals, errs = found[..., lead_n:].reshape(2, comps, live.size, _ROOT_BLOCK)
        lead_n, fresh = 0, None
        finished, bound = _close_blocks(vals, errs, live, total, total_err,
                                        marched, last_small, spec)
        marched += _ROOT_BLOCK
        failed = (budget[live] <= 0) | (~finished & (marched > 300))
        if failed.any():
            j = int(np.argmax(failed))
            c = int(np.argmax(bound[:, j]))
            raise QuadratureError(
                f"semi-infinite quadrature did not converge (member {live[j]} of {members})",
                float(total[c, live[j]]), float(bound[c, j]))
        live = live[~finished]
        if not live.size:
            return total
        a[live] += first * _ROOT_EDGES[-1]
        first *= 2.0 ** _ROOT_BLOCK


def _one(f: Callable) -> Callable:
    """A scalar integrand as a one-component batched integrand."""
    def batched(x, owner):
        return np.asarray(f(x.ravel()), dtype=float).reshape(1, *x.shape)
    return batched


def integrate_semi_infinite(f: Callable, lower: float,
                            spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Integrate f over [lower, inf) for integrands with a decaying envelope:
    a batch of one of integrate_semi_infinite_batch.

    Raises QuadratureError (carrying the partial value and an error bound)
    if the subdivision budget is exhausted before the tail dies out.
    """
    return float(integrate_semi_infinite_batch(_one(f), lower, spec)[0, 0])


# -----------------------------------------------------------------------------
# Oscillatory (Dirichlet) kernel: envelope(s) * sin(phi(s)) / (pi s)
# -----------------------------------------------------------------------------

# s = 0, where the march starts, then the s-points probed for the phase
# scale that sets the first panel width
_PROBE_S = np.array([0.0] + [10.0 ** k for k in range(-18, 19)])
_TWO_PI = 2.0 * math.pi
# partial sums the tail estimate averages, and the weights C(m, k) / 2^m of
# m averaging passes, m < _EULER_TERMS
_EULER_TERMS = 24
_EULER_WEIGHTS = [np.array([math.comb(m, k) for k in range(m + 1)]) / 2.0 ** m
                  for m in range(_EULER_TERMS)]
# The march's first panel [a, a + h] is laid out as _HEAD_LEVELS + 1
# geometric pieces toward a, split at a + h 2^-k for k = _HEAD_LEVELS ... 1.
# An integrand with a feature on every scale of ln(s - a), as a field
# interpolated in ln s is, would otherwise bisect toward a one level per
# refinement step.
_HEAD_LEVELS = 32
_HEAD_PIECES = _HEAD_LEVELS + 1
_HEAD_SPLITS = 2.0 ** -np.arange(_HEAD_LEVELS, 0.0, -1.0)
# Phase-paced panels the march lays out per block; a spare panel past the
# stop costs one edge lookup and one node set, a second block a further
# edge layout, evaluation and refinement.  A panel's tolerance reads the
# estimates of the panels before it, refined or, within a block, not: the
# block size moves a tolerance by far less than the tolerance itself, and
# no pinned kernel by a bit (a test holds them at 16).  Measured stop
# panels: 12-29 over the inversion benchmark's grid (jsrs, theorem mode,
# r1 5-38 m, -5..15 dB), 90% within 24 and 99.6% within 28; 15-33 for the
# default CLI tables.  At 16, nearly every kernel paid for a second block,
# about 11 of whose panels lay past the stop.
_PHASE_BLOCK = 28
# the block cell of each laid-out panel: first block, then the others
_HEAD_CELLS = np.concatenate((np.zeros(_HEAD_LEVELS, dtype=int),
                              np.arange(_PHASE_BLOCK)))
_PHASE_CELLS = np.arange(_PHASE_BLOCK)


def _euler_accelerate(t):
    """Iterated averaging of at most _EULER_TERMS partial sums t_0..t_(n-1),
    an array, in closed form: the n - 1 passes leave
    sum_k C(n-1, k) t_k / 2^(n-1), the pass before the last the same form
    over t_1.. with n - 2.  Returns (value, spread between the two)."""
    last = float(_EULER_WEIGHTS[t.size - 1] @ t)
    prev = float(_EULER_WEIGHTS[t.size - 2] @ t[1:]) if t.size > 1 else last
    return last, abs(last - prev)


def _alternating(vals, nonzero, flips):
    """Whether the nonzero values among the last 10 panel values mostly
    alternate in sign.  nonzero[j] counts the nonzero values among the
    first j panel values, and flips[j] the sign changes u * w < 0.0 between
    consecutive nonzero ones there, so that no window is rebuilt."""
    n = len(vals)
    first = max(n - 10, 0)
    count = nonzero[n] - nonzero[first]
    if count < 4:
        return False
    while vals[first] == 0.0:
        first += 1
    # the first nonzero value of the window has no partner before it
    return flips[n] - flips[first + 1] >= 0.6 * (count - 1)


def _first_width(phi):
    """The first panel width from the phase phi at _PROBE_S, or at its
    first len(phi) points: a quarter of the first probed s where
    |phi| > 1, else of the last."""
    big = np.abs(phi[1:]) > 1.0
    # as a float, it keeps the edges' scalar arithmetic off numpy scalars
    return float(max(_PROBE_S[1 + np.argmax(big) if big.any() else -1] / 4.0, 1e-300))


def integrate_oscillatory(terms: Callable, spec: QuadratureSpec = DEFAULT_QUADRATURE, *,
                          rates: tuple = (), memo: dict | None = None):
    """D(phi) = int_0^inf envelope(s) sin(phi(s)) / (pi s) ds, one Dirichlet
    kernel, with (envelope, theta) = terms(s) for s a float or an array and
    phi(s) = theta(s) + 2 pi s rates[0] + 2 pi s rates[1] + ..., summed
    left to right.

    phi must vanish at s = 0, which makes the kernel finite there.  Panels
    track the local half-period of phi, so their contributions alternate
    once the kernel oscillates; the tail is summed with iterated averaging
    (Euler-style acceleration).  The panels come in blocks of
    _PHASE_BLOCK: their edges are laid out one after the other, then all
    are refined in lockstep, each to a tolerance referenced to the running
    total plus the estimates of the panels before it.  The first block's
    first panel goes in as _HEAD_LEVELS + 1 geometric pieces toward s = 0,
    refined in the same lockstep, each held to that panel's tolerance, and
    summed back into it; the stop rules, the tail and the budget see its
    one value as they see any panel's.  The stop rules are then taken panel
    by panel: integration stops when the accelerated tail stabilises within
    tolerance, the integrand is dead or the envelope falls below
    spec.tail_cutoff_envelope.

    memo, a dict, keeps terms across calls: theta at the probe points read
    so far (the probe stops at the first |phi| > 1), and the terms at the
    nodes of the head pieces per first panel width, which are all that
    those nodes depend on.  Pass one dict only to calls whose terms are one
    and the same function of s; it then holds at most one entry per
    possible width, plus the probe.  The kernel reads the same values
    either way.

    Returns:
        (value, error_estimate)

    Raises:
        QuadratureError: when the panel budget runs out first.
    """
    memo = {} if memo is None else memo

    def phase(s, theta):
        two_pi_s = _TWO_PI * s
        for rate in rates:
            theta = theta + two_pi_s * rate
        return theta

    def values(x, env, theta):
        return (env * np.sin(phase(x, theta)) / (np.pi * x))[None]

    def integrand(x, owner):
        return values(x, *terms(x))

    def first_block(x, owner):
        # the head pieces' nodes, the first rows of x, depend on h0 alone
        head = memo.get(h0)
        if head is None:
            env, theta = terms(x)
            memo[h0] = env[:_HEAD_PIECES].copy(), theta[:_HEAD_PIECES].copy()
        else:
            env, theta = terms(x[_HEAD_PIECES:])
            env, theta = np.concatenate((head[0], env)), np.concatenate((head[1], theta))
        return values(x, env, theta)

    a = 0.0
    # phi at the probe points in order, up to the first |phi| > 1 past
    # s = 0, as far as _first_width reads: terms may cost more the further
    # out s is (a table integrated on demand), so theta is looked up one
    # probe at a time, and the memo keeps it at the probes read so far
    probe = memo.setdefault("probe", [])
    phi = []
    for k, s in enumerate(_PROBE_S.tolist()):
        if k == len(probe):
            probe.append(terms(s)[1])
        phi.append(phase(s, probe[k]))
        if k and abs(phi[k]) > 1.0:
            break
    phi_a = float(phi[0])
    h = h0 = _first_width(np.array(phi))
    budget = np.array([spec.max_subdivisions])
    owner = np.zeros(_PHASE_BLOCK, dtype=int)
    # partial sums in an array the tail estimate reads as a view, doubled
    # when full; the panel values with their nonzero and sign-flip counts
    partial, sums, stable = 0.0, np.empty(2 * _EULER_TERMS), 0
    vals, nonzero, flips, last = [], [0], [0], 0.0
    cell = _HEAD_CELLS
    while True:
        edges, envs, widths = [a], [], []
        for _ in range(_PHASE_BLOCK):
            b = a + h
            env, theta_b = terms(b)
            phi_b = float(phase(b, theta_b))
            edges.append(b)
            envs.append(abs(float(env)))
            widths.append(h)
            # next panel length: local half-period of phi
            slope = abs(phi_b - phi_a) / h
            if slope * h < 0.1:
                h *= 2.0
            else:
                h = min(max(math.pi / slope, 0.25 * h), 4.0 * h)
            a, phi_a = b, phi_b
        pts, f = np.array(edges), integrand
        if cell is _HEAD_CELLS:
            # the first edge past s = 0 is at the first panel width
            env_ref = max(envs[0], 1e-300)
            pts = np.concatenate((pts[:1], edges[0] + widths[0] * _HEAD_SPLITS, pts[1:]))
            f = first_block
        pa, pb = pts[:-1], pts[1:]
        est = _gk15_batch(f, pa, pb, owner[cell])
        roots = np.bincount(cell, weights=est[0], minlength=_PHASE_BLOCK)
        ahead = np.abs(partial + np.cumsum(roots) - roots)
        (panel_vals,), (panel_errs,) = _refine(
            integrand, pa, pb, owner, est,
            (np.maximum(spec.abs_tol, spec.rel_tol * ahead) * 0.1)[None], budget, cell)
        cell = _PHASE_CELLS
        for val, err, b, env_b, h_b in zip(panel_vals.tolist(), panel_errs.tolist(),
                                           edges[1:], envs, widths):
            n = len(vals)
            if n == sums.size:
                sums = np.concatenate((sums, np.empty(n)))
            partial += val
            sums[n] = partial
            vals.append(val)
            nonzero.append(nonzero[n] + (val != 0.0))
            flips.append(flips[n] + (last * val < 0.0))
            if val != 0.0:
                last = val
            n += 1
            done = None
            oscillating = _alternating(vals, nonzero, flips)
            if oscillating and n >= 6:
                # alternating panel sums: accelerated tail estimate
                est, est_err = _euler_accelerate(sums[max(n - _EULER_TERMS, 0):n])
                if est_err < max(spec.abs_tol, spec.rel_tol * abs(est)):
                    stable += 1
                    if stable >= 3:
                        done = est, est_err + err
                else:
                    stable = 0
            else:
                est, est_err = partial, abs(val) + err
                stable = 0
                # a dead integrand (equal phases, or envelope long gone)
                if len(vals) >= 6 and all(
                        abs(u) <= max(spec.abs_tol, spec.rel_tol * abs(partial)) * 0.01
                        for u in vals[-4:]):
                    done = partial, est_err
            if (done is None and env_b < spec.tail_cutoff_envelope * env_ref
                    and len(vals) >= 4):
                # envelope dead: the raw sum is the value; bound the lost tail
                bound = env_b * 2.0 / (math.pi * max(b, 1e-300)) * h_b
                done = (est, est_err + bound) if oscillating else (partial, err + bound)
            if done is not None and budget[0] > 0:
                return done
            if budget[0] <= 0 or len(vals) >= spec.max_subdivisions:
                raise QuadratureError(
                    "oscillatory quadrature did not converge", est, max(est_err, abs(val)))


# -----------------------------------------------------------------------------
# Special functions of a real argument
# -----------------------------------------------------------------------------

# Every series and continued fraction below runs a fixed number of terms, so
# an element's value never depends on the rest of its array.

_EULER_GAMMA = 0.5772156649015329

# E1's series coefficients (-1)^(k+1) / (k k!), k = 18 down to 1, for
# Horner's rule: the 19th term is below 1e-18 of E1 on (0, 1]
_E1_SERIES = tuple((-1) ** (k + 1) / (k * math.factorial(k))
                   for k in range(18, 0, -1))

# E1's continued fraction terms: Zhang and Jin's count 20 + 80/x at x = 1
_E1_TERMS = 99

# erfc(x) e^{x^2} rounds to within 1.2e-15 below this argument; the
# continued fraction takes over from it with as many terms as it needs there
_ERFCX_CUT = 4.0
_ERFCX_TERMS = 23

# P(2, x)'s series below this argument: 1 / (k + 2)!, k = 9 down to 0, for
# Horner's rule; the 11th term is below 5e-16 of P(2, x) at the cut
_P2_CUT = 0.2
_P2_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(9, -1, -1))


def _horner(coefficients, x):
    """sum_k c_k x^k from the coefficients, highest power first; every
    element of x is summed alone, whatever the shape of x."""
    acc = coefficients[0]
    for c in coefficients[1:]:
        acc = acc * x + c
    return acc


def exp1(x):
    """Exponential integral E1(x) = int_1^inf e^{-x t} / t dt, x > 0.

    Up to x = 1 the series -gamma - ln x - sum_{k>=1} (-x)^k / (k k!)
    (A&S 5.1.11), 18 terms; above it the continued fraction
    e^{-x} / (x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(x + 7 - ...)))), the even
    part of A&S 5.1.22, evaluated backwards from _E1_TERMS terms."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 1.0
    xs = x[small]
    out[small] = -_EULER_GAMMA - np.log(xs) + xs * _horner(_E1_SERIES, xs)
    big = ~small
    xb = x[big]
    if xb.size:
        t = xb + (2 * _E1_TERMS + 1)
        for i in range(_E1_TERMS, 0, -1):
            t = xb + (2 * i - 1) - i * i / t
        out[big] = np.exp(-xb) / t
    return out[()]


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x), x >= 0.

    Below _ERFCX_CUT, math.erfc(x) e^{x^2} element by element; from it on,
    Laplace's continued fraction
    1 / (sqrt(pi) (x + (1/2)/(x + (2/2)/(x + (3/2)/(x + ...))))),
    _ERFCX_TERMS terms evaluated backwards, which stays finite where erfc(x)
    underflows."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = x >= _ERFCX_CUT
    xb = x[big]
    if xb.size:
        t = xb
        for k in range(_ERFCX_TERMS, 0, -1):
            t = xb + (0.5 * k) / t
        out[big] = 1.0 / (math.sqrt(math.pi) * t)
    out[~big] = [math.erfc(v) * math.exp(v * v) for v in x[~big].tolist()]
    return out[()]


def lambert_w0(z):
    """Principal branch W0 of the Lambert W function, w e^w = z, z >= 0.

    Winitzki's start L (1 - ln(1 + L)/(2 + L)), L = ln(1 + z), within 2%
    of W0 on [0, inf), then two steps of Fritsch, Shafer and Crowley's
    fourth-order iteration (Commun. ACM 16, 1973): the first leaves a
    relative error below 3e-9, the second only rounding.  The whole array
    steps in lockstep, with no per-element loop; W0(0) = 0 is set apart,
    as the steps divide by w."""
    z = np.asarray(z, dtype=float)
    pos = z > 0.0
    zp = np.where(pos, z, 1.0)
    w = np.log1p(zp)
    w = w * (1.0 - np.log1p(w) / (2.0 + w))
    for _ in range(2):
        zn = np.log(zp / w) - w
        wp1 = 1.0 + w
        q = 2.0 * wp1 * (wp1 + (2.0 / 3.0) * zn)
        w = w * (1.0 + zn / wp1 * (q - zn) / (q - 2.0 * zn))
    return np.where(pos, w, 0.0)[()]


def gammainc2(x):
    """Regularized lower incomplete gamma function P(2, x) =
    1 - (1 + x) e^{-x}, x >= 0.

    From _P2_CUT on, -expm1(-x) - x e^{-x}, whose terms cancel there by
    about a factor of ten; below it the series of positive terms
    x^2 e^{-x} sum_{k>=0} x^k / (k + 2)!, so no digit is lost as x -> 0.
    Both forms run on the whole array (the series at min(x, _P2_CUT)) and
    np.where picks one, with no per-element loop."""
    x = np.asarray(x, dtype=float)
    xs = np.minimum(x, _P2_CUT)
    series = xs * xs * np.exp(-xs) * _horner(_P2_SERIES, xs)
    return np.where(x < _P2_CUT, series, -np.expm1(-x) - x * np.exp(-x))[()]
