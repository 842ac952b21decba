import math
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from isacthz import coverage, specfun
from isacthz.channel import (LinkBudget, effective_noise,
                             interference_probability, lower_bound_radius,
                             received_power, sweep_weight)
from isacthz.cli import COVERAGE_GRID
from isacthz.config import Deployment, SystemParams
from isacthz.coverage import (_INNER_QUAD, _PHASE_BUDGET,
                              DEFAULT_COVERAGE_QUADRATURE, LOWER_BOUND_MODES,
                              CoverageQuery, CoverageResult, ShotNoiseField,
                              _coverage_row, _field_for, _pchip_coefficients,
                              _split_table, _threshold_free_kernel,
                              clear_field_cache,
                              coverage_probability, coverage_sweep)
from isacthz.misalignment import beam_misalignment
from isacthz.schemes import scheme_ability
from isacthz.sensing import SCHEMES, perfect_ability
from isacthz.specfun import (QuadratureError, QuadratureSpec,
                             integrate_semi_infinite)
from test_specfun import oscillatory_oracle

SYS = SystemParams()
DEP = Deployment()
BUD = LinkBudget.from_params(SYS, DEP)

TIGHT = QuadratureSpec(abs_tol=1e-16, rel_tol=1e-11, max_subdivisions=100000,
                       tail_cutoff_envelope=1e-13)


def _abilities(system, deploy):
    return {s: scheme_ability(s, system, deploy) for s in SCHEMES}


def _field(p_ms=0.1, lower=None, budget=BUD, deploy=DEP, system=SYS):
    return ShotNoiseField(budget, deploy, sweep_weight(deploy, system, p_ms),
                          lower if lower is not None else 2 * deploy.r_b)


def direct_shot_noise(fld, s):
    """Oracle of the split table: (f_r(s), f_i(s)) of one field at its own
    weight, from separate scalar quadratures of the f_r and f_i brackets.

    On [lower, r_split] (interference phase above the budget) the
    interference cosine/sine collapse to weighted endpoint corrections; the
    absorption trig terms are endpoint-corrected on their own fast zone
    [lower, r_abs], where the unit term is an area, and integrated
    numerically on [r_abs, r_split] together with the unit term, as the
    difference of the tails from r_abs and from r_split.  Beyond
    r_split everything is slow and the cosine bracket is evaluated in the
    cancellation-free form (1-p) 2 sin^2(ph_a/2) + p 2 sin^2(ph_i/2).
    """
    lower, k = fld.lower, fld.k
    two_rb = 2.0 * fld.deploy.r_b

    def g(r):
        return r ** -2.0 * np.exp(-k * r)

    def p_int(r):
        return fld.w_s * np.exp(-fld.deploy.total_density * (r - two_rb) * two_rb)

    def endpoint(c_x, a, b, kind, weight):
        # first-order endpoint value of int_a^b r h(r) trig(phase) dr
        def term(r):
            phase = 2.0 * math.pi * s * c_x * g(r)
            dphase = -phase * (2.0 / r + k)
            w = float(weight(np.asarray(r, dtype=float)))
            if kind == "cos":
                return r * w * math.sin(phase) / dphase
            return -r * w * math.cos(phase) / dphase

        return term(b) - term(a)

    r_abs = float(fld._phase_radius(s, fld.c_abs, _PHASE_BUDGET))
    r_split = float(fld._phase_radius(s, fld.c_int, _PHASE_BUDGET))

    def bracket_r(r):
        ph_a = 2.0 * math.pi * s * fld.c_abs * g(r)
        ph_i = 2.0 * math.pi * s * fld.c_int * g(r)
        p = p_int(r)
        return r * 2.0 * ((1.0 - p) * np.sin(0.5 * ph_a) ** 2
                          + p * np.sin(0.5 * ph_i) ** 2)

    def bracket_i(r):
        ph_a = 2.0 * math.pi * s * fld.c_abs * g(r)
        ph_i = 2.0 * math.pi * s * fld.c_int * g(r)
        p = p_int(r)
        return r * (np.sin(ph_i) * p + np.sin(ph_a) * (1.0 - p))

    f_r = integrate_semi_infinite(bracket_r, r_split, _INNER_QUAD)
    f_i = integrate_semi_infinite(bracket_i, r_split, _INNER_QUAD)
    if r_split > lower:
        f_r -= endpoint(fld.c_int, lower, r_split, "cos", p_int)
        f_i += endpoint(fld.c_int, lower, r_split, "sin", p_int)
        # r_abs < r_split because c_abs < c_int
        f_r += 0.5 * (r_abs ** 2 - lower ** 2)
        if r_abs > lower:
            # the absorption endpoint keeps weight 1, as the library does
            f_r -= endpoint(fld.c_abs, lower, r_abs, "cos", np.ones_like)
            f_i += endpoint(fld.c_abs, lower, r_abs, "sin", np.ones_like)

        def slow_abs_r(r):
            # r [1 - (1 - p) cos ph_a], free of cancellation
            ph_a = 2.0 * math.pi * s * fld.c_abs * g(r)
            p = p_int(r)
            return r * ((1.0 - p) * 2.0 * np.sin(0.5 * ph_a) ** 2 + p)

        def slow_abs_i(r):
            ph_a = 2.0 * math.pi * s * fld.c_abs * g(r)
            return r * np.sin(ph_a) * (1.0 - p_int(r))

        def segment(f):
            return (integrate_semi_infinite(f, r_abs, _INNER_QUAD)
                    - integrate_semi_infinite(f, r_split, _INNER_QUAD))

        f_r += segment(slow_abs_r)
        f_i += segment(slow_abs_i)
    return f_r, f_i


def _whole_table(budget, deploy, lower):
    """(s grid, (4, n) split values) of the cached split table, integrated
    over its whole grid."""
    table = _split_table(budget, deploy, lower)
    return table.grid, table.extend(table.grid.size)


def _direct(fld, s):
    """The library's (f_r(s), f_i(s)) at the field's weight, evaluated
    directly by the batched split rather than interpolated."""
    f0_r, f1_r, f0_i, f1_i = fld._split_chunk(np.array([s]))[:, 0]
    return f0_r + fld.w_s * f1_r, f0_i + fld.w_s * f1_i


class TestShotNoiseParts:
    def test_vanish_at_small_s(self):
        fr, fi = _direct(_field(), 1e-6)
        assert abs(fr) < 1e-9
        assert abs(fi) < 1e-6

    def test_vanish_without_power(self):
        tiny = LinkBudget(a=1e-280, k_abs=BUD.k_abs)
        fr, fi = _direct(_field(budget=tiny), 1e6)
        assert abs(fr) < 1e-12
        assert abs(fi) < 1e-12

    def test_real_part_nonnegative(self):
        fld = _field()
        for s in np.geomspace(1e2, 1e13, 23):
            fr, _ = _direct(fld, float(s))
            assert fr >= -1e-10

    def test_against_direct_quadrature(self):
        # the fast/slow split must agree with a plain integral where the
        # oscillation is still resolvable
        fld = _field(p_ms=0.09)

        # s small enough that the plain integrator can still resolve the
        # oscillation near the lower bound (the hybrid handles larger s)
        for s in (1e3, 1e4, 1e5):
            def bracket_r(r, s=s):
                ph_a = 2 * np.pi * s * fld.c_abs * r ** -2.0 * np.exp(-fld.k * r)
                ph_i = 2 * np.pi * s * fld.c_int * r ** -2.0 * np.exp(-fld.k * r)
                p = interference_probability(DEP, SYS, r, 0.09)
                return r * 2.0 * ((1 - p) * np.sin(ph_a / 2) ** 2
                                  + p * np.sin(ph_i / 2) ** 2)

            def bracket_i(r, s=s):
                ph_a = 2 * np.pi * s * fld.c_abs * r ** -2.0 * np.exp(-fld.k * r)
                ph_i = 2 * np.pi * s * fld.c_int * r ** -2.0 * np.exp(-fld.k * r)
                p = interference_probability(DEP, SYS, r, 0.09)
                return r * (np.sin(ph_i) * p + np.sin(ph_a) * (1 - p))

            ref_r = integrate_semi_infinite(bracket_r, 2 * DEP.r_b, TIGHT)
            ref_i = integrate_semi_infinite(bracket_i, 2 * DEP.r_b, TIGHT)
            fr, fi = _direct(fld, s)
            assert fr == pytest.approx(ref_r, rel=2e-4, abs=1e-8)
            assert fi == pytest.approx(ref_i, rel=2e-4, abs=1e-8)

    def test_interpolant_matches_exact(self):
        fld = _field(p_ms=0.12)
        for s in (3.3e4, 7.7e6, 2.2e9, 8.8e11):
            fr_i, fi_i = fld.parts(s)
            fr_e, fi_e = direct_shot_noise(fld, s)
            # envelope exponent error 2 pi lambda_b * |dfr| stays below 1e-4
            assert fr_i == pytest.approx(fr_e, rel=2e-3, abs=1e-6)
            assert fi_i == pytest.approx(fi_e, rel=2e-3, abs=5e-2)


class TestPartsPaths:
    """parts() takes an array path for arrays and a scalar path for a float,
    an np.float64 or a 0-d array; the two must agree."""

    @pytest.fixture(params=[2 * DEP.r_b, 20.0], scope="class")
    def lookups(self, request):
        p_ms = beam_misalignment(DEP, scheme_ability("jsrs", SYS, DEP), SYS.tau).p_ms
        fld = ShotNoiseField(BUD, DEP, sweep_weight(DEP, SYS, p_ms), request.param)
        grid = _whole_table(BUD, DEP, request.param)[0]
        # below, across and above the tabulated range
        s = np.geomspace(1e-3 * grid[0], 1e2 * grid[-1], 4001)
        return fld, s, fld.parts(s)

    def test_node_sets_equal_one_point_lookups(self, lookups):
        fld, s, _ = lookups
        x = s[:3990].reshape(-1, 15)
        fr, fi = fld.parts(x)
        assert fr.shape == fi.shape == x.shape
        for j, v in enumerate(x.ravel()):
            one_r, one_i = fld.parts(np.array([v]))
            assert (one_r[0], one_i[0]) == (fr.flat[j], fi.flat[j])

    @pytest.mark.parametrize("kind", [float, np.float64, np.array])
    def test_scalar_path_within_two_ulp(self, lookups, kind):
        fld, s, (fr, fi) = lookups
        got = np.array([fld.parts(kind(v)) for v in s.tolist()])
        assert np.all(np.abs(got[:, 0] - fr) <= 2 * np.spacing(fr))
        assert np.all(np.abs(got[:, 1] - fi) <= 2 * np.spacing(np.abs(fi)))


ORACLE_REL = 1e-10


def _sweep_weights(deploy, system=SYS):
    """w_s of the four schemes, then at the ends p_ms = 0 and 1."""
    abilities = _abilities(system, deploy)
    p_ms = [beam_misalignment(deploy, ability, system.tau).p_ms
            for ability in abilities.values()]
    return [sweep_weight(deploy, system, p) for p in p_ms + [0.0, 1.0]]


def _oracle_deviation(budget, deploy, weights, lower):
    """Worst relative deviation of the shared split table from
    direct_shot_noise at every 5th grid point: f_r against itself, f_i
    against max(|f_r|, |f_i|), since f_i crosses zero."""
    grid, split = _whole_table(budget, deploy, lower)
    worst = 0.0
    for w in weights:
        fld = ShotNoiseField(budget, deploy, w, lower)
        for j in range(0, grid.size, 5):
            fr, fi = direct_shot_noise(fld, float(grid[j]))
            tab_r = split[0, j] + w * split[1, j]
            tab_i = split[2, j] + w * split[3, j]
            worst = max(worst, abs(tab_r - fr) / abs(fr),
                        abs(tab_i - fi) / max(abs(fr), abs(fi)))
    return worst


LOSSLESS = replace(BUD, k_abs=0.0)
EDGES = {
    "dense nodes": (BUD, replace(DEP, lambda_b=10 * DEP.lambda_b)),
    "sparse nodes": (BUD, replace(DEP, lambda_b=DEP.lambda_b / 10)),
    "lossless": (LOSSLESS, DEP),
    "narrow beams": (LinkBudget.from_params(SYS, replace(DEP, n_b=1024, n_m=1024)),
                     replace(DEP, n_b=1024, n_m=1024)),
    "wide beams": (LinkBudget.from_params(SYS, replace(DEP, n_b=8, n_m=8)),
                   replace(DEP, n_b=8, n_m=8)),
}


class TestSplitTableOracle:
    """The batched F0 + w_s F1 table against per-weight scalar quadrature."""

    @pytest.mark.parametrize("lower", [2 * DEP.r_b, 10.0, 20.0, 40.0])
    def test_default_deployment(self, lower):
        assert _oracle_deviation(BUD, DEP, _sweep_weights(DEP), lower) <= ORACLE_REL

    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_edge_configuration(self, edge):
        budget, deploy = EDGES[edge]
        weights = [sweep_weight(deploy, SYS, p) for p in (0.0, 1.0)]
        assert _oracle_deviation(budget, deploy, weights, 2 * deploy.r_b) <= ORACLE_REL

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(density=st.floats(-1.0, 1.0), absorption=st.sampled_from([0.0, 0.1, 1.0, 3.0]),
           n_b=st.integers(8, 1024), n_m=st.integers(8, 1024),
           p_ms=st.floats(0.0, 1.0),
           lower=st.sampled_from([2 * DEP.r_b, 10.0, 20.0, 40.0]))
    def test_drawn_configuration(self, density, absorption, n_b, n_m, p_ms, lower):
        # lambda_b within a decade of the default, absorption from none to
        # three times the default, any beam widths; one weight per draw
        # keeps a draw near a second
        deploy = replace(DEP, lambda_b=DEP.lambda_b * 10.0 ** density,
                         n_b=n_b, n_m=n_m)
        budget = replace(LinkBudget.from_params(SYS, deploy),
                         k_abs=absorption * SYS.k_abs)
        weights = [sweep_weight(deploy, SYS, p_ms)]
        assert _oracle_deviation(budget, deploy, weights, lower) <= ORACLE_REL


class TestPinnedField:
    """The default split tables against values recorded from the code:
    speed work on the table build must not move the field unseen.  A
    change meant to move it re-records these literals."""

    # lower bound: (grid size, s_hi, (grid index, component, value) x 4)
    RECORDED = {
        2 * DEP.r_b: (616, 5.2064895641038635e+19, (
            (154, 0, 7.950736710229847e-06), (308, 1, 330.48849677048605),
            (462, 2, 156.48680565240645), (615, 3, -15.837689376361418))),
        10.0: (504, 1.2149897670793202e+19, (
            (126, 0, 2.44196661191241e-06), (252, 1, 395.61187056285246),
            (378, 2, 165.87539550681487), (503, 3, -15.320079313945952))),
        20.0: (476, 1.6093974104807198e+20, (
            (119, 0, 1.7860440985518259e-06), (238, 1, 445.49278704073146),
            (357, 2, 201.45003056947013), (475, 3, -16.114253986950047))),
        40.0: (392, 7.059674261688216e+20, (
            (98, 0, 1.2308163017670634e-07), (196, 1, 422.9371466171025),
            (294, 2, 238.37343701738627), (391, 3, -16.331454048843163))),
    }

    @pytest.mark.parametrize("lower", sorted(RECORDED))
    def test_default_table(self, lower):
        size, s_hi, entries = self.RECORDED[lower]
        clear_field_cache()
        grid, split = _whole_table(BUD, DEP, lower)
        assert grid.size == size
        assert grid[-1] == pytest.approx(s_hi, rel=1e-13)
        for j, c, value in entries:
            assert split[c, j] == pytest.approx(value, rel=1e-13)


class TestTableWork:
    # Gauss-Kronrod panels of one cold default table per lower bound,
    # recorded from the code: a rounding-level change to the integrand
    # leaves them as they are; a change meant to move them re-records them
    PANELS = {2 * DEP.r_b: 31_963, 10.0: 24_388, 20.0: 22_706, 40.0: 17_673}

    def test_default_table_panels(self, monkeypatch):
        panels, rounds = [], []
        gk15 = specfun._gk15_batch
        close = specfun._close_blocks

        def count_panels(f, a, b, owner):
            panels.append(a.size)
            return gk15(f, a, b, owner)

        def count_rounds(*args):
            finished, bound = close(*args)
            rounds.append(bool(finished.all()))
            return finished, bound

        monkeypatch.setattr(specfun, "_gk15_batch", count_panels)
        monkeypatch.setattr(specfun, "_close_blocks", count_rounds)
        counts, calls = {}, {}
        for lower in self.PANELS:
            panels.clear()
            clear_field_cache()
            _whole_table(BUD, DEP, lower)
            counts[lower], calls[lower] = sum(panels), len(panels)
        assert counts == self.PANELS
        # root panels alone over each member's oscillating band made the
        # 2 r_b table 50,170 panels in 96 Gauss-Kronrod calls; lead panels
        # at the phase levels resolve that band in the first round
        assert counts[2 * DEP.r_b] <= 33_000
        assert calls[2 * DEP.r_b] <= 35
        # every member of every batch closes in its first root block
        assert rounds and all(rounds)


class TestPhaseBudget:
    """The phase levels are derived from _PHASE_BUDGET where a chunk is
    integrated, so a patched budget builds: doubled, it keeps the default
    2 r_b grid and moves no default sweep value by 1e-4."""

    @staticmethod
    def _default_sweeps():
        r1s, dbs = COVERAGE_GRID
        thresholds = [10.0 ** (db / 10.0) for db in dbs]
        return np.array([row["p_cvp"] for mode in LOWER_BOUND_MODES
                         for row in coverage_sweep(r1s, thresholds, SCHEMES,
                                                   BUD, DEP, SYS, mode)])

    def test_doubled_budget(self, monkeypatch):
        size, s_hi, _ = TestPinnedField.RECORDED[2 * DEP.r_b]
        clear_field_cache()
        base = self._default_sweeps()
        monkeypatch.setattr(coverage, "_PHASE_BUDGET", 120.0)
        clear_field_cache()
        try:
            grid, _ = _whole_table(BUD, DEP, 2 * DEP.r_b)
            assert grid.size == size
            assert grid[-1] == pytest.approx(s_hi, rel=1e-13)
            assert np.abs(self._default_sweeps() - base).max() <= 1e-4
        finally:
            clear_field_cache()


class TestOnDemandTable:
    """A view over a split table integrated on demand against a view over
    the whole table: every lookup, on either path and in any read order,
    returns the same floats, and a chunk that fails is integrated again."""

    @pytest.fixture(params=[2 * DEP.r_b, 40.0], scope="class")
    def whole(self, request):
        lower = request.param
        p_ms = beam_misalignment(DEP, ABILITIES["jsrs"], SYS.tau).p_ms
        w_s = sweep_weight(DEP, SYS, p_ms)
        clear_field_cache()
        grid = _whole_table(BUD, DEP, lower)[0]
        view = ShotNoiseField(BUD, DEP, w_s, lower)
        view.parts(grid[0])  # builds its interpolants on the whole table
        clear_field_cache()
        # below s_lo, at and between the knots, at s_hi and above it
        s = np.concatenate(([0.0, 1e-3 * grid[0], 0.5 * grid[0]], grid,
                            np.sqrt(grid[:-1] * grid[1:]),
                            [2.0 * grid[-1], 1e3 * grid[-1]]))
        return lower, w_s, view, s

    @pytest.mark.parametrize("kind", [float, np.float64, np.array, "array"])
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_lookups_equal_whole_table(self, whole, order, kind):
        lower, w_s, full, s = whole
        s = {"ascending": np.sort(s), "descending": np.sort(s)[::-1],
             "shuffled": np.random.default_rng(7).permutation(s)}[order]
        clear_field_cache()
        lazy = ShotNoiseField(BUD, DEP, w_s, lower)
        table = _split_table(BUD, DEP, lower)
        extents = []
        if kind == "array":
            for block in np.array_split(s, 64):
                got, want = lazy.parts(block), full.parts(block)
                assert (got[0] == want[0]).all() and (got[1] == want[1]).all()
                extents.append(table.split.shape[1])
        else:
            for v in s.tolist():
                assert lazy.parts(kind(v)) == full.parts(kind(v))
                extents.append(table.split.shape[1])
        assert extents[-1] == table.grid.size
        if order == "ascending":
            # one chunk at a time
            assert len(set(extents)) == math.ceil(table.grid.size / coverage._S_CHUNK)

    def test_failed_chunk_is_not_kept(self, whole, monkeypatch):
        lower, w_s, full, _ = whole
        clear_field_cache()
        lazy = ShotNoiseField(BUD, DEP, w_s, lower)
        table = _split_table(BUD, DEP, lower)
        grid, chunk = table.grid, coverage._S_CHUNK
        inside = float(grid[5])
        assert lazy.parts(inside) == full.parts(inside)
        assert table.split.shape[1] == chunk
        split_chunk = ShotNoiseField._split_chunk

        def fail_second(fld, s):
            if s[0] == grid[chunk]:
                raise QuadratureError("forced", 0.0, 1.0)
            return split_chunk(fld, s)

        monkeypatch.setattr(ShotNoiseField, "_split_chunk", fail_second)
        # the piece after knot chunk + 8 needs the second chunk
        past = float(np.sqrt(grid[chunk + 8] * grid[chunk + 9]))
        for lookup in (past, np.array([inside, past])):
            with pytest.raises(QuadratureError):
                lazy.parts(lookup)
            assert table.split.shape[1] == chunk
        assert lazy.parts(inside) == full.parts(inside)
        monkeypatch.undo()
        assert lazy.parts(past) == full.parts(past)
        assert table.split.shape[1] == 2 * chunk

    def test_extended_interpolants_equal_one_build(self, whole):
        # every extension builds the interpolants again, whole, on the
        # integrated prefix; after every step they must be the one-shot
        # build on that prefix, its flat copy included
        lower, w_s, _, _ = whole
        clear_field_cache()
        lazy = ShotNoiseField(BUD, DEP, w_s, lower)
        table = _split_table(BUD, DEP, lower)
        prefixes = set()
        for v in np.sqrt(table.grid[:-1] * table.grid[1:]).tolist():
            lazy.parts(v)
            coef, flat = lazy._tables[4], lazy._tables[6]
            m = coef.shape[2] + 1
            split = table.split[:, :m]
            fr = np.maximum(split[0] + w_s * split[1], 1e-300)
            fi = split[2] + w_s * split[3]
            ref = _pchip_coefficients(table.knots[:m],
                                      np.stack((np.log(fr), fi)))
            assert np.array_equal(coef, ref)
            assert flat == array("d", ref.transpose(2, 1, 0).tobytes())
            prefixes.add(m)
        assert len(prefixes) == math.ceil(table.grid.size / coverage._S_CHUNK)
        assert max(prefixes) == table.grid.size


class TestTableExtent:
    # (s-points integrated, grid size) of each table after the default
    # `coverage` and `coverage --lower-bound derivation` sweeps, recorded
    # from the code: the kernels read no piece past these prefixes
    EXTENT = {2 * DEP.r_b: (448, 616), 10.0: (288, 504), 20.0: (288, 476),
              40.0: (192, 392)}

    def test_default_sweeps(self):
        r1s, dbs = COVERAGE_GRID
        clear_field_cache()
        for mode in LOWER_BOUND_MODES:
            coverage_sweep(r1s, [10.0 ** (db / 10.0) for db in dbs], SCHEMES,
                           BUD, DEP, SYS, mode)
        assert _split_table.cache_info().misses == len(self.EXTENT)
        extent = {}
        for lower in self.EXTENT:
            table = _split_table(BUD, DEP, lower)
            extent[lower] = (table.split.shape[1], table.grid.size)
        assert extent == self.EXTENT


class TestHalfAngleBrackets:
    """The table integrand's tan-form brackets against the np.sin forms
    2 sin^2(ph/2) and sin ph, within 4 eps max(1, ph); a RuntimeWarning
    (overflow or an invalid value near a pole of tan) fails the test."""

    POLES = 2.0 * math.pi * (2.0 * np.arange(5) + 1.0)  # tan(ph/4) poles below 64

    @pytest.mark.parametrize("ph", [
        np.random.default_rng(0).uniform(0.0, 64.0, 100_000),
        np.geomspace(1e-300, 1.0, 10_001),
        np.concatenate(([0.0, 5e-324], math.pi * np.arange(1.0, 21.0), POLES,
                        np.nextafter(POLES, 0.0), np.nextafter(POLES, 64.0))),
    ], ids=["drawn", "tiny", "specials"])
    def test_against_sin(self, ph):
        half, sin = np.empty_like(ph), np.empty_like(ph)
        coverage._half_angle_brackets(ph.copy(), half, sin)
        tol = 4.0 * np.finfo(float).eps * np.maximum(1.0, ph)
        assert np.all(np.abs(half - 2.0 * np.sin(0.5 * ph) ** 2) <= tol)
        assert np.all(np.abs(sin - np.sin(ph)) <= tol)


class TestFieldCache:
    R1 = [10.0, 20.0, 40.0]

    @pytest.mark.parametrize("mode, tables", [("theorem", 1), ("derivation", 3)])
    def test_one_split_table_per_lower_bound(self, mode, tables):
        # four schemes share one table per lower bound: 2 r_b in theorem
        # mode, each r1 in derivation mode
        clear_field_cache()
        coverage_sweep(self.R1, [10.0], SCHEMES, BUD, DEP, SYS, mode)
        assert _split_table.cache_info().misses == tables
        assert _field_for.cache_info().misses == len(SCHEMES) * tables

    def test_clear_empties_both_caches(self):
        q = CoverageQuery(r1=20.0, threshold=10.0)
        coverage_probability(q, BUD, DEP, SYS, perfect_ability())
        caches = (_split_table, _field_for, _threshold_free_kernel)
        assert all(c.cache_info().currsize > 0 for c in caches)
        clear_field_cache()
        assert all(c.cache_info().currsize == 0 for c in caches)

    def test_request_order_does_not_matter(self):
        abilities = _abilities(SYS, DEP)
        q = CoverageQuery(r1=20.0, threshold=10.0)
        clear_field_cache()
        first = coverage_probability(q, BUD, DEP, SYS, abilities["jsrs"]).p_cvp
        clear_field_cache()
        for name in SCHEMES:
            if name != "jsrs":
                coverage_probability(q, BUD, DEP, SYS, abilities[name])
        after = coverage_probability(q, BUD, DEP, SYS, abilities["jsrs"]).p_cvp
        assert first == after


def _cell(query, budget, deploy, p_ms):
    """One coverage cell at a given p_ms: a row of one threshold."""
    return _coverage_row(query.r1, [query.threshold], query.lower_bound_mode,
                         budget, deploy, SYS, p_ms)[0]


def oracle_p_cm(query, p_ms, budget=BUD, deploy=DEP, head=specfun._HEAD_LEVELS):
    """(p_cm, error estimate) of one cell by the scalar oscillatory march,
    with the envelope and the two phases as separate field lookups; head = 0
    bisects the first panel instead of laying it out geometrically."""
    lower = 2 * deploy.r_b if query.lower_bound_mode == "theorem" else query.r1
    fld = _field_for(budget, deploy, sweep_weight(deploy, SYS, p_ms), lower)
    two_pi_lb = 2.0 * math.pi * deploy.lambda_b
    y = received_power(budget, query.r1) / query.threshold
    p_eff = effective_noise(budget, deploy, SYS, query.r1)

    def envelope(s):
        return np.exp(-two_pi_lb * fld.parts(s)[0])

    def phi1(s):
        return -two_pi_lb * fld.parts(s)[1] - 2.0 * math.pi * s * p_eff

    def phi2(s):
        return phi1(s) + 2.0 * math.pi * s * y

    p_cm, err = oscillatory_oracle(envelope, phi1, phi2, DEFAULT_COVERAGE_QUADRATURE,
                                   head=head)
    return min(max(p_cm, 0.0), 1.0), err


ABILITIES = _abilities(SYS, DEP)


def _cells(modes, r1s, dbs):
    return [CoverageQuery(r1=r1, threshold=10.0 ** (db / 10.0), lower_bound_mode=mode)
            for mode in modes for r1 in r1s for db in dbs]


class TestInversionOracle:
    """The block march with its fused lookup against the scalar march."""

    @pytest.mark.parametrize("mode", LOWER_BOUND_MODES)
    def test_default_deployment(self, mode):
        worst = 0.0
        for name, ability in ABILITIES.items():
            for r1 in (5.0, 20.0, 38.0):
                for db in (-5.0, 5.0, 15.0):
                    q = CoverageQuery(r1=r1, threshold=10.0 ** (db / 10.0),
                                      lower_bound_mode=mode)
                    res = coverage_probability(q, BUD, DEP, SYS, ability)
                    worst = max(worst, abs(res.p_cm - oracle_p_cm(q, res.p_ms)[0]))
        assert worst <= 1e-12


class TestBisectingLayoutOracle:
    """The library against the scalar march that bisects its first panel
    toward s = 0: the two layouts must agree within their summed error
    estimates."""

    @staticmethod
    def _worst(budget, deploy, queries):
        """Largest |delta p_cm| / (err_library + err_oracle) over every
        scheme at every query."""
        worst = 0.0
        for ability in _abilities(SYS, deploy).values():
            p_ms = beam_misalignment(deploy, ability, SYS.tau).p_ms
            for q in queries:
                res = _cell(q, budget, deploy, p_ms)
                ref, ref_err = oracle_p_cm(q, p_ms, budget, deploy, head=0)
                worst = max(worst, abs(res.p_cm - ref) / (res.integral_abs_error + ref_err))
        return worst

    def test_default_deployment(self):
        queries = _cells(LOWER_BOUND_MODES, (5.0, 12.0, 20.0, 38.0), (-5.0, 0.0, 5.0, 15.0))
        assert self._worst(BUD, DEP, queries) <= 1.0

    @pytest.mark.parametrize("edge", ["dense nodes", "sparse nodes", "narrow beams",
                                      "wide beams"])
    def test_edge_configuration(self, edge):
        budget, deploy = EDGES[edge]
        queries = _cells(LOWER_BOUND_MODES, (5.0, 38.0), (-5.0, 15.0))
        assert self._worst(budget, deploy, queries) <= 1.0


class TestInversionWork:
    def test_first_panel_is_not_bisected(self, monkeypatch):
        # bisecting the first panel toward s = 0 took about 37 Gauss-Kronrod
        # rounds per cell here, one per level; its geometric pieces, in one
        # block of phase-paced panels, take at most 7
        p_ms = beam_misalignment(DEP, ABILITIES["jsrs"], SYS.tau).p_ms
        queries = _cells(["theorem"], (5.0, 20.0, 38.0), (-5.0, 5.0, 15.0))
        clear_field_cache()
        # the whole table first, so that no cell below integrates a chunk
        _whole_table(BUD, DEP, 2 * DEP.r_b)
        _cell(queries[0], BUD, DEP, p_ms)
        calls = []
        gk15 = specfun._gk15_batch
        monkeypatch.setattr(specfun, "_gk15_batch",
                            lambda *args: calls.append(1) or gk15(*args))
        per_cell = []
        for q in queries:
            del calls[:]
            _cell(q, BUD, DEP, p_ms)
            per_cell.append(len(calls))
        assert max(per_cell) <= 8


class TestThresholdFreeCache:
    """The cached threshold-free kernel D(phi1) against a fresh one."""

    def test_warm_equals_cold(self):
        queries = _cells(LOWER_BOUND_MODES, (5.0, 20.0, 38.0), (-5.0, 5.0, 15.0))
        cold = []
        for q in queries:
            clear_field_cache()
            cold.append(coverage_probability(q, BUD, DEP, SYS, ABILITIES["jsrs"]))
        clear_field_cache()
        warm = [coverage_probability(q, BUD, DEP, SYS, ABILITIES["jsrs"])
                for q in queries]
        assert warm == cold

    def test_further_threshold_integrates_one_kernel(self, monkeypatch):
        clear_field_cache()
        calls = []
        integrate = coverage.integrate_oscillatory
        monkeypatch.setattr(coverage, "integrate_oscillatory",
                            lambda *a, **k: calls.append(1) or integrate(*a, **k))
        for db, kernels in ((5.0, 2), (10.0, 1), (-5.0, 1)):
            del calls[:]
            q = CoverageQuery(r1=20.0, threshold=10.0 ** (db / 10.0))
            coverage_probability(q, BUD, DEP, SYS, ABILITIES["jsrs"])
            assert len(calls) == kernels

    def test_quadrature_error_is_not_cached(self, monkeypatch):
        calls = []

        def fail(*args, **kwargs):
            calls.append(1)
            raise QuadratureError("forced", 0.0, 1.0)

        clear_field_cache()
        monkeypatch.setattr(coverage, "integrate_oscillatory", fail)
        q = CoverageQuery(r1=20.0, threshold=10.0)
        for attempt in (1, 2):
            with pytest.raises(QuadratureError):
                coverage_probability(q, BUD, DEP, SYS, ABILITIES["jsrs"])
            assert len(calls) == attempt
        assert _threshold_free_kernel.cache_info().currsize == 0


class TestPinnedInversion:
    """Raw jsrs kernels (value, error) against values recorded from the
    code, compared with ==: speed work on the inversion must not move a
    single bit of it.  They pin more digits than the golden tables and are
    not clamped, as p_cm is.  A change meant to move them re-records these
    literals."""

    DEPLOYMENTS = {"default": (BUD, DEP), **EDGES}
    THRESHOLDS_DB = (None, -5.0, 10.0)  # None: y = 0, the threshold-free kernel

    # (deployment, mode, r1): (value, error) at each of THRESHOLDS_DB
    RECORDED = {
        ("default", "theorem", 5.0): (
            (-0.5000041253886369, 8.305702559405899e-08),
            (0.49999904428998004, 8.71222535793783e-08),
            (0.4999949861321992, 1.143809206864054e-07)),
        ("default", "theorem", 20.0): (
            (-0.5000171788014829, 8.758850034157335e-08),
            (0.494483470858227, 1.4800767304575353e-07),
            (0.38226321001100316, 4.9751448517156876e-08)),
        ("default", "theorem", 38.0): (
            (-0.5000181265044154, 1.1434987057289817e-07),
            (-0.06746469929247792, 1.807581342997555e-08),
            (-0.4598361602658309, 6.989330841870016e-08)),
        ("default", "derivation", 5.0): (
            (-0.4999909285164233, 2.4594411307727533e-07),
            (0.49999991771374136, 8.711880735478572e-08),
            (0.4999967093152165, 1.1422482039714414e-07)),
        ("default", "derivation", 20.0): (
            (-0.5000065093686628, 5.0529464693662694e-08),
            (0.4999999057249578, 9.452012251504997e-08),
            (0.49998876213808013, 7.733449137377828e-08)),
        ("default", "derivation", 38.0): (
            (-0.4999999097542736, 9.670843470855232e-08),
            (0.5000000408540676, 5.948491128938149e-08),
            (0.4999747616916977, 6.268420696040333e-08)),
        ("sparse nodes", "theorem", 5.0): (
            (-0.49999956317846406, 9.478913593489266e-08),
            (0.4999997420311529, 8.711907140237597e-08),
            (0.49999889453939067, 1.1423093310852069e-07)),
        ("sparse nodes", "theorem", 20.0): (
            (-0.5000030928137164, 9.160920201121318e-08),
            (0.49946466308351406, 9.658457324866453e-08),
            (0.4881939515392603, 9.115217203289693e-08)),
        ("sparse nodes", "theorem", 38.0): (
            (-0.5000035744570164, 7.017976012078703e-08),
            (0.42545393290972455, 1.0892892905123132e-07),
            (0.24429425829070014, 3.098761078882334e-08)),
        ("sparse nodes", "derivation", 5.0): (
            (-0.5000085942847805, 7.079963315971503e-08),
            (0.4999999177154775, 8.711868898936199e-08),
            (0.4999992415996143, 1.1421760304924519e-07)),
        ("sparse nodes", "derivation", 20.0): (
            (-0.500004562062671, 4.3398392036071957e-07),
            (0.4999999057543119, 9.452188260636571e-08),
            (0.49999759816905254, 7.735172014906335e-08)),
        ("sparse nodes", "derivation", 38.0): (
            (-0.4999999145090791, 9.68838262263391e-08),
            (0.5000000409210936, 5.9491805659063176e-08),
            (0.49999449725769696, 6.234436654234618e-08)),
        ("lossless", "theorem", 5.0): (
            (-0.4999999202927735, 9.696887793826745e-08),
            (0.49999942507133877, 6.646082374009134e-08),
            (0.4999846682091407, 3.1457217459239376e-09)),
        ("lossless", "theorem", 20.0): (
            (-0.4999999202927735, 9.696887793826745e-08),
            (0.4999916479684181, 1.1157004404619393e-07),
            (0.49987032046259966, 1.1222760339179924e-07)),
        ("lossless", "theorem", 38.0): (
            (-0.4999999202927735, 9.696887793826745e-08),
            (0.4999739841662615, 8.819137714663567e-08),
            (0.49976290237388654, 1.1618427692848939e-07)),
        ("lossless", "derivation", 5.0): (
            (-0.4999999218952416, 9.696904508234382e-08),
            (0.4999999361786021, 6.646079263266912e-08),
            (0.49998639008051193, 3.125663951832045e-09)),
        ("lossless", "derivation", 20.0): (
            (-0.4999999389905823, 9.697112286473465e-08),
            (0.4999998916401276, 1.1156615342788304e-07),
            (0.49989346766604775, 1.1207679834337356e-07)),
        ("lossless", "derivation", 38.0): (
            (-0.4999999691895368, 9.697520643155313e-08),
            (0.4999999179654885, 8.813858516696712e-08),
            (0.49982812401171683, 1.1582185794477723e-07)),
        ("dense nodes", "theorem", 5.0): (
            (-0.49999457578584605, 3.173028634287297e-08),
            (0.499993516861668, 8.71553659222009e-08),
            (0.4999659013493953, 1.1591466222730583e-07)),
        ("dense nodes", "theorem", 20.0): (
            (-0.500006475469539, 2.0425516545472717e-11),
            (0.42663029223431903, 7.259155410172364e-08),
            (-0.34231026773341633, 6.154776821532093e-08)),
        ("dense nodes", "theorem", 38.0): (
            (-0.5000064798839043, 1.3802115415554608e-11),
            (-0.5000016408251788, 8.019566160591818e-12),
            (-0.5000064904281943, 4.121225673898351e-12)),
        ("dense nodes", "derivation", 5.0): (
            (-0.5000010538960626, 2.549113676194088e-07),
            (0.4999999177008748, 8.711788057965538e-08),
            (0.49997836643404087, 1.1439223116902991e-07)),
        ("dense nodes", "derivation", 20.0): (
            (-0.4999994469757322, 4.887412543812288e-07),
            (0.49999990540166284, 9.449765017762696e-08),
            (0.49994296266844696, 7.770838356167784e-08)),
        ("dense nodes", "derivation", 38.0): (
            (-0.4999998738159841, 9.568150273182423e-08),
            (0.5000000404130374, 5.9402256265431545e-08),
            (0.4999104014786463, 6.612942266050795e-08)),
        ("narrow beams", "theorem", 5.0): (
            (-0.49999772850881236, 8.490152139565455e-08),
            (0.4999998404801373, 1.0562431613774246e-07),
            (0.49999959048477444, 5.695511623875857e-08)),
        ("narrow beams", "theorem", 20.0): (
            (-0.5000177673921354, 7.82471338833917e-08),
            (0.49999858414777903, 9.117811663480917e-08),
            (0.4997461472623975, 1.4445021807142573e-07)),
        ("narrow beams", "theorem", 38.0): (
            (-0.5000199484860898, 1.3644291663173053e-07),
            (0.38423943573900166, 8.561347553066689e-08),
            (0.02556094748401028, 2.644878175978257e-08)),
        ("narrow beams", "derivation", 5.0): (
            (-0.49999691358181153, 3.9426491201364153e-07),
            (0.49999990391566856, 1.0562420600361842e-07),
            (0.4999997155818497, 5.6953893938406485e-08)),
        ("narrow beams", "derivation", 20.0): (
            (-0.5000032188267813, 2.449961085282177e-07),
            (0.499999914008414, 9.082385327666263e-08),
            (0.49999910772004724, 9.127568385542947e-08)),
        ("narrow beams", "derivation", 38.0): (
            (-0.49999993728211917, 8.630983445441294e-08),
            (0.49999990066050626, 1.0402356709925104e-07),
            (0.49999880523381474, 1.1175102122505066e-07)),
        ("wide beams", "theorem", 5.0): (
            (-0.5000030731277937, 1.0630708551489777e-07),
            (0.4999157845266271, 1.4786847214185947e-08),
            (0.47934413926926556, 1.8138752016466567e-08)),
        ("wide beams", "theorem", 20.0): (
            (-0.5000092568454294, 6.022752674576914e-08),
            (-0.020538782811176246, 1.6750745575851068e-08),
            (-0.5000093165331558, 7.433552508399493e-08)),
        ("wide beams", "theorem", 38.0): (
            (-0.5000092599245445, 6.095180904752559e-08),
            (-0.5000092608335799, 6.1165943756531e-08),
            (-0.5000092599532662, 6.095857363629635e-08)),
        ("wide beams", "derivation", 5.0): (
            (-0.4999603915693318, 7.371605392923223e-08),
            (0.49999996561575255, 4.855979613261843e-09),
            (0.4996817588402983, 8.903771942375271e-08)),
        ("wide beams", "derivation", 20.0): (
            (-0.49999991613919603, 9.539833690766802e-08),
            (0.4997620881753891, 1.0699223573256316e-07),
            (-0.4999999517150859, 5.469770528356604e-08)),
        ("wide beams", "derivation", 38.0): (
            (-0.49999991259823695, 9.69989376707519e-08),
            (-0.49999991235448016, 9.724206441171349e-08),
            (-0.49999991259056975, 9.700658599716852e-08)),
    }

    @classmethod
    def kernels(cls, key):
        """(value, error) of the kernels of one RECORDED key, as floats."""
        name, mode, r1 = key
        budget, deploy = cls.DEPLOYMENTS[name]
        return tuple(tuple(map(float, coverage._kernel(*args, y)))
                     for args, y in _jsrs_kernel_args(budget, deploy, mode, r1, cls.THRESHOLDS_DB))

    @pytest.mark.parametrize("key", sorted(RECORDED), ids=lambda key: "-".join(map(str, key)))
    def test_kernels(self, key):
        assert self.kernels(key) == self.RECORDED[key]


def _jsrs_kernel_args(budget, deploy, mode, r1, thresholds_db):
    """(field arguments of coverage._kernel, y) of a jsrs cell per
    threshold in dB; None stands for y = 0, the threshold-free kernel."""
    p_ms = beam_misalignment(deploy, scheme_ability("jsrs", SYS, deploy), SYS.tau).p_ms
    args = (budget, deploy, sweep_weight(deploy, SYS, p_ms),
            lower_bound_radius(mode, deploy, r1), effective_noise(budget, deploy, SYS, r1))
    return [(args, 0.0 if db is None else received_power(budget, r1) / 10.0 ** (db / 10.0))
            for db in thresholds_db]


class TestKernelMemo:
    """The terms each field view keeps for its kernels (probe points and
    head nodes per first panel width) and the phase block size move no
    value."""

    # the inversion benchmark's grid: r1 = 5..38 m, -5..15 dB
    R1 = tuple(5.0 + 3.0 * i for i in range(12))
    THRESHOLDS_DB = (None, *(float(db) for db in range(-5, 16)))

    def _grid(self):
        return [cell for r1 in self.R1
                for cell in _jsrs_kernel_args(BUD, DEP, "theorem", r1, self.THRESHOLDS_DB)]

    def test_warm_memo_equals_fresh_view(self, monkeypatch):
        nodes = [0]
        parts = ShotNoiseField.parts

        def counted(view, s):
            nodes[0] += np.size(s)
            return parts(view, s)

        monkeypatch.setattr(ShotNoiseField, "parts", counted)
        grid = self._grid()
        fresh, probed = [], 0
        for args, y in grid:
            # a new view over the cached split table, its memo empty
            _field_for.cache_clear()
            fresh.append(coverage._kernel(*args, y))
            # the probe points this kernel read, up to its first |phi| > 1
            probed += len(_field_for(*args[:4]).memo["probe"])
        fresh_nodes = nodes[0]
        for args, y in grid:
            coverage._kernel(*args, y)
        nodes[0] = 0
        warm = [coverage._kernel(*args, y) for args, y in grid]
        assert warm == fresh
        # every warm kernel found its probe points and head nodes in the
        # memo; a fresh view's probe read 23-32 of the 38 points here
        assert probed == 7_285
        assert fresh_nodes - nodes[0] == probed + len(grid) * 15 * specfun._HEAD_PIECES

    def test_one_probe_entry_and_one_entry_per_width(self, monkeypatch):
        widths = set()
        first_width = specfun._first_width
        monkeypatch.setattr(specfun, "_first_width",
                            lambda phi: widths.add(first_width(phi)) or first_width(phi))
        grid = self._grid()
        clear_field_cache()
        for args, y in grid:
            coverage._kernel(*args, y)
        view = _field_for(*grid[0][0][:4])
        assert set(view.memo) == {"probe"} | widths
        assert len(view.memo) <= len(specfun._PROBE_S)
        clear_field_cache()
        assert _field_for(*grid[0][0][:4]).memo == {}

    def test_block_of_sixteen_moves_no_pinned_value(self, monkeypatch):
        cells = np.arange(16)
        monkeypatch.setattr(specfun, "_PHASE_BLOCK", 16)
        monkeypatch.setattr(specfun, "_PHASE_CELLS", cells)
        monkeypatch.setattr(specfun, "_HEAD_CELLS", np.concatenate(
            (np.zeros(specfun._HEAD_LEVELS, dtype=int), cells)))
        for key, want in TestPinnedInversion.RECORDED.items():
            assert TestPinnedInversion.kernels(key) == want, key


class TestPchipCoefficients:
    def test_equal_to_scipy(self):
        # random knots and rows with flat runs, sign changes and the
        # shortest tables, against scipy's PCHIP as the oracle
        worst = 0.0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 40))
            x = np.cumsum(rng.uniform(0.01, 2.0, n))
            y = rng.normal(size=(2, n))
            y[1] = np.cumsum(np.abs(y[1]) * (rng.random(n) < 0.7))
            ref = np.stack([PchipInterpolator(x, row).c for row in y], axis=1)
            worst = max(worst, np.abs(_pchip_coefficients(x, y) - ref).max())
        assert worst == 0.0


class TestCoverageProperties:
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(scheme=st.sampled_from(SCHEMES), mode=st.sampled_from(LOWER_BOUND_MODES),
           r1=st.floats(2 * DEP.r_b, 40.0), db=st.floats(-10.0, 20.0),
           step=st.floats(0.1, 10.0))
    def test_bounded_and_monotone_in_threshold(self, scheme, mode, r1, db, step):
        p_cvp = [coverage_probability(
            CoverageQuery(r1=r1, threshold=10.0 ** (t / 10.0), lower_bound_mode=mode),
            BUD, DEP, SYS, ABILITIES[scheme]).p_cvp for t in (db, db + step)]
        assert all(0.0 <= p <= 1.0 for p in p_cvp)
        assert p_cvp[1] <= p_cvp[0] + 2e-6


class TestPhaseRadius:
    @staticmethod
    def _phase(fld, s, c_x, r):
        return 2 * np.pi * s * c_x * r ** -2.0 * np.exp(-fld.k * r)

    def test_phase_hits_target(self):
        # on a log-s grid the returned radius puts the phase on the budget
        fld = _field()
        hit = 0
        for s in np.geomspace(1e-2, 1e40, 200):
            for c_x in (fld.c_abs, fld.c_int):
                r = fld._phase_radius(float(s), c_x, _PHASE_BUDGET)
                if r > fld.lower:
                    hit += 1
                    assert self._phase(fld, s, c_x, r) == pytest.approx(
                        _PHASE_BUDGET, rel=1e-12)
        assert hit > 200

    def test_clamps_to_lower_bound(self):
        fld = _field(lower=30.0)
        s = 1e-3 / fld.c_int
        assert self._phase(fld, s, fld.c_int, fld.lower) < _PHASE_BUDGET
        assert fld._phase_radius(s, fld.c_int, _PHASE_BUDGET) == fld.lower

    def test_lossless_branch(self):
        # k = 0: the phase equation r^2 = x has the root sqrt(x)
        lossless = LinkBudget(a=BUD.a, k_abs=0.0)
        fld = ShotNoiseField(lossless, DEP, 1e-3, 2 * DEP.r_b)
        s = 1e8 / fld.c_int
        x = 2 * np.pi * s * fld.c_int / _PHASE_BUDGET
        assert fld._phase_radius(s, fld.c_int, _PHASE_BUDGET) == math.sqrt(x)

    def test_lower_bound_below_contact_rejected(self):
        with pytest.raises(ValueError):
            _field(lower=DEP.r_b)


class TestLineOfSightArea:
    @pytest.mark.parametrize("deploy", [
        DEP, replace(DEP, lambda_b=10 * DEP.lambda_b),
        replace(DEP, lambda_m=0.0, lambda_s=0.0)],
        ids=["default", "dense", "blocker-free"])
    def test_closed_form_matches_quadrature(self, deploy):
        # on the table's own [r_abs, r_split] segments
        fld = _field(deploy=deploy)
        lam = deploy.lambda_b + deploy.lambda_m + deploy.lambda_s
        two_rb = 2 * deploy.r_b
        grid, _ = _whole_table(BUD, deploy, fld.lower)
        checked = 0
        for s in grid[::10]:
            a = float(fld._phase_radius(s, fld.c_abs, _PHASE_BUDGET))
            b = float(fld._phase_radius(s, fld.c_int, _PHASE_BUDGET))
            if b > fld.lower:
                ref, _ = quad(lambda r: r * math.exp(-lam * (r - two_rb) * two_rb),
                              a, b, epsabs=0.0, epsrel=1e-13, limit=200)
                assert fld._los_area(a, b) == pytest.approx(ref, rel=1e-12)
                checked += 1
        assert checked > 10


class TestCoverageProbability:
    def test_impossible_threshold(self):
        q = CoverageQuery(r1=20.0, threshold=1e30)
        res = coverage_probability(q, BUD, DEP, SYS, perfect_ability())
        assert res.p_cvp == pytest.approx(0.0, abs=1e-5)

    def test_misalignment_prefactor(self):
        # coverage is exactly (1 - p_ms) times the conditional term; with
        # blockers everywhere the prefactor crushes it
        dense = replace(DEP, lambda_s=5.0)
        ability = scheme_ability("5g", SYS, dense)
        p_ms = beam_misalignment(dense, ability, SYS.tau).p_ms
        assert p_ms > 0.99
        q = CoverageQuery(r1=5.0, threshold=1.0)
        res = coverage_probability(q, BUD, dense, SYS, ability)
        assert res.p_cvp == pytest.approx((1.0 - p_ms) * res.p_cm, abs=1e-12)
        assert res.p_cvp < 0.01

    def test_noise_only_closed_form(self):
        # shrinking the orientation/coupling factor 1/(n_b n_m) at a fixed
        # link constant kills interference and re-radiated noise; coverage
        # becomes the deterministic effective-noise test
        quiet = replace(DEP, n_b=4096, n_m=4096)
        sys_quiet = replace(SYS, t_ssb=1e-12)
        bud = BUD  # the default deployment's A, not the narrow beams' gains
        ability = perfect_ability()
        # decisive points: the margin must dwarf (or be below) anything the
        # residual re-radiation field can contribute
        ceiling = bud.a * bud.k_abs / (quiet.n_b * quiet.n_m) * math.exp(-bud.k_abs)
        for r1, thr_db in ((10.0, 20.0), (15.0, 10.0), (50.0, 0.0)):
            thr = 10 ** (thr_db / 10)
            q = CoverageQuery(r1=r1, threshold=thr)
            res = coverage_probability(q, bud, quiet, sys_quiet, ability)
            margin = received_power(bud, r1) / thr \
                - effective_noise(bud, quiet, sys_quiet, r1)
            assert margin < 0.0 or margin > 50.0 * ceiling
            expect = 1.0 if margin > 0 else 0.0
            assert res.p_cm == pytest.approx(expect, abs=5e-3)

    def test_two_sided_brute_force(self):
        # direct trapezoid of the two-sided complex inversion integral,
        # reconstructing negative s from the even/odd parts
        dense = replace(DEP, lambda_b=0.05)
        bud = LinkBudget.from_params(SYS, dense)
        ability = scheme_ability("perfect", SYS, dense)
        p_ms = beam_misalignment(dense, ability, SYS.tau).p_ms
        r1, thr = 10.0, 10.0 ** 0.5
        q = CoverageQuery(r1=r1, threshold=thr)
        res = coverage_probability(q, bud, dense, SYS, ability)

        fld = ShotNoiseField(bud, dense, sweep_weight(dense, SYS, p_ms),
                             2 * dense.r_b)
        y = received_power(bud, r1) / thr
        p_eff = effective_noise(bud, dense, SYS, r1)
        lam = 2 * np.pi * dense.lambda_b

        s = np.geomspace(1e-2, 1e9, 400001)
        fr, fi = fld.parts(s)
        env = np.exp(-lam * fr)
        assert env[-1] < 1e-9  # truncation point carries no weight
        li_pos = env * np.exp(-1j * lam * fi)
        integ_pos = li_pos * np.exp(-2j * np.pi * s * p_eff) * \
            (np.exp(2j * np.pi * s * y) - 1.0) / (2j * np.pi * s)
        # f_r even, f_i odd: the negative-s integrand is the conjugate
        two_sided = 2.0 * np.trapezoid(np.real(integ_pos), s)
        assert res.p_cm == pytest.approx(two_sided, abs=1e-4)

    def test_interference_limited_density_monotone(self):
        # past the density knee, more nodes mean more re-radiated noise
        vals = []
        for lb in (1e-2, 2e-2, 5e-2):
            dep = replace(DEP, lambda_b=lb)
            bud = LinkBudget.from_params(SYS, dep)
            q = CoverageQuery(r1=20.0, threshold=10.0 ** 0.5)
            res = coverage_probability(q, bud, dep, SYS, perfect_ability())
            vals.append(res.p_cvp)
        assert all(v1 >= v2 - 1e-6 for v1, v2 in zip(vals, vals[1:]))

    def test_result_validation(self):
        with pytest.raises(ValueError):
            CoverageResult(p_cvp=1.2, p_cm=1.0, p_ms=0.0, integral_abs_error=0.0)
        with pytest.raises(ValueError):
            CoverageQuery(r1=10.0, threshold=-1.0)
        with pytest.raises(ValueError):
            CoverageQuery(r1=10.0, threshold=1.0, lower_bound_mode="both")


def _assert_sweep_is_cells(r1s, thresholds, budget, deploy):
    """Each row of the sweep is the cell coverage_probability computes with
    the row's scheme's ability on the swept deployment."""
    for mode in LOWER_BOUND_MODES:
        rows = coverage_sweep(r1s, thresholds, SCHEMES, budget, deploy, SYS, mode)
        assert len(rows) == len(SCHEMES) * len(r1s) * len(thresholds)
        cells = [(name, r1, thr) for name in SCHEMES for r1 in r1s
                 for thr in thresholds]
        for row, (name, r1, thr) in zip(rows, cells):
            q = CoverageQuery(r1=r1, threshold=thr, lower_bound_mode=mode)
            res = coverage_probability(q, budget, deploy, SYS,
                                       scheme_ability(name, SYS, deploy))
            assert row == {"scheme": name, "r1_m": r1,
                           "threshold_db": 10.0 * math.log10(thr),
                           "p_ms": res.p_ms, "p_cm": res.p_cm,
                           "p_cvp": res.p_cvp,
                           "abs_err": res.integral_abs_error}


class TestCoverageSweep:
    def test_single_point_matches_probability(self):
        thresholds = [10.0 ** (db / 10.0) for db in (-5.0, 5.0, 15.0)]
        _assert_sweep_is_cells((5.0, 20.0, 38.0), thresholds, BUD, DEP)

    def test_rows_follow_the_swept_deployment(self):
        # n_b fixes theta_b, which sets both A and the jsrs and ssb
        # abilities; the default deployment's jsrs ability gives another p_ms
        dep = replace(DEP, n_b=64, n_m=64, lambda_b=5e-4)
        stale = beam_misalignment(dep, ABILITIES["jsrs"], SYS.tau).p_ms
        assert stale != beam_misalignment(dep, scheme_ability("jsrs", SYS, dep),
                                          SYS.tau).p_ms
        _assert_sweep_is_cells((10.0, 30.0), (1.0, 10.0),
                               LinkBudget.from_params(SYS, dep), dep)

    def test_one_kernel_per_threshold_plus_one_per_row(self, monkeypatch):
        # the threshold-free half D(phi1) is integrated once per (scheme, r1)
        clear_field_cache()
        calls = []
        integrate = coverage.integrate_oscillatory
        monkeypatch.setattr(coverage, "integrate_oscillatory",
                            lambda *a, **k: calls.append(1) or integrate(*a, **k))
        schemes, r1s, thresholds = ("jsrs", "5g"), (10.0, 30.0), (1.0, 3.0, 10.0)
        rows = coverage_sweep(r1s, thresholds, schemes, BUD, DEP, SYS)
        assert len(rows) == 2 * 2 * 3
        assert len(calls) == 2 * 2 * (3 + 1)

    def test_threshold_monotone(self):
        thresholds = [10.0 ** (db / 10) for db in (0.0, 5.0, 10.0, 15.0)]
        rows = coverage_sweep([20.0, 40.0], thresholds, ("jsrs",), BUD, DEP, SYS)
        for r1 in (20.0, 40.0):
            series = [r["p_cvp"] for r in rows if r["r1_m"] == r1]
            assert all(a >= b - 1e-6 for a, b in zip(series, series[1:]))

    def test_scheme_ordering(self):
        schemes = ("perfect", "jsrs", "5g")
        rows = coverage_sweep([10.0, 25.0], [1.0, 10.0], schemes, BUD, DEP, SYS)
        table = {}
        for r in rows:
            table.setdefault((r["r1_m"], r["threshold_db"]), {})[r["scheme"]] = r["p_cvp"]
        for vals in table.values():
            assert vals["perfect"] >= vals["jsrs"] - 1e-6
            assert vals["jsrs"] >= vals["5g"] - 1e-6
