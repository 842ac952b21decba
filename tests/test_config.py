import re
from dataclasses import fields
from importlib import resources

import pytest

from isacthz.config import (ConfigError, Deployment, SystemParams,
                            dbm_to_watts, kmh_to_mps, load_config)


# suffixed keys of fields that take no unit, each with a value that loaded
MISPLACED_SUFFIXES = {"lambda_b_dbm": "-20", "f_c_kmh": "1.224e12",
                      "n_b_kmh": "360"}

# absorption CSV bodies with one malformed row, and the line it is on
MALFORMED_TABLES = {
    "short_row": ("frequency_hz,k_per_m\n1e11,0.04\n2e11\n1e12,2.0\n", 3),
    "nan_frequency": ("frequency_hz,k_per_m\n1e11,0.04\n1e12,2.0\nnan,2.0\n", 4),
    "inf_k": ("frequency_hz,k_per_m\n1e11,0.04\n1e12,inf\n", 3),
}


def _k_at(tmp_path, f_c, table=None):
    """K that load_config interpolates at f_c in an absorption CSV with the
    body `table`, or in the bundled sample when there is none."""
    cfg = tmp_path / "k.cfg"
    lines = [f"f_c = {f_c!r}"]
    if table is not None:
        path = tmp_path / "k.csv"
        path.write_text(table)
        lines.append(f"absorption_table = {path}")
    cfg.write_text("\n".join(lines) + "\n")
    return load_config(cfg)[0].k_abs


class TestDefaults:
    def test_empty_file_gives_reference_set(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n")
        system, deploy = load_config(path)
        assert system.f_c == 0.34e12
        assert system.f_scs == 1.92e6
        assert system.t_sym == 4.46e-6
        assert system.tau == 20e-3
        assert system.b_ssb == pytest.approx(240 * 1.92e6)
        assert system.t_ssb == 17.84e-6
        assert system.n_rs == 5000
        assert system.b_tot == 1e9
        assert system.p_t == pytest.approx(dbm_to_watts(23.0))
        assert system.thermal_noise_density == pytest.approx(dbm_to_watts(-174.0))
        assert deploy.lambda_b == 2e-3
        assert deploy.lambda_m == 5e-3
        assert deploy.lambda_s == 1.5e-2
        assert deploy.r_b == 0.5
        assert deploy.n_b == 128
        assert deploy.v == pytest.approx(kmh_to_mps(70.0))

    def test_no_file_equals_defaults(self):
        system, deploy = load_config()
        assert system == SystemParams()
        assert deploy == Deployment()


class TestDerived:
    def test_densities(self):
        dep = Deployment(lambda_b=1e-3, lambda_m=2e-3, lambda_s=4e-3)
        assert dep.obstacle_density == 2e-3 + 4e-3
        assert dep.total_density == 1e-3 + 2e-3 + 4e-3

    def test_resource_caps(self):
        system = SystemParams()
        assert (system.subcarrier_cap, system.symbol_cap) == (520, 4484)
        # 0.3 / 0.1 rounds to 2.9999999999999996: the guard keeps the 3
        tight = SystemParams(f_scs=0.1, b_tot=0.3, b_ssb=0.2, t_sym=0.1,
                             t_tot=0.3)
        assert (tight.subcarrier_cap, tight.symbol_cap) == (3, 3)


class TestValidation:
    def test_narrow_beam_count_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n_b = 2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_beamwidth_boundary(self):
        # 2 pi / 4 is exactly pi/2, which the transverse factor excludes
        with pytest.raises(ConfigError):
            Deployment(n_b=4)
        Deployment(n_b=5)

    def test_negative_density_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lambda_b = -1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_system_invariants(self):
        with pytest.raises(ConfigError):
            SystemParams(b_ssb=2e9)  # exceeds b_tot
        with pytest.raises(ConfigError):
            SystemParams(t_ssb=1.0)  # exceeds tau
        with pytest.raises(ConfigError):
            SystemParams(n_rs=0)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("warp_factor = 9\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("f_c 0.3e12\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("text", [
        "n_b = inf\n",                     # int(inf) overflows
        "lambda_b = nan\n",                # NaN passes a `< 0` check
        "p_t_dbm = 4000\n",                # 1e397 W overflows the float range
        "n_b = 64\nn_b = 128\n",           # a key set twice
        "p_t = 0.2\np_t_dbm = 23\n",       # two keys, one field
        "v_kmh = 70\nv = 20\n",
        "k_abs = 0.2\nabsorption_table = missing.csv\n",
    ], ids=["inf_n_b", "nan_lambda_b", "huge_p_t_dbm", "n_b_twice", "p_t_twice",
            "v_twice", "k_abs_twice"])
    def test_non_finite_or_repeated_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("field", ["lambda_b", "lambda_m", "lambda_s", "v"])
    def test_nan_deployment_rejected(self, field):
        with pytest.raises(ConfigError):
            Deployment(**{field: float("nan")})


class TestUnitSuffixes:
    def test_dbm_and_kmh(self, tmp_path):
        path = tmp_path / "units.cfg"
        path.write_text("p_t_dbm = 23\nv_kmh = 70\nthermal_noise_density_dbm = -174\n")
        system, deploy = load_config(path)
        assert system.p_t == pytest.approx(dbm_to_watts(23.0))
        assert deploy.v == pytest.approx(70.0 / 3.6)
        assert system.thermal_noise_density == pytest.approx(dbm_to_watts(-174.0))

    @pytest.mark.parametrize("key", list(MISPLACED_SUFFIXES))
    def test_suffix_only_on_unit_keys(self, tmp_path, key):
        # any key used to take either suffix, and each of these loaded:
        # lambda_b = 1e-5, f_c = 0.34e12 and n_b = 100
        path = tmp_path / "units.cfg"
        path.write_text(f"{key} = {MISPLACED_SUFFIXES[key]}\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)


class TestKeys:
    def test_every_field_is_a_key(self, tmp_path):
        system, deploy = SystemParams(k_abs=0.1, n_rs=2000), Deployment(n_b=64)
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{f.name} = {getattr(obj, f.name)!r}\n"
                                for obj in (system, deploy)
                                for f in fields(obj)))
        assert load_config(path) == (system, deploy)

    def test_absorption_key_is_k_abs(self, tmp_path):
        path = tmp_path / "k.cfg"
        path.write_text("absorption_k = 0.1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(path)


class TestAbsorptionTable:
    """K as load_config reads it off an absorption CSV."""

    def test_exact_row(self, tmp_path):
        table = "frequency_hz,k_per_m\n1e11,0.01\n2e11,0.02\n3e11,0.05\n"
        assert _k_at(tmp_path, 2e11, table) == pytest.approx(0.02)

    def test_midpoint_linearity(self, tmp_path):
        table = "frequency_hz,k_per_m\n1e11,0.002\n2e11,0.004\n"
        assert _k_at(tmp_path, 1.5e11, table) == pytest.approx(0.003)

    def test_out_of_range(self, tmp_path):
        table = "frequency_hz,k_per_m\n1e11,0.002\n2e11,0.004\n"
        with pytest.raises(ConfigError, match="outside absorption table range"):
            _k_at(tmp_path, 0.5e11, table)
        with pytest.raises(ConfigError, match="outside absorption table range"):
            _k_at(tmp_path, 3e11, table)

    def test_monotone_between_rows(self, tmp_path):
        text = (resources.files("isacthz.data") / "absorption_sample.csv").read_text()
        fs = [float(line.split(",")[0]) for line in text.split()[1:]]
        assert len(fs) == 5
        for i in range(len(fs) - 1):
            a = _k_at(tmp_path, fs[i])
            mid = _k_at(tmp_path, 0.5 * (fs[i] + fs[i + 1]))
            b = _k_at(tmp_path, fs[i + 1])
            lo, hi = min(a, b), max(a, b)
            assert lo <= mid <= hi

    def test_bad_header(self, tmp_path):
        with pytest.raises(ConfigError, match="expected CSV header"):
            _k_at(tmp_path, 1e11, "freq,k\n1e11,0.01\n")

    def test_unsorted_rejected(self, tmp_path):
        table = "frequency_hz,k_per_m\n2e11,0.01\n1e11,0.02\n"
        with pytest.raises(ConfigError, match="strictly increasing"):
            _k_at(tmp_path, 1.5e11, table)

    def test_table_lookup_in_config(self, tmp_path):
        csv_path = tmp_path / "abs.csv"
        csv_path.write_text("frequency_hz,k_per_m\n1e11,0.1\n1e12,0.3\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"absorption_table = {csv_path}\nf_c = 5.5e11\n")
        system, _ = load_config(cfg)
        assert system.k_abs == pytest.approx(0.1 + 0.2 * (4.5 / 9.0))

    def test_relative_table_path_is_read_beside_config(self, tmp_path,
                                                       monkeypatch):
        # used to be opened against the working directory
        beside = tmp_path / "cfg"
        beside.mkdir()
        (beside / "abs.csv").write_text("frequency_hz,k_per_m\n1e11,0.1\n1e12,0.3\n")
        (beside / "ok.cfg").write_text("absorption_table = abs.csv\nf_c = 5.5e11\n")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        system, _ = load_config(beside / "ok.cfg")
        assert system.k_abs == pytest.approx(0.1 + 0.2 * (4.5 / 9.0))

    @pytest.mark.parametrize("case", list(MALFORMED_TABLES))
    def test_malformed_row_names_file_and_line(self, tmp_path, case):
        table, line = MALFORMED_TABLES[case]
        where = re.escape(f"{tmp_path / 'k.csv'}:{line}:")
        with pytest.raises(ConfigError, match=where):
            _k_at(tmp_path, SystemParams.f_c, table)


class TestCoupledDefaults:
    def test_sweep_bandwidth_tracks_subcarrier_spacing(self, tmp_path):
        path = tmp_path / "scs.cfg"
        path.write_text("f_scs = 3.84e6\n")
        system, _ = load_config(path)
        assert system.b_ssb == pytest.approx(240 * 3.84e6)

    def test_explicit_override_wins(self, tmp_path):
        path = tmp_path / "scs.cfg"
        path.write_text("f_scs = 3.84e6\nb_ssb = 5e8\n")
        system, _ = load_config(path)
        assert system.b_ssb == 5e8
