import pytest

from isacthz.config import (AbsorptionTable, ConfigError, Deployment,
                            SystemParams, absorption_at,
                            bundled_absorption_table, dbm_to_watts,
                            default_deployment, default_system, dump_config,
                            kmh_to_mps, load_config)


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
        assert system == default_system()
        assert deploy == default_deployment()


class TestDerived:
    def test_densities(self):
        dep = Deployment(lambda_b=1e-3, lambda_m=2e-3, lambda_s=4e-3)
        assert dep.obstacle_density == 2e-3 + 4e-3
        assert dep.total_density == 1e-3 + 2e-3 + 4e-3

    def test_resource_caps(self):
        system = default_system()
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


class TestUnitSuffixes:
    def test_dbm_and_kmh(self, tmp_path):
        path = tmp_path / "units.cfg"
        path.write_text("p_t_dbm = 23\nv_kmh = 70\nthermal_noise_density_dbm = -174\n")
        system, deploy = load_config(path)
        assert system.p_t == pytest.approx(dbm_to_watts(23.0))
        assert deploy.v == pytest.approx(70.0 / 3.6)
        assert system.thermal_noise_density == pytest.approx(dbm_to_watts(-174.0))


class TestRoundTrip:
    def test_dump_and_reload_identical(self, tmp_path):
        system, deploy = load_config()
        path = tmp_path / "dump.cfg"
        dump_config(system, deploy, path)
        system2, deploy2 = load_config(path)
        assert system2 == system
        assert deploy2 == deploy


class TestAbsorptionTable:
    def test_exact_row(self):
        table = AbsorptionTable((1e11, 2e11, 3e11), (0.01, 0.02, 0.05))
        assert absorption_at(table, 2e11) == pytest.approx(0.02)

    def test_midpoint_linearity(self):
        table = AbsorptionTable((1e11, 2e11), (0.002, 0.004))
        assert absorption_at(table, 1.5e11) == pytest.approx(0.003)

    def test_out_of_range(self):
        table = AbsorptionTable((1e11, 2e11), (0.002, 0.004))
        with pytest.raises(ConfigError):
            absorption_at(table, 0.5e11)
        with pytest.raises(ConfigError):
            absorption_at(table, 3e11)

    def test_monotone_between_rows(self):
        table = bundled_absorption_table()
        fs = table.frequencies
        for i in range(len(fs) - 1):
            a = absorption_at(table, fs[i])
            mid = absorption_at(table, 0.5 * (fs[i] + fs[i + 1]))
            b = absorption_at(table, fs[i + 1])
            lo, hi = min(a, b), max(a, b)
            assert lo <= mid <= hi

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("freq,k\n1e11,0.01\n")
        with pytest.raises(ConfigError):
            AbsorptionTable.from_csv(path)

    def test_unsorted_rejected(self):
        with pytest.raises(ConfigError):
            AbsorptionTable((2e11, 1e11), (0.01, 0.02))

    def test_table_lookup_in_config(self, tmp_path):
        csv_path = tmp_path / "abs.csv"
        csv_path.write_text("frequency_hz,k_per_m\n1e11,0.1\n1e12,0.3\n")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"absorption_table = {csv_path}\nf_c = 5.5e11\n")
        system, _ = load_config(cfg)
        assert system.k_abs == pytest.approx(0.1 + 0.2 * (4.5 / 9.0))


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
