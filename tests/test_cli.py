import csv
from pathlib import Path

import pytest

from isacthz.cli import (_sweep_deployments, ability_reference_rows, main,
                         misalign_sweep_rows)
from isacthz.config import default_deployment, default_system
from isacthz.misalignment import timeout_probability

SYS = default_system()
DEP = default_deployment()
GOLDEN = Path(__file__).parent / "golden"


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestAbilities:
    def test_csv_shape_and_determinism(self, tmp_path):
        out1 = tmp_path / "a1.csv"
        out2 = tmp_path / "a2.csv"
        assert main(["abilities", "--out", str(out1)]) == 0
        assert main(["abilities", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = _read_csv(out1)
        assert rows[0] == ["signal", "U", "V", "B_s", "T_s", "f_c", "d_max_m",
                           "delta_db_m", "delta_v_mps", "vmax_kmh"]
        assert rows[1][0] == "ssb"
        assert len(rows) == 2 + 32  # header + ssb + pilot grid

    def test_grid_covers_reference_values(self):
        rows = ability_reference_rows(SYS, DEP)
        dmax = {round(float(r[6]), 1) for r in rows}
        assert {78.1, 39.1, 26.0} <= dmax


class TestPattern:
    def test_row(self, tmp_path):
        out = tmp_path / "p.csv"
        code = main(["pattern", "--d-max-req", "78.1", "--v-max-req", "19.44",
                     "--out", str(out)])
        assert code == 0
        rows = _read_csv(out)
        body = dict(zip(rows[0], rows[1]))
        assert body["U"] == "1"
        assert body["V"] == "5"
        assert float(body["alpha"]) == pytest.approx(0.3144, abs=1e-3)

    def test_infeasible_exit_code(self, tmp_path):
        code = main(["pattern", "--d-max-req", "1e9", "--v-max-req", "19.44",
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2

    def test_zero_reference_signals_rejected(self, tmp_path):
        # 0 used to fall back to the configured n_rs
        code = main(["pattern", "--d-max-req", "30", "--v-max-req", "20",
                     "--n-rs", "0", "--out", str(tmp_path / "p.csv")])
        assert code == 2


class TestMisalign:
    def test_sweep_rows(self):
        rows = misalign_sweep_rows(SYS, DEP, "n_b", ("jsrs", "perfect"))
        assert len(rows) == 10
        for row in rows:
            assert row[3] >= 0.0 and row[5] <= 1.0

    @pytest.mark.parametrize("sweep", ["n_b", "n_rs"])
    def test_one_timeout_per_deployment(self, sweep):
        # every scheme and pilot budget of a deployment shares its p_to
        points = _sweep_deployments(SYS, DEP, sweep)
        timeout_probability.cache_clear()
        rows = misalign_sweep_rows(SYS, DEP, sweep)
        assert (timeout_probability.cache_info().misses
                == len({deploy for _, _, _, deploy in points}))
        deploy_of = {value: deploy for _, value, _, deploy in points}
        for _, value, _, _, p_to, _ in rows:
            assert p_to == timeout_probability.__wrapped__(deploy_of[value])

    def test_cli(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["misalign", "--sweep", "n_rs", "--schemes", "jsrs",
                     "--out", str(out)])
        assert code == 0
        rows = _read_csv(out)
        assert rows[0] == ["sweep_var", "value", "scheme", "p_err", "p_to", "p_ms"]
        assert len(rows) == 8  # header + 7 budget points


class TestCoverage:
    def test_cli(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["coverage", "--r1-grid", "20", "--threshold-db-grid", "5",
                     "--schemes", "perfect", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out)
        body = dict(zip(rows[0], rows[1]))
        assert body["scheme"] == "perfect"
        assert 0.0 <= float(body["p_cvp"]) <= 1.0


class TestSimulate:
    def test_blockage(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["simulate", "--what", "blockage", "--trials", "20000",
                     "--seed", "3", "--out", str(out), "--strict"])
        assert code == 0
        rows = _read_csv(out)
        body = dict(zip(rows[0], rows[1]))
        assert body["quantity"] == "blockage"
        assert abs(float(body["sigmas_off"])) < 4.0

    def test_window_must_be_positive(self, tmp_path):
        code = main(["simulate", "--what", "coverage", "--trials", "100",
                     "--window-m", "0", "--out", str(tmp_path / "w.csv")])
        assert code == 2

    @pytest.mark.parametrize("window", ["30", "40"])
    def test_window_must_exceed_lower_bound(self, tmp_path, capsys, window):
        code = main(["simulate", "--what", "coverage", "--trials", "100",
                     "--lower-bound", "derivation", "--r1-m", "40",
                     "--window-m", window, "--out", str(tmp_path / "w.csv")])
        assert code == 2
        assert "lower-bound radius" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["blockage", "misalign", "coverage"])
    def test_trials_must_be_positive(self, tmp_path, capsys, what):
        # 0 trials used to end in a ZeroDivisionError traceback
        code = main(["simulate", "--what", what, "--trials", "0",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "trials must be >= 1" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for out in (a, b):
            main(["simulate", "--what", "timeout", "--trials", "20000",
                  "--seed", "9", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestCompare:
    def test_report(self, tmp_path):
        out = tmp_path / "report.md"
        code = main(["compare", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "Average misalignment reduction" in text
        assert "jsrs-vs-perfect" in text


class TestArguments:
    def test_monte_carlo_flags_only_where_used(self):
        with pytest.raises(SystemExit) as exc:
            main(["coverage", "--trials", "5"])
        assert exc.value.code == 2

    # inf used to print blank r1_m / threshold_db cells with exit 0, and
    # nan or inf radii ended in numpy's "lam value too large"
    @pytest.mark.parametrize("argv", [
        ["pattern", "--d-max-req", "inf", "--v-max-req", "20"],
        ["pattern", "--d-max-req", "50", "--v-max-req", "nan"],
        ["coverage", "--r1-grid", "inf"],
        ["coverage", "--threshold-db-grid", "inf"],
        ["coverage", "--r1-grid", "20", "nan"],
        ["simulate", "--what", "blockage", "--r-m", "nan"],
        ["simulate", "--what", "coverage", "--r1-m", "inf"],
        ["simulate", "--what", "coverage", "--threshold-db=-inf"],
        ["simulate", "--what", "coverage", "--window-m", "inf"],
    ], ids=["d_max_req", "v_max_req", "r1_grid", "threshold_db_grid",
            "r1_grid_second", "r_m", "r1_m", "threshold_db", "window_m"])
    def test_non_finite_float_exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err


class TestConfigErrors:
    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n_b = 2\n")
        assert main(["abilities", "--config", str(bad),
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("text", ["n_b = inf\n", "lambda_b = nan\n",
                                      "p_t = 0.2\np_t_dbm = 23\n"],
                             ids=["inf_n_b", "nan_lambda_b", "p_t_twice"])
    def test_non_finite_or_repeated_exit_code(self, tmp_path, text):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        assert main(["coverage", "--config", str(bad), "--r1-grid", "20",
                     "--threshold-db-grid", "5", "--schemes", "perfect"]) == 2

    @pytest.mark.parametrize("case", ["config", "absorption_table", "out_dir"])
    def test_missing_file_exit_code(self, tmp_path, capsys, case):
        # each used to end in a FileNotFoundError traceback and exit 1
        missing = tmp_path / "missing"
        cfg = tmp_path / "table.cfg"
        cfg.write_text(f"absorption_table = {missing / 'k.csv'}\n")
        argv = {"config": ["--config", str(missing / "x.cfg")],
                "absorption_table": ["--config", str(cfg)],
                "out_dir": ["--out", str(missing / "grid.csv")]}[case]
        assert main(["abilities"] + argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestGoldenTables:
    """The default tables, byte for byte.  A change that moves a value on
    purpose re-records the file it moves and lists the deltas."""

    COMMANDS = {
        "misalign_n_b.csv": ["misalign", "--sweep", "n_b"],
        "misalign_n_rs.csv": ["misalign", "--sweep", "n_rs"],
        "coverage_theorem.csv": ["coverage"],
        "coverage_derivation.csv": ["coverage", "--lower-bound", "derivation"],
        "compare.md": ["compare"],
    }

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_stdout(self, capsys, name):
        assert main(self.COMMANDS[name]) == 0
        assert capsys.readouterr().out == (GOLDEN / name).read_text()
