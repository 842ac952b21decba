import argparse
import csv
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import isacthz
from isacthz import cli
from isacthz.cli import (_sweep_deployments, ability_reference_rows,
                         build_parser, main, misalign_sweep_rows)
from isacthz.config import Deployment, SystemParams
from isacthz.misalignment import timeout_probability
from test_config import MALFORMED_TABLES, MISPLACED_SUFFIXES

SYS = SystemParams()
DEP = Deployment()
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).resolve().parent.parent / "README.md"


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

    def test_verify_matches_brute_force(self, capsys):
        argv = ["pattern", "--d-max-req", "78.1", "--v-max-req", "19.44"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--verify"]) == 0
        verified = capsys.readouterr()
        assert verified.out == plain.out
        rows = list(csv.reader(verified.out.splitlines()))
        body = dict(zip(rows[0], rows[1]))
        lines = verified.err.splitlines()
        assert len(lines) == 1
        match = re.fullmatch(r"# brute force: alpha=\S+ U=(\d+) V=(\d+) "
                             r"objective gap=(\S+)", lines[0])
        assert match is not None
        assert match.group(1, 2) == (body["U"], body["V"]) == ("1", "5")
        # the closed form is never worse than the grid
        assert float(match.group(3)) <= 1e-12

    def test_infeasible_exit_code(self, tmp_path):
        code = main(["pattern", "--d-max-req", "1e9", "--v-max-req", "19.44",
                     "--out", str(tmp_path / "p.csv")])
        assert code == 2

    def test_zero_reference_signals_rejected(self, tmp_path):
        # 0 used to fall back to the configured n_rs
        code = main(["pattern", "--d-max-req", "30", "--v-max-req", "20",
                     "--n-rs", "0", "--out", str(tmp_path / "p.csv")])
        assert code == 2

    @pytest.mark.parametrize("source", ["option", "config"])
    def test_one_reference_signal_rejected(self, tmp_path, capsys, source):
        cfg = tmp_path / "n_rs.cfg"
        cfg.write_text("n_rs = 1\n")
        argv = {"option": ["--n-rs", "1"], "config": ["--config", str(cfg)]}
        code = main(["pattern", "--d-max-req", "30", "--v-max-req", "10",
                     "--verify", "--out", str(tmp_path / "p.csv")]
                    + argv[source])
        assert code == 2
        assert "n_rs must be >= 2" in capsys.readouterr().err


class TestMisalign:
    def test_sweep_rows(self):
        rows = misalign_sweep_rows(SYS, DEP, "n_b", ("jsrs", "perfect"))
        assert len(rows) == 10
        for row in rows:
            assert row[3] >= 0.0 and row[5] <= 1.0

    @pytest.mark.parametrize("sweep", ["n_b", "n_rs"])
    def test_one_timeout_per_deployment(self, sweep):
        # every deployment with the same (lambda_b, lambda_m + lambda_s,
        # r_b) shares its p_to, whatever its schemes, beams and pilots
        points = _sweep_deployments(SYS, DEP, sweep)
        timeout_probability.cache_clear()
        rows = misalign_sweep_rows(SYS, DEP, sweep)
        assert (timeout_probability.cache_info().misses
                == len({(d.lambda_b, d.obstacle_density, d.r_b)
                        for _, _, _, d in points}))
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

    @staticmethod
    def _far_derivation(r1):
        src = Path(isacthz.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "isacthz.cli", "coverage", "--r1-grid", r1,
             "--lower-bound", "derivation", "--schemes", "jsrs"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True, timeout=120)

    @pytest.mark.parametrize("r1", ["1600", "1900"])
    def test_far_derivation_lower_bound_rows(self, r1):
        # from about 1570 m on, the end search's last decades pass the
        # largest float, but the envelope target is reached 8 decades in:
        # the rows are those the search printed when it leaked overflow
        # warnings for the decades it never reached
        run = self._far_derivation(r1)
        assert run.returncode == 0 and run.stderr == ""
        assert run.stdout.splitlines() == [
            "scheme,r1_m,threshold_db,p_ms,p_cm,p_cvp,abs_err",
            *(f"jsrs,{r1},{t},0.0940937,0,0,1.94e-07" for t in (0, 5, 10))]

    @pytest.mark.parametrize("r1", ["1950", "2000"])
    def test_far_derivation_lower_bound_exit_code(self, r1):
        # no finite decade reaches the envelope target: the search used to
        # integrate s = inf and fail with partial=nan
        run = self._far_derivation(r1)
        assert run.returncode == 3
        assert f"lower bound {r1} m" in run.stderr
        assert "RuntimeWarning" not in run.stderr and "nan" not in run.stderr
        assert run.stdout == ""

    def test_without_nodes(self, tmp_path, capsys):
        # no node field: every cell is the deterministic effective-noise
        # test, with no quadrature error; only 40 m at 10 dB fails it
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("lambda_b = 0\n")
        assert main(["coverage", "--config", str(cfg)]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 36 and all(row["abs_err"] == "0" for row in rows)
        assert {(row["r1_m"], row["threshold_db"])
                for row in rows if row["p_cm"] == "0"} == {("40", "10")}

    def test_far_theorem_row(self, capsys):
        # theorem mode keeps the field at 2 r_b: p_cm is 0 at 2000 m
        assert main(["coverage", "--r1-grid", "2000", "--schemes", "jsrs"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 3 and all(float(row["p_cm"]) == 0.0 for row in rows)


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

    def test_misalign_strict(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["simulate", "--what", "misalign", "--trials", "20000",
                     "--seed", "1", "--strict", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["quantity"] for row in rows] == [
            "misalign_p_err", "misalign_p_to", "misalign_p_ms"]
        assert all(abs(float(row["sigmas_off"])) <= 4.0 for row in rows)
        # p_err and p_to are disjoint events of one scene per trial
        p_err, p_to, p_ms = (float(row["mean"]) for row in rows)
        assert p_ms == pytest.approx(p_err + p_to, rel=0.0, abs=1e-12)

    def test_coverage_every_trial_covered(self, tmp_path):
        # every trial's SINR clears the threshold here, so the estimate is
        # the analytic 1 - p_ms with no spread: sigmas_off is unbounded and
        # printed as an empty cell, and --strict passes as the estimate
        # lies within 0.02 of the analytic value
        out = tmp_path / "c.csv"
        code = main(["simulate", "--what", "coverage", "--scheme", "5g",
                     "--lower-bound", "derivation", "--r1-m", "10",
                     "--threshold-db", "0", "--strict", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out)
        body = dict(zip(rows[0], rows[1]))
        assert (body["mean"], body["std_error"], body["trials"],
                body["sigmas_off"]) == ("0.629428", "0", "100000", "")
        assert abs(float(body["analytic_value"]) - 0.629428) <= 0.02

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

    def test_misalign_without_nodes(self, tmp_path, capsys):
        # used to end in a ZeroDivisionError traceback: the beam-length draw
        # divided by the zero beam-switch density before any node was drawn
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("lambda_b = 0\n")
        code = main(["simulate", "--what", "misalign", "--trials", "2000",
                     "--config", str(cfg), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "lambda_b > 0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [
        ["compare", "--with-mc"], ["compare", "--trials", "10"],
        ["compare", "--seed", "2"], ["compare", "--strict"],
        ["pattern", "--d-max-req", "30", "--v-max-req", "10",
         "--grid-size", "100"],
    ], ids=["with_mc", "trials", "seed", "strict", "grid_size"])
    def test_removed_options_rejected(self, argv):
        # `simulate` is the one Monte-Carlo gate of the command line
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    # inf used to print blank r1_m / threshold_db cells with exit 0, and
    # nan or inf radii ended in numpy's "lam value too large"
    @pytest.mark.parametrize("argv", [
        ["pattern", "--d-max-req", "inf", "--v-max-req", "20"],
        ["pattern", "--d-max-req", "50", "--v-max-req", "nan"],
        ["coverage", "--r1-grid", "inf"],
        ["coverage", "--threshold-db-grid", "inf"],
        ["coverage", "--r1-grid", "20", "nan"],
        ["coverage", "--r1-grid", "abc"],
        ["simulate", "--what", "blockage", "--r-m", "nan"],
        ["simulate", "--what", "coverage", "--r1-m", "inf"],
        ["simulate", "--what", "coverage", "--threshold-db=-inf"],
        ["simulate", "--what", "coverage", "--window-m", "inf"],
    ], ids=["d_max_req", "v_max_req", "r1_grid", "threshold_db_grid",
            "r1_grid_second", "r1_grid_text", "r_m", "r1_m", "threshold_db",
            "window_m"])
    def test_non_finite_float_exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err


def _readme_synopsis() -> dict:
    """{subcommand: set of --options} from the fenced block under
    '## Command line' in README.md; a line `isac-thz <command> ...` names
    the options every subcommand takes."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    options, command = {}, None
    for line in block.splitlines():
        if line.startswith("isac-thz "):
            command = line.split()[1]
            options[command] = set()
        options[command] |= set(re.findall(r"--[a-z0-9][a-z0-9-]*", line))
    common = options.pop("<command>", set())
    return {name: opts | common for name, opts in options.items()}


def _parser_options() -> dict:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings
                   if s.startswith("--")} - {"--help"}
            for name, p in sub.choices.items()}


def test_readme_synopsis_matches_parser():
    assert _readme_synopsis() == _parser_options()


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

    @pytest.mark.parametrize("key", list(MISPLACED_SUFFIXES))
    def test_suffix_only_on_unit_keys(self, tmp_path, capsys, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{key} = {MISPLACED_SUFFIXES[key]}\n")
        assert main(["misalign", "--config", str(bad), "--schemes", "5g"]) == 2
        assert "unknown config key" in capsys.readouterr().err

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

    @pytest.mark.parametrize("case", list(MALFORMED_TABLES))
    def test_malformed_absorption_table_exit_code(self, tmp_path, capsys, case):
        text, line = MALFORMED_TABLES[case]
        table = tmp_path / "k.csv"
        table.write_text(text)
        cfg = tmp_path / "table.cfg"
        cfg.write_text(f"absorption_table = {table}\n")
        assert main(["misalign", "--config", str(cfg), "--schemes", "5g"]) == 2
        assert f"{table}:{line}:" in capsys.readouterr().err


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


def test_runtime_loads_no_scipy():
    """The runtime needs numpy alone: an interpreter that runs the analytic
    commands and a Monte-Carlo coverage estimate through main() holds no
    scipy module afterwards, and none of hashlib's OpenSSL until simulate,
    the one command that hashes, has run.  It is a child interpreter, as
    this process imports scipy for the tests' oracles."""
    code = textwrap.dedent("""
        import contextlib, io, sys
        from isacthz.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["coverage", "--r1-grid", "10", "--threshold-db-grid", "0"],
                         ["misalign"], ["compare"]):
                assert main(argv) == 0, argv
            assert "_hashlib" not in sys.modules
            assert main(["simulate", "--what", "coverage", "--trials", "20000"]) == 0
        print(sorted(name for name in sys.modules
                     if name == "scipy" or name.startswith("scipy.")))
    """)
    src = Path(isacthz.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_one_parser_per_process(monkeypatch, capsys):
    """main() builds its parser once and keeps it: a run of commands on the
    kept parser prints what each command prints on a parser of its own."""
    runs = (["misalign"],
            ["coverage", "--r1-grid", "10", "--threshold-db-grid", "0"],
            ["compare"],
            ["simulate", "--what", "timeout", "--trials", "2000"],
            ["misalign"])
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        assert main(argv) == 0
        fresh.append(capsys.readouterr().out)
    built = []

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for argv, out in zip(runs, fresh):
        assert main(argv) == 0
        assert capsys.readouterr().out == out, argv
    assert len(built) == 1
