"""End-to-end tests of the command-line interface.

These runs use small panels via flag overrides; location accuracy at the
full default size is the acceptance suite's job.
"""

import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import warnings

# first, so that run as a script it also sets the kernel baseline
import conftest
import numpy as np
import pytest

from dynpan import cli, simulate
from dynpan.cli import main, parse_config_text, parse_grid, resolve_config
from dynpan.errors import ValidationError


def run_cli(*argv):
    return main(list(argv))


class TestConfigParsing:
    def test_round_trip_types(self):
        text = """
        # comment
        dgp.variant = benchmark
        dgp.n_firms = 123   # trailing comment
        dgp.beta = 0.61
        """
        cfg = resolve_config(parse_config_text(text), {})
        assert cfg["dgp.variant"] == "benchmark"
        assert cfg["dgp.n_firms"] == 123
        assert cfg["dgp.beta"] == 0.61

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            resolve_config({"dgp.bogus": "1"}, {})

    def test_bad_type_rejected(self):
        with pytest.raises(ValidationError, match="n_firms"):
            resolve_config({"dgp.n_firms": "many"}, {})

    def test_malformed_line(self):
        with pytest.raises(ValidationError, match="key = value"):
            parse_config_text("dgp.variant benchmark")

    def test_grid_parse(self):
        grid = parse_grid("0:2:0.5")
        assert grid.tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]
        with pytest.raises(ValidationError):
            parse_grid("2:0:0.5")
        with pytest.raises(ValidationError):
            parse_grid("0-2-0.5")


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = run_cli("simulate", "--seed", "1", "--n-firms", "30",
                           "--n-periods", "4", "--out-dir", str(out))
            assert code == 0
        assert (a / "panel.csv").read_bytes() == (b / "panel.csv").read_bytes()
        assert (a / "run.manifest").read_text() == \
            (b / "run.manifest").read_text()

    def test_manifest_mentions_output_hash(self, tmp_path):
        run_cli("simulate", "--seed", "1", "--n-firms", "10",
                "--n-periods", "4", "--out-dir", str(tmp_path))
        manifest = (tmp_path / "run.manifest").read_text()
        assert "# sha256 panel.csv" in manifest
        assert "dgp.seed = 1" in manifest

    def test_rerun_from_manifest_reproduces_outputs(self, tmp_path):
        first = tmp_path / "first"
        run_cli("simulate", "--seed", "9", "--n-firms", "25",
                "--n-periods", "5", "--out-dir", str(first))
        second = tmp_path / "second"
        code = run_cli("simulate", "--config", str(first / "run.manifest"),
                       "--out-dir", str(second))
        assert code == 0
        assert (first / "panel.csv").read_bytes() == \
            (second / "panel.csv").read_bytes()

    @pytest.mark.parametrize("name", ["a b.csv", "a=b.csv"])
    def test_manifest_carries_a_space_and_an_equals_sign(self, name,
                                                          tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("simulate", "--n-firms", "10", "--out", name,
                       "--out-dir", str(first)) == 0
        assert run_cli("simulate", "--config", str(first / "run.manifest"),
                       "--out-dir", str(second)) == 0
        assert sorted(p.name for p in second.iterdir()) == \
            sorted([name, "run.manifest"])
        for p in first.iterdir():
            assert p.read_bytes() == (second / p.name).read_bytes()

    def test_manifest_saved_with_a_byte_order_mark_reproduces(self,
                                                               tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("simulate", "--seed", "3", "--n-firms", "25",
                       "--out-dir", str(first)) == 0
        bom = tmp_path / "bom.manifest"
        bom.write_bytes(b"\xef\xbb\xbf" + (first / "run.manifest")
                        .read_bytes())
        assert run_cli("simulate", "--config", str(bom),
                       "--out-dir", str(second)) == 0
        assert sorted(p.name for p in second.iterdir()) == \
            sorted(p.name for p in first.iterdir())
        for p in first.iterdir():
            assert p.read_bytes() == (second / p.name).read_bytes()


class TestScanCommand:
    def test_scan_writes_curve_with_zero_comments(self, tmp_path):
        code = run_cli("scan", "--seed", "3", "--n-firms", "4000",
                       "--grid", "0:2:0.05", "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert lines[0] == "axis_value,m,objective"
        zero_lines = [ln for ln in lines if ln.startswith("# zero,")]
        assert len(zero_lines) == 2  # truth and pseudo crossings

    def test_negative_grid_start_takes_every_spelling(self, tmp_path):
        # argparse takes a bare "-0.5:1:0.1" for a flag of its own
        cfg = tmp_path / "cfg"
        cfg.write_text("scan.grid = -0.5:1:0.1\n")
        runs = {"space": ["--grid", "-0.5:1:0.1"],
                "equals": ["--grid=-0.5:1:0.1"],
                "config": ["--config", str(cfg)]}
        for name, flag in runs.items():
            assert run_cli("scan", "--seed", "3", "--n-firms", "2000", *flag,
                           "--out-dir", str(tmp_path / name)) == 0
        for artifact in ("curve.csv", "run.manifest"):
            got = {(tmp_path / name / artifact).read_bytes() for name in runs}
            assert len(got) == 1
        lines = (tmp_path / "space" / "curve.csv").read_text().splitlines()
        assert lines[1].startswith("-0.5,")

    def test_grid_ends_at_or_below_hi(self):
        # the lattice stops at its last point at or below hi, never past it
        assert parse_grid("0:1:0.35").tolist() == [0.0, 0.35, 0.7]

    def test_grid_up_to_hi_stays_inside_the_axis_bounds(self, tmp_path):
        # 3.1, the next lattice point, lies past both hi and the bound 3.0
        assert run_cli("scan", "--seed", "3", "--n-firms", "100",
                       "--grid", "0.3:2.99:0.7",
                       "--out-dir", str(tmp_path)) == 0
        rows = [ln.split(",")[0] for ln in
                (tmp_path / "curve.csv").read_text().splitlines()[1:]
                if not ln.startswith("#")]
        assert rows == ["0.3", "1.0", "1.7", "2.4"]

    def test_error_record_is_machine_readable(self, tmp_path, capsys):
        code = run_cli("scan", "--seed", "3", "--n-firms", "100",
                       "--grid", "0:9:1", "--out-dir", str(tmp_path))
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "grid" in record["message"]

    @pytest.mark.parametrize("grid", ["nan:1:0.1", "0:inf:0.5",
                                      "-inf:1:0.1", "0:1:nan", "0:1:inf"])
    def test_non_finite_grid_is_an_error_record(self, grid, tmp_path,
                                                capsys):
        with pytest.raises(ValidationError) as err:
            parse_grid(grid)
        assert err.value.field == "scan.grid"
        code = run_cli("scan", "--seed", "3", "--n-firms", "100",
                       f"--grid={grid}", "--out-dir", str(tmp_path))
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("scan.grid:")


    @pytest.mark.parametrize("grid", ["0:1e20:1e-5", "0:1e9:1e-3"])
    def test_overlong_grid_is_an_error_record(self, grid, tmp_path, capsys):
        # counted before np.arange: no traceback, nothing allocated
        with pytest.raises(ValidationError, match="more than") as err:
            parse_grid(grid)
        assert err.value.field == "scan.grid"
        code = run_cli("scan", "--seed", "3", "--n-firms", "100",
                       f"--grid={grid}", "--out-dir", str(tmp_path))
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("scan.grid:")


    def test_step_finer_than_the_rounding_is_an_error_record(self, tmp_path,
                                                             capsys):
        # grid points are rounded to 1e-10; a finer step would merge them
        with pytest.raises(ValidationError, match="too fine") as err:
            parse_grid("0:5e-6:1e-11")
        assert err.value.field == "scan.grid"
        assert parse_grid("0:5e-9:1e-10").size == 51
        out = tmp_path / "out"
        code = run_cli("scan", "--seed", "3", "--n-firms", "100",
                       "--grid=0:5e-6:1e-11", "--out-dir", str(out))
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("scan.grid: grid step")
        assert not out.exists()


class TestEstimateCommand:
    def test_estimate_csv_selects_lower_beta(self, tmp_path):
        code = run_cli("estimate", "--seed", "2", "--n-firms", "20000",
                       "--sign-theta", "positive", "--out-dir",
                       str(tmp_path))
        assert code == 0
        rows = [ln.split(",") for ln in
                (tmp_path / "estimate.csv").read_text().splitlines()
                if ln and not ln.startswith("#")]
        header, body = rows[0], rows[1:]
        selected = {r[0]: float(r[header.index("beta")]) for r in body
                    if r[1] == "1"}
        rejected = {r[0]: float(r[header.index("beta")]) for r in body
                    if r[1] == "0"}
        (sel_beta,) = selected.values()
        (rej_beta,) = rejected.values()
        assert sel_beta < rej_beta
        assert abs(sel_beta - 0.6) < 0.25

    def test_no_unclosed_files(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = run_cli("estimate", "--seed", "2", "--n-firms", "2000",
                           "--out-dir", str(tmp_path))
            gc.collect()
        assert code == 0
        assert [w for w in caught
                if issubclass(w.category, ResourceWarning)] == []

    def test_one_firm_panels_report_a_degenerate_fit(self, tmp_path):
        # one firm pools 3 rows for the reduced form's 3 coefficients: the
        # exact fit is reported as degenerate, never as a config error
        for seed in range(50):
            out = tmp_path / str(seed)
            assert run_cli("estimate", "--n-firms", "1", "--seed", str(seed),
                           "--out-dir", str(out)) == 0
            lines = (out / "estimate.csv").read_text().splitlines()
            assert lines[-1].startswith("# degenerate,degenerate reduced "
                                        "form: 3 pooled rows for 3 ")

    def test_unknown_method_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("estimate.method = magic\n")
        code = run_cli("estimate", "--config", str(cfg), "--out-dir",
                       str(tmp_path))
        assert code == 1


class TestDiagnoseCommand:
    def test_truth_and_pseudo_reports(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("diagnose.point = pseudo\n")
        code = run_cli("diagnose", "--config", str(cfg), "--seed", "4",
                       "--n-firms", "20000", "--out-dir", str(tmp_path))
        assert code == 0
        sign = (tmp_path / "diagnose_sign.csv").read_text()
        assert "pseudo_suspected" in sign
        ar = (tmp_path / "diagnose_ar_order.csv").read_text()
        assert "consistent_with_truth" in ar


    def test_truth_and_custom_point_at_the_truth_agree(self, tmp_path):
        truth, custom = tmp_path / "truth", tmp_path / "custom"
        cfg = tmp_path / "cfg"
        cfg.write_text("diagnose.point = truth\n")
        assert run_cli("diagnose", "--config", str(cfg), "--seed", "4",
                       "--n-firms", "20000", "--out-dir", str(truth)) == 0
        assert "consistent_with_truth" in \
            (truth / "diagnose_sign.csv").read_text()
        # the default structural point, given by hand
        cfg.write_text("diagnose.point = custom\ndiagnose.alpha = 1.0\n"
                       "diagnose.beta = 0.6\ndiagnose.rho = 0.7\n")
        assert run_cli("diagnose", "--config", str(cfg), "--seed", "4",
                       "--n-firms", "20000", "--out-dir", str(custom)) == 0
        for name in ("diagnose_sign.csv", "diagnose_inequality.csv",
                     "diagnose_ar_order.csv"):
            assert (custom / name).read_bytes() == \
                (truth / name).read_bytes()

    @pytest.mark.parametrize("line, field", [
        ("diagnose.point = midway", "diagnose.point"),
        ("diagnose.sign = sideways", "diagnose.sign"),
        ("estimate.sign = sideways", "estimate.sign"),
        ("estimate.method = magic", "estimate.method"),
        ("estimate.method = two-step", "estimate.method"),
        ("dgp.seed = abc", "dgp.seed"),
        ("dgp.variant = bogus", "dgp.variant"),
        ("figure.which = 9", "figure.which"),
        ("scan.axis = gamma", "scan.axis"),
        ("scan.family = levels", "scan.family"),
        ("scan.grid = foo", "scan.grid"),
        ("scan.grid = 0:9:0.5", "scan.grid"),  # outside the beta bounds
    ])
    def test_unknown_point_or_sign_is_an_error_record(self, line, field,
                                                      tmp_path, capsys):
        # a bad value fails alike from a config file and from each flag
        # that sets its key (naming the flag's first key), also where
        # diagnose does not read the key
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        value = line.partition(" = ")[2]
        runs = [(["--config", str(cfg)], field)]
        runs += [([flag, value], keys[0])
                 for flag, (keys, _) in cli._FLAGS.items() if field in keys]
        reasons = set()
        for argv, key in runs:
            code = run_cli("diagnose", *argv, "--n-firms", "200",
                           "--out-dir", str(tmp_path / "out"))
            assert code == 1
            (err,) = capsys.readouterr().err.splitlines()
            record = json.loads(err)
            assert record["error"] == "ValidationError"
            assert record["message"].startswith(f"{key}: ")
            reasons.add(record["message"][len(key) + 2:])
            assert not (tmp_path / "out").exists()
        assert len(reasons) == 1


class TestFigureCommand:
    def test_figure1_writes_three_curves_and_summary(self, tmp_path):
        code = run_cli("figure", "--which", "1", "--seed", "7",
                       "--n-firms", "4000", "--grid", "0:2:0.05",
                       "--out-dir", str(tmp_path))
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {"figure1_theta2_0.csv", "figure1_theta2_0.5.csv",
                "figure1_theta2_1.csv", "figure1_plot.csv",
                "figure1_summary.csv", "run.manifest"} <= names
        plot = (tmp_path / "figure1_plot.csv").read_text().splitlines()
        assert plot[0] == "axis_value,theta2_0,theta2_0.5,theta2_1"
        # rescaling makes every column agree at the first grid point
        first = plot[1].split(",")
        vals = [float(v) for v in first[1:]]
        assert vals == pytest.approx([vals[0]] * len(vals), rel=1e-9)

    def test_figure3_rejects_nonstationary_submodel(self, tmp_path):
        code = run_cli("figure", "--which", "3", "--seed", "7",
                       "--n-firms", "2000", "--grid", "0:2:0.1",
                       "--out-dir", str(tmp_path))
        assert code == 0
        summary = (tmp_path / "figure3_summary.csv").read_text()
        assert "rho2_x_0.5,rejected" in summary
        assert "rho2_x_0.4,ok" in summary
        assert not (tmp_path / "figure3_rho2_x_0.5.csv").exists()

    def test_figure3_keeps_the_configured_rho1_x(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("dgp.ext.rho1_x = 0.3\n")
        out = tmp_path / "out"
        code = run_cli("figure", "--which", "3", "--config", str(cfg),
                       "--seed", "7", "--n-firms", "2000",
                       "--grid", "0:2:0.1", "--out-dir", str(out))
        assert code == 0
        assert "dgp.ext.rho1_x = 0.3" in (out / "run.manifest").read_text()
        # 0.3 + 0.5 < 1: the sub-model is stationary and runs
        summary = (out / "figure3_summary.csv").read_text()
        assert "rho2_x_0.5,ok" in summary
        assert (out / "figure3_rho2_x_0.5.csv").exists()

    def test_figure_out_of_range(self, tmp_path):
        assert run_cli("figure", "--which", "9",
                       "--out-dir", str(tmp_path)) == 1


class TestCommandMismatch:
    def test_run_rejects_an_unknown_command(self):
        cfg = resolve_config({}, {})
        cfg["command"] = "bogus"
        with pytest.raises(ValidationError) as err:
            cli.run(cfg)
        assert err.value.field == "command"
        assert str(err.value) == ("command: command must be one of simulate, "
                                  "scan, estimate, diagnose, figure")

    def test_config_variant_must_be_known(self, tmp_path, capsys):
        # resolve_config judges the --variant flag and a config file alike
        cfg = tmp_path / "cfg"
        cfg.write_text("dgp.variant = bogus\n")
        code = run_cli("simulate", "--config", str(cfg), "--out-dir",
                       str(tmp_path / "out"))
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert record["message"] == (
            "dgp.variant: must be one of "
            f"{', '.join(simulate.VARIANTS)}, got 'bogus'")
        assert not (tmp_path / "out").exists()

    def test_no_manifest_records_an_illegal_value(self, tmp_path, capsys):
        # scan does not read estimate.sign, but its manifest would carry it
        cfg = tmp_path / "cfg"
        cfg.write_text("estimate.sign = sideways\n")
        out = tmp_path / "out"
        assert run_cli("scan", "--config", str(cfg), "--n-firms", "200",
                       "--grid", "0:2:0.5", "--out-dir", str(out)) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert json.loads(err)["message"].startswith("estimate.sign: ")
        assert not out.exists()

    def test_config_command_must_match_subcommand(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("command = scan\n")
        code = run_cli("simulate", "--config", str(cfg), "--out-dir",
                       str(tmp_path))
        assert code == 1

    def test_config_that_is_not_utf8_is_an_error_record(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "cfg"
        cfg.write_bytes("dgp.variant = benchmark\ndgp.seed = 1 # caf\xe9\n"
                        .encode("latin-1"))
        code = run_cli("simulate", "--config", str(cfg), "--out-dir",
                       str(tmp_path / "out"))
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("config:")
        assert not (tmp_path / "out").exists()


class TestFailedRunsLeaveNothing:
    @pytest.mark.parametrize("argv, message", [
        (("estimate", "--n-periods", "2"), "n_periods"),
        (("scan", "--n-firms", "100", "--grid", "0:9:0.5"), "outside bounds"),
        (("figure", "--which", "5", "--n-firms", "200", "--n-periods", "3"),
         "every sub-model of the preset was rejected"),
    ], ids=["bad_n_periods", "grid_out_of_bounds", "figure_all_rejected"])
    def test_no_output_directory(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", str(out)) == 1
        assert message in json.loads(capsys.readouterr().err)["message"]
        assert not out.exists()

    def test_impossible_panel_size_is_an_error_record(self, tmp_path,
                                                      capsys):
        # numpy refuses 10**15 x 5 doubles before it reserves any memory
        out = tmp_path / "out"
        assert run_cli("simulate", "--n-firms", str(10**15),
                       "--out-dir", str(out)) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert json.loads(err)["error"] == "MemoryError"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["x/", "a/b.csv", "../p.csv", "", ".",
                                      "..", "a#b.csv", " p.csv", "q\nr.csv",
                                      "\udcff.csv"],
                             ids=["trailing_slash", "subdirectory", "parent",
                                  "empty", "dot", "dotdot", "comment",
                                  "leading_space", "line_break", "not_utf8"])
    def test_out_file_must_be_a_plain_name(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--n-firms", "10", "--out", name,
                       "--out-dir", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("out.file:")
        assert list(tmp_path.iterdir()) == []

    def test_grid_the_manifest_cannot_carry(self, tmp_path, capsys):
        # the manifest would record scan.grid = 0:2:0.1, a different run
        out = tmp_path / "out"
        assert run_cli("simulate", "--n-firms", "10", "--grid", "0:2:0.1#x",
                       "--out-dir", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("scan.grid:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, lines", [
        ("simulate", "dgp.theta = inf"),
        ("estimate", "dgp.beta = nan"),
        ("scan", "dgp.beta = nan"),
        ("diagnose", "dgp.beta = nan"),
        ("diagnose", "diagnose.point = custom\ndiagnose.beta = nan"),
        ("figure", "dgp.ext.theta2 = -inf"),
    ], ids=["simulate_theta", "estimate_beta", "scan_beta", "diagnose_beta",
            "diagnose_custom_beta", "figure_ext"])
    def test_non_finite_number_is_an_error_record(self, command, lines,
                                                  tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(lines + "\n")
        out = tmp_path / "out"
        assert run_cli(command, "--config", str(config), "--n-firms", "100",
                       "--out-dir", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        key = lines.splitlines()[-1].split(" = ")[0]
        assert record["error"] == "ValidationError"
        assert record["message"].startswith(f"{key}: must be a finite number")
        assert not out.exists()
        with pytest.raises(ValidationError) as err:
            resolve_config(parse_config_text(lines), {})
        assert err.value.field == key

    @pytest.mark.parametrize("family", ["double_diff", "levels"])
    def test_rho_scan_of_a_family_it_cannot_concentrate(self, family,
                                                        tmp_path, capsys):
        # before the family was checked up front, this wrote an all-NaN
        # curve and exited 0
        config = tmp_path / "run.cfg"
        config.write_text(f"scan.axis = rho\nscan.grid = -0.9:0.9:0.1\n"
                          f"scan.family = {family}\n")
        out = tmp_path / "out"
        assert run_cli("scan", "--config", str(config), "--n-firms", "200",
                       "--out-dir", str(out)) == 1
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ValidationError"
        # resolve_config refuses a family that is not in the table;
        # scan_curve one that the rho axis cannot concentrate
        field = "scan.family" if family == "levels" else "family"
        assert record["message"].startswith(f"{field}:")
        assert not out.exists()

    def test_rho_scan_of_a_family_whose_input_the_panel_lacks(self, tmp_path,
                                                              capsys):
        # a multi_input scan of a benchmark panel (no z) used to write an
        # all-NaN curve and exit 0
        config = tmp_path / "run.cfg"
        config.write_text("scan.axis = rho\nscan.grid = -0.9:0.9:0.1\n"
                          "scan.family = multi_input\n")
        out = tmp_path / "out"
        assert run_cli("scan", "--config", str(config), "--n-firms", "200",
                       "--out-dir", str(out)) == 1
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("panel:")
        assert not out.exists()

    def test_failed_writer_leaves_no_temp_or_partial_file(self, tmp_path):
        def failing(path):
            with open(path, "w") as fh:
                fh.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._atomic_via(failing, str(tmp_path / "out" / "curve.csv"))
        assert list((tmp_path / "out").iterdir()) == []


class TestPanelReuse:
    """Commands in one process share the panel of an identical spec."""

    @pytest.fixture(autouse=True)
    def draws(self, monkeypatch):
        """The specs ``cli`` draws, with the slot empty before and after."""
        specs = []

        def counting(spec):
            specs.append(spec)
            return simulate.draw_panel(spec)

        monkeypatch.setattr(cli, "draw_panel", counting)
        cli._held = (None, None)
        yield specs
        cli._held = (None, None)

    def test_estimate_and_both_diagnoses_draw_once(self, draws, tmp_path):
        pseudo = tmp_path / "pseudo.cfg"
        pseudo.write_text("diagnose.point = pseudo\n")
        for argv in (("estimate",), ("diagnose",),
                     ("diagnose", "--config", str(pseudo))):
            assert run_cli(*argv, "--seed", "3", "--n-firms", "2000",
                           "--out-dir", str(tmp_path / argv[0])) == 0
        assert len(draws) == 1
        assert run_cli("estimate", "--seed", "4", "--n-firms", "2000",
                       "--out-dir", str(tmp_path / "next")) == 0
        assert [spec.seed for spec in draws] == [3, 4]
        assert cli._held[0] == repr(draws[-1])

    def test_a_failed_draw_holds_nothing(self, draws, tmp_path):
        assert run_cli("simulate", "--n-firms", "50",
                       "--out-dir", str(tmp_path / "a")) == 0
        assert run_cli("estimate", "--n-periods", "2", "--n-firms", "50",
                       "--out-dir", str(tmp_path / "b")) == 1
        assert len(draws) == 2
        assert cli._held == (None, None)

    def test_figure_empties_the_slot(self, draws, tmp_path):
        assert run_cli("simulate", "--n-firms", "50",
                       "--out-dir", str(tmp_path / "a")) == 0
        assert run_cli("figure", "--which", "5", "--n-firms", "2000",
                       "--grid", "0:2.2:0.1",
                       "--out-dir", str(tmp_path / "b")) == 0
        assert len(draws) == 2 and draws[1].variant == "reversed_curvature"
        assert cli._held == (None, None)

    def test_artifacts_match_a_cleared_slot(self, draws, tmp_path):
        # scan first and simulate last, so each command meets moments
        # another command cached on the panel
        pseudo = tmp_path / "pseudo.cfg"
        pseudo.write_text("diagnose.point = pseudo\n")
        commands = [("scan", "--grid", "0:2:0.05"), ("estimate",),
                    ("diagnose",), ("diagnose", "--config", str(pseudo)),
                    ("simulate",)]
        for held in (True, False):
            for k, argv in enumerate(commands):
                if not held:
                    cli._held = (None, None)
                assert run_cli(*argv, "--seed", "5", "--n-firms", "2000",
                               "--out-dir", str(tmp_path / f"{held}{k}")) == 0
        assert len(draws) == 1 + len(commands)
        for k in range(len(commands)):
            names = sorted(p.name for p in (tmp_path / f"True{k}").iterdir())
            assert names == sorted(
                p.name for p in (tmp_path / f"False{k}").iterdir())
            assert "run.manifest" in names and len(names) > 1
            for name in names:
                assert (tmp_path / f"True{k}" / name).read_bytes() == \
                    (tmp_path / f"False{k}" / name).read_bytes(), name

    @pytest.mark.parametrize("command,line", [
        ("diagnose", "diagnose.point = midway"),
        ("diagnose", "diagnose.sign = sideways"),
        ("estimate", "estimate.sign = sideways"),
    ])
    def test_bad_labels_fail_before_the_draw(self, draws, tmp_path, command,
                                             line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run_cli(command, "--config", str(cfg),
                       "--out-dir", str(tmp_path / "out")) == 1
        assert draws == []
        assert not (tmp_path / "out").exists()

    def test_a_signed_zero_is_a_different_spec(self, draws, tmp_path):
        # 0.0 == -0.0, but the eps column's zeros keep the sign of its scale
        for name, value in (("plus", "0.0"), ("minus", "-0.0")):
            (tmp_path / f"{name}.cfg").write_text(
                f"dgp.variant = arma_x\ndgp.ext.sigma_eps = {value}\n")
        for name, config in (("plus", "plus"), ("minus", "minus"),
                             ("fresh", "minus")):
            if name == "fresh":
                cli._held = (None, None)
            assert run_cli("simulate", "--config",
                           str(tmp_path / f"{config}.cfg"), "--n-firms", "50",
                           "--out-dir", str(tmp_path / name)) == 0
        assert len(draws) == 3
        panels = {name: (tmp_path / name / "panel.csv").read_bytes()
                  for name in ("plus", "minus", "fresh")}
        assert panels["minus"] == panels["fresh"]
        assert panels["minus"] != panels["plus"]

    def test_concurrent_callers_get_the_panel_of_their_spec(self, draws):
        # the slot is read once per call, so a caller racing another can
        # only draw again; a split read of key and panel would mix them
        specs = [cli.config_to_spec(resolve_config(
            {}, {"dgp.seed": seed, "dgp.n_firms": 20})) for seed in range(3)]
        want = [simulate.draw_panel(spec).y for spec in specs]
        wrong = []

        def run(k):
            try:
                for i in range(200):
                    j = (i // 4 + k) % len(specs)
                    panel = cli._panel(specs[j])
                    if panel.spec != specs[j] or \
                            not np.array_equal(panel.y, want[j]):
                        wrong.append((k, i))
            except Exception as exc:  # a torn read can hand back None
                wrong.append((k, exc))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []


class TestParser:
    def test_every_flag_lands_on_its_keys(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("simulate", "--seed", "3", "--out-dir", str(out),
                       "--out", "p.csv", "--method", "two_step",
                       "--grid", "0:1:0.5", "--sign-theta", "negative",
                       "--which", "4", "--n-firms", "12", "--n-periods", "6",
                       "--variant", "arma_x") == 0
        lines = (out / "run.manifest").read_text().splitlines()
        for want in ("dgp.seed = 3", "out.file = p.csv",
                     "estimate.method = two_step", "scan.grid = 0:1:0.5",
                     "estimate.sign = negative", "diagnose.sign = negative",
                     "figure.which = 4", "dgp.n_firms = 12",
                     "dgp.n_periods = 6", "dgp.variant = arma_x"):
            assert want in lines
        assert (out / "p.csv").exists()
        assert not any(line.startswith("out.dir") for line in lines)

    def test_main_builds_no_parser(self, tmp_path):
        # a fresh process: the parser is built at import, and every main
        # call reuses it
        code = ("import sys\n"
                "from dynpan import cli\n"
                "def refuse():\n"
                "    raise AssertionError('main built a parser')\n"
                "cli.build_parser = refuse\n"
                "for k in '123':\n"
                "    assert cli.main(['simulate', '--n-firms', '20', '--seed',"
                " k, '--out-dir', sys.argv[1] + k]) == 0\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "run")],
                       check=True, env=env)
        assert (tmp_path / "run3" / "panel.csv").read_text() != \
            (tmp_path / "run2" / "panel.csv").read_text()

    def test_flags_may_come_before_the_command(self, tmp_path):
        before, after = tmp_path / "before", tmp_path / "after"
        assert run_cli("--seed", "4", "--n-firms", "20", "--grid",
                       "-0.5:2:0.5", "scan", "--out-dir", str(before)) == 0
        assert run_cli("scan", "--seed", "4", "--n-firms", "20", "--grid",
                       "-0.5:2:0.5", "--out-dir", str(after)) == 0
        for name in ("curve.csv", "run.manifest"):
            assert (before / name).read_bytes() == (after / name).read_bytes()

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_help_lists_each_closed_set(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_cli("estimate", "--help")
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        for want in ("--sign-theta {positive,negative}",
                     "--which {1,2,3,4,5}", "--method {two_step}",
                     "--variant {" + ",".join(simulate.VARIANTS) + "}"):
            assert want in text

    def test_help_without_a_command_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            run_cli("--help")
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        assert "{" + ",".join(cli._COMMANDS) + "}" in text
        for want in ("--config", *cli._FLAGS, "--sign-theta {positive,"
                     "negative}", "--which {1,2,3,4,5}", "--method "
                     "{two_step}", "--variant {" + ",".join(
                         simulate.VARIANTS) + "}"):
            assert want in text


# --- pinned bytes: every artifact of every command ------------------------

#: name -> (argv, config text): one run of each artifact format.  Every
#: case but ``simulate`` draws 2,000 firms.
ARTIFACT_CASES = {
    "simulate-benchmark": (["simulate", "--n-firms", "500"], ""),
    "simulate-multi_input": (["simulate", "--n-firms", "500",
                              "--variant", "multi_input"], ""),
    "simulate-arma_x": (["simulate", "--n-firms", "500",
                         "--variant", "arma_x"], ""),
    "scan-beta": (["scan", "--grid", "0:2:0.05"], ""),
    "scan-rho-quasi_diff": (["scan", "--grid", "0:0.95:0.05"],
                            "scan.axis = rho\n"),
    "scan-rho-multi_input": (["scan", "--grid", "0:0.95:0.05",
                              "--variant", "multi_input"],
                             "scan.axis = rho\nscan.family = multi_input\n"),
    "estimate-positive": (["estimate", "--sign-theta", "positive"], ""),
    "estimate-negative": (["estimate", "--sign-theta", "negative"], ""),
    "estimate-equal-persistence": (["estimate"], "dgp.rho_omega = 0.5\n"),
    "diagnose-truth": (["diagnose"], ""),
    "diagnose-pseudo": (["diagnose"], "diagnose.point = pseudo\n"),
    "diagnose-custom": (["diagnose"], "diagnose.point = custom\n"
                        "diagnose.alpha = 0.5\ndiagnose.beta = 1.2\n"
                        "diagnose.rho = 0.4\n"),
    "figure-3": (["figure", "--which", "3", "--grid", "0:2:0.1"], ""),
    "figure-5": (["figure", "--which", "5", "--grid", "0:2.2:0.1"], ""),
}
#: Recorded with :func:`artifact_digests`: ``PYTHONPATH=src python
#: tests/test_cli.py`` prints the file.
ARTIFACT_PINS = json.loads((pathlib.Path(__file__).parent
                            / "artifact_sha256.json").read_text())


def artifact_digests(case, out_dir):
    """sha256 of every file case ``case`` writes, ``run.manifest``
    included, keyed by file name."""
    argv, config = ARTIFACT_CASES[case]
    out_dir = pathlib.Path(out_dir)
    cfg = out_dir.parent / f"{out_dir.name}.cfg"
    cfg.write_text(config)
    n_firms = [] if "--n-firms" in argv else ["--n-firms", "2000"]
    assert main(argv + n_firms + ["--seed", "3", "--config", str(cfg),
                                  "--out-dir", str(out_dir)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("case", ARTIFACT_CASES)
def test_artifacts_match_their_recorded_hashes(case, tmp_path):
    """Every file of ``case``, manifest included, keeps its recorded bytes.
    Panels, scans and fits rest on BLAS products, so, like
    ``tests/moment_sha256.json``, the pins hold under the kernel baseline
    that ``conftest.py`` names, on one BLAS thread or two."""
    assert artifact_digests(case, tmp_path / "out") == ARTIFACT_PINS[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({case: artifact_digests(case, f"{tmp}/{case}")
                          for case in ARTIFACT_CASES}, indent=1,
                         sort_keys=True))
