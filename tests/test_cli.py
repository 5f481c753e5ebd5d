"""End-to-end tests of the command-line interface.

These runs use small panels via flag overrides; location accuracy at the
full default size is the acceptance suite's job.
"""

import gc
import json
import warnings

import numpy as np
import pytest

from dynpan import cli
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


class TestScanCommand:
    def test_scan_writes_curve_with_zero_comments(self, tmp_path):
        code = run_cli("scan", "--seed", "3", "--n-firms", "4000",
                       "--grid", "0:2:0.05", "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "curve.csv").read_text().splitlines()
        assert lines[0] == "axis_value,m,objective"
        zero_lines = [ln for ln in lines if ln.startswith("# zero,")]
        assert len(zero_lines) == 2  # truth and pseudo crossings

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
    ])
    def test_unknown_point_or_sign_is_an_error_record(self, line, field,
                                                      tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        code = run_cli("diagnose", "--config", str(cfg), "--n-firms", "200",
                       "--out-dir", str(tmp_path / "out"))
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert record["message"].startswith(f"{field}:")
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("name", ["x/", "a/b.csv", "../p.csv", "", ".",
                                      ".."],
                             ids=["trailing_slash", "subdirectory", "parent",
                                  "empty", "dot", "dotdot"])
    def test_out_file_must_be_a_plain_name(self, name, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--n-firms", "10", "--out", name,
                       "--out-dir", str(out)) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValidationError"
        assert record["message"].startswith("out.file:")
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

    def test_failed_writer_leaves_no_temp_or_partial_file(self, tmp_path):
        def failing(path):
            with open(path, "w") as fh:
                fh.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._atomic_via(failing, str(tmp_path / "out" / "curve.csv"))
        assert list((tmp_path / "out").iterdir()) == []


class TestParser:
    def test_main_builds_its_parser_once(self, tmp_path, monkeypatch):
        built, original = [], cli.build_parser

        def counting():
            built.append(original())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._main_parser.cache_clear()
        try:
            for k in range(3):
                assert run_cli("simulate", "--n-firms", "20", "--seed",
                               str(k), "--out-dir",
                               str(tmp_path / str(k))) == 0
            assert len(built) == 1
        finally:
            cli._main_parser.cache_clear()
        assert (tmp_path / "2" / "panel.csv").read_text() != \
            (tmp_path / "1" / "panel.csv").read_text()

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()
