"""CLI surface: subcommands, JSON/CSV contracts, exit codes."""

import json

import numpy as np
import pytest

from freestein import cli
from freestein.analytic import GridDensity

BERN_JSON = '{"type":"atomic","atoms":[[1.0,0.5],[-1.0,0.5]]}'
ASYM_JSON = '{"type":"atomic","atoms":[[2.0,0.2],[-0.5,0.8]]}'


def run(argv):
    return cli.main(argv)


class TestMoments:
    def test_table(self, capsys):
        assert run(["moments", "--measure", BERN_JSON, "--order", "4", "--cumulants"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "j\tm_j\tkappa_j"
        # m_4 = 1, kappa_4 = -1
        assert out[-1].split("\t") == ["4", "1", "-1"]

    def test_measure_file(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(BERN_JSON)
        assert run(["moments", "--measure", str(path)]) == 0

    def test_bad_measure_exits_2(self, capsys):
        assert run(["moments", "--measure", '{"type":"nope"}']) == 2

    @pytest.mark.parametrize(
        "body", ["", "0,1\n0.3,1\n1,1\n"], ids=["header-only", "non-uniform"]
    )
    def test_bad_grid_file_exits_2(self, tmp_path, body, capsys):
        path = tmp_path / "d.csv"
        path.write_text("x,density\n" + body)
        measure = json.dumps({"type": "grid", "path": str(path)})
        assert run(["moments", "--measure", measure]) == 2
        assert "config error" in capsys.readouterr().err

    def test_grid_file_ending_in_a_blank_line(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("x,density\n-1,0.5\n0,0.5\n1,0.5\n\n")
        measure = json.dumps({"type": "grid", "path": str(path)})
        assert run(["moments", "--measure", measure, "--order", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2\t0.5"

    @pytest.mark.parametrize("order", ["1", "13"])
    def test_order_out_of_range_exits_2(self, order, capsys):
        assert run(["moments", "--measure", BERN_JSON, "--order", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err


class TestConvolve:
    def test_density_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = run(
            ["convolve", "--measure", BERN_JSON, "-n", "4", "--out", str(out),
             "--points", "501", "--window", "-3", "3"]
        )
        assert code == 0
        g = GridDensity.from_csv(out)
        assert g.n_points == 501
        assert abs(g.mass - 1.0) < 1e-3
        # 17 significant digits in the payload
        line = out.read_text().splitlines()[250]
        assert len(line.split(",")[0].replace("-", "").replace(".", "").lstrip("0")) >= 15

    def test_explicit_scale(self, tmp_path):
        out = tmp_path / "d.csv"
        assert run(
            ["convolve", "--measure", BERN_JSON, "-n", "2", "--scale", "1.0",
             "--out", str(out), "--points", "257"]
        ) == 0


    @pytest.mark.parametrize(
        "args", [["-n", "0"], ["-n", "-2"], ["-n", "4", "--points", "10"]]
    )
    def test_bad_numbers_exit_2_before_output(self, tmp_path, args, capsys):
        out = tmp_path / "d.csv"
        assert run(["convolve", "--measure", BERN_JSON, "--out", str(out), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--scale", "0"],
            ["--scale", "inf"],
            ["--scale=-inf"],
            ["--scale", "nan"],
            ["--scale", "abc"],
            ["--window", "1", "-1"],
            ["--window", "1", "1"],
            ["--window", "0", "inf"],
            ["--window", "nan", "1"],
        ],
        ids=[
            "scale-0", "scale-inf", "scale-neg-inf", "scale-nan", "scale-abc",
            "window-reversed", "window-empty", "window-inf", "window-nan",
        ],
    )
    def test_bad_scale_or_window_exits_2_before_output(self, tmp_path, args, capsys):
        out = tmp_path / "d.csv"
        assert run(["convolve", "--measure", BERN_JSON, "-n", "4", "--out", str(out), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert args[0].split("=")[0] in captured.err
        assert not out.exists()

    def test_missing_output_directory_exits_2_before_output(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "d.csv"
        assert run(["convolve", "--measure", BERN_JSON, "-n", "4", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert not out.parent.exists()

    def test_output_that_is_a_directory_exits_2_before_output(self, tmp_path, capsys):
        assert run(["convolve", "--measure", BERN_JSON, "-n", "4", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_negative_scale_reflects(self, tmp_path):
        out = tmp_path / "d.csv"
        args = ["convolve", "--measure", ASYM_JSON, "-n", "8", "--out", str(out), "--points", "257"]
        assert run([*args, "--scale", "-0.35", "--window", "-3", "3"]) == 0
        flipped = GridDensity.from_csv(out).values
        assert run([*args, "--scale", "0.35", "--window", "-3", "3"]) == 0
        assert np.abs(GridDensity.from_csv(out).values - flipped[::-1]).max() < 1e-12


class TestSteinCheck:
    def test_reports_all_sections(self, capsys):
        assert run(["stein-check", "--measure", BERN_JSON, "--order", "4"]) == 0
        out = capsys.readouterr().out
        assert "Stein discrepancy" in out
        assert "generator" in out
        assert "dual Stein" in out

    @pytest.mark.parametrize(
        "args",
        [["--order", "13"], ["--order", "1"], ["--theta-step", "0.1"], ["--theta-step", "0"]],
    )
    def test_bad_numbers_exit_2_before_output(self, args, capsys):
        assert run(["stein-check", "--measure", BERN_JSON, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err


class TestNc:
    def test_count(self, capsys):
        assert run(["nc", "count", "-n", "6"]) == 0
        out = capsys.readouterr().out
        assert "|NC(n)|=132" in out and "Bell(n)=203" in out

    def test_mobius_default_interval(self, capsys):
        assert run(["nc", "mobius", "-n", "4"]) == 0
        assert "-5" in capsys.readouterr().out

    def test_mobius_explicit_pair(self, capsys):
        assert run(
            ["nc", "mobius", "-n", "3", "--p", "[[1],[2],[3]]", "--q", "[[1,2,3]]"]
        ) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_kreweras(self, capsys):
        assert run(["nc", "kreweras", "--blocks", "[[1,2],[3]]"]) == 0
        assert json.loads(capsys.readouterr().out) == [[1], [2, 3]]

    def test_bad_partition_exits_2(self):
        assert run(["nc", "kreweras", "--blocks", "[[1,2],[2]]"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["nc", "mobius", "-n", "4", "--p", "[[1,3],[2,4]]"],
            ["nc", "mobius", "-n", "4", "--q", "[[1,3],[2,4]]"],
            ["nc", "kreweras", "--blocks", "[[1,3],[2,4]]"],
        ],
    )
    def test_crossing_partition_exits_2(self, argv, capsys):
        assert run(argv) == 2
        assert "crossing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["-n", "4", "--p", "[[1,2]]"],
            ["-n", "3", "--p", "[[1,2,3]]", "--q", "[[1],[2],[3]]"],
            ["-n", "3", "--p", "[[1],[2],[3],[4]]", "--q", "[[1,2,3,4]]"],
        ],
        ids=["p-short-of-n", "p-above-q", "pair-beyond-n"],
    )
    def test_mobius_pair_outside_the_lattice_exits_2(self, args, capsys):
        assert run(["nc", "mobius", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err

    @pytest.mark.parametrize("n", ["0", "13"])
    def test_mobius_ground_set_bound_exits_2(self, n, capsys):
        assert run(["nc", "mobius", "-n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err

    @pytest.mark.parametrize("n", ["0", "-1", "31"])
    def test_count_bad_n_exits_2(self, n, capsys):
        assert run(["nc", "count", "-n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err

    def test_count_enumerates_up_to_the_ground_set_bound(self, capsys):
        assert run(["nc", "count", "-n", "12"]) == 0
        assert "enumerated=208012" in capsys.readouterr().out
        assert run(["nc", "count", "-n", "30"]) == 0
        out = capsys.readouterr().out
        assert "|NC(n)|=3814986502092304" in out and "enumerated" not in out


class TestBerryEsseenAndFit:
    @pytest.fixture()
    def small_run(self, tmp_path):
        out = tmp_path / "rates.csv"
        cfg = {
            "base_measure": {"type": "atomic", "atoms": [[1.0, 0.5], [-1.0, 0.5]]},
            "n_values": [4, 8, 16, 32],
            "metrics": ["kol", "tv", "w1"],
            "grid": {"n_points": 801},
            "output": str(out),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["berry-esseen", "--config", str(cfg_path)]) == 0
        return out

    def test_csv_columns(self, small_run):
        lines = small_run.read_text().splitlines()
        assert lines[0] == "n,d_kol,d_tv,d_w1,mass_deficit,subord_iters,runtime_ms"
        assert len(lines) == 5

    def test_fit_from_csv(self, small_run, capsys):
        assert run(["fit", "--csv", str(small_run), "--metric", "w1"]) == 0
        fit = json.loads(capsys.readouterr().out)
        assert -1.3 < fit["slope"] < -0.7
        assert fit["r_squared"] > 0.99

    def test_min_n_filter_causes_refusal(self, small_run):
        assert run(
            ["fit", "--csv", str(small_run), "--metric", "w1", "--min-n", "16"]
        ) == 4

    def test_floor_refusal_exit_code(self, small_run):
        assert run(["fit", "--csv", str(small_run), "--metric", "w1", "--floor", "1"]) == 4

    @pytest.mark.parametrize(
        "arg",
        ["--floor=nan", "--floor=inf", "--floor=-1e-3", "--min-n=-1"],
        ids=["floor-nan", "floor-inf", "floor-negative", "min-n-negative"],
    )
    def test_bad_fit_numbers_exit_2_before_output(self, small_run, arg, capsys):
        capsys.readouterr()
        assert run(["fit", "--csv", str(small_run), "--metric", "w1", arg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and arg.split("=")[0] in captured.err

    def test_rerun_with_another_law_exits_2_and_leaves_both_files(self, small_run, capsys):
        meta = small_run.with_name(small_run.name + ".meta.json")
        before = small_run.read_bytes(), meta.read_bytes()
        cfg = {"base_measure": json.loads(ASYM_JSON), "n_values": [4, 8], "output": str(small_run)}
        capsys.readouterr()
        assert run(["berry-esseen", "--config", json.dumps(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "another configuration" in captured.err
        assert (small_run.read_bytes(), meta.read_bytes()) == before

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"output": "x.csv", "extra": 1}))
        assert run(["berry-esseen", "--config", str(cfg_path)]) == 2

    def test_foreign_output_file_exits_2(self, tmp_path):
        out = tmp_path / "notes.csv"
        out.write_text("a,b\n1,2\n")
        cfg = {
            "base_measure": {"type": "atomic", "atoms": [[1.0, 0.5], [-1.0, 0.5]]},
            "output": str(out),
        }
        assert run(["berry-esseen", "--config", json.dumps(cfg)]) == 2
        assert out.read_text() == "a,b\n1,2\n"

    @pytest.mark.parametrize(
        "bad", ["abc,1,2,3,4,5,6", "64,1,2,3,4,5"], ids=["non-numeric", "six-cells"]
    )
    @pytest.mark.parametrize("command", ["berry-esseen", "fit"])
    def test_corrupt_row_exits_2_and_leaves_the_file(self, small_run, bad, command, capsys):
        small_run.write_text(small_run.read_text() + bad + "\n")
        before = small_run.read_text()
        if command == "fit":
            argv = ["fit", "--csv", str(small_run), "--metric", "w1"]
        else:
            cfg = {
                "base_measure": {"type": "atomic", "atoms": [[1.0, 0.5], [-1.0, 0.5]]},
                "n_values": [4, 8, 16, 32],
                "grid": {"n_points": 801},
                "output": str(small_run),
            }
            argv = ["berry-esseen", "--config", json.dumps(cfg)]
        capsys.readouterr()
        assert run(argv) == 2
        assert "line 6" in capsys.readouterr().err
        assert small_run.read_text() == before

    @pytest.mark.parametrize(
        "field",
        [
            '"grid": {"window": [-3, 1e999]}',
            '"grid": {"window": [0]}',
            '"grid": {"window": ["a", 1]}',
            '"normalize": "false"',
            '"normalize": 1',
            '"n_values": [8.9, 16.2]',
            '"n_values": [true, 2]',
            '"grid": {"n_points": 201.7}',
            '"grid": {"n_points": "abc"}',
            '"grid": 5',
            '"metrics": 5',
            '"output": 5',
            '"grid": {"n_points": 1' + "0" * 400 + "}",
            '"base_measure": {"type": "atomic", "atoms": [[1' + "0" * 400 + ", 1]]}",
        ],
        ids=[
            "window-inf", "window-one-number", "window-text", "normalize-text",
            "normalize-number", "n-values-fractional", "n-values-bool",
            "n-points-fractional", "n-points-text", "grid-number", "metrics-number",
            "output-number", "n-points-huge", "atom-huge",
        ],
    )
    def test_mangled_config_exits_2_before_output(self, tmp_path, field, capsys):
        out = tmp_path / "rates.csv"
        cfg = {
            "base_measure": {"type": "atomic", "atoms": [[1.0, 0.5], [-1.0, 0.5]]},
            "n_values": [4, 8],
            "output": str(out),
        }
        cfg.update(json.loads("{" + field + "}"))
        assert run(["berry-esseen", "--config", json.dumps(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert not out.exists()

    def test_missing_output_directory_exits_2_before_output(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.csv"
        cfg = {
            "base_measure": {"type": "atomic", "atoms": [[1.0, 0.5], [-1.0, 0.5]]},
            "n_values": [4, 8],
            "output": str(out),
        }
        assert run(["berry-esseen", "--config", json.dumps(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert not out.parent.exists()

    def test_fit_on_missing_csv_exits_2(self, tmp_path, capsys):
        assert run(["fit", "--csv", str(tmp_path / "none.csv"), "--metric", "w1"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self):
        assert run(["berry-esseen", "--config", "/nonexistent/cfg.json"]) == 2
