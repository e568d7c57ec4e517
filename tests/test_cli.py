"""CLI surface: subcommands, JSON/CSV contracts, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from freestein import cli
from freestein.analytic import GridDensity, MeasureEvaluator, MeasureSpec, stieltjes_density

BERN_JSON = '{"type":"atomic","atoms":[[1.0,0.5],[-1.0,0.5]]}'
ASYM_JSON = '{"type":"atomic","atoms":[[2.0,0.2],[-0.5,0.8]]}'


SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return cli.main(argv)


def run_fresh(argv):
    """``python -m freestein.cli <argv>`` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "freestein.cli", *argv],
        capture_output=True, text=True, env=env, check=False,
    )


class TestParser:
    def test_importing_the_cli_loads_no_argparse(self):
        code = "import sys, freestein.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (0, "[]\n")

    def test_shared_parser_prints_what_fresh_processes_print(self, capsys):
        # one process: a refusal by the parser, then two valid commands
        commands = [
            ["stein-check", "--measure", BERN_JSON, "--order", "6"],
            ["nc", "count", "-n", "7"],
        ]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code == 2
        refusal = capsys.readouterr()
        fresh = run_fresh(["no-such-command"])
        assert fresh.returncode == 2
        assert (refusal.out, refusal.err) == (fresh.stdout, fresh.stderr)
        for argv in commands:
            assert run(argv) == 0
            captured = capsys.readouterr()
            fresh = run_fresh(argv)
            assert fresh.returncode == 0
            assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)


SEMI_JSON = '{"type": "semicircle", "mean": -0.3, "variance": 0.49}'
README_BERN = '{"type":"atomic","atoms":[[1,0.5],[-1,0.5]]}'

# argv -> the namespace it parses to, recorded from the argparse parser this
# table replaced: the README examples, the commands the benchmark runs,
# negative values, the --flag=value form and nc's positional after options
PARSED = [
    (["moments", "--measure", README_BERN, "--order", "8", "--cumulants"],
     {"command": "moments", "measure": README_BERN, "order": 8, "cumulants": True}),
    (["convolve", "--measure", "bernoulli.json", "-n", "64", "--out", "nu64.csv"],
     {"command": "convolve", "measure": "bernoulli.json", "n": 64, "scale": "auto",
      "out": "nu64.csv", "window": None, "points": 2001}),
    (["stein-check", "--measure", "bernoulli.json", "--order", "8"],
     {"command": "stein-check", "measure": "bernoulli.json", "order": 8}),
    (["nc", "count", "-n", "8"],
     {"command": "nc", "what": "count", "n": 8, "p": None, "q": None, "blocks": None}),
    (["nc", "mobius", "-n", "5"],
     {"command": "nc", "what": "mobius", "n": 5, "p": None, "q": None, "blocks": None}),
    (["nc", "kreweras", "--blocks", "[[1,2],[3]]"],
     {"command": "nc", "what": "kreweras", "n": 4, "p": None, "q": None, "blocks": "[[1,2],[3]]"}),
    (["berry-esseen", "--config", "experiment.json"],
     {"command": "berry-esseen", "config": "experiment.json"}),
    (["fit", "--csv", "rates.csv", "--metric", "w1", "--floor", "6e-6"],
     {"command": "fit", "csv": "rates.csv", "metric": "w1", "floor": 6e-06, "min_n": 0}),
    (["stein-check", "--measure", SEMI_JSON, "--order", "6"],
     {"command": "stein-check", "measure": SEMI_JSON, "order": 6}),
    (["nc", "count", "-n", "9"],
     {"command": "nc", "what": "count", "n": 9, "p": None, "q": None, "blocks": None}),
    (["nc", "mobius", "-n", "6"],
     {"command": "nc", "what": "mobius", "n": 6, "p": None, "q": None, "blocks": None}),
    (["nc", "kreweras", "--blocks", "[[1, 4], [2, 3], [5, 6]]"],
     {"command": "nc", "what": "kreweras", "n": 4, "p": None, "q": None,
      "blocks": "[[1, 4], [2, 3], [5, 6]]"}),
    (["moments", "--measure", SEMI_JSON, "--order", "10", "--cumulants"],
     {"command": "moments", "measure": SEMI_JSON, "order": 10, "cumulants": True}),
    (["convolve", "--measure", README_BERN, "-n", "4", "--out", "d.csv", "--window", "-2.5e0", "2.5"],
     {"command": "convolve", "measure": README_BERN, "n": 4, "scale": "auto", "out": "d.csv",
      "window": [-2.5, 2.5], "points": 2001}),
    (["convolve", "--measure", README_BERN, "-n", "4", "--out", "d.csv", "--scale", "-1e-1"],
     {"command": "convolve", "measure": README_BERN, "n": 4, "scale": "-1e-1", "out": "d.csv",
      "window": None, "points": 2001}),
    (["convolve", "--measure", README_BERN, "-n", "4", "--out", "d.csv", "--window", "-3", "-1"],
     {"command": "convolve", "measure": README_BERN, "n": 4, "scale": "auto", "out": "d.csv",
      "window": [-3.0, -1.0], "points": 2001}),
    (["convolve", "--measure=" + README_BERN, "-n", "4", "--out=d.csv", "--scale=-0.1", "--points=257"],
     {"command": "convolve", "measure": README_BERN, "n": 4, "scale": "-0.1", "out": "d.csv",
      "window": None, "points": 257}),
    (["stein-check", "--order=6", "--measure=" + README_BERN],
     {"command": "stein-check", "measure": README_BERN, "order": 6}),
    (["fit", "--csv=rates.csv", "--metric=kol", "--min-n=16", "--floor=-1e-3"],
     {"command": "fit", "csv": "rates.csv", "metric": "kol", "floor": -0.001, "min_n": 16}),
    (["nc", "-n", "7", "count"],
     {"command": "nc", "what": "count", "n": 7, "p": None, "q": None, "blocks": None}),
    (["nc", "--blocks", "[[1,2],[3]]", "kreweras"],
     {"command": "nc", "what": "kreweras", "n": 4, "p": None, "q": None, "blocks": "[[1,2],[3]]"}),
    (["nc", "-n", "4", "--p", "[[1],[2,3],[4]]", "mobius", "--q", "[[1,2,3,4]]"],
     {"command": "nc", "what": "mobius", "n": 4, "p": "[[1],[2,3],[4]]", "q": "[[1,2,3,4]]",
      "blocks": None}),
    (["nc", "--p=[[1],[2],[3]]", "-n=3", "mobius"],
     {"command": "nc", "what": "mobius", "n": 3, "p": "[[1],[2],[3]]", "q": None, "blocks": None}),
]

# stdout of the argparse parser's commands, recorded from it
NC_STDOUT = {
    ("nc", "count", "-n", "8"): "n=8 |NC(n)|=1430 Bell(n)=4140\nenumerated=1430\n",
    ("nc", "mobius", "-n", "5"): "mu(0,1) over NC(5) = 14\n",
    ("nc", "kreweras", "--blocks", "[[1,2],[3]]"): "[[1], [2, 3]]\n",
    ("nc", "kreweras", "--blocks", "[[1, 4], [2, 3], [5, 6]]"): "[[1, 3], [2], [4, 6], [5]]\n",
    ("nc", "-n", "7", "count"): "n=7 |NC(n)|=429 Bell(n)=877\nenumerated=429\n",
    ("nc", "--blocks", "[[1,2],[3]]", "kreweras"): "[[1], [2, 3]]\n",
    ("nc", "-n", "4", "--p", "[[1],[2,3],[4]]", "mobius", "--q", "[[1,2,3,4]]"): "2\n",
}


def _runs_without_files(argv) -> bool:
    return argv[0] == "nc" or argv[0] in ("moments", "stein-check") and ".json" not in " ".join(argv)


class TestParseContract:
    @pytest.mark.parametrize("argv, want", PARSED, ids=range(len(PARSED)))
    def test_namespace(self, argv, want):
        assert vars(cli.parse_args(argv)) == want

    @pytest.mark.parametrize(
        "argv, want", [case for case in PARSED if _runs_without_files(case[0])], ids=str
    )
    def test_stdout_is_the_handlers_on_the_recorded_namespace(self, argv, want, capsys):
        assert run(argv) == 0
        got = capsys.readouterr().out
        assert cli._COMMANDS[want["command"]][0](SimpleNamespace(**want)) == 0
        assert got == capsys.readouterr().out != ""
        assert got == NC_STDOUT.get(tuple(argv), got)

    def test_every_pinned_stdout_is_run(self):
        assert set(NC_STDOUT) <= {tuple(argv) for argv, _ in PARSED}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, token",
        [
            (["no-such-command"], "no-such-command"),
            (["stein-check", "--measure", BERN_JSON, "--theta", "1e-5"], "--theta"),
            (["stein-check", "--measure", BERN_JSON, "--ord", "8"], "--ord"),
            (["nc", "count", "-n4"], "'-n4'"),
            (["stein-check", "--order", "6"], "--measure"),
            (["stein-check", "--measure", BERN_JSON, "--order", "x"], "'x'"),
            (["nc", "frob"], "'frob'"),
            (["convolve", "--measure", BERN_JSON, "-n", "4", "--out", "d.csv", "--window", "1"],
             "--window"),
            (["stein-check", "--measure", "--order", "6"], "--measure"),
            (["moments", "--measure", BERN_JSON, "--cumulants=yes"], "--cumulants"),
            (["nc", "count", "mobius"], "'mobius'"),
            ([], "''"),
        ],
        ids=["unknown-command", "unknown-flag", "abbreviated-flag", "attached-short-value",
             "missing-required",
             "order-not-an-int", "nc-choice", "window-one-value", "flag-for-a-value",
             "value-for-a-switch", "second-positional", "no-command"],
    )
    def test_exits_2_naming_the_token(self, argv, token, capsys):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: freestein")
        assert error.startswith("freestein: error: ") and token in error

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, (_, text, _) in cli._COMMANDS.items():
            assert f"usage: freestein {name} " in out and text in out

    @pytest.mark.parametrize("command", ["stein-check", "nc", "convolve"])
    def test_command_help_lists_every_option(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--measure", BERN_JSON, "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0].startswith(f"usage: freestein {command} [-h]")
        for flag, (_, _, _, text) in cli._COMMANDS[command][2].items():
            word = flag if flag != "what" else "WHAT"
            assert any(line.lstrip().startswith(word) and text in line for line in lines[1:])


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
        "body, where",
        [
            ("", ""),
            ("0,1\n0.3,1\n1,1\n", ""),
            ("-1,0.5\n0,abc\n1,0.5\n", ", line 3"),
            ("-1,0.5\n0,0.5,1\n1,0.5\n", ", line 3"),
        ],
        ids=["header-only", "non-uniform", "non-numeric-cell", "three-cells"],
    )
    def test_bad_grid_file_exits_2(self, tmp_path, body, where, capsys):
        path = tmp_path / "d.csv"
        path.write_text("x,density\n" + body)
        measure = json.dumps({"type": "grid", "path": str(path)})
        assert run(["moments", "--measure", measure]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"{path}{where}" in err

    def test_grid_file_ending_in_a_blank_line(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("x,density\n-1,0.5\n0,0.5\n1,0.5\n\n")
        measure = json.dumps({"type": "grid", "path": str(path)})
        assert run(["moments", "--measure", measure, "--order", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2\t0.5"

    @pytest.mark.parametrize(
        "measure",
        [
            '{"type":"atomic","atoms":[[NaN,0.5],[1,0.5]]}',
            '{"type":"atomic","atoms":[[-1,NaN],[1,0.5]]}',
            '{"type":"atomic","atoms":[[1e999,0.5],[1,0.5]]}',
            '{"type":"semicircle","mean":NaN}',
            '{"type":"semicircle","variance":Infinity}',
            # strings and bools were coerced by float()
            '{"type":"atomic","atoms":[["-1","0.5"],[true,0.5]]}',
            '{"type":"semicircle","mean":"0","variance":true}',
        ],
        ids=[
            "atom-nan",
            "weight-nan",
            "atom-inf",
            "mean-nan",
            "variance-inf",
            "atom-strings-and-bool",
            "mean-string-variance-bool",
        ],
    )
    def test_non_finite_measure_exits_2_before_output(self, measure, capsys):
        assert run(["moments", "--measure", measure]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err

    @pytest.mark.parametrize(
        "body",
        [
            "-1,0.5\n0,nan\n1,0.5\n",
            "-1,0.5\n0,inf\n1,0.5\n",
            "-1,0.5\nnan,0.5\n1,0.5\n",
            "-1,0.5\n0,0.5\ninf,0.5\n",
        ],
        ids=["density-nan", "density-inf", "x-nan", "x-inf"],
    )
    def test_non_finite_grid_file_exits_2_before_output(self, tmp_path, body, capsys):
        path = tmp_path / "d.csv"
        path.write_text("x,density\n" + body)
        measure = json.dumps({"type": "grid", "path": str(path)})
        assert run(["moments", "--measure", measure]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err

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

    def test_n1_writes_the_plain_law(self, tmp_path):
        # n = 1 is the plain handle of the dilated law, with its window and bytes
        out, ref = tmp_path / "d.csv", tmp_path / "ref.csv"
        semi = '{"type":"semicircle","mean":0.25,"variance":0.5}'
        argv = ["convolve", "--measure", semi, "-n", "1", "--scale", "0.5"]
        assert run([*argv, "--out", str(out), "--points", "257"]) == 0
        mu = MeasureSpec.semicircle(0.25, 0.5).dilate(0.5)
        half = mu.support_radius + 0.5
        stieltjes_density(MeasureEvaluator(mu), -half, half, 257).to_csv(ref)
        assert out.read_bytes() == ref.read_bytes()


    @pytest.mark.parametrize(
        "args",
        [
            ["-n", "0"],
            ["-n", "-2"],
            ["-n", "4", "--points", "10"],
            ["-n", "1000001"],
            ["-n", "1" + "0" * 400],
            ["-n", "4", "--points", "20002"],
            ["-n", "4", "--points", "1" + "0" * 400],
        ],
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
            ["--scale", "-inf"],
            ["--window", "-inf", "1"],
            ["--window", "1e308", "-1e308"],
            ["--window", "-1e999", "1"],
            ["--window", "-1e308", "1e308"],
        ],
        ids=[
            "scale-0", "scale-inf", "scale-neg-inf", "scale-nan", "scale-abc",
            "window-reversed", "window-empty", "window-inf", "window-nan",
            "scale-neg-inf-spaced", "window-neg-inf", "window-exponent-reversed",
            "window-exponent-overflows", "window-width-overflows",
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

    @pytest.mark.parametrize(
        "exponent, plain",
        [
            (["--window", "-2.5e0", "2.5"], ["--window", "-2.5", "2.5"]),
            (["--scale", "-1e-1", "--window", "-3", "3"], ["--scale=-0.1", "--window", "-3", "3"]),
            (["--window", "-25E-1", "2.5"], ["--window", "-2.5", "2.5"]),
        ],
        ids=["window", "scale", "upper-case-e"],
    )
    def test_negative_numbers_in_exponent_form(self, tmp_path, exponent, plain, capsys):
        args = ["convolve", "--measure", BERN_JSON, "-n", "4", "--points", "257"]
        outputs = []
        for i, extra in enumerate((exponent, plain)):
            out = tmp_path / f"d{i}.csv"
            assert run([*args, "--out", str(out), *extra]) == 0
            printed = capsys.readouterr().out.replace(str(out), "OUT")
            outputs.append((printed, out.read_bytes()))
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("args", [["--order", "13"], ["--order", "1"]])
    def test_bad_numbers_exit_2_before_output(self, args, capsys):
        assert run(["stein-check", "--measure", BERN_JSON, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err

    def test_theta_step_is_not_an_option(self, capsys):
        # the finite-difference step is stein.FD_THETA_STEP, not a flag
        with pytest.raises(SystemExit) as exc:
            run(["stein-check", "--measure", BERN_JSON, "--theta-step", "1e-5"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--theta-step" in captured.err


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
            ["nc", "kreweras", "--blocks", "[[]]"],
            ["nc", "mobius", "-n", "2", "--p", "[[],[1,2]]"],
            ["nc", "kreweras", "--blocks", "[[true,2]]"],
            ["nc", "mobius", "-n", "2", "--p", "[[true],[2]]"],
            ["nc", "kreweras", "--blocks", '[["1"],[2]]'],
        ],
        ids=["kreweras-empty-block", "mobius-empty-block", "kreweras-bool",
             "mobius-bool", "kreweras-string"],
    )
    def test_malformed_partition_exits_2(self, argv, capsys):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad partition" in captured.err

    @pytest.mark.parametrize(
        "blocks",
        ["[]", json.dumps([[k] for k in range(1, 14)]), json.dumps([list(range(1, 15))])],
        ids=["empty", "13-singletons", "14-one-block"],
    )
    def test_kreweras_ground_set_out_of_bounds_exits_2(self, blocks, capsys):
        assert run(["nc", "kreweras", "--blocks", blocks]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ground set size must be a whole number in [1, 12]" in captured.err

    def test_kreweras_at_the_ground_set_bound(self, capsys):
        assert run(["nc", "kreweras", "--blocks", json.dumps([list(range(1, 13))])]) == 0
        assert json.loads(capsys.readouterr().out) == [[k] for k in range(1, 13)]

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

    def test_count_holds_no_lattice(self, capsys):
        tracemalloc.start()
        try:
            assert run(["nc", "count", "-n", "11"]) == 0
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "enumerated=58786" in capsys.readouterr().out
        assert held < 1_000_000

    @pytest.mark.parametrize(
        "n, want",
        [
            ("11", "n=11 |NC(n)|=58786 Bell(n)=678570\nenumerated=58786\n"),
            ("13", "n=13 |NC(n)|=742900 Bell(n)=27644437\n"),
        ],
    )
    def test_count_stdout_is_pinned(self, n, want, capsys):
        assert run(["nc", "count", "-n", n]) == 0
        assert capsys.readouterr().out == want

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

    def test_prints_only_the_metrics_asked_for(self, tmp_path, capsys):
        cfg = {
            "base_measure": {"type": "atomic", "atoms": [[1.0, 0.5], [-1.0, 0.5]]},
            "n_values": [4, 8],
            "metrics": ["w1"],
            "grid": {"n_points": 801},
            "output": str(tmp_path / "rates.csv"),
        }
        assert run(["berry-esseen", "--config", json.dumps(cfg)]) == 0
        rows = capsys.readouterr().out.splitlines()[:2]
        assert [r.split(":")[0] for r in rows] == ["n=4", "n=8"]
        for row in rows:
            assert "d_w1=" in row and "mass_deficit=" in row
            assert "d_kol" not in row and "d_tv" not in row and "refused" not in row

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

    @pytest.mark.parametrize("command", ["berry-esseen", "fit"])
    def test_repeated_n_exits_2_and_leaves_both_files(self, small_run, command, capsys):
        # a resume kept the last of two n = 8 lines and rewrote the file without the first
        meta = small_run.with_name(small_run.name + ".meta.json")
        small_run.write_text(small_run.read_text() + small_run.read_text().splitlines()[2] + "\n")
        before = small_run.read_bytes(), meta.read_bytes()
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
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 6: n = 8 again (line 3)" in captured.err
        assert (small_run.read_bytes(), meta.read_bytes()) == before

    def test_side_car_that_is_a_directory_exits_2_before_output(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        (tmp_path / "rates.csv.meta.json").mkdir()
        cfg = {"base_measure": json.loads(BERN_JSON), "n_values": [4, 8], "output": str(out)}
        assert run(["berry-esseen", "--config", json.dumps(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "rates.csv.meta.json" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rates.csv.meta.json"]

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
        "bad",
        ["abc,1,2,3,4,5,6", "64,1,2,3,4,5", "64,nan,inf,-1,nan,0,1", "64,1,1,1,0,0,nan"],
        ids=["non-numeric", "six-cells", "non-finite-distances", "nan-runtime"],
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
            '"grid": {"window": [-1e308, 1e308]}',
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
            '"n_values": [8, 2000000]',
            '"grid": {"n_points": 20002}',
        ],
        ids=[
            "window-inf", "window-width-overflows", "window-one-number", "window-text", "normalize-text",
            "normalize-number", "n-values-fractional", "n-values-bool",
            "n-points-fractional", "n-points-text", "grid-number", "metrics-number",
            "output-number", "n-points-huge", "atom-huge", "n-values-above-max-n",
            "n-points-above-max",
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
        assert not (tmp_path / "rates.csv.meta.json").exists()

    @pytest.mark.parametrize("normalize", [True, False])
    def test_non_finite_base_exits_2_before_output(self, tmp_path, normalize, capsys):
        out = tmp_path / "r.csv"
        cfg = {
            "base_measure": {"type": "atomic", "atoms": [[float("nan"), 0.5], [1.0, 0.5]]},
            "n_values": [4, 8],
            "normalize": normalize,
            "output": str(out),
        }
        assert run(["berry-esseen", "--config", json.dumps(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert list(tmp_path.iterdir()) == []

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
