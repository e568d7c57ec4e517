"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repo root."""

import inspect
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import catalog  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from freestein import analytic as an  # noqa: E402
from freestein import experiment as ex  # noqa: E402
from freestein import ncsymb, stein  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _one_pass(workdir: Path, trace: int) -> dict:
    result = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "one_pass.py"), "--workload", "rate_atomic", "--seed", "0",
        "--workdir", str(workdir), "--result", str(result), "--trace", str(trace),
    ]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120)
    return json.loads(result.read_text())


def test_seed0_is_the_acceptance_and_grid_base_configuration(tmp_path):
    atomic = inputs.make_inputs("rate_atomic", 0)
    state = workloads.setup_rate_atomic(atomic, tmp_path)
    bern, skew = (an.MeasureSpec.atomic(a) for a in ([(-1.0, 0.5), (1.0, 0.5)], [(2.0, 0.2), (-0.5, 0.8)]))
    for name, base in (("bernoulli", bern), ("skewed", skew)):
        cfg, cfg_ext = state["runs"][name]
        assert cfg.base_measure == base
        assert cfg.n_values == (8, 16, 32, 64, 128, 256, 512)
        assert cfg_ext.n_values == cfg.n_values + (1024, 2048, 4096)
        assert cfg.metrics == ex.ALL_METRICS and cfg.grid_points == ex.DEFAULT_GRID_POINTS
        assert cfg.window is None and not cfg.normalize

    # TestGridBase, verbatim
    xs = np.linspace(-3.2, 3.2, 1601)
    bump = lambda c, s: np.sqrt(np.clip(4 * s * s - (xs - c) ** 2, 0, None)) / (2 * math.pi * s * s)  # noqa: E731
    vals = 0.5 * bump(-1.2, 0.45) + 0.5 * bump(1.2, 0.45)
    grid = an.GridDensity(-3.2, 3.2, vals / np.trapezoid(vals, xs))
    want = ex.ExperimentConfig(
        base_measure=an.MeasureSpec.from_grid(grid), normalize=True, n_values=(8, 16, 32, 64),
        grid_points=801, metrics=("w1",), output="grid.csv",
    )
    got = workloads.setup_rate_grid(inputs.make_inputs("rate_grid", 0), tmp_path)["cfg"]
    assert np.array_equal(got.base_measure.grid.values, want.base_measure.grid.values)
    assert (got.base_measure.grid.lo, got.base_measure.grid.hi) == (want.base_measure.grid.lo, want.base_measure.grid.hi)
    assert (got.n_values, got.grid_points, got.metrics, got.normalize) == (
        want.n_values, want.grid_points, want.metrics, want.normalize
    )

    algebra = inputs.make_inputs("algebra", 0)
    assert [ex.parse_measure(m) for m in algebra["battery"]] == list(stein.MEASURE_BATTERY)
    defaults = inspect.signature(ncsymb.random_matrix_battery).parameters
    assert algebra["resolvent"] == {name: defaults[name].default for name in ("seed", "count", "dim")}


def _shape(obj):
    """The input with every number replaced by its type: what a seed may not change."""
    if isinstance(obj, dict):
        return {k: _shape(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_shape(v) for v in obj]
    return type(obj).__name__


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seeds_redraw_values_but_never_sizes(workload):
    base = inputs.make_inputs(workload, 0)
    for seed in (1, 7, 12345):
        drawn = inputs.make_inputs(workload, seed)
        assert drawn == inputs.make_inputs(workload, seed)
        assert drawn != base
        assert _shape(drawn) == _shape(base)


def test_metric_names_are_valid_and_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for kind, table in (("end_to_end", catalog.END_TO_END), ("per_layer", catalog.PER_LAYER)):
        entries = {m["name"]: (m["unit"], m["better"]) for m in declared[kind]}
        assert entries == {name: spec[:2] for name, spec in table.items()}
    for name in list(catalog.END_TO_END) + list(catalog.PER_LAYER):
        assert NAME.fullmatch(name), name


def test_traced_pass_writes_the_rows_of_an_untraced_one(tmp_path):
    plain = _one_pass(tmp_path / "plain", 0)
    traced = _one_pass(tmp_path / "traced", 1)
    assert plain["failures"] == [] and traced["failures"] == []
    for name in ("bernoulli", "skewed"):
        # the last column is the row's wall time
        rows = [
            [line.rsplit(",", 1)[0] for line in (tmp_path / run / f"{name}.csv").read_text().splitlines()]
            for run in ("plain", "traced")
        ]
        assert rows[0] == rows[1] and len(rows[0]) == 11
    # every per-layer metric is measured in the pass except the two the driver derives
    assert set(traced["layers"]) | {"trace.overhead_s", "fail_frac"} == set(catalog.PER_LAYER)
    assert traced["layers"]["kernels.nfold_omega.iters_max"] == 22
    assert traced["layers"]["experiment.rows_resumed"] == 14


def test_checkout_without_sources_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate_atomic", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
