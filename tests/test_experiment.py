"""Experiment harness: config parsing, resumability, determinism, rate fits."""

import json
import math
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from freestein import _kernels
from freestein import experiment as ex
from freestein.analytic import (GridDensity, MeasureEvaluator, MeasureSpec, PairConvolveEvaluator,
                                nfold_convolve)
from freestein.errors import ConfigError, ConvergenceError, FitRefusalError, MassRecoveryWarning

BERN = MeasureSpec.atomic([(-1.0, 0.5), (1.0, 0.5)])


def tiny_config(tmp_path, **over):
    kwargs = dict(
        base_measure=BERN,
        n_values=(4, 8),
        grid_points=501,
        output=str(tmp_path / "out.csv"),
    )
    kwargs.update(over)
    return ex.ExperimentConfig(**kwargs)


class TestConfig:
    def test_unsorted_n_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, n_values=(8, 4))

    def test_single_n_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, n_values=(8,))

    def test_bad_metric_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            tiny_config(tmp_path, metrics=("kol", "hellinger"))

    def test_non_standardized_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="standardized"):
            tiny_config(tmp_path, base_measure=MeasureSpec.atomic([(0.0, 0.5), (2.0, 0.5)]))

    @pytest.mark.parametrize("normalize", [False, True])
    def test_base_moments_beyond_float_range_are_a_config_error(self, tmp_path, normalize):
        law = MeasureSpec.atomic([(1e200, 0.5), (-1e200, 0.5)])
        with pytest.raises(ConfigError, match="m_2 = inf"):
            tiny_config(tmp_path, base_measure=law, normalize=normalize)

    def test_normalize_rescales(self, tmp_path):
        cfg = tiny_config(
            tmp_path,
            base_measure=MeasureSpec.atomic([(0.0, 0.5), (2.0, 0.5)]),
            normalize=True,
        )
        m = cfg.base_measure.moments(2)
        assert float(m[1]) == pytest.approx(0.0, abs=1e-14)
        assert float(m[2]) == pytest.approx(1.0, abs=1e-14)

    def test_json_round(self, tmp_path):
        doc = {
            "base_measure": {"type": "atomic", "atoms": [[1.0, 0.5], [-1.0, 0.5]]},
            "n_values": [4, 8, 16],
            "metrics": ["w1"],
            "grid": {"n_points": 801},
            "output": str(tmp_path / "o.csv"),
        }
        cfg = ex.parse_config(doc)
        assert cfg.n_values == (4, 8, 16)
        assert cfg.metrics == ("w1",)
        assert cfg.grid_points == 801

    def test_unknown_top_key_rejected(self, tmp_path):
        doc = {
            "base_measure": {"type": "semicircle"},
            "output": str(tmp_path / "o.csv"),
            "plot": True,
        }
        with pytest.raises(ConfigError, match="unknown keys"):
            ex.parse_config(doc)

    def test_unknown_grid_key_rejected(self, tmp_path):
        doc = {
            "base_measure": {"type": "semicircle"},
            "output": str(tmp_path / "o.csv"),
            "grid": {"n_points": 500, "spacing": "log"},
        }
        with pytest.raises(ConfigError, match="unknown keys"):
            ex.parse_config(doc)

    def test_unknown_measure_key_rejected(self):
        with pytest.raises(ConfigError):
            ex.parse_measure({"type": "semicircle", "stddev": 2.0})


class TestStandardize:
    def test_atomic(self):
        mu = ex.standardize(MeasureSpec.atomic([(0.0, 0.8), (5.0, 0.2)]))
        m = mu.moments(2)
        assert float(m[1]) == pytest.approx(0.0, abs=1e-13)
        assert float(m[2]) == pytest.approx(1.0, abs=1e-13)

    def test_semicircle(self):
        mu = ex.standardize(MeasureSpec.semicircle(3.0, 7.0))
        assert mu.mean == 0.0 and mu.variance == 1.0


class TestRunExperiment:
    def test_rows_and_csv(self, tmp_path):
        cfg = tiny_config(tmp_path)
        rows = ex.run_experiment(cfg)
        assert [n for n, _ in rows] == [4, 8]
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == ex.CSV_HEADER
        assert len(lines) == 3

    def test_semicircle_base_sits_at_floor(self, tmp_path):
        cfg = tiny_config(
            tmp_path, base_measure=MeasureSpec.semicircle(0, 1), n_values=(4, 8, 16)
        )
        for _, rep in ex.run_experiment(cfg):
            assert rep.d_kol < 5e-3 and rep.d_w1 < 5e-3
            assert rep.d_tv is None or rep.d_tv < 5e-3

    def test_resume_skips_and_preserves_rows(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, n_values=(4, 8, 16))
        ex.run_experiment(cfg)
        first = (tmp_path / "out.csv").read_text().splitlines()
        # drop the last row to simulate an interrupted run
        (tmp_path / "out.csv").write_text("\n".join(first[:-1]) + "\n")

        calls = []
        real = ex.compute_row

        def counting(cfg_, n_):
            calls.append(n_)
            return real(cfg_, n_)

        monkeypatch.setattr(ex, "compute_row", counting)
        ex.run_experiment(cfg)
        second = (tmp_path / "out.csv").read_text().splitlines()
        assert calls == [16]
        assert second[:3] == first[:3]

    def test_interrupted_resume_keeps_completed_rows(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path, n_values=(8, 16, 32))
        ex.run_experiment(cfg)
        path = tmp_path / "out.csv"
        header, row8, row16, row32 = path.read_text().splitlines()
        failed8 = "8,,,,,-1," + row8.rsplit(",", 1)[1]
        path.write_text("\n".join([header, failed8, row16, row32]) + "\n")

        def interrupt(cfg_, n_):
            raise KeyboardInterrupt

        monkeypatch.setattr(ex, "compute_row", interrupt)
        with pytest.raises(KeyboardInterrupt):
            ex.run_experiment(cfg)
        assert path.read_text().splitlines() == [header, row16, row32]

        # interrupted after recomputing row 8: row 16 is kept as it was
        monkeypatch.undo()
        real = ex.compute_row
        failed32 = "32,,,,,-1," + row32.rsplit(",", 1)[1]
        path.write_text("\n".join([header, failed8, row16, failed32]) + "\n")

        def interrupt_at_32(cfg_, n_):
            if n_ == 32:
                raise KeyboardInterrupt
            return real(cfg_, n_)

        monkeypatch.setattr(ex, "compute_row", interrupt_at_32)
        with pytest.raises(KeyboardInterrupt):
            ex.run_experiment(cfg)
        lines = path.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["8", "16"]
        assert lines[1].split(",")[5] != "-1" and lines[2] == row16
        assert not (tmp_path / "out.csv.tmp").exists()

        monkeypatch.undo()
        ex.run_experiment(cfg)
        final = path.read_text().splitlines()
        assert final[:3] == lines and final[3].split(",")[0] == "32"

    def test_rerun_with_fewer_n_keeps_the_other_rows(self, tmp_path, monkeypatch):
        ex.run_experiment(tiny_config(tmp_path, n_values=(8, 16, 32)))
        path = tmp_path / "out.csv"
        first = path.read_text().splitlines()
        assert len(first) == 4

        def no_compute(cfg_, n_):
            raise AssertionError(f"row {n_} recomputed")

        monkeypatch.setattr(ex, "compute_row", no_compute)
        rows = ex.run_experiment(tiny_config(tmp_path, n_values=(8, 16)))
        assert [n for n, _ in rows] == [8, 16]
        assert path.read_text().splitlines() == first

        # a run of other n values merges its rows in n order
        monkeypatch.undo()
        rows = ex.run_experiment(tiny_config(tmp_path, n_values=(4, 24)))
        assert [n for n, _ in rows] == [4, 24]
        lines = path.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["4", "8", "16", "24", "32"]
        assert [lines[0], *lines[2:4], lines[5]] == first

    def test_foreign_csv_is_refused_and_left_untouched(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        foreign = "x,y\n1,2\n"
        path.write_text(foreign)

        def no_compute(cfg_, n_):
            raise AssertionError(f"row {n_} computed")

        monkeypatch.setattr(ex, "compute_row", no_compute)
        with pytest.raises(ConfigError, match="not an experiment CSV"):
            ex.run_experiment(tiny_config(tmp_path))
        assert path.read_text() == foreign
        assert not (tmp_path / "out.csv.tmp").exists()

    @pytest.mark.parametrize(
        "over",
        [
            dict(base_measure=MeasureSpec.atomic([(2.0, 0.2), (-0.5, 0.8)]), metrics=("w1",)),
            dict(metrics=("w1",)),
            dict(grid_points=601),
            dict(window=(-3.0, 3.0)),
            # standardizes to the same law: only the flag differs
            dict(base_measure=MeasureSpec.atomic([(-2.0, 0.5), (2.0, 0.5)]), normalize=True),
        ],
        ids=["other-law", "metrics", "grid-points", "window", "normalize"],
    )
    def test_rows_of_another_configuration_are_refused(self, tmp_path, monkeypatch, over):
        # without the side-car a rerun with another law returned the old law's rows
        ex.run_experiment(tiny_config(tmp_path, n_values=(8, 16)))
        path, meta = tmp_path / "out.csv", tmp_path / "out.csv.meta.json"
        before = path.read_bytes(), meta.read_bytes()

        def no_compute(cfg_, n_):
            raise AssertionError(f"row {n_} computed")

        monkeypatch.setattr(ex, "compute_row", no_compute)
        with pytest.raises(ConfigError, match="another configuration"):
            ex.run_experiment(tiny_config(tmp_path, n_values=(8, 16), **over))
        assert (path.read_bytes(), meta.read_bytes()) == before
        assert not (tmp_path / "out.csv.tmp").exists()
        assert not (tmp_path / "out.csv.meta.json.tmp").exists()

    def test_side_car_holds_the_configuration_not_the_n_values(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ex.run_experiment(cfg)
        stamp = (tmp_path / "out.csv.meta.json").read_text()
        assert stamp == ex.fingerprint(cfg)
        data = json.loads(stamp)
        assert data["base"] == {"type": "atomic", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
        assert (data["grid_points"], data["window"]) == (501, None)
        assert data["metrics"] == ["kol", "tv", "w1"]
        assert ex.fingerprint(tiny_config(tmp_path, n_values=(2, 3, 4096))) == stamp
        assert ex.fingerprint(tiny_config(tmp_path, metrics=("w1", "kol", "tv"))) == stamp

    def test_grid_bases_differ_by_their_values(self, tmp_path):
        xs = np.linspace(-2.0, 2.0, 401)
        semi = np.sqrt(np.clip(4 - xs * xs, 0, None)) / (2 * math.pi)
        prints = set()
        for bump in (0.0, 0.05):
            vals = semi * (1 + bump * xs * xs)
            grid = GridDensity(-2.0, 2.0, vals / np.trapezoid(vals, xs))
            cfg = tiny_config(tmp_path, base_measure=MeasureSpec.from_grid(grid), normalize=True)
            prints.add(ex.fingerprint(cfg))
        assert len(prints) == 2

    def test_rows_without_a_side_car_are_refused(self, tmp_path, monkeypatch):
        ex.run_experiment(tiny_config(tmp_path))
        path = tmp_path / "out.csv"
        (tmp_path / "out.csv.meta.json").unlink()
        before = path.read_bytes()
        monkeypatch.setattr(ex, "compute_row", None)
        with pytest.raises(ConfigError, match="no out.csv.meta.json"):
            ex.run_experiment(tiny_config(tmp_path))
        assert path.read_bytes() == before
        assert not (tmp_path / "out.csv.meta.json").exists()

    def test_a_side_car_without_rows_is_replaced(self, tmp_path):
        meta = tmp_path / "out.csv.meta.json"
        meta.write_text("{}")
        (tmp_path / "out.csv").write_text(ex.CSV_HEADER + "\n")
        cfg = tiny_config(tmp_path)
        assert [n for n, _ in ex.run_experiment(cfg)] == [4, 8]
        assert meta.read_text() == ex.fingerprint(cfg)

    def test_determinism_modulo_runtime(self, tmp_path):
        cfg1 = tiny_config(tmp_path, output=str(tmp_path / "a.csv"))
        cfg2 = tiny_config(tmp_path, output=str(tmp_path / "b.csv"))
        ex.run_experiment(cfg1)
        ex.run_experiment(cfg2)

        def strip_runtime(path):
            lines = path.read_text().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert strip_runtime(tmp_path / "a.csv") == strip_runtime(tmp_path / "b.csv")

    def test_asymmetric_distances_decrease(self, tmp_path):
        # run oracle: distances shrink with n, one inversion allowed for
        # noise (the n = 4 law carries an atom, so TV starts unavailable)
        cfg = tiny_config(
            tmp_path,
            base_measure=MeasureSpec.atomic([(2.0, 0.2), (-0.5, 0.8)]),
            n_values=(4, 8, 16, 32, 64, 128, 256, 512),
            grid_points=1001,
        )
        rows = ex.run_experiment(cfg)
        assert rows[0][1].d_tv is None  # atom at n = 4
        assert all(rep.d_tv is not None for _, rep in rows[1:])
        for attr in ("d_kol", "d_w1"):
            vals = [getattr(rep, attr) for _, rep in rows]
            assert all(v > 0 and math.isfinite(v) for v in vals)
            inversions = sum(b >= a for a, b in zip(vals, vals[1:]))
            assert inversions <= 1, (attr, vals)

    def test_bernoulli_n64_all_metrics_available(self, tmp_path):
        cfg = tiny_config(tmp_path, n_values=(32, 64), grid_points=1001)
        rows = dict(ex.run_experiment(cfg))
        rep = rows[64]
        assert rep.d_kol > 0 and math.isfinite(rep.d_kol)
        assert rep.d_w1 > 0 and math.isfinite(rep.d_w1)
        assert rep.d_tv is not None and rep.d_tv > 0

    def test_failed_rows_marked_and_retried(self, tmp_path, monkeypatch):
        cfg = tiny_config(tmp_path)

        def explode(*a, **k):
            raise ConvergenceError("boom", residual=1.0)

        monkeypatch.setattr(ex, "nfold_convolve", explode)
        rows = ex.run_experiment(cfg)
        assert all(rep is None for _, rep in rows)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert all(line.split(",")[5] == "-1" for line in lines[1:])

        monkeypatch.undo()
        rows = ex.run_experiment(cfg)
        assert all(rep is not None for _, rep in rows)


class TestGridBase:
    def test_bimodal_grid_base_reproduces_cubed_matching_rate(self, tmp_path):
        # a symmetric smooth law has matching rank 3, so W1 decays like 1/n;
        # this drives the grid-measure kernel path through the whole harness
        import numpy as np

        from freestein import analytic as an

        xs = np.linspace(-3.2, 3.2, 1601)
        bump = (
            lambda c, s: np.sqrt(np.clip(4 * s * s - (xs - c) ** 2, 0, None))
            / (2 * math.pi * s * s)
        )
        vals = 0.5 * bump(-1.2, 0.45) + 0.5 * bump(1.2, 0.45)
        grid = an.GridDensity(-3.2, 3.2, vals / np.trapezoid(vals, xs))
        cfg = ex.ExperimentConfig(
            base_measure=an.MeasureSpec.from_grid(grid),
            normalize=True,
            n_values=(8, 16, 32, 64),
            grid_points=801,
            metrics=("w1",),
            output=str(tmp_path / "grid.csv"),
        )
        rows = ex.run_experiment(cfg)
        fit = ex.fit_rate([(n, rep.d_w1) for n, rep in rows], "w1")
        assert -1.25 < fit.slope < -0.75
        assert fit.r_squared > 0.99


class TestFitRate:
    def test_exact_power_law(self):
        pts = [(n, n**-0.5) for n in (8, 16, 32, 64, 128)]
        fit = ex.fit_rate(pts, "w1")
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_intercept_recovers_constant(self):
        pts = [(n, 3.0 * n**-1.0) for n in (8, 16, 32, 64)]
        fit = ex.fit_rate(pts, "w1")
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-10)

    def test_too_few_points_refused(self):
        with pytest.raises(FitRefusalError):
            ex.fit_rate([(8, 0.1), (16, 0.05), (32, 0.02)], "w1")

    def test_floor_exclusion(self):
        pts = [(8, 1.0), (16, 0.5), (32, 0.25), (64, 0.125), (128, 9e-4)]
        fit = ex.fit_rate(pts, "w1", floor=1e-4)
        assert len(fit.points) == 4  # the 9e-4 point is within 10x floor

    def test_none_distances_skipped(self):
        pts = [(8, None), (16, 0.5), (32, 0.25), (64, 0.125), (128, 0.0625)]
        fit = ex.fit_rate(pts, "tv")
        assert len(fit.points) == 4

    def test_floor_refusal_for_flat_data(self):
        floor = 1e-3
        pts = [(n, 2e-3) for n in (8, 16, 32, 64)]
        with pytest.raises(FitRefusalError):
            ex.fit_rate(pts, "kol", floor=floor)

    @pytest.mark.parametrize(
        "n", [0, 8.5, True, "8", math.nan, ex.MAX_N + 1],
        ids=["zero", "fraction", "bool", "text", "nan", "above-max-n"],
    )
    def test_n_is_a_count(self, n):
        pts = [(n, 0.5)] + [(m, m**-0.5) for m in (16, 32, 64, 128)]
        with pytest.raises(ValueError, match="n must be a whole number"):
            ex.fit_rate(pts, "kol")

    @pytest.mark.parametrize(
        "floor", [math.nan, math.inf, -1.0, True, "0"],
        ids=["nan", "inf", "negative", "bool", "text"],
    )
    def test_floor_is_read_by_the_number_rule_first(self, floor):
        # a nan floor used to discard every point and refuse the fit; the floor
        # is read before the refused n = 0
        pts = [(0, 0.5)] + [(m, m**-0.5) for m in (16, 32, 64, 128)]
        with pytest.raises(ValueError, match=r"floor must be a finite real >= 0, got"):
            ex.fit_rate(pts, "kol", floor=floor)

    def test_repeated_n_refused_by_name(self):
        with pytest.raises(ValueError, match="n = 8 twice"):
            ex.fit_rate([(8, 0.4), (16, 0.3), (8.0, 0.2), (32, 0.1)], "kol")
        with pytest.raises(ValueError, match="n = 8 twice"):
            ex.fit_rate([(8, d) for d in (0.4, 0.3, 0.2, 0.1)], "kol")

    def test_whole_float_n_reads_as_int(self):
        fit = ex.fit_rate([(float(n), n**-0.5) for n in (8, 16, 32, 64)], "kol")
        assert [n for n, _ in fit.points] == [8, 16, 32, 64]
        assert all(type(n) is int for n, _ in fit.points)

    def test_json_payload(self):
        fit = ex.fit_rate([(n, n**-0.5) for n in (8, 16, 32, 64)], "kol")
        data = json.loads(fit.to_json())
        assert data["metric"] == "kol"
        assert len(data["points"]) == 4


class TestRowHandle:
    """A row is measured on a handle, whatever law the handle carries."""

    def test_pair_row_equals_the_nfold_row(self):
        half = BERN.dilate(1 / math.sqrt(2))
        rows = [
            ex._distances(handle, (-2.5, 2.5), 2001)[0]
            for handle in (PairConvolveEvaluator(half, half), nfold_convolve(BERN, 2, 1 / math.sqrt(2)))
        ]
        assert rows[0].d_tv is rows[1].d_tv is None  # the arcsine's edge mass: TV refused
        for got, want in zip(astuple(rows[0]), astuple(rows[1])):
            assert got is want is None or abs(got - want) <= 1e-10

    def test_auto_window_reads_the_handle(self):
        # half-width max(min(support radius, 5.5), 2) + 0.5: 2.5 for the standard semicircle
        handle = MeasureEvaluator(MeasureSpec.semicircle(0.0, 1.0))
        assert ex._distances(handle, None, 1001) == ex._distances(handle, (-2.5, 2.5), 1001)
        wide = nfold_convolve(BERN, 64, 0.125)  # radius 8, capped
        assert ex._distances(wide, None, 257) == ex._distances(wide, (-6.0, 6.0), 257)

    def test_auto_window_holds_the_reference(self):
        # the arcsine law has radius sqrt(2) < 2: the window still holds [-2, 2]
        narrow = nfold_convolve(BERN, 2, 1 / math.sqrt(2))
        report = ex._distances(narrow, None, 2001)[0]
        assert report == ex._distances(narrow, (-2.5, 2.5), 2001)[0]
        assert report.mass_deficit < 5e-3
        assert report.d_tv is None  # the ladder's mass loss at the arcsine's edges


class TestBenchmarkReference:
    """The benchmark's seed-0 rate rows, recomputed here, against the distance
    cells it checks them with, and to the same 1e-10."""

    LAWS = {"bernoulli": BERN, "skewed": MeasureSpec.atomic([(2.0, 0.2), (-0.5, 0.8)])}

    @pytest.mark.parametrize("name", list(LAWS))
    def test_rows_match_the_seed0_reference(self, name, tmp_path):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference_seed0.json"
        want = json.loads(path.read_text())["rate_atomic"][name]
        cfg = tiny_config(tmp_path, base_measure=self.LAWS[name], grid_points=2001)
        assert sorted(map(int, want)) == [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        for n, cells in want.items():
            report = ex.compute_row(cfg, int(n)).report
            got = (report.d_kol, report.d_tv, report.d_w1)
            for g, w in zip(got, cells):
                assert g is w is None or abs(g - w) <= 1e-10, (n, got, cells)


class TestFloor:
    def test_floor_is_small(self):
        rep = ex.discretization_floor(grid_points=1001)
        assert rep.d_w1 < 1e-3 and rep.d_kol < 1e-3

    def test_overflowing_window_refused_before_the_solve(self, monkeypatch):
        # the width hi - lo overflows: refused before the solve, not after it
        def solve(*args):
            raise AssertionError("a subordination solve ran")

        monkeypatch.setattr(_kernels, "nfold_omega", solve)
        with pytest.raises(ValueError, match="finite width"):
            ex.discretization_floor(window=(-1e308, 1e308))

    def test_mass_warning_is_silenced_only_per_row(self, tmp_path):
        # a window that misses mass warns through the floor; an experiment row
        # reports the deficit in its report instead
        with pytest.warns(MassRecoveryWarning):
            rep = ex.discretization_floor(grid_points=1001, window=(-1.0, 1.0))
        assert rep.mass_deficit > 0.3
        cfg = tiny_config(tmp_path, base_measure=MeasureSpec.semicircle(0, 1), window=(-1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", MassRecoveryWarning)
            row = ex.compute_row(cfg, 4)
        assert row.report.mass_deficit > 0.3

    def test_semicircle_base_never_yields_a_slope(self, tmp_path):
        # every distance of the semicircle base sits at the floor, so the
        # fit must refuse rather than report a spurious rate
        cfg = tiny_config(
            tmp_path,
            base_measure=MeasureSpec.semicircle(0, 1),
            n_values=(4, 8, 16, 32, 64),
            grid_points=2001,
        )
        rows = ex.run_experiment(cfg)
        floor = ex.discretization_floor()
        with pytest.raises(FitRefusalError):
            ex.fit_rate([(n, rep.d_w1) for n, rep in rows], "w1", floor=floor.d_w1)

    def test_load_distance_column(self, tmp_path):
        cfg = tiny_config(tmp_path)
        ex.run_experiment(cfg)
        pts = ex.load_distance_column(cfg.output, "w1")
        assert [n for n, _ in pts] == [4, 8]
        assert all(d > 0 for _, d in pts)


class TestReadRows:
    def test_decodes_cells_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "out.csv"
        lines = ["8,0.5,,0.25,1e-3,4,12.5", "16,,,,,-1,3"]
        path.write_text("\n".join([ex.CSV_HEADER, lines[0], "", "  ", lines[1]]) + "\n")
        ok, failed = ex.read_rows(path)
        assert (ok.n, ok.subord_iters, ok.runtime_ms, ok.line) == (8, 4, 12.5, lines[0])
        rep = ok.report
        assert (rep.d_kol, rep.d_tv, rep.d_w1, rep.mass_deficit) == (0.5, None, 0.25, 1e-3)
        assert failed.failed and failed.subord_iters == -1 and failed.line == lines[1]
        assert ex.load_distance_column(path, "tv") == [(8, None)]

    def test_blank_cells_read_as_none(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text(ex.CSV_HEADER + "\n8,,,,,0,1\n")
        rep = ex.read_rows(path)[0].report
        assert (rep.d_kol, rep.d_tv, rep.d_w1, rep.mass_deficit) == (None, None, None, None)

    @pytest.mark.parametrize(
        "bad",
        [
            "abc,1,2,3,4,5,6",
            "8,1,2,3,4,5",
            "8,1,2,3,4,5,6,7",
            "8,x,2,3,4,5,6",
            ",1,2,3,4,5,6",
            # non-finite and negative distances once read back as a finished row
            "4,nan,inf,-1,nan,0,1",
            "-5,1,1,1,0,0,1",
            "8,1,1,1,0,-7,1",
            "8,1,1,1,0,0,nan",
        ],
        ids=[
            "bad-n",
            "six-cells",
            "eight-cells",
            "bad-distance",
            "empty-n",
            "non-finite-distances",
            "negative-n",
            "iters-below-minus-1",
            "nan-runtime",
        ],
    )
    def test_corrupt_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "out.csv"
        path.write_text(ex.CSV_HEADER + "\n8,0.5,0.5,0.5,0,0,1\n\n" + bad + "\n")
        with pytest.raises(ConfigError, match=r"out\.csv, line 4"):
            ex.read_rows(path)

    def test_repeated_n_names_both_lines(self, tmp_path):
        # a resume keyed the rows by n and silently dropped the first n = 8 line
        path = tmp_path / "out.csv"
        path.write_text(ex.CSV_HEADER + "\n8,0.5,0.5,0.5,0,0,1\n16,,,,,-1,3\n8,0.4,,,,0,2\n")
        with pytest.raises(ConfigError, match=r"out\.csv, line 4: n = 8 again \(line 2\)"):
            ex.read_rows(path)

    def test_resume_refuses_a_corrupt_file_and_leaves_it(self, tmp_path, monkeypatch):
        path = tmp_path / "out.csv"
        text = ex.CSV_HEADER + "\n4,1,2,3,4,5\n"
        path.write_text(text)

        def no_compute(cfg_, n_):
            raise AssertionError(f"row {n_} computed")

        monkeypatch.setattr(ex, "compute_row", no_compute)
        with pytest.raises(ConfigError, match="line 2"):
            ex.run_experiment(tiny_config(tmp_path))
        assert path.read_text() == text

    @pytest.mark.parametrize("content", [None, b"\xff\xfe\n"], ids=["missing", "not-utf8"])
    def test_unreadable_file_is_a_config_error(self, tmp_path, content):
        path = tmp_path / "out.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError):
            ex.load_distance_column(path, "w1")
