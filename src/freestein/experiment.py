"""Berry-Esseen rate experiments: build nu_n, measure distances, fit slopes.

For a standardized base measure mu the harness forms
nu_n = (D_{1/sqrt(n)} mu)^{boxplus n}, recovers its density, measures
Kolmogorov / total-variation / W1 distances to the standard semicircle,
and fits log-log slopes.  Rows stream to CSV as they complete, so an
interrupted run resumes without recomputing finished n values; a JSON
side-car next to the CSV records the configuration its rows came from.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from . import metrics as met
from .analytic import (
    DENSITY_METHOD,
    MIN_GRID_POINTS,
    GridDensity,
    MeasureSpec,
    nfold_convolve,
    semicircle_density,
    stieltjes_density,
)
from .errors import ConfigError, ConvergenceError, FitRefusalError, MassRecoveryWarning

CSV_HEADER = "n,d_kol,d_tv,d_w1,mass_deficit,subord_iters,runtime_ms"
ALL_METRICS = ("kol", "tv", "w1")
DEFAULT_N_VALUES = (4, 8, 16, 32, 64, 128, 256, 512)
DEFAULT_GRID_POINTS = 2001
# auto window half-width: sqrt(n) * R_base capped by superconvergence scale
_WINDOW_CAP = 5.5
_WINDOW_PAD = 0.5
FLOOR_MULTIPLE = 10.0


@dataclass
class ExperimentConfig:
    base_measure: MeasureSpec
    n_values: tuple = DEFAULT_N_VALUES
    metrics: tuple = ALL_METRICS
    grid_points: int = DEFAULT_GRID_POINTS
    window: tuple | None = None
    output: str = "berry_esseen.csv"
    normalize: bool = False

    def __post_init__(self):
        ns = self.n_values
        if not isinstance(ns, (list, tuple)) or not all(map(_whole, ns)):
            raise ConfigError(f"n_values must be a list of integers, got {ns!r}")
        ns = tuple(map(int, ns))
        if len(ns) < 2 or list(ns) != sorted(set(ns)) or ns[0] < 1:
            raise ConfigError("n_values must be >= 2 distinct ascending positive integers")
        self.n_values = ns
        ms = self.metrics
        if not isinstance(ms, (list, tuple)) or not ms or any(m not in ALL_METRICS for m in ms):
            raise ConfigError(f"metrics must be a non-empty subset of {ALL_METRICS}")
        self.metrics = tuple(ms)
        if not isinstance(self.output, (str, os.PathLike)):
            raise ConfigError(f"output must be a file path, got {self.output!r}")
        if not _whole(self.grid_points) or self.grid_points < MIN_GRID_POINTS:
            raise ConfigError(
                f"grid points must be an integer >= {MIN_GRID_POINTS}, got {self.grid_points!r}"
            )
        self.grid_points = int(self.grid_points)
        if self.window is not None:
            w = self.window
            two = isinstance(w, (list, tuple)) and len(w) == 2 and all(map(_number, w))
            if not (two and w[0] < w[1]):
                raise ConfigError(f"window must be two finite numbers lo < hi, got {w!r}")
            self.window = (float(w[0]), float(w[1]))
        if not isinstance(self.normalize, bool):
            raise ConfigError(f"normalize must be true or false, got {self.normalize!r}")
        if self.normalize:
            self.base_measure = standardize(self.base_measure)
        else:
            m = self.base_measure.moments(2)
            if abs(float(m[1])) > 1e-12 or abs(float(m[2]) - 1.0) > 1e-12:
                raise ConfigError(
                    "base measure must be centered and standardized "
                    "(mean 0, variance 1); pass normalize=true to rescale"
                )


def _number(v) -> bool:
    """A finite real from a config; bools and ints beyond float range do not pass."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _whole(v) -> bool:
    """A count from a config: 8 and 8.0 pass; 8.9, True, "8" and inf do not."""
    return _number(v) and float(v).is_integer()


def standardize(mu: MeasureSpec) -> MeasureSpec:
    """Affine pushforward x -> (x - mean)/std."""
    m = mu.moments(2)
    mean = float(m[1])
    var = float(m[2]) - mean * mean
    if var <= 0:
        raise ConfigError("cannot standardize a degenerate measure")
    std = math.sqrt(var)
    if mu.kind == "atomic":
        return MeasureSpec.atomic([((p - mean) / std, w) for p, w in mu.atoms])
    if mu.kind == "semicircle":
        return MeasureSpec.semicircle(0.0, 1.0)
    xs = (mu.grid.x - mean) / std
    return MeasureSpec.from_grid(GridDensity(xs[0], xs[-1], mu.grid.values * std))


def parse_measure(obj: dict) -> MeasureSpec:
    """MeasureSpec from its JSON form; unknown keys rejected."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError("measure must be an object with a 'type' key")
    kind = obj["type"]
    try:
        if kind == "atomic":
            _require_keys(obj, {"type", "atoms"})
            return MeasureSpec.atomic([(float(p), float(w)) for p, w in obj["atoms"]])
        if kind == "semicircle":
            _require_keys(obj, {"type", "mean", "variance"}, optional={"mean", "variance"})
            return MeasureSpec.semicircle(
                float(obj.get("mean", 0.0)), float(obj.get("variance", 1.0))
            )
        if kind == "grid":
            _require_keys(obj, {"type", "path"})
            return MeasureSpec.from_grid(GridDensity.from_csv(obj["path"]))
    except ConfigError:
        raise
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        raise ConfigError(f"bad measure definition: {exc}") from exc
    raise ConfigError(f"unknown measure type {kind!r}")


def _require_keys(obj: dict, allowed: set, optional: set = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"expected a JSON object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}")
    missing = allowed - set(obj) - set(optional)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)}")


def parse_config(obj: dict) -> ExperimentConfig:
    """ExperimentConfig from a JSON document; unknown keys rejected."""
    allowed = {"base_measure", "n_values", "metrics", "grid", "output", "normalize"}
    _require_keys(obj, allowed, optional={"n_values", "metrics", "grid", "normalize"})
    kwargs = {"base_measure": parse_measure(obj["base_measure"])}
    kwargs.update((k, obj[k]) for k in ("n_values", "metrics", "output", "normalize") if k in obj)
    grid = obj.get("grid", {})
    _require_keys(grid, {"window", "n_points"}, optional={"window", "n_points"})
    if "n_points" in grid:
        kwargs["grid_points"] = grid["n_points"]
    if "window" in grid:
        kwargs["window"] = grid["window"]
    return ExperimentConfig(**kwargs)


def auto_window(base: MeasureSpec, n: int) -> tuple:
    half = min(math.sqrt(n) * base.support_radius, _WINDOW_CAP) + _WINDOW_PAD
    return (-half, half)


@dataclass
class ExperimentRow:
    n: int
    report: met.DistanceReport | None
    subord_iters: int
    runtime_ms: float
    line: str = field(default="", repr=False)

    @property
    def failed(self) -> bool:
        return self.report is None


def _format_row(row: ExperimentRow, wanted) -> str:
    def fmt(v):
        return "" if v is None else f"{v:.17g}"

    rep = row.report
    cells = ["", "", "", ""]
    if rep is not None:
        dists = [getattr(rep, "d_" + m) if m in wanted else None for m in ALL_METRICS]
        cells = [fmt(v) for v in (*dists, rep.mass_deficit)]
    return ",".join([str(row.n), *cells, str(row.subord_iters), f"{row.runtime_ms:.17g}"])


def _decode_row(path, lineno: int, line: str) -> ExperimentRow:
    """One CSV line as a row; empty distance cells read as nan (d_tv as None)."""
    cells = line.split(",")
    if len(cells) != 7:
        raise ConfigError(f"{path}, line {lineno}: expected 7 cells, got {len(cells)}")
    try:
        n, iters, runtime_ms = int(cells[0]), int(cells[5]), float(cells[6])
        d_kol, d_tv, d_w1, deficit = (float(c) if c else math.nan for c in cells[1:5])
    except ValueError as exc:
        raise ConfigError(f"{path}, line {lineno}: {exc}") from exc
    report = None
    if iters != -1:
        report = met.DistanceReport(d_kol, d_tv if cells[2] else None, d_w1, deficit)
    return ExperimentRow(n=n, report=report, subord_iters=iters, runtime_ms=runtime_ms, line=line)


def read_rows(path) -> list:
    """The rows of an experiment CSV in file order, blank lines skipped.

    Raises :class:`ConfigError` when the file cannot be read, its first
    line is not ``CSV_HEADER``, or a line has the wrong cell count or a
    non-numeric cell (naming the file and line number).
    """
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path} is not an experiment CSV (bad header)")
    return [
        _decode_row(path, lineno, line)
        for lineno, line in enumerate(lines[1:], start=2)
        if line.strip()
    ]


def _distances(base: MeasureSpec, n: int, window, grid_points: int, metrics=ALL_METRICS):
    """Distances from the n-fold law of D_{1/sqrt(n)} base to the semicircle
    on one window grid, and the solver's peak iterations."""
    ev = nfold_convolve(base, n, 1.0 / math.sqrt(n))
    lo, hi = window if window else auto_window(base, n)
    density = stieltjes_density(ev, lo, hi, grid_points)
    reference = semicircle_density(lo, hi, grid_points)
    return met.distance_report(density, reference, metrics), ev.peak_iterations


def compute_row(cfg: ExperimentConfig, n: int) -> ExperimentRow:
    """Convolve, invert, and measure a single n (no file I/O)."""
    t0 = time.perf_counter()
    report, iters = None, -1
    try:
        # A mass deficit shows in the report's ``mass_deficit`` and a refused
        # TV distance, so the density's warning is not repeated per row.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MassRecoveryWarning)
            report, iters = _distances(
                cfg.base_measure, n, cfg.window, cfg.grid_points, cfg.metrics
            )
    except ConvergenceError:
        pass
    return ExperimentRow(n, report, iters, (time.perf_counter() - t0) * 1e3)


def _replace(path: Path, text: str) -> None:
    """Replace the file at ``path`` by ``text`` in one step, through a temp file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_rows(path: Path, lines: dict) -> None:
    """Replace the CSV with the header and the non-empty ``lines`` in one step."""
    rows = [line for line in lines.values() if line is not None]
    _replace(path, "".join(line + "\n" for line in (CSV_HEADER, *rows)))


def fingerprint(cfg: ExperimentConfig) -> str:
    """Canonical JSON of what decides a row's cells: all of ``cfg`` but the n
    values and the output path, the package version and the methods."""
    mu, g = cfg.base_measure, cfg.base_measure.grid
    if mu.kind == "atomic":
        base = {"atoms": mu.atoms}
    elif mu.kind == "semicircle":
        base = {"mean": mu.mean, "variance": mu.variance}
    else:
        import hashlib  # loads OpenSSL, about 3.6 MB of RSS: only grid bases need it

        sha = hashlib.sha256(g.values).hexdigest()
        base = {"lo": g.lo, "hi": g.hi, "points": g.n_points, "sha256": sha}
    return json.dumps(
        {
            "base": {"type": mu.kind, **base},
            "grid_points": cfg.grid_points,
            "window": cfg.window,
            "metrics": sorted(set(cfg.metrics)),
            "normalize": cfg.normalize,
            "version": __version__,
            "methods": [DENSITY_METHOD, met.DISTANCE_METHOD],
        },
        sort_keys=True,
    )


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run every configured n, keeping the output CSV complete at all times.

    Completed rows already in the file, configured or not, are kept
    byte-identical and not recomputed; failed rows are retried.  The file
    is first replaced by its completed rows in n order, and again after
    every computed row, each time through a temp file, so an interrupted
    run never loses a completed row.  Only configured rows are returned.

    The side-car ``<output>.meta.json`` holds :func:`fingerprint`.  It is
    written, atomically, before the CSV when the CSV holds no rows yet;
    rows with no side-car, or with one that differs, raise
    :class:`ConfigError` before either file is touched.
    """
    path = Path(cfg.output)
    meta = path.with_name(path.name + ".meta.json")
    stamp = fingerprint(cfg)
    found = read_rows(path) if path.exists() and path.stat().st_size else []
    if not found:
        _replace(meta, stamp)
    elif not meta.is_file():
        raise ConfigError(f"{path} holds rows but no {meta.name} says what made them")
    elif meta.read_bytes() != stamp.encode():
        raise ConfigError(f"{path} holds rows of another configuration (see {meta.name})")
    done = {row.n: row for row in found if not row.failed}
    ns = sorted(set(done) | set(cfg.n_values))
    lines = {n: done[n].line if n in done else None for n in ns}
    _write_rows(path, lines)
    rows = []
    for n in cfg.n_values:
        row = done.get(n)
        if row is None:
            row = compute_row(cfg, n)
            row.line = lines[n] = _format_row(row, cfg.metrics)
            _write_rows(path, lines)
        rows.append(row)
    return [(r.n, r.report) for r in rows]


@dataclass
class RateFit:
    """Least-squares slope of log(distance) against log(n)."""

    metric: str
    slope: float
    intercept: float
    r_squared: float
    points: list

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def fit_rate(points, metric: str = "", floor: float = 0.0) -> RateFit:
    """OLS fit of log d = slope * log n + intercept.

    Points with non-finite or non-positive distances, or within
    ``FLOOR_MULTIPLE`` of the discretization floor, are discarded; fewer
    than 4 survivors raises :class:`FitRefusalError`.
    """
    usable = [
        (int(n), float(d))
        for n, d in points
        if d is not None and math.isfinite(d) and d > 0 and d > FLOOR_MULTIPLE * floor
    ]
    if len(usable) < 4:
        raise FitRefusalError(
            f"only {len(usable)} usable points (need 4); "
            f"floor {floor:.3e} x {FLOOR_MULTIPLE}"
        )
    xs = [math.log(n) for n, _ in usable]
    ys = [math.log(d) for _, d in usable]
    k = len(xs)
    mx = sum(xs) / k
    my = sum(ys) / k
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(metric=metric, slope=slope, intercept=intercept, r_squared=r2, points=usable)


def load_distance_column(path, metric: str) -> list:
    """(n, distance) pairs for one metric from an experiment CSV; failed rows skipped."""
    return [(r.n, getattr(r.report, "d_" + metric)) for r in read_rows(path) if not r.failed]


def discretization_floor(
    grid_points: int = DEFAULT_GRID_POINTS, window: tuple | None = None
) -> met.DistanceReport:
    """Pipeline self-distance of the semicircle base (the noise floor).

    Runs the 16-fold convolution of the standard semicircle through the
    same convolve-and-invert pipeline as a real experiment and measures the
    distances to the closed-form density on the same grid.
    """
    return _distances(MeasureSpec.semicircle(0.0, 1.0), 16, window, grid_points)[0]
