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
import os
import time
import warnings
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

from . import __version__
from . import metrics as met
from .analytic import (
    DENSITY_METHOD,
    MAX_N,
    GridDensity,
    MeasureSpec,
    check_window,
    nfold_convolve,
    read_csv,
    semicircle_density,
    stieltjes_density,
    write_atomic,
)
from .errors import (ConfigError, ConvergenceError, FitRefusalError, MassRecoveryWarning,
                     check_count, check_real)
from .metrics import ALL_METRICS

CSV_HEADER = "n,d_kol,d_tv,d_w1,mass_deficit,subord_iters,runtime_ms"
DEFAULT_N_VALUES = (4, 8, 16, 32, 64, 128, 256, 512)
DEFAULT_GRID_POINTS = 2001
# auto window half-width: the handle's support radius, capped by superconvergence scale,
# and at least the reference semicircle's radius 2
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
        if not isinstance(ns, (list, tuple)):
            raise ConfigError(f"n_values must be a list of integers, got {ns!r}")
        try:
            ns = tuple(check_count(n, "each n_values entry", 1, MAX_N) for n in ns)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if len(ns) < 2 or list(ns) != sorted(set(ns)):
            raise ConfigError("n_values must be >= 2 distinct ascending positive integers")
        self.n_values = ns
        ms = self.metrics
        if not isinstance(ms, (list, tuple)) or not ms or any(m not in ALL_METRICS for m in ms):
            raise ConfigError(f"metrics must be a non-empty subset of {ALL_METRICS}")
        self.metrics = tuple(ms)
        if not isinstance(self.output, (str, os.PathLike)):
            raise ConfigError(f"output must be a file path, got {self.output!r}")
        w = self.window
        if w is not None and not (isinstance(w, (list, tuple)) and len(w) == 2):
            raise ConfigError(f"grid.window must be a pair [lo, hi], got {w!r}")
        try:
            # automatic windows are finite by construction; without a pinned
            # window only the point count is checked
            self.grid_points = check_window(*(w or (-1.0, 1.0)), self.grid_points)
        except ValueError as exc:
            raise ConfigError(f"grid.window / grid.n_points: {exc}") from exc
        self.window = None if w is None else (float(w[0]), float(w[1]))
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
            return MeasureSpec.atomic(obj["atoms"])
        if kind == "semicircle":
            _require_keys(obj, {"type", "mean", "variance"}, optional={"mean", "variance"})
            return MeasureSpec.semicircle(obj.get("mean", 0.0), obj.get("variance", 1.0))
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


def _format_row(row: ExperimentRow) -> str:
    values = (None,) * 4 if row.report is None else astuple(row.report)
    cells = ["" if v is None else f"{v:.17g}" for v in values]
    return ",".join([str(row.n), *cells, str(row.subord_iters), f"{row.runtime_ms:.17g}"])


def _decode_row(path, lineno: int, cells: list) -> ExperimentRow:
    """The cells of one CSV line as a row, by the one number rule: n from 1
    to MAX_N, subord_iters a whole number >= -1, a finite runtime, and each
    distance and the deficit blank (None) or a finite real >= 0."""
    try:
        n = check_count(int(cells[0]), "n", 1, MAX_N)
        iters = check_count(int(cells[5]), "subord_iters", -1, math.inf)
        runtime_ms = check_real(float(cells[6]), "runtime_ms")
        values = [check_real(float(c), "a report cell", 0.0) if c else None for c in cells[1:5]]
    except ValueError as exc:
        raise ConfigError(f"{path}, line {lineno}: {exc}") from exc
    report = None if iters == -1 else met.DistanceReport(*values)
    return ExperimentRow(n, report, iters, runtime_ms, line=",".join(cells))


def read_rows(path) -> list:
    """The rows of an experiment CSV in file order.  A ConfigError naming the
    file and line refuses what ``read_csv`` refuses, a line that breaks the
    rules of :func:`_decode_row`, and a second line with the same n."""
    rows, first = [], {}
    for lineno, cells in read_csv(path, CSV_HEADER, "an experiment CSV"):
        row = _decode_row(path, lineno, cells)
        if first.setdefault(row.n, lineno) != lineno:
            raise ConfigError(f"{path}, line {lineno}: n = {row.n} again (line {first[row.n]})")
        rows.append(row)
    return rows


def _distances(handle, window, grid_points: int, metrics=ALL_METRICS):
    """Distances from the law of ``handle`` to the semicircle on one window
    grid, and its peak iterations.

    The automatic window is centred, with half-width
    max(min(R, ``_WINDOW_CAP``), 2) + ``_WINDOW_PAD`` for the handle's support
    radius R, so it always holds the reference semicircle on [-2, 2].  On
    the arcsine law (Bernoulli, n = 2) TV is still refused: the epsilon
    ladder of :func:`stieltjes_density` loses mass at its
    inverse-square-root edges.
    """
    half = max(min(handle.support_radius, _WINDOW_CAP), 2.0) + _WINDOW_PAD
    lo, hi = window or (-half, half)
    density = stieltjes_density(handle, lo, hi, grid_points)
    reference = semicircle_density(lo, hi, grid_points)
    return met.distance_report(density, reference, metrics), handle.peak_iterations


def compute_row(cfg: ExperimentConfig, n: int) -> ExperimentRow:
    """Convolve, invert, and measure a single n (no file I/O)."""
    t0 = time.perf_counter()
    report, iters = None, -1
    try:
        # A mass deficit shows in the report's ``mass_deficit`` and a refused
        # TV distance, so the density's warning is not repeated per row.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MassRecoveryWarning)
            handle = nfold_convolve(cfg.base_measure, n, 1.0 / math.sqrt(n))
            report, iters = _distances(handle, cfg.window, cfg.grid_points, cfg.metrics)
    except ConvergenceError:
        pass
    return ExperimentRow(n, report, iters, (time.perf_counter() - t0) * 1e3)


def _write_rows(path: Path, rows: dict) -> None:
    """Replace the CSV with the header and the lines of ``rows`` in n order, in one step."""
    lines = [rows[n].line for n in sorted(rows)]
    write_atomic(path, "".join(line + "\n" for line in (CSV_HEADER, *lines)))


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
    byte-identical and not recomputed; failed rows are retried.  The file is
    replaced (``write_atomic``) by its completed rows in n order, and again
    after every computed row, so an interrupted run never loses a completed
    row.  Only configured rows are returned.  The side-car
    ``<output>.meta.json`` holds :func:`fingerprint`, written before the CSV
    when the CSV holds no rows yet.  A file that :func:`read_rows` refuses,
    rows with no side-car or with one that differs, and a side-car path that
    is a directory raise :class:`ConfigError` before either file is touched.
    """
    path = Path(cfg.output)
    meta = path.with_name(path.name + ".meta.json")
    if meta.is_dir():
        raise ConfigError(f"side-car {str(meta)!r} is a directory")
    stamp = fingerprint(cfg)
    found = read_rows(path) if path.exists() and path.stat().st_size else []
    if not found:
        write_atomic(meta, stamp)
    elif not meta.is_file():
        raise ConfigError(f"{path} holds rows but no {meta.name} says what made them")
    elif meta.read_bytes() != stamp.encode():
        raise ConfigError(f"{path} holds rows of another configuration (see {meta.name})")
    done = {row.n: row for row in found if not row.failed}
    _write_rows(path, done)
    for n in cfg.n_values:
        if n not in done:
            row = done[n] = compute_row(cfg, n)
            row.line = _format_row(row)
            _write_rows(path, done)
    return [(n, done[n].report) for n in cfg.n_values]


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

    ``floor`` is a finite real >= 0, read before any point, and each n is
    read by the rule of :func:`read_rows`: a whole number from 1 to MAX_N,
    once; else ValueError.  Points with non-finite or non-positive
    distances, or within ``FLOOR_MULTIPLE`` of the discretization floor, are
    discarded; fewer than 4 survivors raises :class:`FitRefusalError`.
    """
    floor = check_real(floor, "floor", 0.0)
    usable, seen = [], set()
    for n, d in points:
        n = check_count(n, "n", 1, MAX_N)
        if n in seen:
            raise ValueError(f"the fit points hold n = {n} twice")
        seen.add(n)
        if d is not None and math.isfinite(d) and d > 0 and d > FLOOR_MULTIPLE * floor:
            usable.append((n, float(d)))
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
    handle = nfold_convolve(MeasureSpec.semicircle(0.0, 1.0), 16, 0.25)
    return _distances(handle, window, grid_points)[0]
