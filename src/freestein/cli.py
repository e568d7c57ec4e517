"""Command-line surface.

Subcommands: ``moments``, ``convolve``, ``stein-check``, ``nc``,
``berry-esseen``, ``fit``.  Measures and experiment configs are JSON
documents (inline or file paths); densities and experiment results are
CSV.  Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 fit refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import experiment as ex
from . import ncpart, stein
from .analytic import (
    MIN_GRID_POINTS,
    MeasureSpec,
    nfold_convolve,
    stieltjes_density,
)
from .errors import ConfigError, ConvergenceError, FitRefusalError
from .momentalg import MAX_ORDER, moments_to_cumulants, semicircle_moments

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_FIT_REFUSAL = 4


def _load_json(text_or_path: str) -> dict:
    s = text_or_path.strip()
    try:
        if s.startswith("{"):
            return json.loads(s)
        return json.loads(Path(text_or_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON from {text_or_path!r}: {exc}") from exc


def _load_measure(text_or_path: str) -> MeasureSpec:
    return ex.parse_measure(_load_json(text_or_path))


def _cmd_moments(args) -> int:
    _require(args, "order", 2, MAX_ORDER)
    mu = _load_measure(args.measure)
    m = mu.moments(args.order)
    kappa = moments_to_cumulants(m) if args.cumulants else None
    print(f"# {mu.kind} measure, order {args.order}")
    header = "j\tm_j" + ("\tkappa_j" if kappa else "")
    print(header)
    for j in range(args.order + 1):
        line = f"{j}\t{float(m[j]):.12g}"
        if kappa and j >= 1:
            line += f"\t{float(kappa[j]):.12g}"
        print(line)
    return 0


def _require_output_path(path) -> None:
    """Refuse an output path that is a directory or whose directory is missing."""
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise ConfigError(f"output {str(path)!r} is a directory or its directory is missing")


def _cmd_convolve(args) -> int:
    _require(args, "n", 1)
    _require(args, "points", MIN_GRID_POINTS)
    _require_output_path(args.out)
    try:
        scale = 1.0 / math.sqrt(args.n) if args.scale == "auto" else float(args.scale)
    except ValueError:
        scale = math.nan
    if not math.isfinite(scale) or scale == 0:
        raise ConfigError(
            f"convolve needs --scale auto or a finite non-zero number, got {args.scale}"
        )
    if args.window:
        lo, hi = args.window
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError(f"convolve needs a finite --window LO HI, LO < HI, got {lo} {hi}")
    mu = _load_measure(args.measure)
    ev = nfold_convolve(mu, args.n, scale)
    if not args.window:
        lo, hi = -(ev.support_radius + 0.5), ev.support_radius + 0.5
    density = stieltjes_density(ev, lo, hi, args.points)
    density.to_csv(args.out)
    print(
        f"wrote {args.out}: n={args.n} scale={scale:.6g} window=[{lo:.4g},{hi:.4g}] "
        f"mass={density.mass:.6f} iters={ev.peak_iterations}"
    )
    return 0


def _cmd_stein_check(args) -> int:
    _require(args, "order", 2, MAX_ORDER)
    _require(args, "theta_step", 0.0, stein.MAX_THETA_STEP, lo_open=True)
    mu = _load_measure(args.measure)
    m = mu.moments(args.order)
    disc = stein.stein_discrepancy(m)
    print("# Stein discrepancy d_r = m_{r+1} - sum m_k m_{r-1-k}")
    print("r\td_r")
    for r, v in enumerate(disc.values):
        print(f"{r}\t{float(v):.12g}")
    print("# semigroup generator: closed form vs finite difference "
          f"(theta_step={args.theta_step:g})")
    print("p\tclosed\tfinite_diff\tabs_err")
    for p in range(1, args.order + 1):
        closed = float(stein.generator_apply(m, p))
        fd = stein.generator_finite_difference(mu, p, args.theta_step)
        print(f"{p}\t{closed:.12g}\t{fd:.12g}\t{abs(fd - closed):.3e}")
    print("# dual Stein equation residual for h = x^p")
    print("p\tpairing\texpected\tabs_err")
    m6 = mu.moments(max(args.order, 6))
    for p in range(1, 7):
        coeffs = [0.0] * p + [1.0]
        pairing = stein.dual_stein_pairing(mu, coeffs)
        expected = float(semicircle_moments(max(p, 2))[p]) - float(m6[p])
        print(f"{p}\t{pairing:.12g}\t{expected:.12g}\t{abs(pairing - expected):.3e}")
    return 0


def _parse_partition(blocks_json: str, n: int | None = None) -> ncpart.NcPartition:
    """A non-crossing partition of [n]; n defaults to the number of elements given."""
    try:
        blocks = json.loads(blocks_json)
        if n is None:
            n = sum(len(b) for b in blocks)
        return ncpart.NcPartition.noncrossing(n, [tuple(b) for b in blocks])
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad partition {blocks_json!r}: {exc}") from exc


def _require(args, name: str, lo, hi=math.inf, lo_open: bool = False) -> None:
    """Refuse the number argument ``name`` outside [lo, hi], or (lo, hi]."""
    value = getattr(args, name)
    if not lo <= value <= hi or (lo_open and value == lo):
        flag = "-n" if name == "n" else "--" + name.replace("_", "-")
        upper = f" <= {hi}" if hi < math.inf else ""
        command = " ".join((args.command, getattr(args, "what", ""))).strip()
        raise ConfigError(
            f"{command} needs {lo} {'<' if lo_open else '<='} {flag}{upper}, got {value}"
        )


def _cmd_nc(args) -> int:
    if args.what == "count":
        _require(args, "n", 1, ncpart.MAX_CATALAN)
        print(f"n={args.n} |NC(n)|={ncpart.catalan(args.n)} Bell(n)={ncpart.bell(args.n)}")
        if args.n <= ncpart.MAX_GROUND_SET:
            print(f"enumerated={len(ncpart.nc_blocks(args.n))}")
        return 0
    if args.what == "mobius":
        _require(args, "n", 1, ncpart.MAX_GROUND_SET)
        if args.p or args.q:
            p = _parse_partition(args.p, args.n) if args.p else ncpart.NcPartition.zero(args.n)
            q = _parse_partition(args.q, args.n) if args.q else ncpart.NcPartition.one(args.n)
            try:
                mu = ncpart.mobius(p, q)
            except ValueError as exc:
                raise ConfigError(f"nc mobius --p/--q: {exc}") from exc
            print(mu)
        else:
            p = ncpart.NcPartition.zero(args.n)
            q = ncpart.NcPartition.one(args.n)
            print(f"mu(0,1) over NC({args.n}) = {ncpart.mobius(p, q)}")
        return 0
    part = _parse_partition(args.blocks)
    comp = ncpart.kreweras(part)
    print(json.dumps([list(b) for b in comp.blocks]))
    return 0


def _cmd_berry_esseen(args) -> int:
    cfg = ex.parse_config(_load_json(args.config))
    _require_output_path(cfg.output)
    rows = ex.run_experiment(cfg)
    failed = 0
    for n, rep in rows:
        if rep is None:
            failed += 1
            print(f"n={n}: FAILED (subordination)")
            continue
        tv = "refused" if rep.d_tv is None else f"{rep.d_tv:.6g}"
        print(
            f"n={n}: d_kol={rep.d_kol:.6g} d_tv={tv} d_w1={rep.d_w1:.6g} "
            f"mass_deficit={rep.mass_deficit:.2e}"
        )
    print(f"wrote {cfg.output}")
    if failed == len(rows):
        raise ConvergenceError("every configured n failed")
    return 0


def _cmd_fit(args) -> int:
    _require(args, "floor", 0.0, sys.float_info.max)
    _require(args, "min_n", 0)
    points = ex.load_distance_column(args.csv, args.metric)
    points = [(n, d) for n, d in points if n >= args.min_n]
    fit = ex.fit_rate(points, metric=args.metric, floor=args.floor)
    print(fit.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freestein",
        description="Free-probability Stein machinery and Berry-Esseen rate experiments.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="moment / free-cumulant table of a measure")
    p.add_argument("--measure", required=True, help="measure JSON (inline or path)")
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--cumulants", action="store_true", help="include free cumulants")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("convolve", help="n-fold free self-convolution, density to CSV")
    p.add_argument("--measure", required=True)
    p.add_argument("-n", type=int, required=True, help="number of free summands")
    p.add_argument("--scale", default="auto", help="dilation per summand (default 1/sqrt(n))")
    p.add_argument("--out", required=True, help="output density CSV")
    p.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--points", type=int, default=ex.DEFAULT_GRID_POINTS)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("stein-check", help="discrepancy, generator and dual-equation tables")
    p.add_argument("--measure", required=True)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--theta-step", type=float, default=1e-5)
    p.set_defaults(func=_cmd_stein_check)

    p = sub.add_parser("nc", help="non-crossing lattice utilities")
    p.add_argument("what", choices=("count", "mobius", "kreweras"))
    p.add_argument("-n", type=int, default=4, help="ground-set size")
    p.add_argument("--p", help="lower partition as JSON blocks (mobius)")
    p.add_argument("--q", help="upper partition as JSON blocks (mobius)")
    p.add_argument("--blocks", help="partition as JSON blocks (kreweras)")
    p.set_defaults(func=_cmd_nc)

    p = sub.add_parser("berry-esseen", help="full rate experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_berry_esseen)

    p = sub.add_parser("fit", help="log-log slope from an experiment CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--metric", choices=ex.ALL_METRICS, required=True)
    p.add_argument("--floor", type=float, default=0.0, help="discretization floor")
    p.add_argument("--min-n", type=int, default=0)
    p.set_defaults(func=_cmd_fit)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitRefusalError as exc:
        print(f"fit refused: {exc}", file=sys.stderr)
        return EXIT_FIT_REFUSAL
    except (ConvergenceError, ValueError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
