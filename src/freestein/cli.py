"""Command-line surface.

Subcommands: ``moments``, ``convolve``, ``stein-check``, ``nc``,
``berry-esseen``, ``fit``.  Measures and experiment configs are JSON
documents (inline or file paths); densities and experiment results are
CSV.  Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 fit refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import experiment as ex
from . import ncpart, stein
from .analytic import MAX_N, MeasureSpec, check_window, nfold_convolve, stieltjes_density
from .errors import ConfigError, ConvergenceError, FitRefusalError, check_count, check_real
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
    _require(args, "n", 1, MAX_N)
    _require_output_path(args.out)
    try:
        scale = 1.0 / math.sqrt(args.n) if args.scale == "auto" else float(args.scale)
    except ValueError:
        scale = math.nan
    if not math.isfinite(scale) or scale == 0:
        raise ConfigError(
            f"convolve needs --scale auto or a finite non-zero number, got {args.scale}"
        )
    mu = _load_measure(args.measure)
    ev = nfold_convolve(mu, args.n, scale)
    lo, hi = args.window or (-(ev.support_radius + 0.5), ev.support_radius + 0.5)
    try:
        check_window(lo, hi, args.points)
    except ValueError as exc:
        raise ConfigError(f"convolve --window LO HI / --points: {exc}") from exc
    density = stieltjes_density(ev, lo, hi, args.points)
    density.to_csv(args.out)
    print(
        f"wrote {args.out}: n={args.n} scale={scale:.6g} window=[{lo:.4g},{hi:.4g}] "
        f"mass={density.mass:.6f} iters={ev.peak_iterations}"
    )
    return 0


def _cmd_stein_check(args) -> int:
    _require(args, "order", 2, MAX_ORDER)
    mu = _load_measure(args.measure)
    m = mu.moments(max(args.order, 6))  # every table reads its prefix
    disc = stein.stein_discrepancy(m.truncated(args.order))
    print("# Stein discrepancy d_r = m_{r+1} - sum m_k m_{r-1-k}")
    print("r\td_r")
    for r, v in enumerate(disc.values):
        print(f"{r}\t{float(v):.12g}")
    print("# semigroup generator: closed form vs finite difference "
          f"(theta_step={stein.FD_THETA_STEP:g})")
    print("p\tclosed\tfinite_diff\tabs_err")
    fds = stein.finite_difference_table(m, args.order, stein.FD_THETA_STEP)
    for p, fd in enumerate(fds, start=1):
        closed = float(stein.generator_apply(m, p))
        print(f"{p}\t{closed:.12g}\t{fd:.12g}\t{abs(fd - closed):.3e}")
    print("# dual Stein equation residual for h = x^p")
    print("p\tpairing\texpected\tabs_err")
    s6 = semicircle_moments(6)
    pairings = stein.monomial_pairings(m, 6)
    for p, pairing in enumerate(pairings[1:], start=1):
        expected = float(s6[p]) - float(m[p])
        print(f"{p}\t{pairing:.12g}\t{expected:.12g}\t{abs(pairing - expected):.3e}")
    return 0


def _parse_partition(blocks_json: str, n: int | None = None) -> ncpart.NcPartition:
    """A non-crossing partition of [n], n in 1..MAX_GROUND_SET; n defaults to the
    number of elements given."""
    try:
        blocks = json.loads(blocks_json)
        if n is None:
            n = sum(map(len, blocks))
        check_count(n, "the ground set size", 1, ncpart.MAX_GROUND_SET)
        return ncpart.NcPartition.noncrossing(n, blocks)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad partition {blocks_json!r}: {exc}") from exc


def _require(args, name: str, lo, hi=math.inf) -> None:
    """Refuse the number argument ``name`` outside [lo, hi] with a configuration error
    naming the command and the flag; the test is check_real for a float ``lo``, else check_count."""
    flag = "-n" if name == "n" else "--" + name.replace("_", "-")
    rule = check_real if isinstance(lo, float) else check_count
    try:
        rule(getattr(args, name), flag, lo, hi)
    except ValueError as exc:
        command = " ".join((args.command, getattr(args, "what", ""))).strip()
        raise ConfigError(f"{command} {exc}") from exc


def _cmd_nc(args) -> int:
    if args.what == "count":
        _require(args, "n", 1, ncpart.MAX_CATALAN)
        print(f"n={args.n} |NC(n)|={ncpart.catalan(args.n)} Bell(n)={ncpart.bell(args.n)}")
        if args.n <= ncpart.MAX_GROUND_SET:
            print(f"enumerated={ncpart.count_nc(args.n)}")
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
    for n, rep in rows:
        if rep is None:
            print(f"n={n}: FAILED (subordination)")
            continue
        # an asked-for distance is None only when it is a refused TV
        shown = [(m, getattr(rep, "d_" + m)) for m in ex.ALL_METRICS if m in cfg.metrics]
        cells = [f"d_{m}=" + ("refused" if v is None else f"{v:.6g}") for m, v in shown]
        print(f"n={n}: {' '.join(cells)} mass_deficit={rep.mass_deficit:.2e}")
    print(f"wrote {cfg.output}")
    if all(rep is None for _, rep in rows):
        raise ConvergenceError("every configured n failed")
    return 0


def _cmd_fit(args) -> int:
    _require(args, "floor", 0.0)
    _require(args, "min_n", 0)
    points = ex.load_distance_column(args.csv, args.metric)
    points = [(n, d) for n, d in points if n >= args.min_n]
    fit = ex.fit_rate(points, metric=args.metric, floor=args.floor)
    print(fit.to_json())
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads every number as a value, never as a flag.

    argparse tells a negative number from an option by a pattern that
    knows only the ``-5`` and ``-.5`` forms, so ``-1e-3`` read as a flag.
    Here whatever ``float`` accepts is a value.  No option of any
    subcommand looks like a number.  Subparsers are built from the same
    class.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after.

    Parsing keeps no state in the parser, so one tree serves every
    :func:`main` call of a process.
    """
    ap = _Parser(
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
