"""Command-line surface: the command table ``_COMMANDS``, read by :func:`parse_args`.

Options come in any order, whole flags only, as ``--flag value`` or ``--flag=value``;
whatever ``float`` reads is a value.  ``-h`` prints help; a usage error exits 2.
Measures and configs are JSON (inline or a path), densities and results CSV.  Exit
codes: 0 success, 2 usage or configuration error, 3 numerical failure, 4 fit refusal.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

from . import experiment as ex
from . import ncpart, stein
from .analytic import MAX_N, MeasureSpec, check_window, nfold_convolve, stieltjes_density
from .errors import ConfigError, ConvergenceError, FitRefusalError, check_count, check_real
from .metrics import ALL_METRICS
from .momentalg import MAX_ORDER, moments_to_cumulants, semicircle_moments

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_FIT_REFUSAL = 4


def _load_json(text_or_path: str) -> dict:
    s = text_or_path.strip()
    try:
        return json.loads(s if s.startswith("{") else Path(text_or_path).read_text())
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
    for r, v in enumerate(disc):
        print(f"{r}\t{float(v):.12g}")
    print("# semigroup generator: closed form vs finite difference "
          f"(theta_step={stein.FD_THETA_STEP:g})")
    print("p\tclosed\tfinite_diff\tabs_err")
    fds = stein.finite_difference_table(m, args.order)
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
    """A non-crossing partition of [n], n in 1..MAX_GROUND_SET (default: the elements given)."""
    try:
        blocks = json.loads(blocks_json)
        n = sum(map(len, blocks)) if n is None else n
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
        p = _parse_partition(args.p, args.n) if args.p else ncpart.NcPartition.zero(args.n)
        q = _parse_partition(args.q, args.n) if args.q else ncpart.NcPartition.one(args.n)
        try:
            mu = ncpart.mobius(p, q)
        except ValueError as exc:
            raise ConfigError(f"nc mobius --p/--q: {exc}") from exc
        print(mu if args.p or args.q else f"mu(0,1) over NC({args.n}) = {mu}")
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
        shown = [(m, getattr(rep, "d_" + m)) for m in ALL_METRICS if m in cfg.metrics]
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


# command -> (handler, help, {flag or "what": (arity, type or choices, default or ..., help)})
_COMMANDS = {
    "moments": (_cmd_moments, "moment / free-cumulant table of a measure", {
        "--measure": (1, str, ..., "measure JSON, inline or a path"),
        "--order": (1, int, 8, "highest order"), "--cumulants": (0, bool, False, "add cumulants")}),
    "convolve": (_cmd_convolve, "n-fold free self-convolution, density to CSV", {
        "--measure": (1, str, ..., "measure JSON"), "--out": (1, str, ..., "output CSV"),
        "-n": (1, int, ..., "summands"), "--points": (1, int, ex.DEFAULT_GRID_POINTS, "grid size"),
        "--scale": (1, str, "auto", "dilation"), "--window": (2, float, None, "LO HI")}),
    "stein-check": (_cmd_stein_check, "discrepancy, generator and dual-equation tables", {
        "--measure": (1, str, ..., "measure JSON"), "--order": (1, int, 8, "highest order")}),
    "nc": (_cmd_nc, "non-crossing lattice utilities", {
        "what": (1, ("count", "mobius", "kreweras"), ..., "count, mobius or kreweras"),
        "-n": (1, int, 4, "ground set"), "--p": (1, str, None, "mobius: lower partition"),
        "--q": (1, str, None, "mobius: upper partition"), "--blocks": (1, str, None, "kreweras")}),
    "berry-esseen": (_cmd_berry_esseen, "full rate experiment from a JSON config", {
        "--config": (1, str, ..., "experiment config JSON, inline or a path")}),
    "fit": (_cmd_fit, "log-log slope from an experiment CSV", {
        "--csv": (1, str, ..., "experiment CSV"), "--metric": (1, ALL_METRICS, ..., "distance"),
        "--floor": (1, float, 0.0, "discretization floor"), "--min-n": (1, int, 0, "least n")}),
}


def _help(command) -> str:
    """Usage line, help and options of ``command``, or of every command after the top usage."""
    if command not in _COMMANDS:
        return "\n\n".join(["usage: freestein [-h] COMMAND ...", *map(_help, _COMMANDS)])
    usage, rows = [f"usage: freestein {command} [-h]"], [_COMMANDS[command][1], "", "options:"]
    for flag, (arity, _, default, text) in _COMMANDS[command][2].items():
        word = " ".join([flag][: flag != "what"] + [flag.lstrip("-").upper()] * arity)
        usage.append(word if default is ... else f"[{word}]")
        rows.append(f"  {word:24}{text}{'' if default in (None, False, ...) else f' ({default})'}")
    return "\n".join([" ".join(usage), "", *rows])


def _fail(command, msg: str):
    print(_help(command).splitlines()[0], "freestein: error: " + msg, sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _is_value(token: str) -> bool:
    try:
        return float(token) is not None  # whatever float reads
    except ValueError:
        return not token.startswith("-")


def parse_args(argv=None) -> types.SimpleNamespace:
    """argv read by the command table, as the module docstring says."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else ""
    if {"-h", "--help"} & {*argv}:
        print(_help(command))
        raise SystemExit(0)
    if command not in _COMMANDS:
        _fail(None, f"invalid command {command!r} (choose from {', '.join(_COMMANDS)})")
    options, given, tokens = _COMMANDS[command][2], {}, argv[:0:-1]
    while tokens:
        token = tokens.pop()
        flag, eq, value = token.partition("=") if token.startswith("-") else ("what", "=", token)
        if flag not in options or flag in given and flag == "what":
            _fail(command, f"unrecognized argument {token!r}")
        (arity, kind, _, _), values = options[flag], [value][: len(eq)]
        while len(values) < arity and tokens and _is_value(tokens[-1]):
            values.append(tokens.pop())
        try:
            read = [kind(v) if callable(kind) else kind[kind.index(v)] for v in values]
        except ValueError:
            read = []
        if len(read) != arity:
            _fail(command, f"argument {flag} takes {arity} valid value(s), got {values}")
        given[flag] = read if arity == 2 else read[0] if read else True
    if missing := [f for f, spec in options.items() if spec[2] is ... and f not in given]:
        _fail(command, "missing required argument " + ", ".join(missing))
    return types.SimpleNamespace(command=command, **{
        f.lstrip("-").replace("-", "_"): given.get(f, spec[2]) for f, spec in options.items()})


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
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
