"""The three workloads, as one pass runs them in a fresh process.

Each workload calls freestein the way a user does: the rate stack through
``experiment`` and the exact stack through ``cli.main`` and the module
functions.  Every call goes through a module attribute, so the wrappers
that ``tracing`` installs see it.  Every output is checked; tolerances
mirror ``tests/test_acceptance.py`` and are never looser.

``SETUP[w]`` builds a workload's inputs (configs, the grid base and its
standardisation) and is timed as set-up; ``RUN[w]`` is the pass, and
``PROBE[w]`` the exact-stack probe a rate workload runs in side processes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

from freestein import analytic as an
from freestein import cli
from freestein import experiment as ex
from freestein import momentalg as ma
from freestein import ncsymb
from freestein.errors import FitRefusalError
from tracing import ROOT

REFERENCE = Path(__file__).with_name("reference_seed0.json")
DISTANCE_ATOL = 1e-10
SLOPE_BAND = 0.15
FD_GATE = 1e-3
DUAL_GATE = 1e-6
ENGINE_GATE = 1e-5
ARCSINE_GATE = 1e-3
RESOLVENT_GATE = 1e-9
RESOLVENT_Z = 2.5 + 0.5j
KREWERAS_EXPECTED = {
    "[[1], [2], [3], [4], [5], [6]]": [[1, 2, 3, 4, 5, 6]],
    "[[1, 2, 3, 4, 5, 6]]": [[1], [2], [3], [4], [5], [6]],
    "[[1, 4], [2, 3], [5, 6]]": [[1, 3], [2], [4, 6], [5]],
    "[[1, 2, 5], [3, 4], [6]]": [[1], [2, 4], [3], [5, 6]],
}


def catalan(n: int) -> int:
    """Catalan number, computed here so the lattice checks do not trust ncpart."""
    return math.comb(2 * n, n) // (n + 1)


class Pass:
    """Bucket timers, operation counts and failed checks of one pass."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.timers = {}
        self.attempted = 0
        self.failures = []

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @contextlib.contextmanager
    def timed(self, bucket: str):
        """Add the block's wall time to ``bucket``; ``pass_s`` is also the root span."""
        span = self.recorder.open(ROOT) if self.recorder and bucket == "pass_s" else None
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timers[bucket] = self.timers.get(bucket, 0.0) + time.perf_counter() - t0
            if span is not None:
                self.recorder.close(span)

    def cli(self, *argv) -> str:
        """Run ``freestein <argv>`` in-process; a non-zero exit is a failure."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([str(a) for a in argv])
        self.check(f"freestein {' '.join(map(str, argv[:3]))} exited {code}", code == 0)
        return buf.getvalue()

    def rows(self, label: str, rows) -> None:
        for n, rep in rows:
            self.check(f"{label} row n={n} failed", rep is not None)


def _table(text: str, section: str) -> list:
    """Rows of the tab-separated table under the ``# <section>`` heading."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("# " + section)), None)
    if start is None:
        return []
    out = []
    for line in lines[start + 2 :]:
        if line.startswith("#"):
            break
        out.append(line.split("\t"))
    return out


def stein_check(p: Pass, measure: dict, order: int, label: str) -> None:
    with p.timed("stein_check_s"):
        text = p.cli("stein-check", "--measure", json.dumps(measure), "--order", order)
    fd = _table(text, "semigroup generator")
    dual = _table(text, "dual Stein equation")
    if not p.check(f"{label}: stein-check printed no tables", bool(fd and dual)):
        return
    fd_gap = max(float(r[3]) for r in fd)
    dual_gap = max(float(r[3]) for r in dual)
    p.check(f"{label}: generator FD gap {fd_gap:.3e} > {FD_GATE}", fd_gap <= FD_GATE)
    p.check(f"{label}: dual pairing residual {dual_gap:.3e} > {DUAL_GATE}", dual_gap <= DUAL_GATE)


def nc_count(p: Pass, n: int) -> None:
    with p.timed("lattice_s"):
        text = p.cli("nc", "count", "-n", n)
    p.check(f"|NC({n})| != Catalan({n})", f"enumerated={catalan(n)}" in text)


def nc_mobius(p: Pass, n: int) -> None:
    with p.timed("lattice_s"):
        text = p.cli("nc", "mobius", "-n", n)
    want = (-1) ** (n - 1) * catalan(n - 1)
    p.check(f"mu(0,1) over NC({n}) != {want}", text.strip().endswith(f"= {want}"))


def _reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text())[workload]


def _check_reference(p: Pass, label: str, csv_lines: list, want: dict) -> None:
    """Distance cells of an experiment CSV against the seed-commit values."""
    got = {line.split(",")[0]: line.split(",")[1:4] for line in csv_lines[1:]}
    p.check(f"{label}: CSV rows {sorted(got)} are not the reference rows", sorted(got) == sorted(want))
    for n, ref_cells in want.items():
        for col, cell, ref in zip(("kol", "tv", "w1"), got.get(n, ("",) * 3), ref_cells):
            if ref is None:
                ok = cell == ""
            else:
                ok = cell != "" and abs(float(cell) - ref) <= DISTANCE_ATOL
            p.check(f"{label} n={n} d_{col} = {cell!r}, reference {ref!r}", ok)


# ---------------------------------------------------------------------------
# rate_atomic
# ---------------------------------------------------------------------------

def setup_rate_atomic(inp: dict, workdir: Path) -> dict:
    runs = {}
    for name, atoms in inp["laws"].items():
        base = an.MeasureSpec.atomic([tuple(a) for a in atoms])
        out = workdir / f"{name}.csv"
        common = dict(
            base_measure=base,
            metrics=tuple(inp["metrics"]),
            grid_points=inp["grid_points"],
            output=str(out),
        )
        runs[name] = (
            ex.ExperimentConfig(n_values=tuple(inp["n_values"]), **common),
            ex.ExperimentConfig(n_values=tuple(inp["n_values"] + inp["n_extend"]), **common),
        )
    probe = inp["probe"]
    return {
        "inputs": inp,
        "runs": runs,
        "probe_measure": {"type": "atomic", "atoms": inp["laws"][probe["law"]]},
    }


def run_rate_atomic(state: dict, p: Pass, seed: int) -> None:
    inp = state["inputs"]
    with p.timed("pass_s"):
        floor = ex.discretization_floor()
        rows = {}
        csv = {}
        for name, (cfg, cfg_ext) in state["runs"].items():
            p.rows(name, ex.run_experiment(cfg))
            first = Path(cfg.output).read_text().splitlines()
            rows[name] = ex.run_experiment(cfg_ext)
            p.rows(f"{name} extended", rows[name])
            csv[name] = Path(cfg.output).read_text().splitlines()
            p.check(
                f"{name}: resumed rows changed by the extension",
                csv[name][: len(first)] == first and len(csv[name]) == len(first) + len(inp["n_extend"]),
            )
        for name, law_rows in rows.items():
            for metric in inp["metrics"]:
                attr = "d_" + metric
                pts = [(n, getattr(rep, attr) if rep else None) for n, rep in law_rows]
                try:
                    ex.fit_rate(pts, metric, floor=getattr(floor, attr))
                    refused = ""
                except FitRefusalError as exc:
                    refused = str(exc)
                p.check(f"{name} {metric} fit refused: {refused}", not refused)

    if seed == 0:
        ref = _reference("rate_atomic")
        for name in rows:
            _check_reference(p, name, csv[name], ref[name])
        # criterion 6: slope bands on the n <= 512 rows
        bands = [("bernoulli", "w1", -1.0)] + [("skewed", m, -0.5) for m in ("w1", "kol", "tv")]
        for name, metric, want in bands:
            attr = "d_" + metric
            pts = [(n, getattr(rep, attr) if rep else None) for n, rep in rows[name] if n <= 512]
            slope = ex.fit_rate(pts, metric, floor=getattr(floor, attr)).slope
            p.check(
                f"criterion 6 {name} {metric} slope {slope:+.3f} outside {want} +- {SLOPE_BAND}",
                abs(slope - want) <= SLOPE_BAND,
            )


# ---------------------------------------------------------------------------
# rate_grid
# ---------------------------------------------------------------------------

def bimodal_grid(inp: dict) -> an.GridDensity:
    """Two semicircle bumps at +-centre, renormalised by the trapezoid rule."""
    lo, hi = inp["span"]
    xs = np.linspace(lo, hi, inp["nodes"])
    c, s = inp["centre"], inp["width"]

    def bump(c):
        return np.sqrt(np.clip(4 * s * s - (xs - c) ** 2, 0, None)) / (2 * math.pi * s * s)

    vals = 0.5 * bump(-c) + 0.5 * bump(c)
    return an.GridDensity(lo, hi, vals / np.trapezoid(vals, xs))


def setup_rate_grid(inp: dict, workdir: Path) -> dict:
    cfg = ex.ExperimentConfig(
        base_measure=an.MeasureSpec.from_grid(bimodal_grid(inp)),
        normalize=True,
        n_values=tuple(inp["n_values"]),
        grid_points=inp["grid_points"],
        metrics=tuple(inp["metrics"]),
        output=str(workdir / "grid.csv"),
    )
    base_csv = workdir / "base.csv"
    cfg.base_measure.grid.to_csv(base_csv)
    return {"inputs": inp, "cfg": cfg, "probe_measure": {"type": "grid", "path": str(base_csv)}}


def run_rate_grid(state: dict, p: Pass, seed: int) -> None:
    cfg = state["cfg"]
    with p.timed("pass_s"):
        rows = ex.run_experiment(cfg)
        fit = ex.fit_rate([(n, rep.d_w1 if rep else None) for n, rep in rows], "w1")
    p.rows("grid", rows)
    if seed == 0:
        _check_reference(p, "grid", Path(cfg.output).read_text().splitlines(), _reference("rate_grid"))
        # TestGridBase: matching rank 3, so W1 decays like 1/n
        p.check(f"grid W1 slope {fit.slope:+.3f} outside (-1.25, -0.75)", -1.25 < fit.slope < -0.75)
        p.check(f"grid W1 fit r^2 {fit.r_squared:.4f} <= 0.99", fit.r_squared > 0.99)


def run_probe(state: dict, p: Pass) -> None:
    """Exact-stack probe of a rate workload's base law, run in its own process.

    Every end-to-end metric is reported on every workload; this gives the
    rate workloads their ``stein_check_s`` and ``lattice_s`` without putting
    the exact stack into their ``pass_s``.
    """
    probe = state["inputs"]["probe"]
    stein_check(p, state["probe_measure"], probe["order"], "probe law")
    nc_count(p, probe["nc_count"])
    nc_mobius(p, probe["nc_mobius"])


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

def setup_algebra(inp: dict, workdir: Path) -> dict:
    battery = [ex.parse_measure(m) for m in inp["battery"]]
    return {"inputs": inp, "battery": battery}


def run_algebra(state: dict, p: Pass, seed: int) -> None:
    inp = state["inputs"]
    battery = state["battery"]
    with p.timed("pass_s"):
        for i, measure in enumerate(inp["battery"]):
            stein_check(p, measure, inp["stein_order"], f"battery law {i}")

        nc_count(p, inp["nc_count"])
        nc_mobius(p, inp["nc_mobius"])
        for blocks in inp["kreweras"]:
            key = json.dumps(blocks)
            with p.timed("lattice_s"):
                text = p.cli("nc", "kreweras", "--blocks", key)
            want = KREWERAS_EXPECTED[key]
            p.check(f"K({key}) = {text.strip()}, expected {want}", text.strip() == json.dumps(want))
        _mixed_moments(p, battery[2], battery[4], inp["mixed_max_n"])

        _moment_table(p, inp["battery"][2], battery[2], inp["moments_order"])
        _engine_agreement(p, battery[1], inp["engine_n"], inp["engine_order"])
        _expansions(p, inp["expand_max_power"])
        _resolvents(p, inp["resolvent"])


def _mixed_moments(p: Pass, a, b, max_n: int) -> None:
    """tau[(ab)^n] = tau[(ba)^n]: traciality exercises every Kreweras block size."""
    m_a, m_b = a.moments(max_n), b.moments(max_n)
    k_a, k_b = ma.moments_to_cumulants(m_a), ma.moments_to_cumulants(m_b)
    with p.timed("lattice_s"):
        pairs = [
            (ma.mixed_moment(k_a, m_b, n), ma.mixed_moment(k_b, m_a, n))
            for n in range(1, max_n + 1)
        ]
    for n, (ab, ba) in enumerate(pairs, start=1):
        gap = abs(float(ab) - float(ba))
        p.check(f"tau[(ab)^{n}] - tau[(ba)^{n}] = {gap:.2e}", gap <= 1e-9 * max(1.0, abs(float(ab))))


def _moment_table(p: Pass, measure: dict, spec, order: int) -> None:
    text = p.cli("moments", "--measure", json.dumps(measure), "--order", order, "--cumulants")
    rows = [line.split("\t") for line in text.splitlines()[2:]]
    p.check(f"moments table has {len(rows)} rows, expected {order + 1}", len(rows) == order + 1)
    if len(rows) != order + 1:
        return
    exact = [sum(w * x**j for x, w in spec.atoms) for j in range(order + 1)]
    m = [float(r[1]) for r in rows]
    worst = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(m[1:], exact[1:]))
    p.check(f"printed moments off by {worst:.2e} relative", worst <= 1e-9)
    kappa = [float(r[2]) for r in rows[1:]]
    back = ma.cumulants_to_moments(ma.FreeCumulantSequence(kappa))
    worst = max(abs(float(a) - b) / max(1.0, abs(b)) for a, b in zip(back.values[1:], exact[1:]))
    p.check(f"printed cumulants reproduce the moments to {worst:.2e}", worst <= 1e-9)


def _engine_agreement(p: Pass, bern, ns, order: int) -> None:
    """Criterion 3: contour moments of the n-fold law and the arcsine density."""
    kappa = ma.moments_to_cumulants(bern.moments(order))
    worst = 0.0
    for n in ns:
        scale = 1.0 / math.sqrt(n)
        analytic_m = an.moments_from_evaluator(an.nfold_convolve(bern, n, scale), order)
        scaled = ma.FreeCumulantSequence(
            tuple(n * scale**j * kappa[j] for j in range(1, order + 1))
        )
        cumulant_m = ma.cumulants_to_moments(scaled)
        worst = max(
            worst,
            max(abs(float(a) - float(b)) for a, b in zip(analytic_m.values, cumulant_m.values)),
        )
    p.check(f"engine moment gap {worst:.2e} > {ENGINE_GATE}", worst <= ENGINE_GATE)
    density = an.stieltjes_density(an.PairConvolveEvaluator(bern, bern), -2.5, 2.5, 2001)
    xs = density.x
    mask = np.abs(xs) <= 1.8
    arcsine = 1.0 / (math.pi * np.sqrt(np.clip(4.0 - xs**2, 1e-12, None)))
    err = float(np.abs(density.values - arcsine)[mask].max())
    p.check(f"arcsine density error {err:.2e} > {ARCSINE_GATE}", err <= ARCSINE_GATE)


def _expansions(p: Pass, max_power: int) -> None:
    """Every word of (A Delta)^j has a core of fewer than 2j runs."""
    factor = ncsymb.a_delta()
    for j in range(1, max_power + 1):
        poly = ncsymb.expand_power(factor, j)
        longest = max(len(ncsymb.core_multi_index(w)) for w in poly.terms)
        p.check(f"(A Delta)^{j} has a core of {longest} runs", longest < 2 * j)


def _resolvents(p: Pass, spec: dict) -> None:
    battery = ncsymb.random_matrix_battery(spec["count"], spec["dim"], spec["seed"])
    worst = max(
        ncsymb.resolvent_lemma_check(a, r, RESOLVENT_Z, q) for a, r in battery for q in range(1, 6)
    )
    p.check(f"resolvent residual {worst:.2e} >= {RESOLVENT_GATE}", worst < RESOLVENT_GATE)


SETUP = {"rate_atomic": setup_rate_atomic, "rate_grid": setup_rate_grid, "algebra": setup_algebra}
RUN = {"rate_atomic": run_rate_atomic, "rate_grid": run_rate_grid, "algebra": run_algebra}
PROBE = {"rate_atomic": run_probe, "rate_grid": run_probe}
