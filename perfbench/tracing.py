"""Timing spans around calls into freestein, installed from outside the package.

``install`` replaces each function in ``TARGETS`` by a wrapper under every
name a freestein module binds it to: the modules import by name, so a call
from ``experiment`` goes through ``experiment.stieltjes_density`` and one
from ``stein`` through ``stein.cumulants_to_moments``.  Spans (name, start,
end, parent) stay in memory; ``layer_metrics`` reduces them to the
per-layer metrics of ``catalog.PER_LAYER`` and ``dump`` writes them out.

Hot inner helpers are not wrapped: ``ncpart.leq`` alone runs about 1e5
times per Moebius table, and a wrapper there would time the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import warnings

from freestein.analytic import RESIDUAL_ACCEPT
from freestein.errors import MassRecoveryWarning

# (module, function); the span name drops the module's leading underscore
TARGETS = (
    ("_kernels", "nfold_omega"),
    ("_kernels", "cauchy_vals"),
    ("_kernels", "pair_omega"),
    ("analytic", "stieltjes_density"),
    ("analytic", "moments_from_evaluator"),
    ("metrics", "distance_report"),
    ("experiment", "run_experiment"),
    ("experiment", "compute_row"),
    ("experiment", "fit_rate"),
    ("experiment", "discretization_floor"),
    ("stein", "dual_stein_pairing"),
    ("stein", "generator_finite_difference"),
    ("momentalg", "cumulants_to_moments"),
    ("momentalg", "moments_to_cumulants"),
    ("momentalg", "mixed_moment"),
    ("ncpart", "enumerate_nc"),
    ("ncpart", "kreweras"),
    ("ncpart", "mobius"),
    ("ncsymb", "expand_power"),
    ("ncsymb", "resolvent_lemma_check"),
    ("cli", "main"),
)

ROOT = "pass"


class Recorder:
    """Spans of one process, kept as parallel lists."""

    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.attrs = {}
        self._stack = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def dump(self, path) -> None:
        labels = sorted(set(self.names))
        index = {name: k for k, name in enumerate(labels)}
        spans = [
            [index[n], s, e, p, self.attrs.get(i, {})]
            for i, (n, s, e, p) in enumerate(zip(self.names, self.start, self.end, self.parent))
        ]
        with open(path, "w") as fh:
            json.dump({"names": labels, "fields": ["name", "start", "end", "parent", "attrs"], "spans": spans}, fh)


def _nodes(kind, xs) -> int:
    # the semicircle descriptor (kind 1) is closed form: one "node"
    return 1 if kind == 1 else len(xs)


def _nfold_attrs(args, out) -> dict:
    _, iters, resid = out
    return {
        "kind": int(args[1]),
        "nodes": _nodes(args[1], args[4]),
        "points": len(iters),
        "iters_sum": int(iters.sum()),
        "iters_max": int(iters.max()),
        "rejects": int((resid > RESIDUAL_ACCEPT).sum()),
    }


def _cauchy_attrs(args, out) -> dict:
    return {"kind": int(args[1]), "point_nodes": len(args[0]) * _nodes(args[1], args[4])}


def _pair_attrs(args, out) -> dict:
    iters = out[2]
    return {"points": len(iters), "iters_sum": int(iters.sum()), "iters_max": int(iters.max())}


def _rows_attrs(args, out) -> dict:
    return {"rows": len(out), "failed": sum(rep is None for _, rep in out)}


ATTRS = {
    "kernels.nfold_omega": _nfold_attrs,
    "kernels.cauchy_vals": _cauchy_attrs,
    "kernels.pair_omega": _pair_attrs,
    "experiment.run_experiment": _rows_attrs,
}


def _wrap(rec: Recorder, name: str, fn):
    attrs = ATTRS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if attrs is not None:
            rec.attrs[i] = attrs(args, out)
        return out

    return wrapper


def _wrap_counting_mass_warnings(rec: Recorder, name: str, fn):
    """Wrapper that also counts MassRecoveryWarning, then re-issues every warning."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        caught = []
        i = rec.open(name)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return fn(*args, **kwargs)
        finally:
            rec.close(i)
            rec.attrs[i] = {"mass_warnings": sum(issubclass(w.category, MassRecoveryWarning) for w in caught)}
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every target under each name a loaded freestein module binds it to."""
    importlib.import_module("freestein.cli")  # loads every module with a target
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "freestein"]
    for mod_name, fn_name in TARGETS:
        original = getattr(importlib.import_module(f"freestein.{mod_name}"), fn_name)
        span = f"{mod_name.lstrip('_')}.{fn_name}"
        make = _wrap_counting_mass_warnings if fn_name == "stieltjes_density" else _wrap
        wrapped = make(rec, span, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def layer_metrics(rec: Recorder, names) -> dict:
    """The metrics in ``names`` that one traced pass measures.

    ``<span>.busy_s`` is the summed duration of a span, ``<span>.self_s``
    that duration minus its child spans, ``<span>.calls`` the span count;
    the rest come from the attributes recorded at kernel and row boundaries.
    """
    n = len(rec.names)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    child = [0.0] * n
    for i, p in enumerate(rec.parent):
        if p >= 0:
            child[p] += dur[i]
    generic = {"calls": {}, "busy_s": {}, "self_s": {}}
    for i, name in enumerate(rec.names):
        generic["calls"][name] = generic["calls"].get(name, 0) + 1
        generic["busy_s"][name] = generic["busy_s"].get(name, 0.0) + dur[i]
        generic["self_s"][name] = generic["self_s"].get(name, 0.0) + dur[i] - child[i]

    def attr(name, key, reduce=sum):
        return reduce([a[key] for i, a in rec.attrs.items() if rec.names[i] == name] or [0])

    nf, pw = "kernels.nfold_omega", "kernels.pair_omega"
    points = attr(nf, "points")
    pair_points = attr(pw, "points")
    roots = {i for i, name in enumerate(rec.names) if name == ROOT}
    special = {
        f"{nf}.points": points,
        f"{nf}.iters_mean": attr(nf, "iters_sum") / points if points else 0.0,
        f"{nf}.iters_max": attr(nf, "iters_max", max),
        f"{nf}.resid_reject_frac": attr(nf, "rejects") / points if points else 0.0,
        f"{nf}.point_node_iters": sum(
            a["iters_sum"] * a["nodes"] for i, a in rec.attrs.items() if rec.names[i] == nf
        ),
        "kernels.cauchy_vals.point_nodes": attr("kernels.cauchy_vals", "point_nodes"),
        f"{pw}.iters_mean": attr(pw, "iters_sum") / pair_points if pair_points else 0.0,
        f"{pw}.iters_max": attr(pw, "iters_max", max),
        "analytic.stieltjes_density.mass_warnings": attr("analytic.stieltjes_density", "mass_warnings"),
        "experiment.rows_resumed": attr("experiment.run_experiment", "rows")
        - generic["calls"].get("experiment.compute_row", 0),
        "experiment.rows_failed": attr("experiment.run_experiment", "failed"),
        "trace.pass_s": sum(dur[i] for i in roots),
        "trace.self_sum_s": sum(
            dur[i] - child[i] for i in range(n) if i not in roots and _under(rec.parent, i, roots)
        ),
    }
    out = {}
    for metric in names:
        span, _, kind = metric.rpartition(".")
        if metric in special:
            out[metric] = special[metric]
        elif kind in generic and span:
            out[metric] = generic[kind].get(span, 0)
    return out


def _under(parent: list, i: int, roots: set) -> bool:
    while i >= 0:
        i = parent[i]
        if i in roots:
            return True
    return False
