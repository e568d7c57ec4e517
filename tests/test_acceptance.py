"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from freestein import analytic as an
from freestein import experiment as ex
from freestein import momentalg as ma
from freestein import ncpart, ncsymb, stein
from freestein.momentalg import FreeCumulantSequence

BERN = an.MeasureSpec.atomic([(-1.0, 0.5), (1.0, 0.5)])
ASYM = an.MeasureSpec.atomic([(2.0, 0.2), (-0.5, 0.8)])
RATE_N = (8, 16, 32, 64, 128, 256, 512)


def _report(num: int, name: str, ok: bool, detail: str):
    print(f"\n[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_lattice_suite():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 11):
        ok &= len(ncpart.enumerate_nc(n)) == ncpart.catalan(n)
    closure_ok = True
    for n in range(2, 7):
        lat = ncpart.enumerate_nc(n)
        for p in lat:
            for q in lat:
                if p != q and ncpart.leq(p, q):
                    total = sum(
                        ncpart.mobius(p, s)
                        for s in lat
                        if ncpart.leq(p, s) and ncpart.leq(s, q)
                    )
                    closure_ok &= total == 0
    ok &= closure_ok
    mobius_ok = all(
        ncpart.mobius(ncpart.NcPartition.zero(n), ncpart.NcPartition.one(n))
        == (-1) ** (n - 1) * ncpart.catalan(n - 1)
        for n in range(1, 8)
    )
    ok &= mobius_ok
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _report(
        1,
        "lattice suite",
        ok,
        f"counts n<=10, recursion closure n<=6 ({closure_ok}), "
        f"mu(0,1) law n<=7 ({mobius_ok}), {elapsed:.1f}s < 60s",
    )


def test_criterion_2_transform_suite():
    worst = 0.0
    for atoms in (
        [(1.0, 0.5), (-1.0, 0.5)],
        [(2.0, 0.2), (-0.5, 0.8)],
        [(-1.3, 0.25), (0.2, 0.4), (1.5, 0.35)],
    ):
        m = an.MeasureSpec.atomic(atoms).moments(10)
        back = ma.cumulants_to_moments(ma.moments_to_cumulants(m))
        scale = max(1.0, max(abs(float(v)) for v in m.values))
        worst = max(
            worst,
            max(abs(float(a) - float(b)) for a, b in zip(m.values, back.values)) / scale,
        )
    round_trip_ok = worst <= 1e-12
    kappa = ma.moments_to_cumulants(ma.semicircle_moments(10))
    kappa_ok = kappa.values == (0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    disc = stein.stein_discrepancy(ma.semicircle_moments(11))
    disc_max = max(abs(float(d)) for d in disc)
    disc_ok = disc_max <= 1e-12
    ok = round_trip_ok and kappa_ok and disc_ok
    _report(
        2,
        "transform suite",
        ok,
        f"round-trip {worst:.1e} <= 1e-12, semicircle kappa exact ({kappa_ok}), "
        f"Stein discrepancy {disc_max:.1e} <= 1e-12",
    )


def test_criterion_3_engine_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    kappa = ma.moments_to_cumulants(BERN.moments(8))
    for n in (2, 4, 8):
        scale = 1.0 / math.sqrt(n)
        analytic_m = an.moments_from_evaluator(an.nfold_convolve(BERN, n, scale), 8)
        scaled = FreeCumulantSequence(tuple(n * scale**j * kappa[j] for j in range(1, 9)))
        cumulant_m = ma.cumulants_to_moments(scaled)
        worst = max(
            worst,
            max(
                abs(float(a) - float(b))
                for a, b in zip(analytic_m.values, cumulant_m.values)
            ),
        )
    moments_ok = worst <= 1e-5
    density = an.stieltjes_density(an.PairConvolveEvaluator(BERN, BERN), -2.5, 2.5, 2001)
    xs = density.x
    mask = np.abs(xs) <= 1.8
    arcsine = 1.0 / (math.pi * np.sqrt(np.clip(4.0 - xs**2, 1e-12, None)))
    density_err = float(np.abs(density.values - arcsine)[mask].max())
    density_ok = density_err <= 1e-3
    elapsed = time.perf_counter() - t0
    ok = moments_ok and density_ok and elapsed < 300.0
    _report(
        3,
        "engine agreement",
        ok,
        f"moment gap {worst:.1e} <= 1e-5 (n=2,4,8, order 8), "
        f"arcsine density {density_err:.1e} <= 1e-3 on |x|<=1.8, {elapsed:.1f}s < 300s",
    )


def test_criterion_4_stein_machinery():
    worst_fd = 0.0
    for mu in stein.MEASURE_BATTERY:
        m = mu.moments(8)
        for p in range(1, 9):
            fd = stein.generator_finite_difference(mu, p)
            worst_fd = max(worst_fd, abs(fd - float(stein.generator_apply(m, p))))
    fd_ok = worst_fd <= 1e-3
    worst_dual = 0.0
    s_moments = ma.semicircle_moments(6)
    for mu in stein.MEASURE_BATTERY:
        m = mu.moments(6)
        for p in range(1, 7):
            pairing = stein.dual_stein_pairing(mu, [0.0] * p + [1.0])
            expected = float(s_moments[p]) - float(m[p])
            worst_dual = max(worst_dual, abs(pairing - expected))
    dual_ok = worst_dual <= 1e-6
    ok = fd_ok and dual_ok
    _report(
        4,
        "Stein machinery",
        ok,
        f"generator FD gap {worst_fd:.1e} <= 1e-3 (p<=8, 5 measures), "
        f"dual pairing residual {worst_dual:.1e} <= 1e-6 (monomials p<=6)",
    )


def test_criterion_5_resolvent_lemma():
    z = 2.5 + 0.5j
    worst_resolvent = 0.0
    for a, r in ncsymb.random_matrix_battery(50, 6):
        for q in range(1, 6):
            worst_resolvent = max(worst_resolvent, ncsymb.resolvent_lemma_check(a, r, z, q))
    resolvent_ok = worst_resolvent < 1e-9
    rng = np.random.default_rng(555)
    worst_delta = 0.0
    for dim in (2, 4, 6):
        for _ in range(17 if dim > 2 else 16):
            m1 = ncsymb._disc_matrix(rng, dim) / dim
            m2 = ncsymb._disc_matrix(rng, dim) / dim
            a = 0.5 * (m1 + m1.conj().T)
            eye = np.eye(dim)
            lhs = ncsymb.eval_matrix(ncsymb.delta_poly(), a, m2, z)
            za = z * eye - a
            rhs = za @ za - (za - m2) @ (za - m2)
            worst_delta = max(worst_delta, float(np.abs(lhs - rhs).max()))
    delta_ok = worst_delta <= 1e-11
    ok = resolvent_ok and delta_ok
    _report(
        5,
        "resolvent lemma",
        ok,
        f"telescoping residual {worst_resolvent:.1e} < 1e-9 (50 seeded 6x6, q<=5), "
        f"Delta identity {worst_delta:.1e} <= 1e-11 (50 seeded pairs)",
    )


def test_criterion_6_rate_reproduction(tmp_path):
    t0 = time.perf_counter()
    floor = ex.discretization_floor()
    results = {}
    for name, base in (("bernoulli", BERN), ("asymmetric", ASYM)):
        cfg = ex.ExperimentConfig(
            base_measure=base,
            n_values=RATE_N,
            output=str(tmp_path / f"{name}.csv"),
        )
        rows = ex.run_experiment(cfg)
        results[name] = rows

    slopes = {}
    fit = ex.fit_rate(
        [(n, rep.d_w1) for n, rep in results["bernoulli"]], "w1", floor=floor.d_w1
    )
    slopes["bernoulli w1"] = (fit.slope, -1.0)
    for metric, attr, f in (
        ("w1", "d_w1", floor.d_w1),
        ("kol", "d_kol", floor.d_kol),
        ("tv", "d_tv", floor.d_tv),
    ):
        pts = [(n, getattr(rep, attr)) for n, rep in results["asymmetric"]]
        fit = ex.fit_rate(pts, metric, floor=f)
        slopes[f"asymmetric {metric}"] = (fit.slope, -0.5)

    ok = all(abs(got - want) <= 0.15 for got, want in slopes.values())
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1800.0
    detail = ", ".join(
        f"{k}: {got:+.3f} (target {want:+.1f} +- 0.15)" for k, (got, want) in slopes.items()
    )
    _report(6, "rate reproduction", ok, f"{detail}; {elapsed:.0f}s < 1800s")


def test_criterion_7_superconvergence():
    worst = 0.0
    for n in (64, 128, 256):
        ev = an.nfold_convolve(BERN, n, 1.0 / math.sqrt(n))
        density = an.stieltjes_density(ev, -6.0, 6.0, 2001)
        outside = np.where(np.abs(density.x) > 3.0, density.values, 0.0)
        worst = max(worst, float(np.trapezoid(outside, density.x)))
    ok = worst < 1e-3
    _report(
        7,
        "superconvergence",
        ok,
        f"standardized Bernoulli^n (n=64,128,256) mass outside [-3,3]: {worst:.1e} < 1e-3",
    )
