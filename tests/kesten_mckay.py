"""Kesten-McKay closed form: the standardized free power of the Bernoulli law.

nu_n = (D_{1/sqrt(n)} B)^{boxplus n}, with B the symmetric Bernoulli law on
{-1, 1}, is the Kesten-McKay law of the n-regular tree scaled by
1/sqrt(n) (Kesten, Trans. AMS 92, 1959; McKay, Linear Algebra Appl. 40,
1981).  Its n identical subordination functions solve
w + (n-1)/w = sqrt(n) z, so w is the upper root of
w^2 - sqrt(n) z w + (n-1) = 0, and G(z) = G_B(w) = sqrt(n) w / (w^2 - 1).
The density and the moments below come from this G alone; n = 2 is the
arcsine law on [-sqrt(2), sqrt(2)].  numpy only, for the tests' oracles.

The exact distances to the semicircle S read D = F - S, the CDF gap, at
the zeros of d = p - s, the density gap.  On [0, e] the CDF is
read in theta, y = e cos(theta), where F has the smooth integrand
:func:`_theta_density`, and on [e, 2] in phi, y = 2 cos(phi), where
D = 1 - S; each piece between breakpoints is a Gauss-Legendre rule.  The
zeros of d are the roots of a cubic in y^2, so Kolmogorov is max |D| over
them, TV the sum of |D| steps between them, and W1 the integral of |D|
over pieces cut at them and at the zeros of D.  Every law here is
symmetric, so D is odd and each distance is read on [0, 2].
"""

import math

import numpy as np


def edge(n: int) -> float:
    """Right end of the support of nu_n: 2 sqrt(n-1) / sqrt(n)."""
    return 2.0 * math.sqrt(n - 1) / math.sqrt(n)


def cauchy(z, n: int):
    """G of nu_n at z with Im z >= 0; on the real line, the boundary value G(x + i0)."""
    x = math.sqrt(n) * np.asarray(z, dtype=complex)
    e = 2.0 * math.sqrt(n - 1)
    # the branch of the semicircle's F: ~ x at infinity, in the upper half plane
    w = 0.5 * (x + np.sqrt(x - e) * np.sqrt(x + e))
    return math.sqrt(n) * w / (w * w - 1.0)


def density(y, n: int):
    """-Im G(y + i0) / pi; 0 off [-edge(n), edge(n)]."""
    return np.clip(-cauchy(np.asarray(y, dtype=float) + 0j, n).imag / math.pi, 0.0, None)


def moments(n: int, order: int, nodes: int = 1024) -> list:
    """m_0..m_order of nu_n from :func:`density` by y = edge(n) cos(theta):
    the integrand density(y) * edge(n) sin(theta) is smooth and periodic in
    theta, so the midpoint rule converges geometrically."""
    theta = (np.arange(nodes) + 0.5) * math.pi / nodes
    y = edge(n) * np.cos(theta)
    wts = density(y, n) * edge(n) * np.sin(theta) * (math.pi / nodes)
    return [float(wts @ y**j) for j in range(order + 1)]


NODES, WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gauss(f, lo: float, hi: float) -> float:
    """Gauss-Legendre integral of ``f`` (vectorised) over [lo, hi], 64 nodes."""
    half = 0.5 * (hi - lo)
    return half * float(WEIGHTS @ f(lo + half * (NODES + 1.0)))


def _theta_density(t, n: int):
    """p(e cos t) e sin t = 2n(n-1) sin^2 t / (pi ((n-2)^2 + 4(n-1) sin^2 t)), smooth in t;
    the denominator n^2 - 4(n-1) cos^2 t is written without its cancellation near t = 0."""
    s2 = np.sin(t) ** 2
    return 2.0 * n * (n - 1) * s2 / (math.pi * ((n - 2.0) ** 2 + 4.0 * (n - 1) * s2))


def semicircle_cdf(y: float) -> float:
    """CDF of the standard semicircle on [-2, 2]."""
    y = min(max(y, -2.0), 2.0)
    return 0.5 + y * math.sqrt(4.0 - y * y) / (4.0 * math.pi) + math.asin(y / 2.0) / math.pi


def cdf(y: float, n: int) -> float:
    """F(y) = nu_n((-inf, y]) for y >= 0: 1 minus the theta integral from 0 to arccos(y/e)."""
    if y >= edge(n):
        return 1.0
    return 1.0 - _gauss(lambda t: _theta_density(t, n), 0.0, math.acos(y / edge(n)))


def _gap(y: float, n: int) -> float:
    """D(y) = F(y) - S(y) for y >= 0."""
    return cdf(y, n) - semicircle_cdf(y)


def density_crossings(n: int) -> list:
    """The zeros of d = p - s in (0, e), ascending (and e itself at n = 2).

    p(y) = n sqrt(e^2 - y^2) / (2 pi (n - y^2)) and s(y) = sqrt(4 - y^2) / (2 pi),
    so with u = y^2 the equation p = s squares to
    u^3 - (2n + 4) u^2 + 8n u - 4n = 0; both sides are positive below e^2.
    """
    e2 = edge(n) ** 2
    roots = np.roots([1.0, -(2.0 * n + 4.0), 8.0 * n, -4.0 * n])
    # at n = 2 the edge itself is a root: p is infinite there, so d changes sign
    u = sorted(r.real for r in roots if abs(r.imag) < 1e-12 and 0.0 < r.real <= e2 * (1.0 + 1e-9))
    return [math.sqrt(min(v, e2)) for v in u]


def _bisect(f, lo: float, hi: float) -> float:
    """The zero of f between lo and hi, where f changes sign, to rounding."""
    f_lo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (f(mid) > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def distances(n: int) -> dict:
    """Exact Kolmogorov, TV and W1 between nu_n and the semicircle, n >= 2."""
    e = edge(n)
    crossings = density_crossings(n)
    gaps = [_gap(c, n) for c in crossings]
    kol = max(map(abs, gaps))
    # d keeps its sign between consecutive crossings, and D(0) = D(2) = 0
    steps = [0.0, *gaps, 0.0]
    tv = sum(abs(b - a) for a, b in zip(steps, steps[1:]))
    # D is monotone between crossings, so each piece holds at most one zero of D
    cuts = [0.0, *crossings, e]
    zeros = [
        _bisect(lambda y: _gap(y, n), a, b)
        for a, b in zip(cuts, cuts[1:])
        if _gap(a, n) * _gap(b, n) < 0.0
    ]
    thetas = sorted((math.acos(min(y / e, 1.0)) for y in {*cuts, *zeros}), reverse=True)

    def gap_in_theta(t):
        return np.abs([_gap(e * math.cos(v), n) for v in t]) * e * np.sin(t)

    w1 = sum(_gauss(gap_in_theta, b, a) for a, b in zip(thetas, thetas[1:]))
    # on [e, 2]: D = 1 - S(2 cos phi) = (phi - sin phi cos phi) / pi
    phi_e = math.acos(e / 2.0)
    w1 += _gauss(lambda p: (p - np.sin(p) * np.cos(p)) / math.pi * 2.0 * np.sin(p), 0.0, phi_e)
    return {"kol": kol, "tv": tv, "w1": 2.0 * w1}
