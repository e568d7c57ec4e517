"""The free Stein operator, its discrepancy, and the dual Stein equation.

The two-variable operator L[g](x, y) = -x g(x) + (g(y) - g(x))/(y - x)
pairs against product measures.  Against monomial test functions the
pairing collapses to pure moment arithmetic (the difference quotient of
x^r is the complete homogeneous sum), which is how everything here is
evaluated: no grids, no diagonal issues.
Results are plain values: the discrepancy a tuple, the tables lists.

The dual Stein equation is solved by integrating the pairing along the
whole semicircular Ornstein-Uhlenbeck flow, whose action on free
cumulants is explicit: with u = e^{-theta}, kappa_j -> u^j kappa_j for
j != 2 and kappa_2 -> u^2 kappa_2 + 1 - u^2.  On u in [0, 1] the
integrand divided by u is a polynomial, so one Gauss-Legendre rule
integrates it exactly.  The rule's nodes are found by Newton's method on
the Legendre three-term recurrence, in plain floats, so neither a
polynomial module nor LAPACK is touched.

Each table is built from one flow.  The moment/cumulant series is a
forward recursion, so m_p depends on kappa_1..kappa_p only, by the same
arithmetic at any truncation order: one evolution at ``FD_THETA_STEP``,
the one theta step, gives every finite difference, and one rule with
deg//2 + 2 nodes for the table's top degree, one evolution per node, gives
the dual pairing of every monomial up to that degree.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .analytic import MeasureSpec
from .errors import check_count, check_real
from .momentalg import (
    MAX_ORDER,
    FreeCumulantSequence,
    MomentSequence,
    cumulants_to_moments,
    moments_to_cumulants,
)

_DIAG_CUTOFF = 1e-8
_DIAG_STEP = 1e-5
#: the theta step of every finite difference of the flow
FD_THETA_STEP = 1e-5

#: Fixed measures used by consistency checks and the acceptance suite:
#: standard semicircle, symmetric Bernoulli, a skewed two-atom law
#: (centered, unit variance, m_3 != 0), a symmetric three-atom law, and a
#: shifted/scaled semicircle.
MEASURE_BATTERY = (
    MeasureSpec.semicircle(0.0, 1.0),
    MeasureSpec.atomic([(-1.0, 0.5), (1.0, 0.5)]),
    MeasureSpec.atomic([(1.5, 4 / 13), (-2 / 3, 9 / 13)]),
    MeasureSpec.atomic(
        [(-math.sqrt(1.5), 1 / 3), (0.0, 1 / 3), (math.sqrt(1.5), 1 / 3)]
    ),
    MeasureSpec.semicircle(-0.3, 0.49),
)


def stein_operator_eval(g, x: float, y: float) -> float:
    """-x g(x) + (g(y) - g(x))/(y - x), extended continuously to y = x.

    On the diagonal (|y - x| < 1e-8) the difference quotient becomes g'(x),
    taken by a central difference with step 1e-5.
    """
    if abs(y - x) < _DIAG_CUTOFF:
        deriv = (g(x + _DIAG_STEP) - g(x - _DIAG_STEP)) / (2 * _DIAG_STEP)
        return -x * g(x) + deriv
    return -x * g(x) + (g(y) - g(x)) / (y - x)


def _gap(m: MomentSequence, r: int):
    """m_{r+1} - sum_{k<r} m_k m_{r-1-k}: zero for every r exactly on the semicircle."""
    return m[r + 1] - sum(m[k] * m[r - 1 - k] for k in range(r))


def stein_discrepancy(m: MomentSequence) -> tuple:
    """(d_0, .., d_{order-1}), all zero exactly on the semicircle's moments; the raw
    operator pairing <mu (x) mu, L[x^r]> equals -d_r, with d_r as in :func:`_gap`."""
    return tuple(_gap(m, r) for r in range(m.order))


def generator_apply(m: MomentSequence, p: int):
    """Closed form of d/dtheta <P_theta mu, x^p> at theta = 0.

    Equals -p m_p + p sum_{l=0}^{p-2} m_l m_{p-2-l} = -p d_{p-1}, with d the
    :func:`stein_discrepancy` tuple; identically zero on the semicircle.
    """
    p = check_count(p, "the power p", 1, m.order)
    return -p * _gap(m, p - 1)


def evolve_cumulants(kappa: FreeCumulantSequence, theta: float) -> FreeCumulantSequence:
    """Free cumulants of P_theta[mu] from those of mu, for a finite real theta >= 0."""
    u = math.exp(-check_real(theta, "the semigroup time theta", 0.0))
    vals = []
    for j, k in enumerate(kappa.values, start=1):
        v = u**j * k
        if j == 2:
            v = v + 1.0 - u * u
        vals.append(v)
    return FreeCumulantSequence(vals)


def evolved_moments(m: MomentSequence, theta: float) -> MomentSequence:
    """Moments of P_theta applied to the law with moments ``m``."""
    return cumulants_to_moments(evolve_cumulants(moments_to_cumulants(m), theta))


def finite_difference_table(m: MomentSequence, order: int) -> list:
    """(m_p(P_theta mu) - m_p(mu)) / theta for p = 1..order, at theta = ``FD_THETA_STEP``.

    ``m`` holds the moments of mu to at least ``order``; the flow runs on
    its prefix to max(order, 2).  One cumulant flow serves every p: m_p
    depends only on kappa_1..kappa_p, and the series recursion computes it
    by the same arithmetic at any truncation order, so entry p - 1 equals
    the order-p table's last entry bit for bit.  The evolved moments are
    exact, so the only error is the O(FD_THETA_STEP) finite-difference bias
    against :func:`generator_apply`.
    """
    order = check_count(order, "the table order", 1, m.order)
    m0 = m.truncated(max(order, 2))
    m1 = evolved_moments(m0, FD_THETA_STEP)
    return [(float(m1[p]) - float(m0[p])) / FD_THETA_STEP for p in range(1, order + 1)]


def generator_finite_difference(mu: MeasureSpec, p: int) -> float:
    """Entry p of :func:`finite_difference_table` for the law mu."""
    p = check_count(p, "the power p", 1, MAX_ORDER)
    return finite_difference_table(mu.moments(max(p, 2)), p)[p - 1]


@lru_cache(maxsize=None)
def _gauss_legendre(n_nodes: int) -> tuple:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], as tuples of floats.

    Each positive node is five Newton steps on P_n from
    cos(pi (i - 1/4) / (n + 1/2)), with P_n and P_{n-1} from the three-term
    recurrence and P_n' = n (P_{n-1} - x P_n) / (1 - x^2); the start is
    within 1e-2 and the fourth step reaches rounding.  The weight is
    2 / ((1 - x^2) P_n'(x)^2).  The negative half mirrors the positive one,
    so the rule is exactly symmetric, and for odd n the middle node is 0
    (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).
    """

    def legendre(x):  # (P_n(x), P_n'(x))
        p0, p1 = 1.0, x
        for k in range(1, n_nodes):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, n_nodes * (p0 - x * p1) / (1.0 - x * x)

    xs, ws = [], []  # positive nodes, largest first
    for i in range(1, n_nodes // 2 + 1):
        x = math.cos(math.pi * (i - 0.25) / (n_nodes + 0.5))
        for _ in range(5):
            p, dp = legendre(x)
            x -= p / dp
        xs.append(x)
        ws.append(2.0 / ((1.0 - x * x) * legendre(x)[1] ** 2))
    mid_x, mid_w = ([0.0], [2.0 / legendre(0.0)[1] ** 2]) if n_nodes % 2 else ([], [])
    return tuple([-x for x in xs] + mid_x + xs[::-1]), tuple(ws + mid_w + ws[::-1])


def monomial_pairings(m: MomentSequence, deg: int) -> list:
    """:func:`dual_stein_pairing` of h = x^p for p = 0..deg (entry 0 is 0.0).

    ``m`` holds the moments of mu to at least ``deg``; the flow starts from
    its prefix to max(deg, 2).
    Under u = e^{-theta} the whole flow, from mu (u = 1) to the semicircle
    (u = 0), is the interval [0, 1].  The moments of P_theta mu are
    polynomials in u of degree at most their order, and the integrand
    vanishes at u = 0 (the semicircle is the fixed point), so integrand/u
    is a polynomial of degree below p.  One Gauss-Legendre rule with
    deg//2 + 2 nodes on [0, 1] integrates it exactly for every p <= deg,
    with one cumulant evolution per node.
    """
    deg = check_count(deg, "the test polynomial degree deg", 0, 8)
    kappa = moments_to_cumulants(m.truncated(max(deg, 2)))
    table = [0.0] * (deg + 1)
    for xi, wi in zip(*_gauss_legendre(deg // 2 + 2)):
        u = 0.5 * (xi + 1.0)
        # generator_apply(m, p) is <nu (x) nu, L[D x^p]>
        m_u = cumulants_to_moments(evolve_cumulants(kappa, -math.log(u)))
        for p in range(1, deg + 1):
            table[p] += 0.5 * wi * generator_apply(m_u, p) / u
    return table


def dual_stein_pairing(mu: MeasureSpec, h) -> float:
    """Integral over theta of <P_theta mu (x) P_theta mu, L[Dh]>.

    Solves the dual Stein equation: the result equals <s, h> - <mu, h>.
    The pairing is linear in h, so it is sum_p c_p times the
    :func:`monomial_pairings` table.  Each coefficient c_p of h is a finite
    real, and the degree of h, read from its coefficients, is 0..8; both
    are checked before any moment of mu is computed.  An empty h is 0.
    """
    coeffs = [check_real(c, f"coefficient c_{p} of h") for p, c in enumerate(h)]
    deg = check_count(max(len(coeffs) - 1, 0), "the degree of h", 0, 8)
    table = monomial_pairings(mu.moments(max(deg, 2)), deg)
    return sum((c * t for c, t in zip(coeffs, table)), 0.0)
