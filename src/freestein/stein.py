"""The free Stein operator, its discrepancy, and the dual Stein equation.

The two-variable operator L[g](x, y) = -x g(x) + (g(y) - g(x))/(y - x)
pairs against product measures.  Against monomial test functions the
pairing collapses to pure moment arithmetic (the difference quotient of
x^r is the complete homogeneous sum), which is how everything here is
evaluated: no grids, no diagonal issues.

The dual Stein equation is solved by integrating the pairing along the
whole semicircular Ornstein-Uhlenbeck flow, whose action on free
cumulants is explicit: with u = e^{-theta}, kappa_j -> u^j kappa_j for
j != 2 and kappa_2 -> u^2 kappa_2 + 1 - u^2.  On u in [0, 1] the
integrand divided by u is a polynomial, so one Gauss rule integrates it
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import MeasureSpec
from .momentalg import (
    FreeCumulantSequence,
    MomentSequence,
    cumulants_to_moments,
    moments_to_cumulants,
)

_DIAG_CUTOFF = 1e-8
_DIAG_STEP = 1e-5
MAX_THETA_STEP = 1e-3

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


@dataclass(frozen=True)
class SteinDiscrepancy:
    """Deviations d_r = m_{r+1} - sum_{k<r} m_k m_{r-1-k}, r = 0..N-1.

    The vector vanishes identically exactly when the moments are the
    semicircle's through order N.  Oriented like the moment recursion:
    the raw operator pairing <mu (x) mu, L[x^r]> equals -d_r.
    """

    values: tuple

    @property
    def max_abs(self) -> float:
        return max(abs(float(v)) for v in self.values)

    def is_zero(self, tol: float = 1e-12) -> bool:
        return self.max_abs <= tol


def _gap(m: MomentSequence, r: int):
    """m_{r+1} - sum_{k<r} m_k m_{r-1-k}: zero for every r exactly on the semicircle."""
    return m[r + 1] - sum(m[k] * m[r - 1 - k] for k in range(r))


def stein_discrepancy(m: MomentSequence) -> SteinDiscrepancy:
    """Pairing of mu (x) mu against L[x^r] for r = 0..order-1."""
    return SteinDiscrepancy(tuple(_gap(m, r) for r in range(m.order)))


def generator_apply(m: MomentSequence, p: int):
    """Closed form of d/dtheta <P_theta mu, x^p> at theta = 0.

    Equals -p m_p + p sum_{l=0}^{p-2} m_l m_{p-2-l} = -p d_{p-1}, with d the
    :func:`stein_discrepancy` vector; identically zero on the semicircle.
    """
    if p < 1:
        raise ValueError("power must be >= 1")
    if p > m.order:
        raise ValueError(f"power {p} exceeds truncation order {m.order}")
    return -p * _gap(m, p - 1)


def evolve_cumulants(kappa: FreeCumulantSequence, theta: float) -> FreeCumulantSequence:
    """Free cumulants of P_theta[mu] from those of mu."""
    if theta < 0:
        raise ValueError("semigroup time must be nonnegative")
    u = math.exp(-theta)
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


def generator_finite_difference(mu: MeasureSpec, p: int, theta_step: float) -> float:
    """(m_p(P_theta mu) - m_p(mu)) / theta at theta = theta_step.

    The evolved moments come from the exact cumulant flow, so the only
    error is the O(theta_step) finite-difference bias against
    :func:`generator_apply`.
    """
    if not 0 < theta_step <= MAX_THETA_STEP:
        raise ValueError(f"theta_step must lie in (0, {MAX_THETA_STEP:g}]")
    m0 = mu.moments(max(p, 2))
    m1 = evolved_moments(m0, theta_step)
    return (float(m1[p]) - float(m0[p])) / theta_step


@lru_cache(maxsize=None)
def _gauss_legendre(n_nodes: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], as tuples of floats."""
    nodes, wts = np.polynomial.legendre.leggauss(n_nodes)
    return tuple(nodes.tolist()), tuple(wts.tolist())


def dual_stein_pairing(mu: MeasureSpec, h) -> float:
    """Integral over theta of <P_theta mu (x) P_theta mu, L[Dh]>.

    Solves the dual Stein equation: the result equals <s, h> - <mu, h>.
    Under u = e^{-theta} the whole flow, from mu (u = 1) to the semicircle
    (u = 0), is the interval [0, 1].  The moments of P_theta mu are
    polynomials in u of degree at most their order, and the integrand
    vanishes at u = 0 (the semicircle is the fixed point), so integrand/u
    is a polynomial of degree below deg h.  Gauss-Legendre with
    deg//2 + 2 nodes on [0, 1] integrates it exactly.
    """
    coeffs = tuple(float(c) for c in h)
    deg = len(coeffs) - 1
    if deg > 8:
        raise ValueError("test polynomials capped at degree 8")
    kappa = moments_to_cumulants(mu.moments(max(deg, 2)))
    total = 0.0
    for xi, wi in zip(*_gauss_legendre(deg // 2 + 2)):
        u = 0.5 * (xi + 1.0)
        # generator_apply(m, p) is <nu (x) nu, L[D x^p]>, and the pairing is linear in h
        m_u = cumulants_to_moments(evolve_cumulants(kappa, -math.log(u)))
        total += wi * sum(c * generator_apply(m_u, p) for p, c in enumerate(coeffs) if p and c) / u
    return 0.5 * total
