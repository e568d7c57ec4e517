"""Kesten-McKay closed form: the standardized free power of the Bernoulli law.

nu_n = (D_{1/sqrt(n)} B)^{boxplus n}, with B the symmetric Bernoulli law on
{-1, 1}, is the Kesten-McKay law of the n-regular tree scaled by
1/sqrt(n) (Kesten, Trans. AMS 92, 1959; McKay, Linear Algebra Appl. 40,
1981).  Its n identical subordination functions solve
w + (n-1)/w = sqrt(n) z, so w is the upper root of
w^2 - sqrt(n) z w + (n-1) = 0, and G(z) = G_B(w) = sqrt(n) w / (w^2 - 1).
The density and the moments below come from this G alone; n = 2 is the
arcsine law on [-sqrt(2), sqrt(2)].  numpy only, for the tests' oracles.
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
