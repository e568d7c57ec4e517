"""Free Meixner closed form: the standardized free power of a two-atom law.

A standardized two-atom law mu with third moment kappa_3 = a has Jacobi
parameters alpha_0 = 0, beta_1 = 1, alpha_1 = a, and its continued fraction
stops there.  Its standardized free power nu_n = (D_{1/sqrt(n)} mu)^{boxplus n}
is the free Meixner law with alpha_0 = 0, beta_1 = 1, alpha_j = a/sqrt(n) and
beta_{j+1} = 1 - 1/n for j >= 1 (Saitoh & Yoshida, Probab. Math. Statist.
21, 2001; Anshelevich, Doc. Math. 8, 2003; Bozejko & Bryc, J. Funct. Anal.
236, 2006).  So G = 1/(z - T), with T the Cauchy transform of the tail of
the fraction, the root of (1 - 1/n) T^2 - (z - a/sqrt(n)) T + 1 = 0 that
decays at infinity.  a = 0 is the Kesten-McKay law of ``kesten_mckay``.
The continuous part lives on :func:`edges`, with density :func:`density`;
outside it nu_n has at most one atom, :func:`atom`.  numpy only, for the
tests' oracles.
"""

import math

import numpy as np


def cauchy(z, n: int, a: float):
    """G of nu_n at z with Im z > 0, for the standardized two-atom law with kappa_3 = a.

    With alpha = a/sqrt(n) and beta = 1 - 1/n the constant Jacobi parameters,
    T is taken as 1/W, with W = (x + sqrt(x - e) sqrt(x + e)) / 2, x = z - alpha
    and e = 2 sqrt(beta).  W is the root of W^2 - x W + beta = 0 that grows
    like x: in the upper half plane both terms of its sum point the same way,
    so it does not cancel, where the decaying root (x - sqrt(...)) / (2 beta)
    would lose digits as |x| grows.
    """
    alpha, beta = a / math.sqrt(n), 1.0 - 1.0 / n
    z = np.asarray(z, dtype=complex)
    x = z - alpha
    e = 2.0 * math.sqrt(beta)
    w = 0.5 * (x + np.sqrt(x - e) * np.sqrt(x + e))
    return 1.0 / (z - 1.0 / w)


def edges(n: int, a: float) -> tuple:
    """Ends of the continuous part of nu_n: a/sqrt(n) -+ 2 sqrt(1 - 1/n)."""
    c, r = a / math.sqrt(n), 2.0 * math.sqrt(1.0 - 1.0 / n)
    return c - r, c + r


def density(x, n: int, a: float):
    """-Im G(x + i0) / pi, the density of the continuous part; 0 off :func:`edges`."""
    return np.clip(-cauchy(np.asarray(x, dtype=float) + 0j, n, a).imag / math.pi, 0.0, None)


def atom(n: int, a: float):
    """(location, mass) of the atom of nu_n for n >= 2, or None when it has none.

    The standardized two-atom law with kappa_3 = a puts its larger weight
    1 - p on b = -sign(a) sqrt(p / (1 - p)), with p = (1 - |a| / sqrt(a^2 + 4)) / 2.
    Its dilation by 1/sqrt(n) boxplus n times keeps that atom at sqrt(n) b
    with mass n (1 - p) - (n - 1) = 1 - n p while n p < 1 (Belinschi and
    Bercovici, Math. Z. 248, 2004), and no atom from there on.
    """
    p = 0.5 * (1.0 - abs(a) / math.sqrt(a * a + 4.0))
    if n * p >= 1.0:
        return None
    return -math.copysign(math.sqrt(n * p / (1.0 - p)), a), 1.0 - n * p
