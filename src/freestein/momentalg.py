"""Moment sequences, free cumulants, and cumulant-level free convolution.

The transforms solve M(z) = 1 + sum_s kappa_s z^s M(z)^s coefficient by
coefficient, and mixed moments of free pairs solve a triangular system of
the same kind; nothing here walks the lattice of :mod:`freestein.ncpart`.
Arithmetic deliberately stays in plain Python numbers, so integer and
Fraction inputs round-trip exactly; floats round-trip to ~1e-15.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import _real, check_count

HANKEL_TOL = 1e-10
MATCH_TOL = 1e-12
MAX_ORDER = 12


def _check_entries(vals: tuple, what: str, name: str, start: int) -> None:
    """Refuse the first entry that is not a finite real by the number rule, naming it."""
    for j, v in enumerate(vals, start):
        if not _real(v):
            raise ValueError(f"{what} must be finite reals, got {name.format(j)} = {v!r}")


class MomentSequence:
    """Truncated moment vector (m_0, ..., m_N) of a compactly supported law.

    Construction enforces m_0 = 1, entries that are finite reals by the
    number rule (ints and Fractions kept as given), and Hankel positive
    semidefiniteness (a necessary condition for a genuine measure): no
    eigenvalue below -``HANKEL_TOL`` times the largest one, or times 1 if
    that is smaller, since float rounding grows with the top moments.
    Immutable.
    """

    __slots__ = ("values",)

    def __init__(self, values, validate: bool = True):
        vals = tuple(values)
        if len(vals) < 3:
            raise ValueError("moment sequence needs order >= 2 (m_0, m_1, m_2)")
        if validate:
            _check_entries(vals, "moments", "m_{}", 0)
            arr = np.asarray([float(v) for v in vals])
            if abs(arr[0] - 1.0) > MATCH_TOL:
                raise ValueError(f"m_0 must equal 1, got {vals[0]}")
            k = (len(vals) - 1) // 2
            hank = np.array([[arr[i + j] for j in range(k + 1)] for i in range(k + 1)])
            lam = np.linalg.eigvalsh(hank)
            if lam.min() < -HANKEL_TOL * max(1.0, lam.max()):
                raise ValueError(
                    f"Hankel matrix not positive semidefinite (min eig {lam.min():.3e})"
                )
        self.values = vals

    @property
    def order(self) -> int:
        return len(self.values) - 1

    def __getitem__(self, j: int):
        return self.values[j]

    def truncated(self, order: int) -> "MomentSequence":
        """m_0..m_order; its Hankel matrix is a leading block of this one's."""
        order = check_count(order, "the truncation order", 2, self.order)
        return MomentSequence(self.values[: order + 1], validate=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, MomentSequence) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self) -> str:
        return f"MomentSequence({self.values})"


class FreeCumulantSequence:
    """Truncated free cumulants (kappa_1, ..., kappa_N): finite reals by the number
    rule, kept as given."""

    __slots__ = ("values",)

    def __init__(self, values):
        vals = tuple(values)
        if not vals:
            raise ValueError("empty cumulant sequence")
        _check_entries(vals, "cumulants", "kappa_{}", 1)
        self.values = vals

    @property
    def order(self) -> int:
        return len(self.values)

    def __getitem__(self, j: int):
        """kappa_j, 1-indexed as in the mathematics."""
        if j < 1:
            raise IndexError("cumulants are indexed from 1")
        return self.values[j - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeCumulantSequence) and self.values == other.values

    def __repr__(self) -> str:
        return f"FreeCumulantSequence({self.values})"


def _check_order(order: int, what: str = "the transform order") -> int:
    return check_count(order, what, 1, MAX_ORDER)


def semicircle_moments(order: int) -> MomentSequence:
    """Moments of the standard semicircle, as exact ints.

    Odd moments vanish; m_{2k} = binom(2k, k)/(k+1) is the Catalan number.
    The order is capped at 2 MAX_ORDER, the top of the Hankel matrix of the
    transforms' cap.
    """
    order = check_count(order, "the moment order", 2, 2 * MAX_ORDER)
    return MomentSequence(
        [0 if j % 2 else math.comb(j, j // 2) // (j // 2 + 1) for j in range(order + 1)],
        validate=False,
    )


def _grow(pw: list, f: list) -> None:
    """Extend pw[s] = [z^j] f(z)^s, s >= 0, by the anti-diagonal s + j = len(f).

    Start from [[1]]; row s then ends at j = len(f) - 1 - s.  Highest s
    first, so that row s - 1 still ends at j = len(f) - s and reversed()
    pairs it with f_0..f_j (map stops at the shorter).
    """
    pw.append([])
    for s in range(len(pw) - 1, 0, -1):
        pw[s].append(sum(map(operator.mul, f, reversed(pw[s - 1]))))
    pw[0].append(0)


def _series(given: tuple, invert: bool) -> tuple:
    """(m_0..m_N, kappa_1..kappa_N) from kappa_1..kappa_N, or from m_1..m_N.

    The z^n coefficient of M(z) = 1 + sum_s kappa_s z^s M(z)^s reads
    m_n = sum_{s<=n} kappa_s [z^{n-s}] M(z)^s; the s = n term is kappa_n and
    the rest need only m_0..m_{n-1}, so it is solved for m_n or (``invert``)
    for kappa_n (Nica & Speicher, Lectures on the Combinatorics of Free
    Probability, 2006, Lecture 11).
    """
    m, kappa, pw = [1], [], [[1]]
    for n in range(1, len(given) + 1):
        _grow(pw, m)
        rest = sum(map(operator.mul, kappa, [row[-1] for row in pw[1:]]))
        kappa.append(given[n - 1] - rest if invert else given[n - 1])
        m.append(given[n - 1] if invert else rest + given[n - 1])
    return m, kappa


def cumulants_to_moments(k: FreeCumulantSequence) -> MomentSequence:
    """m_n = sum over NC(n) of the product of kappa_{|V|} over blocks V."""
    _check_order(k.order)
    return MomentSequence(_series(k.values, invert=False)[0], validate=False)


def moments_to_cumulants(m: MomentSequence) -> FreeCumulantSequence:
    """Free cumulants (m_0 taken as 1); inverse of :func:`cumulants_to_moments`."""
    _check_order(m.order)
    return FreeCumulantSequence(_series(m.values[1:], invert=True)[1])


def free_convolve_cumulants(a: MomentSequence, b: MomentSequence) -> MomentSequence:
    """Moments of the free additive convolution, via cumulant additivity."""
    if a.order != b.order:
        raise ValueError(f"orders differ: {a.order} vs {b.order}")
    ka = moments_to_cumulants(a)
    kb = moments_to_cumulants(b)
    return cumulants_to_moments(
        FreeCumulantSequence(tuple(x + y for x, y in zip(ka.values, kb.values)))
    )


def dilate_moments(m: MomentSequence, r) -> MomentSequence:
    """Pushforward under x -> r*x: m_j -> r^j m_j, for a finite real r != 0 (kept exact)."""
    if not _real(r):
        raise ValueError(f"the dilation r must be a finite real, got {r!r}")
    if r == 0:
        raise ValueError("dilation by 0 is degenerate")
    return MomentSequence(
        tuple(r**j * v for j, v in enumerate(m.values)), validate=False
    )


def shift_moments(m: MomentSequence, c) -> MomentSequence:
    """Pushforward under x -> x + c (binomial re-expansion), for a finite real c (kept exact)."""
    if not _real(c):
        raise ValueError(f"the shift c must be a finite real, got {c!r}")
    n = m.order
    out = []
    for j in range(n + 1):
        out.append(sum(math.comb(j, i) * c ** (j - i) * m[i] for i in range(j + 1)))
    return MomentSequence(out, validate=False)


def gauss_analog(m: MomentSequence) -> MomentSequence:
    """Semicircle moments with the same mean and variance as ``m``."""
    var = m[2] - m[1] ** 2
    if float(var) <= 0:
        raise ValueError("gauss analog needs positive variance")
    kappa = [m[1], var] + [0] * (m.order - 2)
    return cumulants_to_moments(FreeCumulantSequence(kappa))


def matching_rank(m: MomentSequence) -> int:
    """Largest order through which ``m`` matches its mean/variance semicircle.

    Always at least 2, since the comparison semicircle matches the mean
    and variance by construction.
    """
    if float(m[2] - m[1] ** 2) <= 0:
        raise ValueError("matching rank needs a non-degenerate law")
    g = gauss_analog(m)
    q = 0
    for j in range(1, m.order + 1):
        if abs(m[j] - g[j]) <= MATCH_TOL * max(1.0, abs(float(g[j]))):
            q = j
        else:
            break
    return q


def mixed_moment(kappa_a: FreeCumulantSequence, m_b: MomentSequence, n: int):
    """tau[(ab)^n] for free a, b with the given cumulants / moments.

    The sum of kappa_pi[a] tau_{K(pi)}[b] over NC(n) (Nica & Speicher,
    Lecture 14), solved as power series.  With M, H, Q the generating
    functions of tau[(ab)^j], tau[b(ab)^j], tau[a(ba)^j] and
    A(w) = sum_s kappa_s(a) w^{s-1}, B likewise for b, splitting a word at
    the cumulant block of its first a (or b) gives
    M = 1 + zH A(zH), H = M B(zQ) and Q = M A(zH).  [z^n] M needs h_{<n},
    and h_n, q_n need m_{<=n}: one exact loop over n, as in :func:`_series`.
    """
    n = _check_order(n, "the word length n")
    if kappa_a.order < n or m_b.order < n:
        raise ValueError("sequences truncated below the requested length")
    ka, kb = kappa_a.values, _series(m_b.values[1 : n + 1], invert=True)[1]
    m, h, q, ph, pq = [1], [], [], [[1]], [[1]]  # ph[s][j] = [z^j] H^s, pq for Q

    def at_k(kappa, pw):  # [z^k] M(z) sum_s kappa_{s+1} (z F(z))^s, pw[s] = F^s to k - s
        return sum(c * sum(map(operator.mul, m, reversed(row))) for c, row in zip(kappa, pw))

    for _ in range(n):
        h.append(at_k(kb, pq))
        q.append(at_k(ka, ph))
        _grow(ph, h)
        _grow(pq, q)
        m.append(sum(map(operator.mul, ka, [row[-1] for row in ph[1:]])))
    return m[n]
