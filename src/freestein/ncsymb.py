"""Noncommutative word algebra over two letters, with a matrix oracle.

Polynomials live in the free algebra on A and R, with coefficients that
are themselves polynomials in a commuting scalar z (stored as coefficient
tuples, constant term first).  A word is a string over "A" and "R" of at
most MAX_WORD letters, "AAR" for A^2 R, so concatenation is the monoid
product and every word is canonical; zero coefficients are pruned.

The module implements the interpolation polynomial

    Delta(a, r) = 2 z r - a r - r a - r^2  (= (z-a)^2 - (z-a-r)^2),

its powers, and the telescoping resolvent expansion

    g(a+r) = g(a+r) (Delta g(a))^q + sum_{j<q} g(a) (Delta g(a))^j,

with g the squared resolvent g(x) = ((z - x)^{-1})^2, checked numerically
on seeded matrix batteries.

Work is not repeated: a product forms the coefficient products once per
distinct left coefficient.  A battery is conditioned and inverted as one
stack, and ``_factors`` keeps g(A), g(A+R) and Delta g(A) of every pair of
the last battery, or else of the last accepted pair, so each pair is
conditioned and inverted once however many q are checked on it.  Counts
(q, j, the battery size, the matrix dimension, letter exponents and word
lengths) are read through ``errors.check_count``.
"""

from __future__ import annotations

import numbers
import random

import numpy as np

from .errors import _real, check_count

MAX_TERMS = 100_000
MAX_WORD = 256  # letters in a word, a byte each; a word of (A Delta)^6 has at most 18
MAX_MATRIX_DIM = 12
COND_LIMIT = 1e8
# kept factors of at most about 7 MB at dim 12, with 5 MB of keys
MAX_BATTERY = 1_000
_KEPT = {}  # _factors of the last battery's pairs, or of the last accepted pair


def _zp_trim(c: tuple) -> tuple:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _zp_add(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    return _zp_trim(
        tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))
    )


def _zp_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _zp_trim(tuple(out))


def _zp_eval(c: tuple, z: complex) -> complex:
    acc = 0.0 + 0.0j
    for coef in reversed(c):
        acc = acc * z + coef
    return acc


class NcPolynomial:
    """A finite sum of words in A, R with z-polynomial coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for word, coeff in (terms or {}).items():
            if not isinstance(word, str) or word.strip("AR"):
                raise ValueError(f"a word is a string over 'A' and 'R', got {word!r}")
            check_count(len(word), "the word length", 0, MAX_WORD)
            c = _zp_trim(tuple(coeff))
            if c:
                clean[word] = c
        self.terms = clean

    @classmethod
    def unit(cls) -> "NcPolynomial":
        return cls({"": (1,)})

    @classmethod
    def letter(cls, name: str, exp: int = 1) -> "NcPolynomial":
        if name not in ("A", "R"):
            raise ValueError("letters are 'A' and 'R'")
        return cls({name * check_count(exp, "the letter exponent", 0, MAX_WORD): (1,)})

    @classmethod
    def scalar(cls, coeff) -> "NcPolynomial":
        """Constant-in-word polynomial; coeff is a z-coefficient tuple."""
        return cls({"": tuple(coeff)})

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, NcPolynomial) and self.terms == other.terms

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = _zp_add(out.get(w, ()), c)
        return NcPolynomial(out)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + other.scale((-1,))

    def scale(self, coeff) -> "NcPolynomial":
        c = tuple(coeff)
        return NcPolynomial({w: _zp_mul(v, c) for w, v in self.terms.items()})

    def __mul__(self, other: "NcPolynomial") -> "NcPolynomial":
        """Words in the order first met, left factor outermost.

        The products with ``other``'s coefficients are formed once per
        distinct left coefficient; the key carries the entry types, so an
        int and an equal float coefficient are not confused.  Products and
        sums come trimmed, so only the sums that cancelled are dropped.
        """
        right = list(other.terms.items())
        longest = max(map(len, self.terms), default=0) + max(map(len, other.terms), default=0)
        check_count(longest, "the longest product word length", 0, MAX_WORD)
        rows, out = {}, {}
        for w1, c1 in self.terms.items():
            key = (c1, tuple(map(type, c1)))
            prods = rows.get(key)
            if prods is None:
                prods = rows[key] = [_zp_mul(c1, c2) for _, c2 in right]
            for (w2, _), prod in zip(right, prods):
                w = w1 + w2
                if w in out:
                    out[w] = _zp_add(out[w], prod)
                    continue
                out[w] = prod
                if len(out) > MAX_TERMS:
                    raise RuntimeError(f"expansion exceeded {MAX_TERMS} terms")
        poly = NcPolynomial()
        poly.terms = {w: c for w, c in out.items() if c}
        return poly

    def __pow__(self, j: int) -> "NcPolynomial":
        acc = NcPolynomial.unit()
        for _ in range(check_count(j, "the power j", 0, MAX_WORD)):
            acc = acc * self
        return acc

    def coefficient(self, word: str) -> tuple:
        """z-polynomial coefficient of a word."""
        return self.terms.get(word, ())

    def __repr__(self) -> str:
        if not self.terms:
            return "NcPolynomial(0)"
        bits = [f"({c})*{w or '1'}" for w, c in sorted(self.terms.items())]
        return "NcPolynomial(" + " + ".join(bits) + ")"


def delta_poly() -> NcPolynomial:
    """Delta = 2 z R - A R - R A - R^2 (the symmetrised (z-a)r minus r^2)."""
    return NcPolynomial({"R": (0, 2), "AR": (-1,), "RA": (-1,), "RR": (-1,)})


def a_delta() -> NcPolynomial:
    """A * Delta, the factor whose powers drive the error expansion."""
    return NcPolynomial.letter("A") * delta_poly()


def expand_power(p: NcPolynomial, j: int) -> NcPolynomial:
    """Canonical expansion of p^j for a whole j in 0..6 (blow-up guarded at 1e5 terms)."""
    return p ** check_count(j, "the power j", 0, 6)


def core_multi_index(word: str) -> tuple:
    """Run lengths of a word after stripping its leading and trailing A-runs.

    "AARARRA" gives (1, 1, 2).  This is the multi-index whose length is
    bounded by the expansion support condition: every word of (A Delta)^j
    has a core of fewer than 2j runs (the boundary A-runs are absorbed by
    adjacent resolvent factors in the estimates that consume the expansion).
    """
    # a space at each change of letter splits the core into its runs
    return tuple(map(len, word.strip("A").replace("AR", "A R").replace("RA", "R A").split()))


def _square_pair(a_val, r_val) -> tuple:
    """A and R as complex arrays, refused unless square of one dimension in 1..MAX_MATRIX_DIM."""
    a = np.asarray(a_val, dtype=complex)
    r = np.asarray(r_val, dtype=complex)
    if a.shape != r.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A and R must be square matrices of the same dimension")
    check_count(a.shape[0], "the matrix dimension", 1, MAX_MATRIX_DIM)
    return a, r


def eval_matrix(
    p: NcPolynomial, a_val: np.ndarray, r_val: np.ndarray, z_val: complex
) -> np.ndarray:
    """Substitute square matrices for A, R and a scalar for z; a run is one matrix power."""
    a, r = _square_pair(a_val, r_val)
    d = a.shape[0]
    out = np.zeros((d, d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for word, coeff in p.terms.items():
        acc = eye
        for run in word.replace("AR", "A R").replace("RA", "R A").split():
            acc = acc @ np.linalg.matrix_power(a if run[0] == "A" else r, len(run))
        out = out + _zp_eval(coeff, z_val) * acc
    return out


def _delta_matrix(a: np.ndarray, r: np.ndarray, z: complex) -> np.ndarray:
    """Delta = 2 z R - A R - R A - R^2 at matrices, in closed form.

    The test suite pins it against ``eval_matrix(delta_poly(), a, r, z)``.
    """
    return 2.0 * z * r - a @ r - r @ a - r @ r


def resolvent_lemma_check(
    a_val: np.ndarray, r_val: np.ndarray, z_val: complex, q: int
) -> float:
    """Max-abs residual of the telescoping expansion of g(A+R).

    g is the squared resolvent.  Returns
    ``max | g(A+R) - g(A+R)(Delta g(A))^q - sum_{j<q} g(A)(Delta g(A))^j |``,
    which is zero in exact arithmetic for every whole q in 1..5.  z must be
    a finite complex number.  Only the q-loop runs here; the factors come
    from ``_factors``, which keeps those of the last pair.
    """
    q = check_count(q, "q", 1, 5)
    a, r = _square_pair(a_val, r_val)
    if not (isinstance(z_val, numbers.Complex) and not isinstance(z_val, bool)
            and _real(z_val.real) and _real(z_val.imag)):
        raise ValueError(f"z must be a finite complex number, got {z_val!r}")
    g_a, g_ar, dg = _factors(a, r, complex(z_val))
    eye = np.eye(a.shape[0], dtype=complex)
    power, series = eye, np.zeros_like(eye)
    for _ in range(q):
        series += power
        power = power @ dg
    rhs = g_ar @ power + g_a @ series
    return float(np.abs(g_ar - rhs).max())


def _factor_stack(a, r, z):
    """Condition numbers and factors of each pair of the (k, d, d) stacks A, R.

    z - A and z - A - R of every pair are conditioned by one batched SVD of
    the (k, 2, d, d) stack; a pair is accepted when both condition numbers
    are below COND_LIMIT (a singular matrix reads inf or nan), and the
    accepted pairs are inverted as one stack.  Returns the (k, 2) condition
    numbers and, per pair, its read-only g(A), g(A+R) and Delta g(A), or
    None for a refused pair.
    """
    shifted = z * np.eye(a.shape[-1], dtype=complex) - np.stack((a, a + r), axis=1)
    sv = np.linalg.svd(shifted, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        conds = sv[..., 0] / sv[..., -1]
    ok = (conds < COND_LIMIT).all(axis=1)
    res = np.linalg.inv(shifted[ok])
    squares = res @ res
    dg = _delta_matrix(a[ok], r[ok], z) @ squares[:, 0]
    for m in (squares, dg):
        m.flags.writeable = False
    accepted = zip(squares[:, 0], squares[:, 1], dg)
    return conds, [next(accepted) if good else None for good in ok]


def _factors(a: np.ndarray, r: np.ndarray, z: complex) -> tuple:
    """g(A), g(A+R) and Delta g(A), read-only, for square complex A, R.

    The one rule for a single pair: :func:`_factor_stack` on a stack of
    one.  A condition number that is not below COND_LIMIT is a ValueError
    naming the matrix, z - A first.  The factors are kept under the bytes
    of A and R, d and z, so a repeated call recomputes nothing: those of
    every pair of the last ``random_matrix_battery``, or else of the last
    accepted pair, which replaces what was kept.  A refusal is not kept.
    """
    key = (a.tobytes(), r.tobytes(), a.shape[0], z)
    if key not in _KEPT:
        conds, (factors,) = _factor_stack(a[None], r[None], z)
        for cond, name in zip(conds[0], ("z - A", "z - A - R")):
            if not cond < COND_LIMIT:
                raise ValueError(f"resolvent {name} too ill-conditioned (cond {cond:.2e})")
        _KEPT.clear()
        _KEPT[key] = factors
    return _KEPT[key]


def random_matrix_battery(count: int = 50, dim: int = 6, seed: int = 20240901):
    """Seeded (A, R) pairs: unit-disc entries scaled by 1/dim, A Hermitian.

    The 1/dim scaling keeps norms of Delta g(A) near unity, so the q = 5
    residual stays at machine level; a pair is kept if and only if
    ``_factors`` would accept its resolvents at z = 2.5 + 0.5i, and redrawn
    otherwise.  count in 1..MAX_BATTERY and dim in 1..MAX_MATRIX_DIM are
    whole numbers.  The draws come from ``random.Random(seed)``, so the
    battery needs no ``numpy.random``.  Each round draws, in stream order,
    as many candidates as are still needed and factors them in one
    :func:`_factor_stack`, so the kept pairs are those of a one-at-a-time
    filter; the factors of every kept pair replace what ``_factors`` keeps.
    """
    count = check_count(count, "the battery count", 1, MAX_BATTERY)
    dim = check_count(dim, "the matrix dimension", 1, MAX_MATRIX_DIM)
    rng = random.Random(seed)
    z = 2.5 + 0.5j
    out = []
    _KEPT.clear()
    while len(out) < count:
        drawn = [_draw_pair(rng, dim) for _ in range(count - len(out))]
        _, factors = _factor_stack(*(np.array(m) for m in zip(*drawn)), z)
        for (a, r), pair_factors in zip(drawn, factors):
            if pair_factors is not None:
                _KEPT[a.tobytes(), r.tobytes(), dim, z] = pair_factors
                out.append((a, r))
    return out


def _draw_pair(rng, dim):
    """One candidate (A, R): A the Hermitian part of a disc matrix, both scaled by 1/dim."""
    m1 = _disc_matrix(rng, dim) / dim
    r = _disc_matrix(rng, dim) / dim
    return 0.5 * (m1 + m1.conj().T), r


def _disc_matrix(rng, dim: int) -> np.ndarray:
    """Entries uniform on the unit disc from 2 dim^2 draws of ``rng.random()``.

    The first dim^2 uniforms give the radii sqrt(u), the next dim^2 the
    angles 2 pi u; ``rng`` may be a ``random.Random`` or a numpy Generator.
    """
    u = np.array([rng.random() for _ in range(2 * dim * dim)]).reshape(2, dim, dim)
    return np.sqrt(u[0]) * np.exp(1j * (2.0 * np.pi * u[1]))
