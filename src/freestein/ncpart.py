"""Non-crossing-partition combinatorics.

The non-crossing lattice NC(n) with its refinement order, Kreweras
complementation and the Moebius function of the lattice.  Everything here
is exact integer combinatorics; enumeration is capped at n = 12 so that
exhaustive tests stay cheap.

The lattice is walked lazily as :func:`nc_blocks`, one partition at a
time as a tuple of shared canonical block tuples, and nothing is kept
once a partition has been yielded; :class:`NcPartition` objects are
built only at the public API.  The walk places 1..n-1 and then gives n
each of its 1 + #open choices.  The number of open blocks alone fixes
how the walk can go on, so :func:`count_nc` (``nc count``) counts the
placements by it, in O(n^2) integer additions, and walks nothing.
:mod:`freestein.momentalg` solves power-series equations for its
transforms and mixed moments and walks no lattice.

The lattice maps read one cycle count.  P_pi cycles each block of pi in
increasing order, and gamma = (1 2 ... n) is P of the one-block partition.
The cycles of P_p^{-1} P_q decide whether P_p lies on a geodesic from the
identity to P_q, which for q = 1-hat says that p is non-crossing and in
general that p is non-crossing with p <= q (Biane, Discrete Math. 175,
1997).  Those cycles are then the blocks of the relative Kreweras
complement K_q(p), the Kreweras complement K(p) for q = 1-hat, and the
Moebius function is a signed Catalan product over them (Nica & Speicher,
Lectures on the Combinatorics of Free Probability, 2006, Lectures 10 and
18).  The brute-force definitions, the enumeration of all set partitions
among them, serve as oracles in the test suite.
"""

from __future__ import annotations

import itertools
import math

from .errors import check_count

MAX_GROUND_SET = 12
MAX_CATALAN = 30


def catalan(n: int) -> int:
    """Catalan number C_n = binom(2n, n)/(n+1), exact."""
    n = check_count(n, "the Catalan index n", 0, MAX_CATALAN)
    return math.comb(2 * n, n) // (n + 1)


def bell(n: int) -> int:
    """Bell number B_n (number of set partitions of [n])."""
    n = check_count(n, "the Bell index n", 0, MAX_CATALAN)
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


class NcPartition:
    """A partition of [n] = {1, ..., n} in canonical block form.

    Blocks are stored sorted internally and ordered by their least element,
    so equality is structural.  Instances are immutable and hashable.  The
    plain constructor accepts any partition (crossing or not) and reads
    every element through ``check_count`` as a whole number in 1..n; use
    :meth:`noncrossing` when the input is required to be non-crossing.
    """

    __slots__ = ("n", "blocks", "_hash")

    def __init__(self, n: int, blocks, _validated: bool = False):
        if _validated:
            self.n = n
            self.blocks = blocks
        else:
            n = check_count(n, "the ground set size n", 0, math.inf)
            # sorted blocks that are disjoint compare by their least element
            canon = tuple(sorted(
                tuple(sorted(check_count(e, "a partition element", 1, n) for e in b)) for b in blocks
            ))
            if not all(canon):
                raise ValueError(f"a partition has no empty block: {blocks}")
            if sorted(itertools.chain.from_iterable(canon)) != list(range(1, n + 1)):
                raise ValueError(f"blocks do not partition [{n}]: {blocks}")
            self.n = n
            self.blocks = canon
        self._hash = hash((self.n, self.blocks))

    @classmethod
    def noncrossing(cls, n: int, blocks) -> "NcPartition":
        """Construct and verify that the result is non-crossing."""
        p = cls(n, blocks)
        if not is_noncrossing(p):
            raise ValueError(f"partition has a crossing: {p}")
        return p

    @classmethod
    def zero(cls, n: int) -> "NcPartition":
        """The finest partition (all singletons)."""
        n = check_count(n, "the ground set size n", 0, math.inf)
        return cls(n, tuple((i,) for i in range(1, n + 1)), _validated=True)

    @classmethod
    def one(cls, n: int) -> "NcPartition":
        """The coarsest partition (a single block)."""
        n = check_count(n, "the ground set size n", 0, math.inf)
        return cls(n, (tuple(range(1, n + 1)),), _validated=True)

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"NcPartition({self.n}, {inner})"

    def block_sizes(self) -> tuple:
        """Block sizes, largest first."""
        return _block_sizes(self.blocks)

    def rgs(self) -> tuple:
        """Restricted-growth string: rgs[i] = index of the block of i+1.

        Blocks are ordered by least element, so that index is the label.
        """
        out = [0] * self.n
        for j, b in enumerate(self.blocks):
            for e in b:
                out[e - 1] = j
        return tuple(out)


def _block_sizes(blocks) -> tuple:
    return tuple(sorted(map(len, blocks), reverse=True))


def _check_bound(n: int) -> int:
    return check_count(n, "the ground set size n", 1, MAX_GROUND_SET)


def is_noncrossing(p: NcPartition) -> bool:
    """True iff no two blocks interleave.

    Counted by cycles: #P_pi + #(P_pi^{-1} gamma) <= n + 1 for every
    partition, with equality exactly when P_pi lies on a geodesic from the
    identity to gamma = (1 2 ... n), i.e. when pi is non-crossing (Biane,
    Discrete Math. 175, 1997).  The empty partition is non-crossing.
    """
    top = NcPartition.one(p.n).blocks
    return not p.n or _geodesic(p.n, p.blocks, top, _cycles(p.n, p.blocks, top))


def _geodesic(n: int, lower: tuple, upper: tuple, cycles: tuple) -> bool:
    """#lower + #cycles(P_lower^{-1} P_upper) = n + #upper.

    The lengths |sigma| = n - #cycles(sigma) of P_lower and P_lower^{-1}
    P_upper then add up to that of P_upper.
    """
    return len(lower) + len(cycles) == n + len(upper)


def nc_blocks(n: int):
    """NC(n) as tuples of canonical block tuples, lazily, in descending RGS order.

    The bound is checked at the call; the walk then yields one partition at
    a time and keeps none of them.  Block tuples are shared between
    consecutive partitions.

    0-hat comes first and 1-hat last.  Elements are placed left to right.
    A block stays open while no later element has joined a block created
    before it; element i either opens a new block or joins an open block,
    which closes every block opened after that one.  Trying the new block
    first and then the open blocks innermost first tries the RGS labels of
    i in descending order.  Each placement of 1..n-1 is expanded into its
    1 + #open leaves, one per choice of n.
    """
    return _leaves(_check_bound(n))


def count_nc(n: int) -> int:
    """|NC(n)| by a transfer over the open-block counts of :func:`nc_blocks`' walk.

    After a placement of 1..i with k open blocks, element i + 1 opens
    block k + 1 or joins the j-th open block counted from the outermost,
    which leaves j open, j = 1..k.  So the placements with j >= 1 open
    blocks after i + 1 number the placements with k >= j - 1 after i, a
    suffix sum, and element n has 1 + k choices:
    |NC(n)| = sum_k ways[k] (1 + k) over the placements of 1..n-1.  That
    is O(n^2) integer additions, and it checks :func:`catalan`
    independently of it.
    """
    n = _check_bound(n)
    ways = [1]  # ways[k]: placements of the elements so far with k open blocks
    for _ in range(1, n):
        ways = [0, *reversed(list(itertools.accumulate(reversed(ways))))]
    return sum(w * (1 + k) for k, w in enumerate(ways))


def _leaves(n: int):
    """The walk of :func:`nc_blocks`, depth first in one frame.

    The walk keeps the placed blocks in ``blocks`` in creation order,
    i.e. by least element, and updates it in place between yields;
    ``opened`` holds the open blocks as indices into it, outermost first.
    ``choice`` at element i < n is 0 for a new block and k for the k-th
    open block counted from the innermost; the explicit stack holds, per
    placed element, its open blocks, its choice and the block tuple it
    replaced.  Each placement of 1..n-1 yields its leaves: n in a new
    block, then n joining each open block, innermost first.
    """
    blocks = []
    last = (n,)
    stack = []
    i, opened, choice = 1, (), 0
    while True:
        while i < n:  # place i by its choice, then every later element by choice 0
            if choice:
                depth = len(opened) - choice
                j = opened[depth]
                stack.append((opened, choice, blocks[j]))
                blocks[j] += (i,)
                opened = opened[: depth + 1]
            else:
                stack.append((opened, 0, None))
                blocks.append((i,))
                opened += (len(blocks) - 1,)
            i += 1
            choice = 0
        yield (*blocks, last)
        for j in reversed(opened):
            b = blocks[j]
            blocks[j] = b + last
            yield tuple(blocks)
            blocks[j] = b
        while stack:  # back up to the deepest element with a choice left
            i -= 1
            opened, choice, b = stack.pop()
            if choice:
                blocks[opened[len(opened) - choice]] = b
            else:
                blocks.pop()
            choice += 1
            if choice <= len(opened):
                break
        else:
            return


def enumerate_nc(n: int) -> list:
    """All non-crossing partitions of [n]; exactly Catalan(n) of them."""
    return [NcPartition(n, b, _validated=True) for b in nc_blocks(n)]


def leq(p: NcPartition, q: NcPartition) -> bool:
    """Refinement order: every block of p is contained in some block of q."""
    if p.n != q.n:
        raise ValueError(f"ground sets differ: {p.n} vs {q.n}")
    owner = {e: i for i, b in enumerate(q.blocks) for e in b}
    for b in p.blocks:
        i = owner[b[0]]
        if any(owner[e] != i for e in b[1:]):
            return False
    return True


def kreweras(p: NcPartition) -> NcPartition:
    """Kreweras complement of a non-crossing partition.

    K(pi) is the maximal sigma in NC(n) such that pi on the points
    1, 2, ..., n and sigma on interlaced points 1', 2', ..., n' (i' right
    after i) together stay non-crossing.  It equals the cycle partition of
    the permutation P_pi^{-1} gamma, where gamma = (1 2 ... n) (Biane,
    Discrete Math. 175, 1997), which takes O(n).
    """
    top = NcPartition.one(p.n).blocks
    comp = _cycles(p.n, p.blocks, top)
    if p.n and not _geodesic(p.n, p.blocks, top, comp):
        raise ValueError("Kreweras complement requires a non-crossing partition")
    return NcPartition(p.n, comp, _validated=True)


def _cycles(n: int, lower: tuple, upper: tuple) -> tuple:
    """Canonical cycles of P_lower^{-1} P_upper for partitions of [n] (unchecked).

    P_pi cycles each block of pi in increasing order, so P_{1-hat} is
    gamma = (1 2 ... n).  For lower <= upper in NC(n) the cycles are the
    blocks of the relative Kreweras complement K_upper(lower).
    """
    step = [0] * (n + 1)  # P_upper: each element to its successor in its block
    for b in upper:
        for e, nxt in zip(b, b[1:] + b[:1]):
            step[e] = nxt
    prev = [0] * (n + 1)  # P_lower^{-1}: each element to its predecessor
    for b in lower:
        for e, pre in zip(b, b[-1:] + b[:-1]):
            prev[e] = pre
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):  # a new cycle starts at its least element
        if seen[start]:
            continue
        cycle = []
        e = start
        while not seen[e]:
            seen[e] = True
            cycle.append(e)
            e = prev[step[e]]
        out.append(tuple(sorted(cycle)))
    return tuple(out)


def mobius(p: NcPartition, q: NcPartition) -> int:
    """Moebius function of the interval [p, q] in NC(n).

    p is non-crossing with p <= q exactly when P_p lies on a geodesic from
    the identity to P_q, i.e. when #p + #cycles(P_p^{-1} P_q) = n + #q
    (Biane, Discrete Math. 175, 1997).  Those cycles are the blocks W of
    the relative Kreweras complement K_q(p), and [p, q] is isomorphic to
    [0, K_q(p)], a product of full lattices NC(|W|) (Nica & Speicher,
    Lectures on the Combinatorics of Free Probability, 2006, Lectures 10
    and 18).  So mu(p, q) is the product of (-1)^(|W|-1) * Catalan(|W|-1).
    The test suite pins this against the defining recursion
    mu(p, p) = 1, sum_{p <= s <= q} mu(p, s) = 0.
    """
    if p.n != q.n:
        raise ValueError(f"ground sets differ: {p.n} vs {q.n}")
    _check_bound(p.n)
    if not is_noncrossing(q):
        raise ValueError(f"mobius requires a non-crossing upper partition: {q}")
    cycles = _cycles(p.n, p.blocks, q.blocks)
    if not _geodesic(p.n, p.blocks, q.blocks, cycles):
        raise ValueError("mobius requires a non-crossing p <= q in the refinement order")
    return math.prod((-1) ** (len(w) - 1) * catalan(len(w) - 1) for w in cycles)

