"""Lattice combinatorics: enumeration, Kreweras, Moebius.

Brute-force oracles live here, against which the closed forms in
:mod:`freestein.ncpart` are pinned: all set partitions of [n] are
enumerated by restricted-growth strings, NC(n) is re-enumerated by a plain
open-block recursion, the crossing test by comparing blocks pairwise, the
Kreweras complement is re-derived by exhaustive search over compatible
complements and by greedy pairwise merging, and the Moebius function by
its defining interval recursion.  Kreweras' count of NC(n) by block type,
the oracle of the moment-cumulant transforms, and the table of
(pi, K(pi)) block sizes, the oracle of the mixed moments, are pinned here
against the enumeration.
"""

import math
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freestein import cli, ncpart
from freestein.ncpart import NcPartition

# B_0..B_10 and C_0..C_10, by hand / Bell triangle
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def enumerate_partitions(n: int) -> list:
    """Oracle: all set partitions of [n], ordered lexicographically by RGS."""
    out = []
    rgs = [0] * n

    def rec(i: int, mx: int) -> None:
        if i == n:
            blocks = {}
            for e, lab in enumerate(rgs, start=1):
                blocks.setdefault(lab, []).append(e)
            out.append(NcPartition(n, blocks.values()))
            return
        for lab in range(mx + 2):
            rgs[i] = lab
            rec(i + 1, max(mx, lab))

    rec(1, 0)
    return out


def recursive_nc(n: int) -> list:
    """Oracle: NC(n) as block tuples in descending RGS order.

    Element i either opens a new block or joins a block that is still open,
    which closes every block opened after it; new block first, then the
    open blocks innermost first.  Blocks are mutable lists, copied at
    every leaf.
    """
    out = []
    blocks = []

    def rec(i: int, open_blocks: tuple) -> None:
        if i > n:
            out.append(tuple(map(tuple, blocks)))
            return
        blocks.append([i])
        rec(i + 1, open_blocks + (len(blocks) - 1,))
        blocks.pop()
        for depth in range(len(open_blocks) - 1, -1, -1):
            b = blocks[open_blocks[depth]]
            b.append(i)
            rec(i + 1, open_blocks[: depth + 1])
            b.pop()

    rec(1, ())
    return out


def blocks_cross(b1, b2) -> bool:
    """Oracle: a < c < b < d with a, b in one block and c, d in the other."""
    merged = sorted([(e, 0) for e in b1] + [(e, 1) for e in b2])
    switches = sum(x[1] != y[1] for x, y in zip(merged, merged[1:]))
    return switches >= 3


def pairwise_noncrossing(p: NcPartition) -> bool:
    """Oracle: no two blocks of p cross."""
    return not any(blocks_cross(b1, b2) for b1, b2 in combinations(p.blocks, 2))


def interlace(p: NcPartition, comp_blocks) -> NcPartition:
    """Partition of [2n] with p on odd points and comp_blocks on even."""
    blocks = [tuple(2 * e - 1 for e in b) for b in p.blocks]
    blocks += [tuple(2 * e for e in b) for b in comp_blocks]
    return NcPartition(2 * p.n, blocks)


def brute_kreweras(p: NcPartition) -> NcPartition:
    """Oracle: the maximal complement sigma with p union sigma non-crossing."""
    best = None
    for sigma in ncpart.enumerate_nc(p.n):
        if pairwise_noncrossing(interlace(p, sigma.blocks)):
            if best is None or ncpart.leq(best, sigma):
                best = sigma
    # maximality, not just a maximal chain endpoint
    for sigma in ncpart.enumerate_nc(p.n):
        if pairwise_noncrossing(interlace(p, sigma.blocks)):
            assert ncpart.leq(sigma, best)
    return best


def greedy_kreweras(p: NcPartition) -> NcPartition:
    """Oracle: merge complement blocks pairwise while p stays non-crossing with them.

    Complement point i' sits right after i.  Compatible complements are
    closed under refinement and joins, so greedy merging reaches the
    unique maximal one; this fixes the left/right convention of K.
    """
    comp = [(i,) for i in range(1, p.n + 1)]
    merged = True
    while merged:
        merged = False
        for i, j in combinations(range(len(comp)), 2):
            trial = [b for k, b in enumerate(comp) if k not in (i, j)]
            trial.append(comp[i] + comp[j])
            if pairwise_noncrossing(interlace(p, trial)):
                comp = trial
                merged = True
                break
    return NcPartition(p.n, comp)


@lru_cache(maxsize=None)
def recursion_mobius(n: int) -> dict:
    """Oracle: mu(p, q) for all p <= q in NC(n), keyed by (p, q).

    The defining recursion mu(p, p) = 1 and sum_{p <= s <= q} mu(p, s) = 0,
    with q taken by decreasing block count so every s < q comes first.
    """
    lat = ncpart.enumerate_nc(n)
    le = {(p, q): ncpart.leq(p, q) for p in lat for q in lat}
    table = {}
    for q in sorted(lat, key=len, reverse=True):
        for p in lat:
            if not le[(p, q)]:
                continue
            if p == q:
                table[(p, q)] = 1
                continue
            table[(p, q)] = -sum(
                table[(p, s)] for s in lat if s != q and le[(p, s)] and le[(s, q)]
            )
    return table


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_bell_counts(self, n):
        assert len(enumerate_partitions(n)) == BELL[n]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_catalan_counts(self, n):
        parts = ncpart.enumerate_nc(n)
        assert len(parts) == CATALAN[n]
        assert len(set(parts)) == len(parts)
        assert all(ncpart.is_noncrossing(p) for p in parts)

    def test_n1(self):
        assert enumerate_partitions(1) == [NcPartition(1, [(1,)])]

    def test_nc_filter_agrees(self):
        # non-crossing enumeration matches filtering all partitions, in
        # descending RGS order: no sort enforces that order
        for n in range(1, 10):
            filtered = [p for p in enumerate_partitions(n) if ncpart.is_noncrossing(p)]
            filtered.sort(key=lambda p: p.rgs(), reverse=True)
            assert ncpart.enumerate_nc(n) == filtered

    def test_unique_crossing_at_4(self):
        parts = enumerate_partitions(4)
        assert len(parts) == 15
        crossing = [p for p in parts if not ncpart.is_noncrossing(p)]
        assert crossing == [NcPartition(4, [(1, 3), (2, 4)])]

    def test_nc2_order(self):
        assert ncpart.enumerate_nc(2) == [NcPartition.zero(2), NcPartition.one(2)]

    def test_nc_endpoints(self):
        for n in (3, 5):
            parts = ncpart.enumerate_nc(n)
            assert parts[0] == NcPartition.zero(n)
            assert parts[-1] == NcPartition.one(n)

    def test_rgs_labels_blocks_by_first_appearance(self):
        assert NcPartition(5, [(4,), (2, 5), (1, 3)]).rgs() == (0, 1, 0, 2, 1)
        assert NcPartition.zero(3).rgs() == (0, 1, 2)
        assert NcPartition.one(3).rgs() == (0, 0, 0)

    def test_partitions_rgs_lex_order(self):
        parts = enumerate_partitions(4)
        rgs = [p.rgs() for p in parts]
        assert rgs == sorted(rgs)

    @pytest.mark.parametrize("n", [0, 13, True, 2.5])
    def test_enumeration_bounds(self, n):
        with pytest.raises(ValueError, match=r"the ground set size n must be a whole number in \[1, 12\]"):
            ncpart.enumerate_nc(n)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_nc_blocks_match_recursive_oracle(self, n):
        want = recursive_nc(n)
        assert list(ncpart.nc_blocks(n)) == want
        assert [p.blocks for p in ncpart.enumerate_nc(n)] == want
        assert ncpart.count_nc(n) == sum(1 for _ in ncpart.nc_blocks(n)) == len(want)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_count_nc_is_catalan(self, n):
        assert ncpart.count_nc(n) == math.comb(2 * n, n) // (n + 1) == ncpart.catalan(n)
        # a whole float is read as its int
        assert ncpart.count_nc(float(n)) == ncpart.catalan(float(n)) == ncpart.catalan(n)

    def test_count_nc_walks_nothing(self, monkeypatch):
        def walk(*args):
            raise AssertionError("count_nc walked the lattice")

        monkeypatch.setattr(ncpart, "_leaves", walk)
        monkeypatch.setattr(ncpart, "_placements", walk, raising=False)
        assert ncpart.count_nc(12) == 208012

    def test_nc_blocks_is_a_fresh_lazy_walk(self):
        walk = ncpart.nc_blocks(5)
        assert iter(walk) is walk
        assert ncpart.nc_blocks(5) is not ncpart.nc_blocks(5)
        assert next(walk) == NcPartition.zero(5).blocks
        assert list(ncpart.nc_blocks(5)) == list(ncpart.nc_blocks(5))

    @pytest.mark.parametrize("n", [0, 13, True, 2.5])
    def test_nc_blocks_bounds(self, n):
        # refused at the call, before the walk starts
        with pytest.raises(ValueError, match=r"the ground set size n must be a whole number in \[1, 12\]"):
            ncpart.nc_blocks(n)
        with pytest.raises(ValueError, match=r"the ground set size n must be a whole number in \[1, 12\]"):
            ncpart.count_nc(n)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_cli_count_output(self, n, capsys):
        # Catalan from the binomial, Bell as a sum of Stirling numbers of the
        # second kind; the walk's count is printed for n <= 12 only
        stirling = [1]
        for _ in range(n):
            stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, len(stirling))] + [1]
        catalan = math.comb(2 * n, n) // (n + 1)
        want = f"n={n} |NC(n)|={catalan} Bell(n)={sum(stirling)}\n"
        if n <= 12:
            want += f"enumerated={catalan}\n"
        assert cli.main(["nc", "count", "-n", str(n)]) == 0
        assert capsys.readouterr().out == want


class TestCrossing:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_cycle_count_matches_pairwise_oracle(self, n):
        for p in enumerate_partitions(n):
            assert ncpart.is_noncrossing(p) == pairwise_noncrossing(p), p

    def test_empty_partition_is_noncrossing(self):
        empty = NcPartition(0, ())
        assert ncpart.is_noncrossing(empty)
        assert ncpart.kreweras(empty) == empty

    def test_nested_blocks(self):
        assert ncpart.is_noncrossing(NcPartition(3, [(1, 2), (3,)]))

    def test_interleaved(self):
        assert not ncpart.is_noncrossing(NcPartition(4, [(1, 3), (2, 4)]))

    def test_single_block(self):
        for n in (1, 4, 7):
            assert ncpart.is_noncrossing(NcPartition.one(n))

    def test_bad_blocks_rejected(self):
        with pytest.raises(ValueError):
            NcPartition(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            NcPartition(3, [(1, 2)])
        with pytest.raises(ValueError):
            NcPartition.noncrossing(4, [(1, 3), (2, 4)])

    @pytest.mark.parametrize(
        "blocks", [[(True, 2.0)], [(1, 2.5)], [("1", 2)], [(None, 2)], [(0, 1, 2)], [(1, 3)]]
    )
    def test_elements_are_whole_numbers_in_1_to_n(self, blocks):
        with pytest.raises(ValueError, match=r"a partition element must be a whole number in \[1, 2\]"):
            NcPartition(2, blocks)

    def test_whole_float_elements_read_as_ints(self):
        p = NcPartition(2, [(1.0, 2.0)])
        assert p == NcPartition(2, [(1, 2)])
        assert p.blocks == ((1, 2),) and all(type(e) is int for e in p.blocks[0])
        assert ncpart.kreweras(p) == NcPartition.zero(2)

    @pytest.mark.parametrize("n, blocks", [(0, [()]), (2, [(), (1, 2)])])
    def test_empty_block_rejected(self, n, blocks):
        with pytest.raises(ValueError, match="empty block"):
            NcPartition(n, blocks)


class TestOrder:
    def test_zero_below_everything(self):
        for q in ncpart.enumerate_nc(5):
            assert ncpart.leq(NcPartition.zero(5), q)

    def test_one_not_below_zero(self):
        assert not ncpart.leq(NcPartition.one(2), NcPartition.zero(2))

    def test_refinement_example(self):
        assert ncpart.leq(NcPartition(3, [(1,), (2, 3)]), NcPartition.one(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ncpart.leq(NcPartition.zero(3), NcPartition.zero(4))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_partial_order_axioms(self, n):
        lat = ncpart.enumerate_nc(n)
        for p in lat:
            assert ncpart.leq(p, p)
        import random

        rng = random.Random(n)
        for _ in range(300):
            p, q, r = (rng.choice(lat) for _ in range(3))
            if ncpart.leq(p, q) and ncpart.leq(q, p):
                assert p == q
            if ncpart.leq(p, q) and ncpart.leq(q, r):
                assert ncpart.leq(p, r)


class TestKreweras:
    def test_extremes(self):
        for n in (1, 3, 6):
            assert ncpart.kreweras(NcPartition.zero(n)) == NcPartition.one(n)
            assert ncpart.kreweras(NcPartition.one(n)) == NcPartition.zero(n)

    def test_n3_example(self):
        # brute force over the interlaced alphabet 1,1',2,2',3,3'
        assert ncpart.kreweras(NcPartition(3, [(1, 2), (3,)])) == NcPartition(
            3, [(1,), (2, 3)]
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_force(self, n):
        for p in ncpart.enumerate_nc(n):
            assert ncpart.kreweras(p) == brute_kreweras(p)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rank_identity(self, n):
        for p in ncpart.enumerate_nc(n):
            assert len(p) + len(ncpart.kreweras(p)) == n + 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_greedy_merge(self, n):
        for p in ncpart.enumerate_nc(n):
            assert ncpart.kreweras(p) == greedy_kreweras(p)

    def test_crossing_rejected(self):
        with pytest.raises(ValueError):
            ncpart.kreweras(NcPartition(4, [(1, 3), (2, 4)]))


class TestMobius:
    def test_reflexive_base(self):
        for p in ncpart.enumerate_nc(4):
            assert ncpart.mobius(p, p) == 1

    def test_nc2_chain(self):
        assert ncpart.mobius(NcPartition.zero(2), NcPartition.one(2)) == -1

    @pytest.mark.parametrize("n,expected", [(3, 2), (4, -5)])
    def test_bottom_to_top_small(self, n, expected):
        assert ncpart.mobius(NcPartition.zero(n), NcPartition.one(n)) == expected

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bottom_to_top_catalan_law(self, n):
        v = ncpart.mobius(NcPartition.zero(n), NcPartition.one(n))
        assert v == (-1) ** (n - 1) * ncpart.catalan(n - 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_recursion_closure(self, n):
        lat = ncpart.enumerate_nc(n)
        for p in lat:
            for q in lat:
                if p != q and ncpart.leq(p, q):
                    total = sum(
                        ncpart.mobius(p, s) for s in lat if ncpart.leq(p, s) and ncpart.leq(s, q)
                    )
                    assert total == 0, (p, q)

    def test_order_violation(self):
        with pytest.raises(ValueError):
            ncpart.mobius(NcPartition.one(3), NcPartition.zero(3))

    def test_crossing_upper_partition_rejected(self):
        # {1,3},{2,4} lies above 0-hat, but is not in NC(4)
        with pytest.raises(ValueError):
            ncpart.mobius(NcPartition.zero(4), NcPartition(4, [(1, 3), (2, 4)]))

    @pytest.mark.parametrize("n", [0, 13, True, 2.5, -1])
    def test_ground_set_bounds(self, n):
        with pytest.raises(ValueError, match="the ground set size n must be a whole number"):
            ncpart.mobius(NcPartition.zero(n), NcPartition.zero(n))
        if n in (0, 13):  # a partition's ground set is any whole n >= 0
            return
        any_size = r"the ground set size n must be a whole number in \[0, inf\]"
        for make in (NcPartition.zero, NcPartition.one, lambda k: NcPartition(k, [])):
            with pytest.raises(ValueError, match=any_size):
                make(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_geodesic_rejects_exactly_the_bad_pairs(self, n):
        # every set partition p, crossing or not, against every q in NC(n)
        table = recursion_mobius(n)
        for q in ncpart.enumerate_nc(n):
            for p in enumerate_partitions(n):
                if pairwise_noncrossing(p) and ncpart.leq(p, q):
                    assert ncpart.mobius(p, q) == table[(p, q)], (p, q)
                else:
                    with pytest.raises(ValueError):
                        ncpart.mobius(p, q)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_multiplicative_shortcut_matches_recursion(self, n):
        table = recursion_mobius(n)
        for (p, q), mu in table.items():
            assert ncpart.mobius(p, q) == mu, (p, q)
        top = NcPartition.one(n)
        for p in ncpart.enumerate_nc(n):
            assert ncpart.mobius(p, top) == table[(p, top)]


class TestCatalanBell:
    def test_catalan_values(self):
        assert [ncpart.catalan(n) for n in range(11)] == CATALAN
        assert ncpart.catalan(10) == len(ncpart.enumerate_nc(10))

    def test_catalan_exact_integer(self):
        for n in range(31):
            c = ncpart.catalan(n)
            assert isinstance(c, int)
            assert c * (n + 1) == math.comb(2 * n, n)

    def test_catalan_bounds(self):
        # bell(2000) took over a second before its bound
        for n in (-1, 31, 2000, True, 2.5):
            with pytest.raises(ValueError, match=r"the Catalan index n must be a whole number in \[0, 30\]"):
                ncpart.catalan(n)
            with pytest.raises(ValueError, match=r"the Bell index n must be a whole number in \[0, 30\]"):
                ncpart.bell(n)

    def test_bell_values(self):
        assert [ncpart.bell(n) for n in range(11)] == BELL


def integer_partitions(n: int, mx: int | None = None):
    """Integer partitions of n into parts <= mx, parts largest first."""
    if n == 0:
        yield ()
        return
    mx = n if mx is None else mx
    for first in range(min(n, mx), 0, -1):
        for rest in integer_partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def nc_type_counts(n: int) -> dict:
    """Oracle: number of non-crossing partitions of [n] per block-size multiset.

    Kreweras' count: a type with k blocks and size multiplicities m_j has
    n! / ((n - k + 1)! * prod_j m_j!) non-crossing partitions.  Keys are
    size tuples sorted largest-first.  The moment-cumulant transforms of
    :mod:`freestein.momentalg` are pinned against sums over this table.
    """
    out = {}
    for sizes in integer_partitions(n):
        denom = math.factorial(n - len(sizes) + 1)
        for j in set(sizes):
            denom *= math.factorial(sizes.count(j))
        cnt, rem = divmod(math.factorial(n), denom)
        assert rem == 0
        out[sizes] = cnt
    return out


class TestTypeCounts:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_against_enumeration(self, n):
        counted = {}
        for p in ncpart.enumerate_nc(n):
            counted[p.block_sizes()] = counted.get(p.block_sizes(), 0) + 1
        assert nc_type_counts(n) == counted

    def test_totals(self):
        for n in range(1, 13):
            assert sum(nc_type_counts(n).values()) == ncpart.catalan(n)


@lru_cache(maxsize=None)
def nc_kreweras_size_pairs(n: int) -> tuple:
    """Oracle: (block sizes of pi, block sizes of K(pi)) for every pi in NC(n).

    Walks the lattice as shared block tuples.  The mixed moments of
    :mod:`freestein.momentalg` are pinned against the Nica-Speicher sum of
    kappa_pi[a] tau_{K(pi)}[b] over this table.
    """
    top = NcPartition.one(n).blocks
    return tuple(
        (ncpart._block_sizes(b), ncpart._block_sizes(ncpart._cycles(n, b, top)))
        for b in ncpart.nc_blocks(n)
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_kreweras_size_pairs_match_partitions(n):
    want = tuple(
        (p.block_sizes(), ncpart.kreweras(p).block_sizes()) for p in ncpart.enumerate_nc(n)
    )
    assert nc_kreweras_size_pairs(n) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.data())
def test_kreweras_size_pairs_consistent(n, data):
    pairs = nc_kreweras_size_pairs(n)
    assert len(pairs) == ncpart.catalan(n)
    sizes_pi, sizes_k = data.draw(st.sampled_from(pairs))
    assert sum(sizes_pi) == n and sum(sizes_k) == n
    assert len(sizes_pi) + len(sizes_k) == n + 1
