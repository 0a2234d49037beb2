"""Posets, linear extensions, and order polynomials.  The strong
oracle: an antichain's extensions are the whole symmetric group, so its
generating function must equal the q-factorial."""

import random
from itertools import combinations, islice, permutations, product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbruhat import poset
from weakbruhat.errors import GuardExceeded
from weakbruhat.perm import Permutation, all_permutations, identity
from weakbruhat.poset import (
    Poset,
    _ideal_masks,
    _op_values_bruteforce,
    descent_gf,
    disjoint_union,
    inversion_poset,
    le_gf,
    order_polynomial_values,
    ordinal_sum,
)
from weakbruhat.qpoly import ONE, pack_width, q_binomial, q_factorial
from weakbruhat.separable import is_separable
from weakbruhat.verify import _all_posets
from weakbruhat.weak_order import interval, rank_gf


def less(p, a, b):
    """a below b in p, read off a's closed mask."""
    return p._gt[a - 1] >> (b - 1) & 1 == 1


def strict_pairs(p):
    """Every (a, b) with a below b in p, read through less."""
    n = p.size
    return tuple((a, b) for a in range(1, n + 1) for b in range(1, n + 1) if less(p, a, b))


def linear_extensions(p):
    """All linear extensions as Permutations, lexicographically sorted."""
    return [Permutation(w) for w in poset._extension_words(p)]


def antichain(n):
    return Poset(n)


def chain(n):
    return Poset(n, [(i, i + 1) for i in range(1, n)])


def test_construction_and_closure():
    p = Poset(3, [(1, 2), (2, 3)])
    assert p.size == 3
    assert less(p, 1, 3)  # transitive closure inferred
    assert p.covers() == ((1, 2), (2, 3))
    assert strict_pairs(p) == ((1, 2), (1, 3), (2, 3))
    # chains given last pair first, in both label orders: the closure
    # must reach across the whole chain
    up = Poset(6, [(i, i + 1) for i in range(5, 0, -1)])
    assert strict_pairs(up) == tuple((a, b) for a in range(1, 7) for b in range(a + 1, 7))
    assert up.covers() == tuple((i, i + 1) for i in range(1, 6))
    down = Poset(6, [(i + 1, i) for i in range(1, 6)])
    assert strict_pairs(down) == tuple((a, b) for a in range(1, 7) for b in range(1, a))
    assert down.covers() == tuple((i + 1, i) for i in range(1, 6))


@pytest.mark.parametrize(
    "n, rels, match",
    [
        (0, [], "positive"),
        (-1, [], "positive"),
        (3, [(1, 4)], "leaves"),
        (3, [(0, 1)], "leaves"),
        (3, [(2, -1)], "leaves"),
        (3, [(2, 2)], "reflexive"),
        (2, [(1, 2), (2, 1)], "cycle"),
        (3, [(1, 2), (2, 3), (3, 1)], "cycle"),
    ],
)
def test_constructor_rejects_bad_input(n, rels, match):
    with pytest.raises(ValueError, match=match):
        Poset(n, rels)


def test_diamond_covers():
    p = Poset(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert p.covers() == ((1, 2), (1, 3), (2, 4), (3, 4))
    assert less(p, 1, 4)
    assert not less(p, 2, 3)
    assert not less(p, 2, 2)


def test_inversion_poset_fixture():
    p = inversion_poset(Permutation((2, 4, 1, 3)))
    assert strict_pairs(p) == ((1, 3), (2, 3), (2, 4))
    assert strict_pairs(inversion_poset(Permutation((3, 2, 1)))) == ()
    assert strict_pairs(inversion_poset(Permutation((1, 2, 3)))) == ((1, 2), (1, 3), (2, 3))


@pytest.mark.parametrize("n", range(1, 7))
def test_inversion_poset_matches_explicit_pairs(n):
    for pi in all_permutations(n):
        w = pi.word
        pairs = [(w[i], w[j]) for i in range(n) for j in range(i + 1, n) if w[i] < w[j]]
        want = Poset(n, pairs)
        got = inversion_poset(pi)
        assert got.size == want.size
        assert strict_pairs(got) == strict_pairs(want)
        assert got.covers() == want.covers()
        assert got == want


@pytest.mark.parametrize("n", range(1, 6))
def test_antichain_le_gf_is_q_factorial(n):
    assert le_gf(antichain(n)) == q_factorial(n)
    exts = linear_extensions(antichain(n))
    assert len(exts) == factorial(n)
    assert [e.word for e in exts] == sorted(e.word for e in exts)


def test_chain_has_one_extension():
    assert le_gf(chain(5)) == ONE
    assert [e.word for e in linear_extensions(chain(5))] == [(1, 2, 3, 4, 5)]


def test_le_gf_respects_block_structure():
    p, q = chain(2), antichain(2)
    assert le_gf(ordinal_sum(p, q)) == le_gf(p) * le_gf(q)
    assert le_gf(disjoint_union(p, q)) == le_gf(p) * le_gf(q) * q_binomial(4, 2)


@pytest.mark.parametrize("a", (1, 2, 3))
def test_combinators_match_the_checked_constructor(a):
    # q's elements are numbered after p's; the masks built directly must
    # equal the closure of the shifted relations plus the cross pairs
    for b in (1, 2, 3):
        for p in _all_posets(a):
            for q in _all_posets(b):
                own = list(p.covers()) + [(x + a, y + a) for x, y in q.covers()]
                cross = [(x, y) for x in range(1, a + 1) for y in range(a + 1, a + b + 1)]
                assert disjoint_union(p, q) == Poset(a + b, own), (p, q)
                assert ordinal_sum(p, q) == Poset(a + b, own + cross), (p, q)


def test_le_gf_matches_extension_listing():
    for word in ((2, 4, 1, 3), (3, 1, 4, 2), (4, 2, 3, 1), (1, 3, 2, 4)):
        p = inversion_poset(Permutation(word))
        gf = le_gf(p)
        exts = linear_extensions(p)
        assert gf.evaluate(1) == len(exts)
        hist = [0] * (gf.degree + 1)
        for e in exts:
            hist[e.length] += 1
        assert tuple(hist) == gf.coeffs


def test_le_gf_exact_past_64_bit_coefficients():
    # Four disjoint 10-element chains: the extensions are the shuffles,
    # counted by a q-multinomial whose largest coefficient has 66 bits.
    # The shared table's slots are 64 bits, so this call leaves it alone.
    p = Poset(40, [(10 * k + i, 10 * k + i + 1) for k in range(4) for i in range(1, 10)])
    f10 = q_factorial(10)
    want = q_factorial(40).exact_div(f10 * f10 * f10 * f10)
    assert max(want.coeffs).bit_length() > 64
    before = dict(poset._shared_le)
    assert le_gf(p, force=True) == want
    assert poset._shared_le == before


def test_pack_width_holds_every_coefficient():
    # [n]! is the antichain's generating function; its largest
    # coefficient first needs more than 64 bits at n = 22.  Slots are
    # read back as signed, so a coefficient must stay below the top bit.
    assert max(q_factorial(21).coeffs) < 2**64 <= max(q_factorial(22).coeffs)
    assert pack_width(20) == 64 < pack_width(21)
    for n in range(1, 30):
        assert factorial(n) < 2 ** (pack_width(n) - 1)
        assert max(q_factorial(n).coeffs) < 2 ** (pack_width(n) - 1)


@st.composite
def posets(draw, max_size=7):
    # relations kept only when they agree with a random order, so every
    # draw is acyclic and the labels need not be a linear extension
    n = draw(st.integers(1, max_size))
    order = draw(st.permutations(range(1, n + 1)))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=2 * n))
    return Poset(n, [(a, b) for a, b in pairs if order.index(a) < order.index(b)])


@settings(max_examples=150)
@given(posets())
def test_le_gf_is_the_inversion_histogram_of_the_extensions(p):
    gf = le_gf(p)
    hist = [0] * (gf.degree + 1)
    for e in linear_extensions(p):
        hist[sum(a > b for a, b in combinations(e.word, 2))] += 1
    assert tuple(hist) == gf.coeffs


def test_le_gf_same_with_the_shared_table_cold_and_warm(monkeypatch):
    monkeypatch.setattr(poset, "_shared_le", {})
    ps = [inversion_poset(pi) for n in (5, 8) for pi in islice(all_permutations(n), 0, None, 97)]
    ps += [antichain(7), chain(9), ordinal_sum(antichain(4), antichain(5))]
    cold = []
    for p in ps:
        poset._shared_le.clear()
        cold.append(le_gf(p))
    assert [le_gf(p) for p in ps] == cold
    assert len(poset._shared_le) > 1000


def test_shared_table_stays_bounded_on_other_posets(monkeypatch):
    # Inversion posets fill at most 2! + ... + 7! entries; other posets
    # empty the table once it holds more than the bound, so it never
    # exceeds the bound plus what one call adds (its order filters).
    assert poset._SHARED_BOUND == sum(factorial(k) for k in range(2, 8)) == 5912
    monkeypatch.setattr(poset, "_SHARED_BOUND", 100)
    monkeypatch.setattr(poset, "_shared_le", {})
    words = {inversion_poset(pi) for pi in all_permutations(6)}
    rng = random.Random(5)
    ps: list[Poset] = []
    while len(ps) < 200:
        order = rng.sample(range(1, 7), 6)
        pairs = [tuple(rng.sample(range(1, 7), 2)) for _ in range(5)]
        p = Poset(6, [(a, b) for a, b in pairs if order.index(a) < order.index(b)])
        if p not in words and p not in ps:
            ps.append(p)
    warm, sizes = [], []
    for p in ps:
        warm.append(le_gf(p))
        sizes.append(len(poset._shared_le))
        assert sizes[-1] <= 100 + 2**6
    assert any(b < a for a, b in zip(sizes, sizes[1:]))  # it was emptied
    cold = []
    for p in ps:
        poset._shared_le.clear()
        cold.append(le_gf(p))
    assert warm == cold


def _le_by_extension_words(p):
    """The independent route: inversions of each extension word."""
    hist = [0] * (p.size * (p.size - 1) // 2 + 1)
    for w in poset._extension_words(p):
        hist[sum(a > b for a, b in combinations(w, 2))] += 1
    while len(hist) > 1 and not hist[-1]:
        hist.pop()
    return tuple(hist)


def test_le_gf_on_byte_rows_matches_the_extension_words_on_every_small_poset():
    for k in range(1, 5):
        for p in _all_posets(k):
            assert le_gf(p).coeffs == _le_by_extension_words(p), p


@pytest.mark.parametrize("n", range(1, 8))
def test_le_gf_on_byte_rows_matches_interval_bfs(n):
    for pi in all_permutations(n):
        assert le_gf(inversion_poset(pi)) == rank_gf(interval(identity(n), pi)), pi


def _near_identity_non_separable(rng, n):
    # a 2413 block and a few adjacent swaps keep the lower interval small
    while True:
        w = list(range(1, n + 1))
        j = rng.randrange(n - 3)
        w[j : j + 4] = [j + 2, j + 4, j + 1, j + 3]
        for _ in range(rng.randrange(3)):
            i = rng.randrange(n - 1)
            w[i], w[i + 1] = w[i + 1], w[i]
        pi = Permutation(w)
        if not is_separable(pi):
            return pi


@pytest.mark.parametrize("n", [9, 10])
def test_le_gf_hands_8_point_children_to_byte_rows(monkeypatch, n):
    # 9 and 10 points recurse on tuple rows; their 8-point children, and
    # everything below, on bytes
    rows = []
    packed = poset._le_packed

    def record(gt, *args):
        rows.append((type(gt), len(gt)))
        return packed(gt, *args)

    monkeypatch.setattr(poset, "_le_packed", record)
    rng = random.Random(34 + n)
    for _ in range(25):
        pi = _near_identity_non_separable(rng, n)
        poset._shared_le.clear()
        assert le_gf(inversion_poset(pi)) == rank_gf(interval(identity(n), pi)), pi
    assert {size for kind, size in rows if kind is tuple} == set(range(9, n + 1))
    assert {kind for kind, size in rows if size <= 8} == {bytes}
    assert (bytes, 8) in rows


@pytest.mark.parametrize("a, b", [(1, 7), (4, 4), (1, 8), (8, 1), (4, 5), (5, 4), (3, 6), (5, 5), (9, 1), (2, 8)])
def test_product_rules_across_the_8_9_boundary(a, b):
    # the sum has a + b points, the parts a and b: tuple rows on one
    # side of the boundary, bytes on the other
    rng = random.Random(100 * a + b)
    for _ in range(3):
        ps = []
        for k in (a, b):
            order = rng.sample(range(1, k + 1), k)
            pairs = [tuple(rng.sample(range(1, k + 1), 2)) for _ in range(k if k > 1 else 0)]
            ps.append(Poset(k, [(x, y) for x, y in pairs if order.index(x) < order.index(y)]))
        p, q = ps
        gp, gq = le_gf(p), le_gf(q)
        assert le_gf(ordinal_sum(p, q)) == gp * gq, (p, q)
        assert le_gf(disjoint_union(p, q)) == gp * gq * q_binomial(a + b, a), (p, q)


def test_descent_gf_antichain_is_eulerian():
    # descent histogram of S_3 shifted by one
    assert descent_gf(antichain(3)).coeffs == (0, 1, 4, 1)
    assert descent_gf(chain(4)).coeffs == (0, 1)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_order_polynomial_known_values(n):
    m_max = n + 2
    assert order_polynomial_values(chain(n), m_max) == [
        comb(m + n - 1, n) for m in range(1, m_max + 1)
    ]
    assert order_polynomial_values(antichain(n), m_max) == [
        m**n for m in range(1, m_max + 1)
    ]


def test_order_polynomial_routes_agree():
    # every poset on at most 4 points, most of whose labels are not a
    # linear extension, beside the inversion posets of S_4
    ps = [p for k in range(1, 5) for p in _all_posets(k)]
    ps += [inversion_poset(pi) for pi in all_permutations(4)]
    for p in ps:
        m = p.size + 2
        assert _op_values_bruteforce(p, m) == order_polynomial_values(p, m), p


@pytest.mark.parametrize("k", (1, 2, 3, 4))
def test_extensions_and_down_sets_of_every_small_poset(k):
    # read straight off the cover relations, for all 1 + 3 + 19 + 219 posets
    for p in _all_posets(k):
        rels = p.covers()
        want = [
            w
            for w in permutations(range(1, k + 1))
            if all(w.index(a) < w.index(b) for a, b in rels)
        ]
        assert [e.word for e in linear_extensions(p)] == want, p
        down = [
            mask
            for mask in range(1 << k)
            if all(mask >> (a - 1) & 1 for a, b in rels if mask >> (b - 1) & 1)
        ]
        assert _ideal_masks(p) == down, p


def literal_op_values(p, m_max):
    """Omega(m) for m = 1..m_max by trying every map into 1..m."""
    covers = [(a - 1, b - 1) for a, b in p.covers()]
    return [
        sum(
            all(f[a] <= f[b] for a, b in covers)
            for f in product(range(1, m + 1), repeat=p.size)
        )
        for m in range(1, m_max + 1)
    ]


@pytest.mark.parametrize("k", (1, 2, 3))
def test_op_bruteforce_counts_every_map_of_every_small_poset(k):
    posets = _all_posets(k)
    if k > 1:  # covers running from a higher index to a lower one
        assert any(a > b for p in posets for a, b in p.covers())
    for p in posets:
        assert _op_values_bruteforce(p, k + 2) == literal_op_values(p, k + 2), p


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_op_bruteforce_counts_every_map_of_inversion_posets(n):
    for pi in all_permutations(n):
        p = inversion_poset(pi)
        assert _op_values_bruteforce(p, n + 2) == literal_op_values(p, n + 2), pi


def test_guards():
    big = antichain(11)
    with pytest.raises(GuardExceeded, match="force"):
        le_gf(big)
    with pytest.raises(GuardExceeded):
        order_polynomial_values(antichain(9), 3)
    with pytest.raises(GuardExceeded, match="force"):
        order_polynomial_values(chain(3), 9)
    with pytest.raises(ValueError):
        order_polynomial_values(chain(3), 0)


small_relations = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda t: t[0] != t[1]),
    max_size=6,
)


@settings(max_examples=60)
@given(small_relations)
def test_random_posets_consistent(rels):
    try:
        p = Poset(5, rels)
    except ValueError:
        return  # the relation set had a cycle
    gf = le_gf(p)
    exts = linear_extensions(p)
    assert gf.evaluate(1) == len(exts)
    for e in exts:
        for a, b in p.covers():
            assert e.word.index(a) < e.word.index(b)
