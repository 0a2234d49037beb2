"""Interval enumeration, saturated chains and reduced words, checked
against each other and against direct replay of the definitions."""

import random
import tracemalloc
from math import factorial

import pytest

from weakbruhat import perm, weak_order
from weakbruhat.errors import GuardExceeded, IncomparableEndpoints
from weakbruhat.perm import (
    Permutation,
    all_permutations,
    compose,
    identity,
    leq_weak,
    longest_element,
)
from weakbruhat.qpoly import q_factorial
from weakbruhat.weak_order import (
    all_saturated_chains,
    hasse_dot,
    interval,
    interval_json,
    rank_gf,
    reduced_words,
)


def test_full_interval_is_the_group():
    for n in (1, 2, 3, 4):
        iv = interval(identity(n), longest_element(n))
        assert iv.size == factorial(n)
        assert rank_gf(iv) == q_factorial(n)


def test_interval_fixture_4132():
    iv = interval(identity(4), Permutation((4, 1, 3, 2)))
    assert [len(r) for r in iv.ranks] == [1, 2, 2, 2, 1]
    assert all(leq_weak(Permutation(w), iv.top) for w in iv.elements())


def test_interval_errors(monkeypatch):
    with pytest.raises(IncomparableEndpoints):
        interval(Permutation((2, 1, 3, 4)), Permutation((1, 2, 4, 3)))
    with pytest.raises(ValueError):
        interval(identity(3), identity(4))
    # the walk stops at the first rank that passes the budget
    monkeypatch.setattr(weak_order, "WORD_BUDGET", 100)
    with pytest.raises(GuardExceeded, match="force"):
        interval(identity(11), longest_element(11))


def test_refused_walk_stops_inside_a_rank(monkeypatch):
    # [id, w0] at n = 300 has about 45,000 words of length 2, some 110 MB
    # of 300-letter tuples; on a budget of 1,000 the walk stops within
    # n - 1 words of the budget, long before that rank is complete
    monkeypatch.setattr(weak_order, "WORD_BUDGET", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match="force"):
            interval(identity(300), longest_element(300))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_interval_budget_is_exact(monkeypatch):
    # [id, 4132] has 8 words: a budget of 8 admits it, one of 7 refuses
    # it unless forced
    top = Permutation((4, 1, 3, 2))
    monkeypatch.setattr(weak_order, "WORD_BUDGET", 8)
    assert interval(identity(4), top).size == 8
    monkeypatch.setattr(weak_order, "WORD_BUDGET", 7)
    with pytest.raises(GuardExceeded, match="force"):
        interval(identity(4), top)
    assert interval(identity(4), top, force=True).size == 8


def test_interval_budget_counts_words_not_n():
    assert weak_order.WORD_BUDGET == factorial(9)
    top = Permutation((2, 1, *range(3, 11), 12, 11))
    iv = interval(identity(12), top)
    assert [len(r) for r in iv.ranks] == [1, 2, 1]


def test_interval_ranks_are_sorted_and_graded():
    iv = interval(Permutation((2, 1, 3)), longest_element(3))
    for k, rank in enumerate(iv.ranks):
        assert list(rank) == sorted(rank)
        for w in rank:
            assert Permutation(w).length == iv.bottom.length + k


def test_reduced_words_fixtures():
    assert reduced_words(Permutation((3, 2, 1))) == {(1, 2, 1), (2, 1, 2)}
    assert reduced_words(identity(3)) == {()}
    # the top element of S_4 has sixteen reduced words
    assert len(reduced_words(longest_element(4))) == 16


def test_reduced_words_replay():
    for pi in all_permutations(4):
        for word in reduced_words(pi):
            assert len(word) == pi.length
            acc = [1, 2, 3, 4]
            for i in word:
                acc[i - 1], acc[i] = acc[i], acc[i - 1]
            assert Permutation(acc) == pi


def test_chains_match_words():
    for pi in all_permutations(4):
        chains = all_saturated_chains(identity(4), pi)
        assert len(chains) == len(reduced_words(pi))
        for c in chains:
            c = [Permutation(w) for w in c]
            assert c[0] == identity(4) and c[-1] == pi
            for x, y in zip(c, c[1:]):
                assert y.length == x.length + 1 and leq_weak(x, y)


def test_chains_between_incomparable_raise():
    with pytest.raises(IncomparableEndpoints):
        all_saturated_chains(Permutation((2, 1, 3)), Permutation((1, 3, 2)))


def test_interval_json_shape():
    iv = interval(identity(3), longest_element(3))
    data = interval_json(iv)
    assert data["bottom"] == "123"
    assert data["top"] == "321"
    assert [len(r) for r in data["ranks"]] == [1, 2, 2, 1]


def test_hasse_dot_edge_count():
    # one edge per ascent, summed over all of S_3
    dot = hasse_dot(interval(identity(3), longest_element(3)))
    assert dot.count("->") == 6
    assert dot.count("rank=same") == 4


def _inversions(word):
    return frozenset(
        (b, a) for i, a in enumerate(word) for b in word[i + 1 :] if a > b
    )


def _filtered_ranks(u, v, perms, inv):
    """{w : Inv(u) <= Inv(w) <= Inv(v)} by rank, each rank sorted by word."""
    ranks = [[] for _ in range(v.length - u.length + 1)]
    for w in perms:
        if inv[u.word] <= inv[w.word] <= inv[v.word]:
            ranks[w.length - u.length].append(w.word)
    return [sorted(r) for r in ranks]


def _check_against_filter(u, v, perms, inv):
    iv = interval(u, v)
    assert iv.bottom == u and iv.top == v
    assert [list(r) for r in iv.ranks] == _filtered_ranks(u, v, perms, inv)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_interval_matches_inversion_filter_exhaustive(n):
    perms = list(all_permutations(n))
    inv = {p.word: _inversions(p.word) for p in perms}
    pairs = 0
    for u in perms:
        for v in perms:
            if inv[u.word] <= inv[v.word]:
                pairs += 1
                _check_against_filter(u, v, perms, inv)
            else:
                with pytest.raises(IncomparableEndpoints):
                    interval(u, v)
    assert pairs >= len(perms)


# n = 5 is checked in full by the exhaustive test
@pytest.mark.parametrize("n", [6])
def test_interval_matches_inversion_filter_sampled(n):
    rng = random.Random(n)
    perms = list(all_permutations(n))
    inv = {p.word: _inversions(p.word) for p in perms}
    for _ in range(40):
        v = rng.choice(perms)
        u = rng.choice([w for w in perms if inv[w.word] <= inv[v.word]])
        _check_against_filter(u, v, perms, inv)


def test_walk_builds_each_element_once_sampled_n7():
    rng = random.Random(7)
    perms = list(all_permutations(7))
    inv = {p.word: _inversions(p.word) for p in perms}
    for _ in range(30):
        v = rng.choice(perms)
        u = rng.choice([w for w in perms if inv[w.word] <= inv[v.word]])
        iv = interval(u, v)
        words = list(iv.elements())
        assert len(set(words)) == len(words) == iv.size == sum(len(r) for r in iv.ranks)
        assert [list(r) for r in iv.ranks] == _filtered_ranks(u, v, perms, inv)


@pytest.mark.parametrize("n", [255, 300])
def test_walk_on_either_side_of_the_byte_limit(n):
    # bytes words up to 255 letters, tuples past it; ranks read the same
    top = Permutation((2, 1, *range(3, n - 1), n, n - 1))
    iv = interval(identity(n), top)
    assert type(iv.words[0][0]) is (bytes if n <= weak_order.MAX_LETTERS else tuple)
    e = identity(n).word
    s_1, s_last = top.word[:2] + e[2:], e[:-2] + top.word[-2:]
    assert iv.ranks == ((e,), (s_last, s_1), (top.word,))
    assert rank_gf(iv).coeffs == (1, 2, 1)


def test_saturated_chains_stay_in_the_interval():
    u, v = Permutation((2, 1, 3, 4)), Permutation((4, 2, 3, 1))
    members = set(interval(u, v).elements())
    chains = all_saturated_chains(u, v)
    assert chains
    for c in chains:
        assert set(c) <= members
        assert [Permutation(w).length for w in c] == list(range(u.length, v.length + 1))


def test_interval_and_chains_build_no_permutation(monkeypatch):
    # the endpoints are the only Permutation objects: elements and
    # chains are word tuples
    e, w0 = identity(7), longest_element(7)
    u, v = Permutation((2, 1, 3, 4, 5)), Permutation((5, 3, 4, 2, 1))
    # chains u -> v replay the reduced words of u^-1 v
    n_chains = len(reduced_words(compose(u.inverse(), v)))
    built = 0

    def counted(make):
        def wrapper(*args):
            nonlocal built
            built += 1
            return make(*args)

        return wrapper

    monkeypatch.setattr(Permutation, "__init__", counted(Permutation.__init__))
    for module in (perm, weak_order):
        if hasattr(module, "_trusted"):
            monkeypatch.setattr(module, "_trusted", counted(module._trusted))
    iv = interval(e, w0)
    chains = all_saturated_chains(u, v)
    assert built == 0
    assert iv.size == factorial(7) and len(chains) == n_chains > 1
    assert next(iv.elements()) == e.word and chains[0][-1] == v.word
    # the counter does see a construction
    identity(3)
    assert built == 1
