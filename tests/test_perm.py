"""Permutations, composition, and the weak order relation, checked
against definitions applied from scratch: explicit inversion counting
and inversion-set containment."""

from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbruhat.perm import (
    Permutation,
    all_permutations,
    avoids_231,
    compose,
    identity,
    inversion_table,
    leq_weak,
    longest_element,
    parse_permutation,
    word_text,
)
from weakbruhat.weak_order import interval


def inversion_values(pi):
    return {
        (b, a)
        for i, a in enumerate(pi.word)
        for b in pi.word[i + 1 :]
        if a > b
    }


perm_words = st.permutations(range(1, 7))


def leq_by_length_additivity(u, v):
    """The earlier weak-order test, kept as a reference:
    u <= v iff length(u) + length(inverse(u) v) = length(v)."""
    return u.length + compose(u.inverse(), v).length == v.length


@st.composite
def weak_pairs(draw):
    """(u, v) with u <= v in S_n, n = 9..14: v at random, u reached from
    v by swapping descents, each swap one cover down."""
    n = draw(st.integers(9, 14))
    v = draw(st.permutations(range(1, n + 1)))
    u = list(v)
    for k in draw(st.lists(st.integers(0, n * n), max_size=n * n)):
        descents = [i for i in range(n - 1) if u[i] > u[i + 1]]
        if not descents:
            break
        i = descents[k % len(descents)]
        u[i], u[i + 1] = u[i + 1], u[i]
    return Permutation(u), Permutation(v)


def test_validation():
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation((1, 2, 4))


@pytest.mark.parametrize(
    "word", [(2.0, 1.0), (True,), (1, True), (2, 1.0, 3), ("1",), (1, "2")]
)
def test_non_integer_letters_are_rejected(word):
    # 2.0 == 2 and True == 1, so only the letter type tells them apart
    with pytest.raises(ValueError, match="int"):
        Permutation(word)


@given(perm_words)
def test_length_counts_inversions(word):
    pi = Permutation(word)
    n = pi.size
    brute = sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])
    assert pi.length == brute


@given(perm_words)
def test_inverse_involution(word):
    pi = Permutation(word)
    assert pi.inverse().inverse() == pi
    assert compose(pi, pi.inverse()) == identity(pi.size)
    assert compose(pi.inverse(), pi) == identity(pi.size)
    assert pi.inverse().length == pi.length


@given(perm_words, perm_words, perm_words)
def test_compose_associative(a, b, c):
    x, y, z = Permutation(a), Permutation(b), Permutation(c)
    assert compose(compose(x, y), z) == compose(x, compose(y, z))


def test_compose_applies_right_first():
    sigma = Permutation((2, 4, 1, 3))
    s2 = Permutation((1, 3, 2, 4))
    # right multiplication swaps word positions 2 and 3
    assert compose(sigma, s2) == Permutation((2, 1, 4, 3))
    assert compose(sigma, s2).word == (2, 1, 4, 3)
    with pytest.raises(ValueError):
        compose(sigma, identity(3))


def test_complement():
    assert Permutation((2, 4, 1, 3)).complement() == Permutation((3, 1, 4, 2))
    for pi in all_permutations(4):
        assert pi.complement().complement() == pi
        assert pi.complement().length == 6 - pi.length


def test_descents_and_covers():
    pi = Permutation((2, 4, 5, 1, 6, 3))
    assert pi.descent_set() == frozenset({3, 5})
    # the upper covers of pi are rank 1 of the interval [pi, w0]
    ups = interval(pi, longest_element(6)).ranks[1]
    assert len(ups) == 6 - 1 - 2  # one cover per ascent
    for up in map(Permutation, ups):
        assert up.length == pi.length + 1
        assert sum(a != b for a, b in zip(pi.word, up.word)) == 2


def test_longest_element():
    w0 = longest_element(4)
    assert w0.word == (4, 3, 2, 1)
    assert w0.length == 6
    assert identity(4).length == 0
    for pi in all_permutations(4):
        assert leq_weak(pi, w0)
        assert leq_weak(identity(4), pi)


def test_leq_weak_matches_inversion_containment():
    for n in (2, 3, 4):
        perms = list(all_permutations(n))
        for u in perms:
            for v in perms:
                expected = inversion_values(u) <= inversion_values(v)
                assert leq_weak(u, v) == expected


@settings(max_examples=150)
@given(weak_pairs(), st.permutations(range(1, 15)))
def test_leq_weak_matches_length_additivity_large(pair, other):
    u, v = pair
    assert leq_weak(u, v) and leq_by_length_additivity(u, v)
    assert leq_weak(v, u) == leq_by_length_additivity(v, u) == (u == v)
    # the covers of u: some stay below v and some do not
    for i in range(1, u.size):
        if u.word[i - 1] < u.word[i]:
            c = Permutation(u.word[: i - 1] + (u.word[i], u.word[i - 1]) + u.word[i + 1 :])
            assert leq_weak(c, v) == leq_by_length_additivity(c, v)
    w = Permutation([a for a in other if a <= u.size])
    for x, y in ((u, w), (w, u), (v, w), (w, v)):
        assert leq_weak(x, y) == leq_by_length_additivity(x, y)


def test_leq_weak_matches_inversion_containment_at_300_letters():
    # words past bytes, and an inversion of letters 299 apart, past 255 bits of a mask
    n = 300
    v = Permutation((1, *range(n, 1, -1)))  # every pair of letters past 1 inverted
    below = Permutation((1, n, *range(2, n)))  # only the pairs (a, n), a > 1
    beside = Permutation((n, *range(1, n)))  # and (1, n), which v lacks
    for u, comparable in ((below, True), (beside, False)):
        assert (inversion_values(u) <= inversion_values(v)) == comparable
        assert leq_weak(u, v) == comparable
        assert not inversion_values(v) <= inversion_values(u)
        assert not leq_weak(v, u)


def test_inversion_table_holds_the_inversions():
    for pi in all_permutations(5):
        inv = inversion_table(pi.word)
        assert len(inv) == 6 and inv[0] == 0
        marked = {(a, a + k) for a in range(1, 6) for k in range(6) if inv[a] >> k & 1}
        assert marked == inversion_values(pi)


def test_leq_weak_fixtures():
    assert not leq_weak(Permutation((2, 1, 3, 4)), Permutation((1, 2, 4, 3)))
    assert leq_weak(Permutation((4, 1, 3, 2)), Permutation((4, 3, 1, 2)))


def test_contains_pattern():
    assert Permutation((2, 4, 1, 3)).contains_pattern((2, 3, 1))
    assert Permutation((2, 4, 1, 3)).contains_pattern(Permutation((2, 4, 1, 3)))
    assert not Permutation((1, 4, 2, 3, 6, 5)).contains_pattern((2, 4, 1, 3))
    assert not Permutation((3, 2, 1)).contains_pattern((1, 2))
    assert not Permutation((1, 2)).contains_pattern((1, 2, 3))
    assert Permutation((1,)).contains_pattern((1,))


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_stack_sort_231_test_matches_contains_pattern(n):
    avoiders = 0
    for pi in all_permutations(n):
        avoids = avoids_231(pi.word)
        assert avoids is not pi.contains_pattern((2, 3, 1)), pi
        avoiders += avoids
    assert avoiders == factorial(2 * n) // (factorial(n) * factorial(n + 1))  # Catalan


def literally_contains(word, pattern):
    k = len(pattern)
    return any(
        all(
            (vals[i] < vals[j]) == (pattern[i] < pattern[j])
            for i in range(k)
            for j in range(i + 1, k)
        )
        for vals in combinations(word, k)
    )


@pytest.mark.parametrize(
    "pattern",
    ((1,), (1, 2), (2, 1), (2, 3, 1), (3, 2, 1), (2, 4, 1, 3), (3, 1, 4, 2), (1, 3, 2, 4)),
)
def test_contains_pattern_matches_the_definition(pattern):
    for n in range(1, 7):
        for pi in all_permutations(n):
            assert pi.contains_pattern(pattern) == literally_contains(pi.word, pattern), pi


def test_all_permutations_lex_and_complete():
    words = [p.word for p in all_permutations(4)]
    assert len(words) == factorial(4)
    assert words == sorted(words)
    assert words[0] == (1, 2, 3, 4)
    assert words[-1] == (4, 3, 2, 1)


@pytest.mark.parametrize("n", [0, -1])
def test_all_permutations_refuses_sizes_below_one(n):
    with pytest.raises(ValueError, match="empty word"):
        next(all_permutations(n))


def test_all_permutations_equal_validated_permutations():
    # the words are yielded unchecked, since they are valid by construction
    for n in range(1, 7):
        for p in all_permutations(n):
            q = Permutation(list(p.word))
            assert type(p) is Permutation and type(p.word) is tuple
            assert p == q and hash(p) == hash(q) and p.word == q.word
            assert p.length == q.length == len(inversion_values(q))


def test_parse_permutation():
    assert parse_permutation("4132").word == (4, 1, 3, 2)
    assert parse_permutation("4,1,3,2").word == (4, 1, 3, 2)
    assert parse_permutation(" 10,2,3,4,5,6,7,8,9,1 ").size == 10
    for bad in ("", "125", "1,2,2", "abc", "0"):
        with pytest.raises(ValueError):
            parse_permutation(bad)


def test_str_forms():
    assert str(Permutation((4, 1, 3, 2))) == "4132"
    big = identity(10)
    assert str(big) == "1,2,3,4,5,6,7,8,9,10"


@pytest.mark.parametrize("n", range(1, 9))
def test_word_text_is_the_comma_free_join(n):
    for pi in all_permutations(n):
        text = "".join(map(str, pi.word))
        assert word_text(pi.word) == word_text(bytes(pi.word)) == str(pi) == text


def test_word_text_prints_a_zero_letter():
    # phi_inverter's failure message prints the construction's unfilled zeros
    assert word_text((0, 2, 0, 1)) == "0201"
    assert word_text([0] * 9) == "0" * 9


@pytest.mark.parametrize("word", [(10,), (1, 12, 3), (4, 255, 1), (2, 256), (1, -1), (-3,), (9,) * 8 + (10,)])
def test_word_text_refuses_short_words_with_letters_past_9(word):
    with pytest.raises(ValueError):
        word_text(word)


def test_word_text_keeps_commas_from_10_letters():
    assert word_text(tuple(range(1, 11))) == "1,2,3,4,5,6,7,8,9,10"
    assert word_text(bytes(range(10, 0, -1))) == "10,9,8,7,6,5,4,3,2,1"
    assert word_text((0,) * 10) == ",".join("0" * 10)
    assert word_text(tuple(range(300, 0, -1))) == ",".join(map(str, range(300, 0, -1)))
