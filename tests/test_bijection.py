"""The pairing (u, v) -> u^{-1} v on the intervals around a word.

For separable words this hits every permutation exactly once; the two
smallest non-separable words break it, and those are the only failures
at size 4."""

import csv
import io
import random
from itertools import product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_separable import separable_word

from weakbruhat import bijection, perm, weak_order
from weakbruhat.bijection import (
    BijectionReport,
    PairTable,
    build_pair_table,
    check_bijection,
    invert_phi,
    phi,
    phi_inverter,
)
from weakbruhat.errors import GuardExceeded, InternalInversionFailure, NotSeparable
from weakbruhat.perm import (
    Permutation,
    all_permutations,
    compose,
    identity,
    leq_weak,
    longest_element,
    parse_permutation,
)
from weakbruhat.separable import is_separable
from weakbruhat.weak_order import interval


def _reference_rows(pi):
    """(u, v, phi(u, v)) for every u <= pi <= v, through Permutation
    objects, u-major in interval order: phi(u, v) = compose(inverse(u), v),
    with each u inverted once."""
    below = list(map(Permutation, interval(identity(pi.size), pi).elements()))
    above = list(map(Permutation, interval(pi, longest_element(pi.size)).elements()))
    rows = []
    for u in below:
        u_inverse = u.inverse()
        rows += [(u, v, compose(u_inverse, v)) for v in above]
    return rows


def test_phi_fixtures():
    u = Permutation((1, 4, 3, 2))
    v = Permutation((4, 3, 1, 2))
    assert phi(u, v) == compose(u.inverse(), v)
    assert phi(u, u) == identity(4)
    assert phi(identity(4), v) == v


def test_bijection_holds_for_separable_4132():
    report = check_bijection(Permutation((4, 1, 3, 2)))
    assert report.is_bijection
    assert report.collisions == ()


@pytest.mark.parametrize("word", [(2, 4, 1, 3), (3, 1, 4, 2)])
def test_bijection_fails_for_non_separable(word):
    report = check_bijection(Permutation(word))
    assert not report.is_bijection
    assert report.collisions
    for image, pairs in report.collisions:
        assert len(pairs) >= 2
        for u, v in pairs:
            assert phi(u, v) == image


@pytest.mark.parametrize("n", range(1, 5))
def test_failure_set_is_exactly_non_separable(n):
    for pi in all_permutations(n):
        assert check_bijection(pi).is_bijection == is_separable(pi)


@pytest.mark.parametrize("n", [*range(1, 6), pytest.param(6, marks=pytest.mark.slow)])
def test_invert_phi_round_trip(n, phi_inverses):
    perms, rows = phi_inverses(n)
    for pi, pairs in rows:
        below = set(interval(identity(n), pi).elements())
        above = set(interval(pi, longest_element(n)).elements())
        for w, (u, v) in zip(perms, pairs):
            assert phi(u, v) == w
            assert u.word in below
            assert v.word in above


@pytest.mark.parametrize("n", [*range(1, 6), pytest.param(6, marks=pytest.mark.slow)])
def test_inverter_gives_the_pair_of_the_pair_table(n, phi_inverses):
    # the pair table is phi read extensionally, one pair per image, from
    # the walks of [e, pi] and [pi, w0]; so the inverse round-trips and
    # lands in both intervals.  invert_phi(pi, w) is one call of
    # phi_inverter(pi) after a size check: at n = 6 it is compared on
    # every target of a seeded tenth of the separable words
    perms, rows = phi_inverses(n)
    separable = [pi for pi, _ in rows]
    sample = set(separable if n < 6 else random.Random(n).sample(separable, len(separable) // 10))
    for pi, pairs in rows:
        table = build_pair_table(pi)
        pair_of = dict(zip(table.images(), product(table.below, table.above)))
        sampled = pi in sample
        for w, pair in zip(perms, pairs):
            u, v = pair
            assert phi(u, v) == w
            assert (bytes(u.word), bytes(v.word)) == pair_of[bytes(w.word)]
            assert not sampled or invert_phi(pi, w) == pair


@settings(max_examples=40)
@given(
    st.integers(9, 14).flatmap(
        lambda n: st.tuples(separable_word(n), st.permutations(range(1, n + 1)))
    )
)
def test_invert_phi_beyond_exhaustive(words):
    pi, w = Permutation(words[0]), Permutation(words[1])
    u, v = invert_phi(pi, w)
    assert phi(u, v) == w
    assert leq_weak(u, pi)
    assert leq_weak(pi, v)


# 1,200 letters: 1,199 nested splits, and 600 pairs under one split
@pytest.mark.parametrize(
    "word",
    [tuple(range(1200, 0, -1)), tuple(a - (-1) ** a for a in range(1, 1201))],
    ids=["reversal", "swapped-pairs"],
)
def test_invert_phi_of_long_words(word):
    rng = random.Random(1200)
    pi, w = Permutation(word), Permutation(tuple(rng.sample(range(1, 1201), 1200)))
    u, v = invert_phi(pi, w)
    assert phi(u, v) == w
    assert leq_weak(u, pi) and leq_weak(pi, v)


def test_invert_phi_raises_on_a_wrong_construction(monkeypatch):
    # _construct fills u and v from pi's separating tree; answer with
    # pairs that each fail one part of the check
    pi, w = Permutation((4, 1, 3, 2)), Permutation((2, 3, 1, 4))
    w0 = longest_element(4)
    wrong = {
        "pi twice": (pi.word, pi.word),  # phi(pi, pi) is the identity
        "u above pi": (w0.word, compose(w0, w).word),  # phi(u, v) = w, u not <= pi
        "v not above pi": ((1, 2, 3, 4), w.word),  # phi(u, v) = w, u <= pi, pi not <= v
        "a repeated letter": ((1, 1, 3, 2), pi.word),
    }
    for u, v in wrong.values():
        monkeypatch.setattr(bijection, "_construct", lambda root, w: (u, v))
        for invert in (phi_inverter(pi), lambda w: invert_phi(pi, w)):
            with pytest.raises(InternalInversionFailure, match=str(pi)):
                invert(w)


def test_invert_phi_size_mismatch():
    with pytest.raises(ValueError):
        invert_phi(Permutation((2, 1)), Permutation((1, 2, 3)))
    with pytest.raises(ValueError):
        phi_inverter(Permutation((2, 1)))(Permutation((1, 2, 3)))


def test_phi_inverter_refuses_a_non_separable_word():
    with pytest.raises(NotSeparable, match="2413"):
        phi_inverter(Permutation((2, 4, 1, 3)))


def test_pair_table_4132():
    table = build_pair_table(Permutation((4, 1, 3, 2)))
    assert len(table.entries) == 24
    images = {w.word for w in table.entries.values()}
    assert len(images) == 24


def test_pair_table_csv():
    # below 312 = {123, 132, 312}, above = {312, 321}: six pairs
    csv = build_pair_table(Permutation((3, 1, 2))).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "u,v,w"
    assert len(lines) == 1 + 6
    images = [line.split(",")[2] for line in lines[1:]]
    assert images == sorted(images)


def test_pair_table_guard(monkeypatch):
    # 4132 has 8 words below and 3 above: 24 pairs, each interval
    # inside the budget, so the product is what refuses.  The pair table
    # shares the interval's check, so one budget moves both.
    assert bijection.check_budget is weak_order.check_budget
    assert weak_order.WORD_BUDGET == factorial(9)
    pi = Permutation((4, 1, 3, 2))
    monkeypatch.setattr(weak_order, "WORD_BUDGET", 23)
    with pytest.raises(GuardExceeded, match="force"):
        build_pair_table(pi)
    with pytest.raises(GuardExceeded, match="force"):
        check_bijection(pi)
    assert len(build_pair_table(pi, force=True).images()) == 24
    assert check_bijection(pi, force=True).is_bijection
    # exactly at the budget it runs
    monkeypatch.setattr(weak_order, "WORD_BUDGET", 24)
    assert len(build_pair_table(pi).images()) == 24
    assert check_bijection(pi).is_bijection


def test_pair_table_budget_counts_pairs_not_n():
    # 8! pairs lie within the budget, so n = 8 needs no force
    pi = identity(8)
    table = build_pair_table(pi)
    assert (len(table.below), len(table.above)) == (1, factorial(8))
    assert check_bijection(pi).is_bijection


@pytest.mark.parametrize("n", range(1, 6))
def test_pair_table_images_equal_phi(n):
    for pi in all_permutations(n):
        rows = _reference_rows(pi)
        table = build_pair_table(pi)
        for (u, v), w in table.entries.items():
            assert w == phi(u, v)
            assert w.word == compose(u.inverse(), v).word
        assert list(table.entries.items()) == [((u, v), w) for u, v, w in rows]
        rows.sort(key=lambda row: (row[2].word, row[0].word))
        assert table.to_csv() == "u,v,w\n" + "".join(f"{u},{v},{w}\n" for u, v, w in rows)


@pytest.mark.parametrize("n", range(1, 7))
def test_check_bijection_matches_phi_reference(n):
    for pi in all_permutations(n):
        rows = _reference_rows(pi)
        by_image = {}
        for u, v, w in rows:
            by_image.setdefault(w.word, []).append((u, v))
        collisions = tuple(
            (Permutation(word), tuple(sorted(pairs, key=lambda p: (p[0].word, p[1].word))))
            for word, pairs in sorted(by_image.items())
            if len(pairs) > 1
        )
        holds = len(by_image) == len(rows) == factorial(n)
        assert check_bijection(pi) == BijectionReport(holds, collisions)


def test_check_bijection_builds_no_permutation_per_pair(monkeypatch):
    # 4132 (+) 312 is separable, so its 5,040 pairs all get checked
    pi = Permutation((4, 1, 3, 2, 7, 5, 6))
    below = interval(identity(7), pi).size
    above = interval(pi, longest_element(7)).size
    assert below * above == factorial(7)
    built = 0

    def counted(make):
        def wrapper(*args):
            nonlocal built
            built += 1
            return make(*args)

        return wrapper

    for module in (perm, bijection):
        monkeypatch.setattr(module, "_trusted", counted(module._trusted))
    for module in (weak_order, bijection):
        monkeypatch.setattr(module, "Permutation", counted(module.Permutation))
    assert check_bijection(pi).is_bijection
    assert built == 0


def test_pair_table_csv_quotes_words_of_ten_letters():
    e = bytes(range(1, 11))
    s1 = bytes((2, 1)) + e[2:]
    s1s2 = bytes((2, 3, 1)) + e[3:]
    table = PairTable(Permutation(tuple(s1)), below=(e, s1), above=(s1, s1s2))
    text = table.to_csv()
    # phi(s1, s1) = e sorts first
    assert text.splitlines()[1] == '"2,1,3,4,5,6,7,8,9,10",' * 2 + '"1,2,3,4,5,6,7,8,9,10"'
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["u", "v", "w"]
    assert len(rows) == 4
    for row in rows:
        u, v, w = map(parse_permutation, row)
        assert table.entries[(u, v)] == w == phi(u, v)


def test_pair_table_images_at_the_letter_limit():
    # a Permutation equals another only on a tuple word, so entries
    # holding bytes would fail the comparison with phi
    n = bijection.MAX_LETTERS
    e = bytes(range(1, n + 1))
    s1 = bytes((2, 1)) + e[2:]
    s1s2 = bytes((2, 3, 1)) + e[3:]
    table = PairTable(Permutation(tuple(s1)), below=(e, s1), above=(s1, s1s2))
    assert all(type(w) is bytes for w in table.images())
    for (u, v), w in table.entries.items():
        assert w == phi(u, v)


def test_pair_table_refuses_words_past_the_letter_limit_before_any_walk(monkeypatch):
    assert bijection.MAX_LETTERS == 255
    bijection.check_letters(255)
    pi = identity(256)

    def walk(*args, **kwargs):
        raise AssertionError("walked an interval")

    monkeypatch.setattr(bijection, "interval", walk)
    for force in (False, True):
        for build in (build_pair_table, check_bijection):
            with pytest.raises(ValueError, match="at most 255 letters, not 256") as exc:
                build(pi, force=force)
            assert type(exc.value) is ValueError
