"""Separable permutations: detection, block decomposition trees, and
the three formula routes for interval generating functions, all pinned
to hand-checked fixtures and to brute-force enumeration."""

import gc
import json
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbruhat import separable
from weakbruhat.errors import Not231Avoiding, NotSeparable
from weakbruhat.perm import Permutation, all_permutations, avoids_231, compose, identity, longest_element
from weakbruhat.poset import inversion_poset, le_gf
from weakbruhat.qpoly import ONE, IntPoly, is_cyclotomic_product, q_factorial
from weakbruhat.separable import (
    NEGATIVE,
    POSITIVE,
    Internal,
    gf_above_closed,
    gf_above_from_complement,
    gf_above_recursive,
    gf_below_231,
    gf_below_closed,
    gf_below_recursive,
    interval_sizes,
    is_separable,
    qint_exponents,
    separating_tree,
    tree_dot,
    tree_json,
    tree_size,
    tree_text,
)
from weakbruhat.survey import schroder
from weakbruhat.weak_order import interval, rank_gf

from conftest import contains_pattern, q_int, seeded_separable_words


@cache
def separable_words(n):
    # one walk of S_n per session, shared by every test that reads it
    return tuple(p for p in all_permutations(n) if is_separable(p))


def avoids_3142_and_2413(pi):
    return not (contains_pattern(pi, (3, 1, 4, 2)) or contains_pattern(pi, (2, 4, 1, 3)))


@st.composite
def separable_word(draw, n):
    """Random direct or skew sum of two smaller separable words."""
    if n == 1:
        return (1,)
    m = draw(st.integers(1, n - 1))
    left, right = draw(separable_word(m)), draw(separable_word(n - m))
    if draw(st.booleans()):
        return left + tuple(a + m for a in right)
    return tuple(a + n - m for a in left) + right


@st.composite
def near_separable_word(draw, n):
    """A separable word with two of its letters swapped: most such words
    are not separable, and many miss by one occurrence of a pattern."""
    word = list(draw(separable_word(n)))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    word[i], word[j] = word[j], word[i]
    return tuple(word)


def test_is_separable_fixtures():
    assert not is_separable(Permutation((2, 4, 1, 3)))
    assert not is_separable(Permutation((3, 1, 4, 2)))
    assert is_separable(Permutation((4, 2, 3, 1)))
    assert all(is_separable(p) for p in all_permutations(3))
    assert is_separable(Permutation((2, 4, 1, 3, 5)).complement()) is False


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_is_separable_matches_pattern_avoidance(n):
    for pi in all_permutations(n):
        assert is_separable(pi) == avoids_3142_and_2413(pi), pi


@settings(max_examples=200)
@given(
    st.integers(9, 14).flatmap(
        lambda n: st.one_of(
            st.permutations(range(1, n + 1)), separable_word(n), near_separable_word(n)
        )
    )
)
def test_is_separable_matches_pattern_avoidance_beyond_exhaustive(word):
    pi = Permutation(word)
    assert is_separable(pi) == avoids_3142_and_2413(pi)


@settings(max_examples=40)
@given(st.integers(9, 14).flatmap(separable_word))
def test_upper_routes_agree_beyond_exhaustive(word):
    pi = Permutation(word)
    above = gf_above_recursive(pi)
    assert gf_above_closed(separating_tree(pi)) == above
    assert gf_above_closed(separating_tree(pi, largest=True)) == above
    assert gf_above_from_complement(pi) == above
    assert gf_below_recursive(pi) * above == q_factorial(pi.size)
    # linear extensions of the complement's inversion poset share no code with _merge
    assert le_gf(inversion_poset(pi.complement()), force=True).reverse() == above


@pytest.mark.parametrize("n", range(1, 8))
def test_recursions_reject_exactly_the_nonseparable_words(n):
    for pi in all_permutations(n):
        if avoids_3142_and_2413(pi):
            gf_below_recursive(pi)
            gf_above_recursive(pi)
            continue
        for route in (gf_below_recursive, gf_above_recursive):
            with pytest.raises(NotSeparable, match=str(pi)):
                route(pi)


def test_packed_recursion_exact_past_64_bit_slots():
    # [n]! has a coefficient of more than 64 bits from n = 22 on, where
    # the recursion's slots widen past the shared 64
    w0 = longest_element(25)
    assert max(q_factorial(25).coeffs).bit_length() > 64
    assert gf_below_recursive(w0) == q_factorial(25) == gf_above_recursive(identity(25))
    pi = Permutation((*range(12, 0, -1), *range(25, 12, -1)))
    assert gf_below_recursive(pi) == gf_below_closed(separating_tree(pi))


def test_closed_formulas_on_a_tree_that_alternates_sign_at_every_level():
    # 1, 80, 2, 79, ..., 40, 41: each split takes one letter off a block of
    # the other sign, so each of the 79 splits tops a run of its own, and
    # each closed formula is a quotient of 78 or 79 q-factorials up to [80]!
    pi = Permutation(tuple(a for pair in zip(range(1, 41), range(80, 40, -1)) for a in pair))
    root = node = separating_tree(pi)
    signs = []
    while type(node) is Internal:
        signs.append(node.sign)
        node = node.right
    assert signs == [POSITIVE, NEGATIVE] * 39 + [POSITIVE]
    assert gf_below_closed(root) == gf_below_recursive(pi)
    assert gf_above_closed(root) == gf_above_recursive(pi)


@pytest.mark.parametrize("n", range(1, 7))
def test_separable_counts_schroder(n):
    assert len(separable_words(n)) == schroder(n - 1)


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_product_is_q_factorial_exactly_for_separable_words(n):
    # the converse of the main theorem, with both sides by linear
    # extensions: [pi, w0] read backwards is [id, pi^c]
    full = q_factorial(n)
    factors = 0
    for pi in all_permutations(n):
        below = le_gf(inversion_poset(pi))
        above = le_gf(inversion_poset(pi.complement())).reverse()
        product_is_full = below * above == full
        assert product_is_full == is_separable(pi), pi
        factors += product_is_full
    assert factors == schroder(n - 1)


def _qint_product(g):
    # prod [i]^(g_i) over i = 2..n, expanded with q_int and exact_div
    num = den = ONE
    for i, e in enumerate(g, 2):
        for _ in range(abs(e)):
            if e > 0:
                num = num * q_int(i)
            else:
                den = den * q_int(i)
    return num.exact_div(den)


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_qint_exponents_factor_the_block_recursion(n):
    for pi in separable_words(n):
        g, g_c = qint_exponents(pi), qint_exponents(pi.complement())
        below = gf_below_recursive(pi)
        assert len(g) == len(g_c) == n - 1
        assert _qint_product(g) == below, pi
        # the main theorem, below * above = [n]!, as a vector identity
        assert all(a + b == 1 for a, b in zip(g, g_c)), pi
        # e_d, the exponent of Phi_d, sums g_i over the multiples i of d
        assert all(sum(g[d - 2 :: d]) >= 0 for d in range(2, n + 1)), pi
        assert is_cyclotomic_product(below), pi
        assert prod(Fraction(i) ** e for i, e in enumerate(g, 2)) == interval_sizes(pi)[0], pi


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_complement_exponents_are_one_minus_the_word_s(n, merged_words):
    for pi in separable_words(n):
        _check_the_derived_upper_side(pi, merged_words)


def test_complement_exponents_are_one_minus_the_word_s_beyond_exhaustive(merged_words):
    for pi in seeded_separable_words(500, seed=31):
        _check_the_derived_upper_side(pi, merged_words)


def _check_the_derived_upper_side(pi, merged_words):
    # the upper side is derived as 1 - g(pi); the complement's routes run a
    # real merge pass over the complement word, one per new Permutation
    merged_words.clear()
    assert qint_exponents(pi.complement()) == [1 - e for e in qint_exponents(pi)], pi
    assert gf_above_recursive(pi) == gf_below_recursive(pi.complement()), pi
    assert merged_words.count(pi.complement().word) >= 2, pi


def _exponents_or_none(pi):
    try:
        return qint_exponents(pi)
    except NotSeparable:
        return None


def _check_the_kept_pass(word):
    # is_separable and qint_exponents against a fresh pass over the word,
    # on a new Permutation and on one already asked, in either order
    deltas = separable._merge(word)
    want = None if deltas is None else separable._powers(deltas)
    for exponents_first in (False, True):
        pi = Permutation(word)
        for _ in range(2):
            if exponents_first:
                assert _exponents_or_none(pi) == want, pi
            assert is_separable(pi) == (want is not None), pi
            got = _exponents_or_none(pi)
            assert got == want, pi
            if got is not None:
                # the caller's list is its own: the kept deltas stay as they were
                got[:] = [7] * (len(got) + 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_the_kept_merge_pass_changes_no_answer(n):
    for pi in all_permutations(n):
        _check_the_kept_pass(pi.word)


def test_the_kept_merge_pass_changes_no_answer_beyond_exhaustive():
    for pi in seeded_separable_words(200, seed=33):
        _check_the_kept_pass(pi.word)


def test_a_non_separable_word_keeps_raising(merged_words):
    pi = Permutation((2, 4, 1, 3))
    assert not is_separable(pi)
    for route in (qint_exponents, qint_exponents, gf_below_recursive, gf_above_recursive, interval_sizes):
        with pytest.raises(NotSeparable, match="2413 is not separable"):
            route(pi)
    assert not is_separable(pi)
    assert merged_words == [(2, 4, 1, 3)]


def test_derived_permutations_start_without_a_merge_pass(merged_words):
    # 4132 is separable and 2413 is not; the words built from them
    # (1423, 2431, 1243, 3214, 3142, 3142) each run a pass of their own
    pi, tau = Permutation((4, 1, 3, 2)), Permutation((2, 4, 1, 3))
    assert is_separable(pi) and not is_separable(tau)
    derived = (pi.complement(), pi.inverse(), compose(pi, tau), compose(tau, pi), tau.complement(), tau.inverse())
    assert all(d._merged is None for d in derived)
    assert [is_separable(d) for d in derived] == [avoids_3142_and_2413(d) for d in derived]
    assert merged_words == [pi.word, tau.word, *(d.word for d in derived)]


def test_qint_exponents_fixtures_and_rejection():
    assert qint_exponents(Permutation((1,))) == []
    assert qint_exponents(identity(6)) == [0] * 5
    assert qint_exponents(longest_element(6)) == [1] * 5
    # 4132: [2] [4] below and [3] above, so the two multiply to [4]!
    assert qint_exponents(Permutation((4, 1, 3, 2))) == [1, 0, 1]
    assert qint_exponents(Permutation((4, 1, 3, 2)).complement()) == [0, 1, 0]
    with pytest.raises(NotSeparable, match="2413 is not separable"):
        qint_exponents(Permutation((2, 4, 1, 3)))


def test_separating_tree_root_split_fixtures():
    for word, sign, left_size in (
        ((4, 1, 3, 2), NEGATIVE, 1),
        ((1, 2, 3, 4), POSITIVE, 1),
        ((2, 1, 4, 3), POSITIVE, 2),
    ):
        root = separating_tree(Permutation(word))
        assert (root.sign, tree_size(root.left)) == (sign, left_size), word
    with pytest.raises(NotSeparable):
        separating_tree(Permutation((2, 4, 1, 3)))
    assert separating_tree(Permutation((1,))) == 1


def reference_tree(word, lo, hi, largest=False):
    """The separating tree by its top-down definition, for a block word
    holding the values lo..hi: the left subtree holds the smallest
    proper prefix (the largest with largest=True) whose letters fill a
    value range anchored at lo or at hi, and the sign is positive when
    it is anchored at lo.  None when some block has no such prefix."""
    if len(word) == 1:
        return word[0]
    sizes = range(len(word) - 1, 0, -1) if largest else range(1, len(word))
    for m in sizes:
        mn, mx = min(word[:m]), max(word[:m])
        if mx - mn + 1 != m:
            continue
        if mn == lo:
            sign, left, right = POSITIVE, (lo, lo + m - 1), (lo + m, hi)
        elif mx == hi:
            sign, left, right = NEGATIVE, (hi - m + 1, hi), (lo, hi - m)
        else:
            continue
        left = reference_tree(word[:m], *left, largest)
        right = reference_tree(word[m:], *right, largest)
        if left is None or right is None:
            return None
        return Internal(left, right, sign, len(word))
    return None


def preorder(root):
    """Signs of splits and letters of leaves, in preorder: they fix the
    tree, so two trees are equal when these are.  A loop, at any depth."""
    tokens, stack = [], [root]
    while stack:
        node = stack.pop()
        tokens.append(node if type(node) is int else node.sign)
        if type(node) is Internal:
            stack += (node.right, node.left)
    return tuple(tokens)


@pytest.mark.parametrize("n", range(1, 8))
def test_separating_tree_matches_its_top_down_definition(n):
    for pi in all_permutations(n):
        for largest in (False, True):
            expected = reference_tree(pi.word, 1, n, largest)
            if expected is None:
                with pytest.raises(NotSeparable, match=str(pi)):
                    separating_tree(pi, largest=largest)
            else:
                assert preorder(separating_tree(pi, largest=largest)) == preorder(expected), (pi, largest)


def test_separating_tree_of_long_words():
    # one loop over the letters, so no depth grows with the word; each
    # tree is a comb, whose every smallest (largest) prefix block is
    # the first letter (all letters but the last)
    for pi, sign in ((identity(5000), POSITIVE), (longest_element(5000), NEGATIVE)):
        for largest in (False, True):
            node = separating_tree(pi, largest=largest)
            for size in range(5000, 1, -1):
                assert (node.sign, node.size) == (sign, size)
                if largest:
                    assert node.right == pi.word[size - 1]
                    node = node.left
                else:
                    assert node.left == pi.word[5000 - size]
                    node = node.right
            assert node == (pi.word[0] if largest else pi.word[-1])
        root = separating_tree(pi)
        assert tree_text(root).count("leaf") == 5000
        assert tree_dot(root).count("->") == 2 * 4999
    # the JSON text grows with the square of the depth: 1,200 letters
    for pi, sign in ((identity(1200), POSITIVE), (longest_element(1200), NEGATIVE)):
        text = tree_json(separating_tree(pi))
        assert text.startswith(f'{{\n  "sign": "{sign}",\n  "children": [\n')
        assert text.count('"leaf"') == 1200 and text.count('"sign"') == 1199


def test_separating_tree_structure():
    root = separating_tree(Permutation((4, 2, 3, 1)))
    assert root.sign == "negative"
    assert root.right.sign == "negative"
    assert root.right.left.sign == "positive"
    leaves = (root.left, root.right.left.left, root.right.left.right, root.right.right)
    assert leaves == (4, 2, 3, 1)
    with pytest.raises(NotSeparable):
        separating_tree(Permutation((2, 4, 1, 3)))


def test_single_letter_tree():
    # the one-letter tree is its letter, and every route reads it so
    pi = Permutation((1,))
    root = separating_tree(pi)
    assert type(root) is int and root == 1
    assert separating_tree(pi, largest=True) == 1
    assert gf_below_closed(root) == ONE
    assert gf_above_closed(root) == ONE
    # tree_json and invert_phi read it in test_tree_json_is_laid_out_as_json_dumps[1]
    # and in test_bijection.py's test_invert_phi_round_trip[1]
    assert tree_text(root) == "leaf 1"
    assert tree_dot(root) == 'digraph separating_tree {\n  n0 [label="1" shape=plaintext];\n}'


def test_tree_equality_hashing_and_repr_do_not_recurse():
    # 3,000 levels, past the recursion limit: each tree is a comb, and
    # trees compare by their preorder tokens, read by a loop
    for pi, largest in ((identity(3000), False), (longest_element(3000), False), (longest_element(3000), True)):
        a, b = separating_tree(pi, largest=largest), separating_tree(pi, largest=largest)
        assert a is not b and preorder(a) == preorder(b)
    # the same letters and signs, split at the smallest or the largest prefix
    w0 = longest_element(3000)
    assert preorder(separating_tree(w0)) != preorder(separating_tree(w0, largest=True))
    assert preorder(separating_tree(identity(3000))) != preorder(separating_tree(w0))
    assert preorder(separating_tree(Permutation((2, 1)))) != preorder(separating_tree(Permutation((1, 2))))
    assert preorder(separating_tree(Permutation((2, 1)))) != preorder(1)


def test_tree_equality_and_hashing_read_tokens_not_text(monkeypatch):
    # the 3,000-level identity tree's text is 18 M characters; comparing
    # two trees must not build it
    def refuse(root):
        raise AssertionError("tree_text called")

    monkeypatch.setattr(separable, "tree_text", refuse)
    a, b = separating_tree(identity(3000)), separating_tree(identity(3000))
    assert preorder(a) == preorder(b)
    # flip one sign halfway down the comb: same letters and shape
    node = b
    for _ in range(1500):
        node = node.left if type(node.left) is Internal else node.right
    node.sign = NEGATIVE if node.sign == POSITIVE else POSITIVE
    assert preorder(a) != preorder(b)


def test_closed_formula_fixture_4231():
    # the tree contributes one quotient below and a bare factor above
    tree = separating_tree(Permutation((4, 2, 3, 1)))
    below = gf_below_closed(tree)
    above = gf_above_closed(tree)
    assert below == q_factorial(4).exact_div(q_factorial(2))
    assert below.coeffs == (1, 2, 3, 3, 2, 1)
    assert above == q_factorial(2)
    assert above.coeffs == (1, 1)


def test_recursive_fixture_4132():
    pi = Permutation((4, 1, 3, 2))
    assert gf_below_recursive(pi).coeffs == (1, 2, 2, 2, 1)
    assert gf_above_recursive(pi).coeffs == (1, 1, 1)


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_all_routes_agree(n):
    fact = q_factorial(n)
    for pi in separable_words(n):
        below = gf_below_recursive(pi)
        above = gf_above_recursive(pi)
        tree = separating_tree(pi)
        assert gf_below_closed(tree) == below
        assert gf_above_closed(tree) == above
        big = separating_tree(pi, largest=True)
        assert gf_below_closed(big) == below
        assert gf_above_closed(big) == above
        assert gf_above_from_complement(pi) == above
        assert below * above == fact


@pytest.mark.parametrize("n", range(1, 6))
def test_formulas_match_brute_force(n):
    e, w0 = identity(n), longest_element(n)
    for pi in separable_words(n):
        assert gf_below_recursive(pi) == rank_gf(interval(e, pi))
        assert gf_above_recursive(pi) == rank_gf(interval(pi, w0))


@pytest.mark.parametrize("n", range(1, 7))
def test_interval_sizes_match_brute_force(n):
    e, w0 = identity(n), longest_element(n)
    for pi in all_permutations(n):
        if not is_separable(pi):
            with pytest.raises(NotSeparable, match=str(pi)):
                interval_sizes(pi)
            continue
        assert interval_sizes(pi) == (interval(e, pi).size, interval(pi, w0).size)


def test_interval_sizes_of_long_words():
    # the counts need no polynomial, so they stay cheap far past any walk
    assert interval_sizes(longest_element(300)) == (factorial(300), 1)
    assert interval_sizes(identity(300)) == (1, factorial(300))
    pi = Permutation((*range(150, 0, -1), *range(151, 301)))
    assert interval_sizes(pi) == (factorial(150), factorial(300) // factorial(150))


def test_merge_pass_reads_words_past_the_recursion_limit():
    # one loop over the letters, so no depth grows with the word
    assert interval_sizes(identity(5000)) == (1, factorial(5000))
    assert gf_below_recursive(Permutation((2, 1, *range(3, 1201)))) == IntPoly((1, 1))
    assert is_separable(identity(5000))
    assert is_separable(longest_element(5000))
    assert not is_separable(Permutation((2, 4, 1, 3, *range(5, 5001))))


def test_block_recursion_leaves_no_reference_cycle():
    # the merge pass keeps its blocks on a local stack and returns a list
    # of exponent deltas; once a call returns, only reference counting
    # should be needed to free what it made
    pi = Permutation((4, 1, 3, 2, 7, 5, 6))
    gc.collect()
    gc.disable()
    try:
        gf_below_recursive(pi)
        assert gc.collect() == 0
        interval_sizes(pi)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nonseparable_rejected():
    for word in ((2, 4, 1, 3), (3, 1, 4, 2), (2, 4, 1, 3, 5)):
        with pytest.raises(NotSeparable):
            gf_below_recursive(Permutation(word))
        with pytest.raises(NotSeparable):
            gf_above_recursive(Permutation(word))


def test_gf_below_231_fixture():
    pi = Permutation((1, 4, 2, 3, 6, 5))
    got = gf_below_231(pi)
    assert got.coeffs == (1, 2, 2, 1)
    assert got == gf_below_recursive(pi)
    with pytest.raises(Not231Avoiding):
        gf_below_231(Permutation((2, 3, 1)))
    with pytest.raises(Not231Avoiding):
        gf_below_231(Permutation((2, 4, 1, 3)))


@pytest.mark.parametrize("n", range(1, 7))
def test_gf_below_231_matches_recursion(n):
    for pi in all_permutations(n):
        if not contains_pattern(pi, (2, 3, 1)):
            assert gf_below_231(pi) == gf_below_recursive(pi)


def _distance_product(word):
    # the repeated IntPoly product of q_int(c_i), c_i the distance from i to
    # the first larger letter to its right, or to one past the end
    n = len(word)
    value = ONE
    for i, a in enumerate(word):
        c = next((j for j in range(i + 1, n) if word[j] > a), n) - i
        value = value * q_int(c)
    return value


@pytest.mark.parametrize("n", range(1, 9))
def test_gf_below_231_is_the_repeated_q_int_product(n):
    avoiders = 0
    for pi in all_permutations(n):
        if avoids_231(pi.word):
            assert gf_below_231(pi) == _distance_product(pi.word), pi
            avoiders += 1
    assert avoiders == comb(2 * n, n) // (n + 1)  # the Catalan number


def _tree_dict(node):
    # the layout tree_json writes, built by recursion for json.dumps
    if type(node) is int:
        return {"leaf": node}
    return {"sign": node.sign, "children": [_tree_dict(node.left), _tree_dict(node.right)]}


@pytest.mark.parametrize("n", range(1, 8))
def test_tree_json_is_laid_out_as_json_dumps(n):
    for pi in separable_words(n):
        for largest in (False, True):
            root = separating_tree(pi, largest=largest)
            assert tree_json(root) == json.dumps(_tree_dict(root), indent=2), (pi, largest)


def test_tree_json_shape():
    data = json.loads(tree_json(separating_tree(Permutation((3, 1, 2)))))
    assert data["sign"] == "negative"
    left, right = data["children"]
    assert left == {"leaf": 3}
    assert right["sign"] == "positive"
    assert right["children"] == [{"leaf": 1}, {"leaf": 2}]


def test_tree_text_fixture():
    assert tree_text(separating_tree(Permutation((4, 2, 3, 1)))) == "\n".join([
        "negative",
        "  leaf 4",
        "  negative",
        "    positive",
        "      leaf 2",
        "      leaf 3",
        "    leaf 1",
    ])


def test_tree_dot_fixture():
    # nodes in preorder; each edge line follows its child's subtree
    assert tree_dot(separating_tree(Permutation((3, 1, 2)))) == "\n".join([
        "digraph separating_tree {",
        '  n0 [label="Negative Node"];',
        '  n1 [label="3" shape=plaintext];',
        "  n0 -> n1;",
        '  n2 [label="Positive Node"];',
        '  n3 [label="1" shape=plaintext];',
        "  n2 -> n3;",
        '  n4 [label="2" shape=plaintext];',
        "  n2 -> n4;",
        "  n0 -> n2;",
        "}",
    ])


def test_tree_dot_labels():
    dot = tree_dot(separating_tree(Permutation((4, 2, 3, 1))))
    assert dot.count('"Negative Node"') == 2
    assert dot.count('"Positive Node"') == 1
    assert dot.count("->") == 6  # two edges per internal node


@settings(max_examples=40)
@given(st.permutations(range(1, 7)))
def test_main_identity_on_random_words(word):
    pi = Permutation(word)
    if is_separable(pi):
        n = pi.size
        assert gf_below_recursive(pi) * gf_above_recursive(pi) == q_factorial(n)
    else:
        with pytest.raises(NotSeparable):
            separating_tree(pi)
