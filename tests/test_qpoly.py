"""Exact polynomial arithmetic and the q-analog zoo, checked against
independent oracles: inversion histograms computed by hand, the
defining product of cyclotomic polynomials, and Pascal-style
recurrences."""

import inspect
import sys
from itertools import permutations, zip_longest
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakbruhat.errors import NonzeroRemainder
from weakbruhat.perm import Permutation, all_permutations
from weakbruhat.qpoly import (
    ONE,
    IntPoly,
    _digits_fit,
    _expand,
    _orders_upto,
    cyclotomic,
    is_cyclotomic_product,
    q_binomial,
    q_factorial,
    q_int,
    qint_product,
)
from weakbruhat.separable import gf_below_recursive, is_separable, qint_exponents

ZERO = IntPoly()


def brute_inversion_histogram(n):
    counts = [0] * (n * (n - 1) // 2 + 1)
    for word in permutations(range(1, n + 1)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if word[i] > word[j])
        counts[inv] += 1
    return tuple(counts)


@pytest.mark.parametrize("n", range(1, 7))
def test_q_factorial_counts_inversions(n):
    assert q_factorial(n).coeffs == brute_inversion_histogram(n)


def test_q_factorial_is_a_loop_past_the_recursion_limit():
    # a cold cache and 30 frames of headroom: recursing once per letter
    # would pass the limit before n = 50
    plain = ONE
    for i in range(1, 51):
        plain = plain * q_int(i)
    q_factorial.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        got = q_factorial(50)
    finally:
        sys.setrecursionlimit(limit)
    assert got == plain


def test_q_factorial_frozen_s4():
    assert q_factorial(4).coeffs == (1, 3, 5, 6, 5, 3, 1)


def test_q_int_values():
    assert q_int(1) == ONE
    assert q_int(4).coeffs == (1, 1, 1, 1)
    assert q_int(0) == ZERO
    with pytest.raises(ValueError):
        q_int(-1)


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("m_frac", (0, 1, 2, 3))
def test_q_binomial_pascal(n, m_frac):
    m = min(m_frac, n)
    assert q_binomial(n, m) == q_binomial(n, n - m)
    assert q_binomial(n, m).evaluate(1) == comb(n, m)
    if 0 < m < n:
        low = q_binomial(n - 1, m - 1).coeffs
        high = (0,) * m + q_binomial(n - 1, m).coeffs
        assert q_binomial(n, m).coeffs == tuple(map(sum, zip_longest(low, high, fillvalue=0)))


def test_q_binomial_cached_value_is_exact_and_unshared():
    cached = q_binomial(9, 4)
    fresh = q_factorial(9).exact_div(q_factorial(4) * q_factorial(5))
    assert cached == fresh
    before = cached.coeffs
    _ = cached * cached * q_int(3) * cached
    assert q_binomial(9, 4) is cached
    assert cached.coeffs == before == fresh.coeffs


def test_expansion_is_the_factorial_quotient():
    # the quotient of q-factorials and products of q_int are the reference
    # routes; k >= 21 crosses the 64-bit slot
    for k in range(31):
        plain = ONE
        for i in range(1, k + 1):
            plain = plain * q_int(i)
        assert q_factorial(k) == qint_product([1] * (k - 1)) == plain, k
        for m in range(k + 1):
            quotient = q_factorial(k).exact_div(q_factorial(m) * q_factorial(k - m))
            exponents = [1 - (i <= m) - (i <= k - m) for i in range(2, k + 1)]
            assert q_binomial(k, m) == qint_product(exponents) == quotient, (k, m)


@pytest.mark.parametrize("width", (64, 67, 90))
def test_packed_binomial_is_the_factorial_quotient(width):
    # the Gaussian binomial packed at q = 2^width is the packed quotient of
    # q-factorials, at a slot at, just past and well past 64 bits
    for k in range(31):
        for m in range(k + 1):
            quotient = q_factorial(k).exact_div(q_factorial(m) * q_factorial(k - m))
            packed = q_binomial(k, m).packed(width)
            assert packed == quotient.packed(width), (k, m)
            assert IntPoly.from_packed(packed, width) == quotient, (k, m)


def test_expansion_width_is_taken_from_the_numerator():
    # [4]^40 has coefficients past a 64-bit slot (4^40 = 2^80 at q = 1), so
    # pack_width(4) alone would unpack it wrong; [4]^40 / [2]^40 = (1 + q^2)^40
    # has the same numerator, while every coefficient of the quotient fits
    power = ONE
    for _ in range(40):
        power = power * q_int(4)
    assert max(power.coeffs) >= 2**63
    assert qint_product([0, 0, 40]) == power
    plain = ONE
    for _ in range(40):
        plain = plain * IntPoly((1, 0, 1))
    assert max(plain.coeffs) < 2**63
    assert qint_product([-40, 0, 40]) == plain


def test_expansion_rejects_a_divisor_that_leaves_a_remainder():
    with pytest.raises(NonzeroRemainder):
        qint_product([1, -1])


def test_memo_answers_as_the_uncached_expansion():
    # both sides of every separable word of S_1..S_8, and every Gaussian
    # binomial up to k = 9: the memo's shared answer against a fresh one
    vectors = set()
    for n in range(1, 9):
        for pi in all_permutations(n):
            if is_separable(pi):
                g = qint_exponents(pi)
                vectors.update((tuple(g), tuple(1 - e for e in g)))
    for k in range(10):
        for m in range(k + 1):
            vectors.add(tuple(1 - (i <= m) - (i <= k - m) for i in range(2, k + 1)))
    for key in vectors:
        assert len(key) <= 8
        assert qint_product(key) == _expand.__wrapped__(key), key
        assert qint_product(list(key)) is qint_product(key), key


def test_memo_caches_no_remainder():
    # an exception is never cached: the second call expands and raises again
    for _ in range(2):
        with pytest.raises(NonzeroRemainder):
            qint_product([1, -1])


def test_memo_admits_at_most_8_exponents():
    assert _expand.cache_info().maxsize is not None
    qint_product([1] * 8)
    size = _expand.cache_info().currsize
    for key in ([1] * 9, [0] * 9, [-1, 0, 1, 0, 0, 0, 0, 0, 0], [1] * 20):
        assert qint_product(key) == _expand.__wrapped__(tuple(key)), key
        assert _expand.cache_info().currsize == size, key


def test_memo_keys_a_list_and_a_tuple_alike():
    for key in ([1, 0, 1], [-1, 0, 1], [1] * 8, [1] * 12):
        assert qint_product(key) == qint_product(tuple(key)) == qint_product(iter(key)), key


def test_a_long_skew_sum_takes_one_binomial():
    # 300,1,2,...,299 is one skew sum of 1 and 299 letters: [300, 1]
    pi = Permutation((300, *range(1, 300)))
    assert gf_below_recursive(pi) == q_int(300)


def test_q_binomial_rejects_bad_args():
    with pytest.raises(ValueError):
        q_binomial(3, 4)
    with pytest.raises(ValueError):
        q_binomial(3, -1)


@pytest.mark.parametrize("i", range(1, 25))
def test_cyclotomic_defining_product(i):
    product = ONE
    for d in range(1, i + 1):
        if i % d == 0:
            product = product * cyclotomic(d)
    assert product == IntPoly((-1,) + (0,) * (i - 1) + (1,))


def test_cyclotomic_shapes():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    for p in (2, 3, 5, 7, 11):
        assert cyclotomic(p).coeffs == (1,) * p
    # 105 is the first index with a coefficient of magnitude 2
    c105 = cyclotomic(105)
    assert c105.degree == 48
    assert min(c105.coeffs) == -2
    for d in range(2, 105):
        assert max(abs(c) for c in cyclotomic(d).coeffs) == 1


def test_exact_div_frozen_quotient():
    got = q_factorial(4).exact_div(q_factorial(2))
    assert got.coeffs == (1, 2, 3, 3, 2, 1)


def test_exact_div_rejects_remainder():
    with pytest.raises(NonzeroRemainder):
        q_factorial(3).exact_div(IntPoly((1, 1, 1, 1)))
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


def test_zero_polynomial_identities():
    assert ZERO.coeffs == ()
    assert ZERO.degree == -1
    assert not ZERO
    assert ZERO * q_factorial(3) == ZERO
    with pytest.raises(ValueError):
        ZERO.is_symmetric()
    with pytest.raises(ValueError):
        ZERO.is_unimodal()
    with pytest.raises(ValueError):
        ZERO.reverse()


def test_symmetry_and_unimodality():
    assert IntPoly((1, 2, 1)).is_symmetric()
    assert not IntPoly((1, 2, 2)).is_symmetric()
    assert IntPoly((1, 3, 3, 1)).is_unimodal()
    assert IntPoly((1, 1, 2, 1)).is_unimodal()
    assert not IntPoly((1, 2, 1, 2)).is_unimodal()
    with pytest.raises(ValueError):
        IntPoly((1, -1, 1)).is_unimodal()


def test_display_forms():
    assert str(ONE) == "1"
    assert str(IntPoly((1, 2, 0, 1))) == "1 + 2*q + q^3"
    assert str(IntPoly((-1, 1))) == "-1 + q"
    assert str(IntPoly((1, -1, 1))) == "1 - q + q^2"
    assert str(IntPoly((0, 1))) == "q"


def test_is_cyclotomic_product_accepts_q_analogs():
    assert is_cyclotomic_product(ONE)
    for n in range(2, 8):
        assert is_cyclotomic_product(q_factorial(n))
        assert is_cyclotomic_product(q_int(n))
    assert is_cyclotomic_product(q_binomial(6, 3) * q_int(5))
    # factors whose order exceeds the degree
    assert is_cyclotomic_product(q_int(6).exact_div(q_int(3)))
    assert is_cyclotomic_product(cyclotomic(12) * cyclotomic(3))


def test_candidate_orders_are_every_order_with_small_totient():
    # Euler's phi by a sieve over 1..2*D^2 + 1, the range that
    # phi(d) >= sqrt(d / 2) leaves for phi(d) <= D
    top = 150
    limit = 2 * top * top + 1
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    for degree in range(top + 1):
        expected = [d for d in range(1, 2 * degree * degree + 2) if phi[d] <= degree]
        orders = _orders_upto(degree)
        assert [d for d, _ in orders] == expected, degree
        assert all(t == phi[d] for d, t in orders), degree


def test_is_cyclotomic_product_at_high_degree():
    big = q_factorial(30)
    assert big.degree == 435
    assert is_cyclotomic_product(big)


def test_is_cyclotomic_product_rejects():
    assert not is_cyclotomic_product(IntPoly((1, 1, 0, 1)))  # not palindromic
    assert not is_cyclotomic_product(IntPoly((1, 2, 2, 3, 2, 2, 1)))  # value 13 at q=1
    assert not is_cyclotomic_product(IntPoly((1, 3, 1)))  # palindromic, value 5 needs order 5
    with pytest.raises(ValueError):
        is_cyclotomic_product(IntPoly((2,)))
    with pytest.raises(ValueError):
        is_cyclotomic_product(IntPoly((0, 1)))
    with pytest.raises(ValueError):
        is_cyclotomic_product(ZERO)


# -- the packed cyclotomic test --------------------------------------------
#
# is_cyclotomic_product divides packed integers and accepts a quotient
# when its digits pass a headroom test.  The reference below is the
# greedy long division it replaced, kept here and nowhere else.


def greedy_reference(p):
    """Divide each candidate order out to exhaustion by IntPoly.exact_div."""
    if p == ONE:
        return True
    if not p.is_symmetric():
        return False
    current = p
    for d, phi in _orders_upto(current.degree):
        while phi <= current.degree:
            try:
                current = current.exact_div(cyclotomic(d))
            except NonzeroRemainder:
                break
            if current == ONE:
                return True
    return current == ONE


def _product(factors):
    out = ONE
    for f in factors:
        out = out * f
    return out


@pytest.mark.parametrize("n", [*range(1, 8), pytest.param(8, marks=pytest.mark.slow)])
def test_packed_test_matches_long_division_on_every_gf(n, survey_records):
    for gf in {r.gf_below for r in survey_records(n)}:
        assert is_cyclotomic_product(gf) == greedy_reference(gf), gf


@st.composite
def cyclotomic_products(draw):
    """A product of Phi_d, d <= 120, of degree at most 120, with an even
    number of Phi_1 so that the constant term is 1."""
    orders = []
    degree = 0
    for d in draw(st.lists(st.integers(1, 120), min_size=1, max_size=6)):
        if degree + cyclotomic(d).degree <= 120:
            orders.append(d)
            degree += cyclotomic(d).degree
    if orders.count(1) % 2:
        orders.append(1)
    return orders


@settings(max_examples=60, deadline=None)
@given(cyclotomic_products())
def test_packed_test_accepts_products_of_cyclotomics(orders):
    p = _product(cyclotomic(d) for d in orders)
    assert is_cyclotomic_product(p), orders
    assert greedy_reference(p), orders


@settings(max_examples=40, deadline=None)
@given(cyclotomic_products(), st.data())
def test_packed_test_matches_long_division_on_near_misses(orders, data):
    p = _product(cyclotomic(d) for d in orders)
    if p.degree >= 2:
        # a palindromic change inside the ends keeps the early checks
        k = data.draw(st.integers(1, p.degree // 2), label="k")
        c = data.draw(st.sampled_from((-2, -1, 1, 2)), label="c")
        bump = [0] * (p.degree + 1)
        bump[k] += c
        bump[p.degree - k] += c
        miss = IntPoly(a + b for a, b in zip(p.coeffs, bump))
        assert is_cyclotomic_product(miss) == greedy_reference(miss), (orders, k, c)
    times = p * IntPoly((1, 3, 1))  # a palindromic factor of no cyclotomic
    assert not is_cyclotomic_product(times) and not greedy_reference(times), orders


def test_packed_test_with_phi_105():
    # Phi_105 is the first cyclotomic with a coefficient of magnitude 2
    for factors in ((105,), (105, 105), (105, 2, 3), (105, 1, 1), (105, 35, 15, 21)):
        p = _product(cyclotomic(d) for d in factors)
        assert is_cyclotomic_product(p), factors
        for c in (-1, 1):
            miss = IntPoly(x + (c if k in (5, p.degree - 5) else 0) for k, x in enumerate(p.coeffs))
            assert is_cyclotomic_product(miss) == greedy_reference(miss), (factors, c)


@pytest.mark.parametrize("m", (8, 7))
def test_quotient_outgrowing_the_headroom_falls_back_to_exact_div(monkeypatch, m):
    # (1 - q^m)^10 has coefficients up to 252, packed at 24 bits.  Phi_1's
    # coefficients sum to 2 in magnitude, so a quotient's digits may
    # reach 2^20 (b = 24 - 1 - 2 = 21).  Each Phi_1 removed grows the
    # quotient toward [m]^10, whose middle coefficient is past 2^22.  At
    # m = 7 a bound that left out Phi_1's norm (2^22) would fall back one
    # division later.
    p = _product([IntPoly((1,) + (0,) * (m - 1) + (-1,))] * 10)
    dividends = [p]  # p / Phi_1^k, until the quotient leaves [-2^20, 2^20)
    while all(-(2**20) <= c < 2**20 for c in dividends[-1].exact_div(cyclotomic(1)).coeffs):
        dividends.append(dividends[-1].exact_div(cyclotomic(1)))
    for d in range(1, 9):
        cyclotomic(d)  # warm, so only the test's own divisions are counted
    # a wide polynomial tested first must not lend p its slot width
    assert is_cyclotomic_product(q_factorial(24))
    calls = []
    exact_div = IntPoly.exact_div

    def counted(self, other):
        calls.append((self, other))
        return exact_div(self, other)

    monkeypatch.setattr(IntPoly, "exact_div", counted)
    assert is_cyclotomic_product(p)
    # one fallback, at the first quotient past the headroom; then the
    # quotient is repacked wide enough for the rest
    assert 1 < len(dividends) < 10
    assert calls == [(dividends[-1], cyclotomic(1))]
    monkeypatch.undo()
    assert greedy_reference(p)
    middle = IntPoly(c + (k == 5 * m) for k, c in enumerate(p.coeffs))
    assert not is_cyclotomic_product(middle) and not greedy_reference(middle)


@pytest.mark.parametrize("width, bits", [(8, 1), (8, 6), (16, 4), (24, 21), (64, 50), (80, 78)])
def test_headroom_test_at_its_edges(width, bits):
    half = 1 << (bits - 1)
    slots = 3

    def fits(digits):
        return _digits_fit(IntPoly(digits).packed(width), width, bits, slots)

    for k in range(slots):
        for edge in (-half, half - 1):  # a digit of exactly -2^(b-1), or the largest
            digits = [0] * slots
            digits[k] = edge
            assert fits(digits), (k, edge)
        for past in (half, -half - 1):  # one past either end
            digits = [0] * slots
            digits[k] = past
            assert not fits(digits), (k, past)
    # a quotient that needs one more slot, either sign
    assert not fits([0] * slots + [1])
    assert not fits([-half] * slots + [-1])
    assert fits([-half] * slots + [0])
    assert not _digits_fit(0, width, 0, slots)  # no room at all: the fallback


@settings(max_examples=300)
@given(st.data())
def test_headroom_test_matches_the_digits(data):
    width = 8 * data.draw(st.integers(1, 10), label="bytes")
    bits = data.draw(st.integers(1, width - 2), label="bits")
    slots = data.draw(st.integers(1, 6), label="slots")
    half, top = 1 << (bits - 1), 1 << (width - 1)
    digit = st.one_of(
        st.sampled_from((-half - 1, -half, half - 1, half, 0, -1)),
        st.integers(-top, top - 1),
    )
    digits = data.draw(st.lists(digit, max_size=slots + 2), label="digits")
    want = all(-half <= c < half for c in digits[:slots]) and not any(digits[slots:])
    assert _digits_fit(IntPoly(digits).packed(width), width, bits, slots) == want


coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=8)


@given(coeff_lists, coeff_lists, st.integers(min_value=-5, max_value=5))
def test_arithmetic_matches_evaluation(a, b, x):
    f, g = IntPoly(a), IntPoly(b)
    assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)


@given(coeff_lists, coeff_lists)
def test_exact_div_inverts_multiplication(a, b):
    f, g = IntPoly(a), IntPoly(b)
    if g:
        assert (f * g).exact_div(g) == f


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8).filter(lambda c: c[0] != 0 and c[-1] != 0))
def test_reverse_is_an_involution(c):
    p = IntPoly(c)
    assert p.reverse().reverse() == p


# -- packed products --------------------------------------------------------
#
# IntPoly.__mul__ multiplies two packed integers (Kronecker substitution)
# and reads the product back as signed slots.  The reference below is the
# schoolbook double loop, kept here and nowhere else.


def schoolbook(a, b):
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


big_coeff_lists = st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=40)


@settings(max_examples=300)
@given(big_coeff_lists, big_coeff_lists)
def test_mul_matches_schoolbook(a, b):
    f, g = IntPoly(a), IntPoly(b)
    assert (f * g).coeffs == schoolbook(f.coeffs, g.coeffs)


@st.composite
def factors_at_slot_edge(draw):
    """Two factors whose product has coefficients of magnitude equal to
    the bound the slot width is chosen from, max|a| * max|b| * min(len),
    with that bound a power of two or one less: a coefficient at the
    top of its slot, either sign, beside a slot that may borrow from it."""
    length = draw(st.sampled_from((1, 2, 4, 8, 16, 32)))
    k = draw(st.integers(1, 100))
    if draw(st.booleans()):
        m = 2**k  # bound 2^(k + log2 length)
    else:
        m, length = 2**k - 1, 1  # bound 2^k - 1, the largest value of k bits
    sign_a = draw(st.sampled_from((1, -1)))
    a = [sign_a * m] * length
    b = [draw(st.sampled_from((1, -1)))] * draw(st.integers(length, 40))
    if draw(st.booleans()):  # an alternating factor borrows in every slot
        a = [c if i % 2 == 0 else -c for i, c in enumerate(a)]
    return a, b


@settings(max_examples=300)
@given(factors_at_slot_edge())
def test_mul_exact_at_the_slot_edge(factors):
    a, b = factors
    want = schoolbook(a, b)
    assert (IntPoly(a) * IntPoly(b)).coeffs == want
    assert (IntPoly(b) * IntPoly(a)).coeffs == want


def test_from_packed_rejects_one_bit_slots():
    with pytest.raises(ValueError):
        IntPoly.from_packed(1, 1)


def test_mul_fixtures_with_negative_coefficients():
    assert IntPoly((-1, 1)) * IntPoly((1, 1)) == IntPoly((-1, 0, 1))
    assert cyclotomic(1) * cyclotomic(2) * cyclotomic(4) == IntPoly((-1, 0, 0, 0, 1))
    assert IntPoly((-1,)) * IntPoly((-1,)) == ONE
    assert IntPoly((0, -(2**64))) * IntPoly((2**64,)) == IntPoly((0, -(2**128)))


@given(
    st.integers(2, 80).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.lists(
                st.one_of(
                    st.integers(-(2 ** (w - 1)), 2 ** (w - 1) - 1),
                    st.sampled_from((-(2 ** (w - 1)), 2 ** (w - 1) - 1, -1)),
                ),
                max_size=40,
            ),
        )
    )
)
def test_packed_round_trip(width_coeffs):
    width, coeffs = width_coeffs
    p = IntPoly(coeffs)
    assert p.packed(width) == p.evaluate(2**width)
    assert IntPoly.from_packed(p.packed(width), width) == p



# -- 64-bit slots -------------------------------------------------------------
#
# At width 64 (pack_width for n <= 20: le_gf and the block recursion)
# from_packed reads all slots at once as machine words when none of them
# borrowed, and otherwise takes the signed loop.


def _assert_round_trip(coeffs, width):
    p = IntPoly(coeffs)
    got = IntPoly.from_packed(p.packed(width), width)
    assert got == p
    assert type(got.coeffs) is tuple and (not got.coeffs or got.coeffs[-1] != 0)
    assert all(type(c) is int for c in got.coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [
        (),
        (1,),
        (0, 0, 7),
        (2**63 - 1,),
        (2**63 - 1, 0, 2**63 - 1),
        (-(2**63),),  # a negative value: the loop
        (1, -(2**63), 1),  # a slot that borrows: the loop
        (-1, 0, 1),
        (2**63 - 1, -(2**63), 2**63 - 1, -(2**63)),
        tuple(range(1, 30)),
    ],
)
def test_from_packed_at_64_bits(coeffs):
    _assert_round_trip(coeffs, 64)


@settings(max_examples=300)
@given(st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1),
                          st.sampled_from((0, 1, -1, 2**63 - 1, -(2**63)))), max_size=40))
def test_from_packed_at_64_bits_matches_any_slot_list(coeffs):
    _assert_round_trip(coeffs, 64)


@pytest.mark.parametrize("width", [65, 67])  # pack_width past n = 20
@given(data=st.data())
def test_from_packed_past_64_bits(width, data):
    half = 2 ** (width - 1)
    coeffs = data.draw(st.lists(st.one_of(st.integers(-half, half - 1),
                                          st.sampled_from((-half, half - 1, 2**63))),
                                max_size=30))
    _assert_round_trip(coeffs, width)
