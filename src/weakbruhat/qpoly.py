"""Exact integer polynomials in one variable q, plus the classical
q-analogs built from them: q-integers, q-factorials, Gaussian binomial
coefficients and cyclotomic polynomials.

Everything here is exact arithmetic over the integers.  Division is
offered only in exact form: IntPoly.exact_div raises NonzeroRemainder
when the divisor does not divide, so a try/except around it doubles as
the divisibility test used elsewhere in the package.

Products go through packed integers (Kronecker substitution): at
q = 2^width a polynomial is one int with a signed slot per coefficient,
so one int product multiplies two polynomials whose product fits the
slots.  le_gf, and qint_product's prod [i]^(e_i) over a list e_2..e_n
(the block recursion, the 231 distance product, q_factorial, q_binomial),
compute on such ints.  An LRU memo of 4096 entries keeps the expansion
of each tuple of at most 8 exponents (n <= 9, degree <= 36), which the
exhaustive routes repeat; the long word of a query keeps none.

The cyclotomic-product test packs each polynomial once, at its own
slot width: whole bytes with 16 bits of room above the largest
coefficient.  It tries each order d with one divmod by the packed Phi_d,
memoized per (order, slot width).  A nonzero remainder rules Phi_d out; a
zero one is accepted when the quotient's digits pass a headroom test,
which proves the division exact over Z[q] (the argument is in
is_cyclotomic_product's docstring).  A quotient that fails it is
divided again by IntPoly.exact_div.

>>> print(q_factorial(3))
1 + 2*q + 2*q^2 + q^3
>>> print(q_binomial(4, 2))
1 + q + 2*q^2 + q^3 + q^4
>>> print(cyclotomic(6))
1 - q + q^2
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import factorial, prod
from typing import Iterable

from .errors import NonzeroRemainder


class IntPoly:
    """Dense polynomial with integer coefficients.

    coeffs[k] holds the coefficient of q^k.  Trailing zeros are stripped
    on construction, so equal polynomials compare equal as tuples.  The
    zero polynomial has an empty coefficient tuple and degree -1.

    >>> IntPoly((1, 2, 0, 0)).coeffs
    (1, 2)
    >>> IntPoly((1, 1)) * IntPoly((1, 1))
    IntPoly((1, 2, 1))
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        # every coefficient of the product is a sum of at most min(len)
        # terms, each at most max|a| * max|b| in size
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        width = bound.bit_length() + 1
        return IntPoly.from_packed(self.packed(width) * other.packed(width), width)

    def packed(self, width: int) -> int:
        """The value at q = 2^width: one width-bit slot per coefficient.

        >>> IntPoly((1, -1, 2)).packed(8)
        130817
        """
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc << width) + c
        return acc

    @classmethod
    def from_packed(cls, value: int, width: int) -> "IntPoly":
        """Inverse of packed, each slot read as signed: every coefficient
        must lie in [-2^(width-1), 2^(width-1)).

        >>> IntPoly.from_packed(130817, 8)
        IntPoly((1, -1, 2))
        """
        if width < 2:  # a one-bit signed slot holds only -1 and 0
            raise ValueError(f"slot width must be at least 2, got {width}")
        if width == 64 and value > 0:
            # all slots at once, as unsigned machine words; they are the
            # coefficients unless one is negative, and so borrowed.  The
            # top slot is nonzero, as bit_length sized the bytes.
            size = 8 * ((value.bit_length() + 63) >> 6)
            slots = tuple(memoryview(value.to_bytes(size, sys.byteorder)).cast("Q"))
            if max(slots) < 1 << 63:
                poly = object.__new__(cls)
                poly.coeffs = slots
                return poly
        mask = (1 << width) - 1
        half = 1 << (width - 1)
        coeffs = []
        while value:
            c = value & mask
            value >>= width
            if c >= half:  # a negative coefficient borrowed from the next slot
                c -= mask + 1
                value += 1
            coeffs.append(c)
        return cls(coeffs)

    def evaluate(self, x: int) -> int:
        """Value at an integer point, by Horner's rule.

        >>> q_factorial(4).evaluate(1)
        24
        """
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_div(self, other: "IntPoly") -> "IntPoly":
        """Quotient self/other when the division is exact over Z[q].

        Raises NonzeroRemainder otherwise, so this is also the
        divisibility test.

        >>> print(q_factorial(4).exact_div(q_factorial(2)))
        1 + 2*q + 3*q^2 + 3*q^3 + 2*q^4 + q^5
        >>> q_factorial(3).exact_div(IntPoly((0, 1)))
        Traceback (most recent call last):
            ...
        weakbruhat.errors.NonzeroRemainder: remainder is not zero
        """
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return IntPoly()
        num = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        lead = den[-1]
        if len(num) - 1 < dd:
            raise NonzeroRemainder("remainder is not zero")
        quot = [0] * (len(num) - dd)
        for k in range(len(quot) - 1, -1, -1):
            c = num[dd + k]
            if c % lead:
                raise NonzeroRemainder("remainder is not zero")
            f = c // lead
            quot[k] = f
            if f:
                for j, dj in enumerate(den):
                    num[k + j] -= f * dj
        if any(num):
            raise NonzeroRemainder("remainder is not zero")
        return IntPoly(quot)

    def reverse(self) -> "IntPoly":
        """Coefficient sequence read backwards (q^deg * p(1/q)).

        >>> IntPoly((1, 1, 2)).reverse()
        IntPoly((2, 1, 1))
        """
        if not self:
            raise ValueError("reverse of the zero polynomial is undefined")
        return IntPoly(reversed(self.coeffs))

    def is_symmetric(self) -> bool:
        """True when the coefficient sequence is palindromic."""
        if not self:
            raise ValueError("symmetry of the zero polynomial is undefined")
        return self.coeffs == tuple(reversed(self.coeffs))

    def is_unimodal(self) -> bool:
        """True when coefficients rise (weakly) then fall (weakly).

        Only defined for nonzero polynomials with nonnegative
        coefficients; anything else is rejected.
        """
        if not self:
            raise ValueError("unimodality of the zero polynomial is undefined")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("unimodality requires nonnegative coefficients")
        descended = False
        for prev, nxt in zip(self.coeffs, self.coeffs[1:]):
            if nxt < prev:
                descended = True
            elif nxt > prev and descended:
                return False
        return True

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)


ONE = IntPoly((1,))


@lru_cache(maxsize=None)
def pack_width(n: int) -> int:
    """Slot width for generating functions of posets on n elements and
    intervals of S_n: a coefficient counts at most n! extensions or
    elements, so it stays below the sign bit.  At least 64, so every
    n <= 20 shares one width and the tables keyed on it.

    >>> pack_width(8), pack_width(21)
    (64, 67)
    """
    return max(64, factorial(n).bit_length() + 1)


def q_int(i: int) -> IntPoly:
    """The q-integer [i] = 1 + q + ... + q^(i-1); [0] = 0.

    >>> print(q_int(4))
    1 + q + q^2 + q^3
    """
    if i < 0:
        raise ValueError(f"q_int of negative {i}")
    return IntPoly([1] * i)


@lru_cache(maxsize=None)
def _packed_qint(i: int, width: int) -> int:
    """[i] at q = 2^width: a 1 in each of its i slots."""
    return ((1 << width * i) - 1) // ((1 << width) - 1)


def _pairwise_prod(values: list[int]) -> int:
    while len(values) > 8:  # adjacent factors multiply in pairs, level by level
        values = [a * b for a, b in zip(values[::2], values[1::2])] + values[len(values) & ~1 :]
    return prod(values)


def qint_product(exponents: Iterable[int]) -> IntPoly:
    """prod [i]^(e_i) with e_i = exponents[i - 2], a polynomial with nonnegative
    coefficients as a generating function is; _expand's memo keeps it for at most
    8 exponents, and a longer vector is expanded on every call.

    >>> print(qint_product([-1, 0, 1]))  # [4] / [2]
    1 + q^2
    """
    key = tuple(exponents)
    return (_expand if len(key) <= 8 else _expand.__wrapped__)(key)


@lru_cache(maxsize=4096)
def _expand(exponents: tuple[int, ...]) -> IntPoly:
    """qint_product's expansion: packed powers of [i] multiplied (pairwise past
    8), divided once by the negative ones, unpacked.  A coefficient of a partial
    product or of the result is at most prod i^e_i over e_i > 0, the numerator
    at q = 1, so slots one bit wider, and at least pack_width of the largest i,
    never spill; a remainder raises NonzeroRemainder, which is never cached."""
    top = prod([i**e for i, e in enumerate(exponents, 2) if e > 0])  # the numerator at q = 1
    width = max(pack_width(len(exponents) + 1), top.bit_length() + 1)
    up = [_packed_qint(i, width) ** e for i, e in enumerate(exponents, 2) if e > 0]
    down = [_packed_qint(i, width) ** -e for i, e in enumerate(exponents, 2) if e < 0]
    value, rem = divmod(_pairwise_prod(up), _pairwise_prod(down))
    if rem:
        raise NonzeroRemainder("remainder is not zero")
    return IntPoly.from_packed(value, width)


@lru_cache(maxsize=None)
def q_factorial(n: int) -> IntPoly:
    """[n]! = [1][2]...[n], the generating function of S_n by inversions.

    >>> q_factorial(0)
    IntPoly((1,))
    >>> q_factorial(3).evaluate(1)
    6
    """
    if n < 0:
        raise ValueError(f"q_factorial of negative {n}")
    return qint_product([1] * (n - 1))


@lru_cache(maxsize=None)
def q_binomial(n: int, m: int) -> IntPoly:
    """Gaussian binomial [n]!/([m]![n-m]!): [i] to the power 1 - [i <= m] - [i <= n-m].

    >>> print(q_binomial(3, 1))
    1 + q + q^2
    >>> q_binomial(2, 3)
    Traceback (most recent call last):
        ...
    ValueError: q_binomial requires 0 <= m <= n, got n=2 m=3
    """
    if not 0 <= m <= n:
        raise ValueError(f"q_binomial requires 0 <= m <= n, got n={n} m={m}")
    return qint_product([1 - (i <= m) - (i <= n - m) for i in range(2, n + 1)])


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, by dividing q^d - 1 through by
    the cyclotomics of the proper divisors of d.  Results are cached.

    >>> print(cyclotomic(1))
    -1 + q
    >>> print(cyclotomic(12))
    1 - q^2 + q^4
    """
    if d < 1:
        raise ValueError(f"cyclotomic index must be positive, got {d}")
    p = IntPoly([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            p = p.exact_div(cyclotomic(e))
    return p


@lru_cache(maxsize=None)
def _orders_upto(degree: int) -> tuple[tuple[int, int], ...]:
    """Every (d, phi(d)) with phi(d) <= degree, ascending in d.

    Any cyclotomic factor of p has phi(d) = deg(cyclotomic(d)) <= deg(p).
    A prime r dividing d puts the factor r - 1 into phi(d), so d is a
    product of powers of the primes r <= degree + 1; each branch of the
    search stops as soon as phi would pass degree.

    >>> _orders_upto(2)
    ((1, 1), (2, 1), (3, 2), (4, 2), (6, 2))
    """
    bound = degree + 1
    is_prime = [True] * (bound + 1)
    primes = []
    for r in range(2, bound + 1):
        if is_prime[r]:
            primes.append(r)
            for k in range(r * r, bound + 1, r):
                is_prime[k] = False
    out = []

    def extend(d: int, phi: int, start: int) -> None:
        out.append((d, phi))
        for i in range(start, len(primes)):
            r = primes[i]
            phi_r = phi * (r - 1)
            if phi_r > degree:
                break  # r - 1 only grows along the primes
            d_r = d * r
            while phi_r <= degree:
                extend(d_r, phi_r, i + 1)
                d_r *= r
                phi_r *= r

    if degree >= 1:
        extend(1, 1, 0)
    return tuple(sorted(out))


def _slot_width(coeffs: tuple[int, ...]) -> int:
    """Whole bytes, with at least 16 bits of room above the largest
    coefficient.

    >>> _slot_width((1, 3836, 1)), _slot_width((1, 2**60, 1))
    (32, 80)
    """
    return 8 * ((max(map(abs, coeffs)).bit_length() + 23) // 8)


def _digits_fit(value: int, width: int, bits: int, slots: int) -> bool:
    """True when value = sum of c_k 2^(width*k) over k < slots with every
    c_k in [-2^(bits-1), 2^(bits-1)): adding 2^(bits-1) to every slot
    must leave each slot below 2^bits and nothing above the top slot.

    >>> _digits_fit(IntPoly((-8, 7, 0)).packed(16), 16, 4, 3)
    True
    >>> _digits_fit(IntPoly((-9, 7, 0)).packed(16), 16, 4, 3)
    False
    """
    if bits < 1:
        return False
    size = width // 8
    offset = int.from_bytes((1 << (bits - 1)).to_bytes(size, "little") * slots, "little")
    high = int.from_bytes(((1 << width) - (1 << bits)).to_bytes(size, "little") * slots, "little")
    shifted = value + offset
    return not shifted & high and not shifted >> (width * slots)


@lru_cache(maxsize=None)
def _packed_cyclotomic(d: int, width: int) -> tuple[int, int]:
    """Phi_d at q = 2^width, and the bit length of the sum of the
    magnitudes of its coefficients.

    >>> _packed_cyclotomic(6, 8)
    (65281, 2)
    """
    phi = cyclotomic(d)
    return phi.packed(width), sum(map(abs, phi.coeffs)).bit_length()


def is_cyclotomic_product(p: IntPoly) -> bool:
    """True when p is a product of cyclotomic polynomials.

    Requires a nonzero polynomial with constant term 1.  Each candidate
    order d, ascending, is divided out to exhaustion; by unique
    factorization over Z[q] the order of removal cannot change the
    outcome.

    The divisions run on one packed integer: N = cur(x) at x = 2^w, w a
    whole number of bytes with at least 16 bits of room above p's
    largest coefficient, so every coefficient of cur is below 2^(w-2)
    in magnitude.  Each try is one divmod(N, Phi_d(x)).
    - A nonzero remainder proves Phi_d does not divide cur: cur = Q*Phi_d
      in Z[q] would give N = Q(x)*Phi_d(x).
    - A zero remainder gives Qv = N / Phi_d(x).  Let Q be the polynomial
      of Qv's balanced base-x digits, and b = w - 1 - bit_length(L),
      where L is the sum of |coefficients| of Phi_d.  If every digit of
      Q lies in [-2^(b-1), 2^(b-1)), then every coefficient of Q*Phi_d
      is below 2^(b-1) * L < 2^(w-2) in magnitude, so R = cur - Q*Phi_d
      has every coefficient below 2^(w-1) in magnitude, and R(x) = 0.
      The lowest nonzero coefficient of such an R would be divisible
      by x, so R = 0: Phi_d divides cur, the quotient is Q, and its
      digits keep the bound for the next try.  Otherwise (rare) the
      division is redone by IntPoly.exact_div on cur, unpacked, and the
      quotient repacked at a width fit for it.
    cur is 1 exactly when N == 1.

    >>> is_cyclotomic_product(q_binomial(4, 2))
    True
    >>> is_cyclotomic_product(IntPoly((1, 1, 0, 1)))
    False
    """
    if not p:
        raise ValueError("zero polynomial")
    if p.coeffs[0] != 1:
        raise ValueError("constant term must be 1")
    if p == ONE:
        return True
    # A cyclotomic product with constant term 1 contains an even number
    # of q-1 factors and is therefore palindromic; reject early.
    if not p.is_symmetric():
        return False
    degree = p.degree
    width = _slot_width(p.coeffs)
    value = p.packed(width)
    # orders for the degree rounded up to a power of two, so that few
    # lists are kept; the loop skips the entries with too large a phi(d)
    for d, phi in _orders_upto(1 << (degree - 1).bit_length()):
        while phi <= degree:
            phi_value, norm_bits = _packed_cyclotomic(d, width)
            quot, rem = divmod(value, phi_value)
            if rem:
                break
            if _digits_fit(quot, width, width - 1 - norm_bits, degree - phi + 1):
                value = quot
            else:
                try:
                    cur = IntPoly.from_packed(value, width).exact_div(cyclotomic(d))
                except NonzeroRemainder:
                    break
                width = _slot_width(cur.coeffs)
                value = cur.packed(width)
            degree -= phi
            if value == 1:
                return True
    return False
