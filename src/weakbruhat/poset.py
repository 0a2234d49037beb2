"""Finite posets on 1..n.

The poset of inversions of a permutation lives here, together with the
two combinators (disjoint union, ordinal sum) and the linear extension
machinery: explicit enumeration, the generating function by inversions
of the extension word, the generating function by descents, and order
polynomial values.

The strict order relation is stored transitively closed, one bitmask
per element (bit b - 1 of mask a - 1 set when a < b), so comparisons
are O(1) and the extension walks are cheap.  Nothing else is stored,
and every walk uses one minimality test: an element of a set is minimal
when it lies in no successor mask of the set's elements.  `_le_packed`,
the survey's hot path, and `_extension_words` walk the set bits inline,
as the `_bits` generator is slower there.

`le_gf` deletes one minimal element at a time (Bjorner-Wachs, "Permutation
statistics and linear extensions of posets", 1991).  Deleting the
minimal letter e from an inversion poset P(pi) leaves the inversion
poset of pi with e deleted, renumbered, so the words of S_n share their
sub-posets; the small ones are kept in one table that all calls share.
Posets of at most 8 points recurse on byte rows, one mask per byte, and
delete an element with one bytes.translate; larger ones on tuple rows.
The generating functions are packed integers, one slot per coefficient,
through qpoly's pack_width and IntPoly.from_packed.
"""

from __future__ import annotations

from functools import cache
from math import factorial
from typing import Iterable, Iterator

from .errors import GuardExceeded
from .perm import Permutation
from .qpoly import IntPoly, pack_width

SIZE_GUARD = 10  # linear extension work is exponential beyond this
OP_SIZE_GUARD = 8


class Poset:
    """Strict partial order on 1..n.

    >>> p = Poset(3, [(1, 2), (2, 3)])
    >>> p.less(1, 3)
    True
    >>> p.covers()
    ((1, 2), (2, 3))
    """

    __slots__ = ("_gt",)

    def __init__(self, n: int, relations: Iterable[tuple[int, int]] = ()):
        if n < 1:
            raise ValueError(f"poset size must be positive, got {n}")
        gt = [0] * n
        for a, b in relations:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"relation ({a}, {b}) leaves 1..{n}")
            if a == b:
                raise ValueError(f"reflexive relation ({a}, {b})")
            gt[a - 1] |= 1 << (b - 1)
        # transitive closure, one Warshall pass: each element below k
        # is also below everything above k
        for k in range(n):
            bit, up = 1 << k, gt[k]
            for i in range(n):
                if gt[i] & bit:
                    gt[i] |= up
        for i in range(n):
            if gt[i] >> i & 1:
                raise ValueError("relations contain a cycle")
        self._gt = tuple(gt)

    @classmethod
    def _from_closed_masks(cls, gt: tuple[int, ...]) -> "Poset":
        """Trusted constructor: gt must already be an irreflexive,
        transitively closed relation on 1..len(gt), one mask per element."""
        p = cls.__new__(cls)
        p._gt = gt
        return p

    @property
    def size(self) -> int:
        return len(self._gt)

    def less(self, a: int, b: int) -> bool:
        if not (1 <= a <= self.size and 1 <= b <= self.size):
            raise ValueError(f"({a}, {b}) leaves 1..{self.size}")
        return self._gt[a - 1] >> (b - 1) & 1 == 1

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse diagram edges (a, b) with a covered by b."""
        gt = self._gt
        out = []
        for i, above in enumerate(gt):
            via = 0
            for j in _bits(above):
                via |= gt[j]
            out.extend((i + 1, j + 1) for j in _bits(above & ~via))
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poset) and self._gt == other._gt

    def __hash__(self) -> int:
        return hash(self._gt)

    def __repr__(self) -> str:
        return f"Poset({self.size}, {list(self.covers())!r})"


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def inversion_poset(pi: Permutation) -> Poset:
    """Order the letters of pi by: a before b in the word and a < b.

    The linear extensions of this poset, weighted by inversions of the
    extension word, give the rank generating function of the interval
    from the identity up to pi.

    >>> inversion_poset(Permutation((3, 4, 1, 2, 5))).covers()
    ((1, 2), (2, 5), (3, 4), (4, 5))
    """
    # The relation is transitively closed as it stands (a before b
    # before c with a < b < c puts a before c with a < c), so one pass
    # from the right gives each letter the larger letters after it.
    gt = [0] * pi.size
    seen = 0
    for a in reversed(pi.word):
        gt[a - 1] = seen >> a << a
        seen |= 1 << (a - 1)
    return Poset._from_closed_masks(tuple(gt))


def disjoint_union(p: Poset, q: Poset) -> Poset:
    """Side-by-side union, q's elements numbered after p's."""
    return Poset._from_closed_masks(p._gt + tuple([m << p.size for m in q._gt]))


def ordinal_sum(p: Poset, q: Poset) -> Poset:
    """Disjoint union plus every element of p below every element of q."""
    above = ((1 << q.size) - 1) << p.size
    return Poset._from_closed_masks(
        tuple([m | above for m in p._gt]) + tuple([m << p.size for m in q._gt])
    )


def _check_size(p: Poset, force: bool, limit: int = SIZE_GUARD) -> None:
    if p.size > limit and not force:
        raise GuardExceeded(
            f"poset size {p.size} exceeds the guard ({limit}); "
            "pass force=True (--force) to override"
        )


def _extension_words(p: Poset) -> Iterator[tuple[int, ...]]:
    """Backtracking enumeration, candidates tried in ascending value
    order so the output stream is lexicographically sorted."""
    gt = p._gt
    word: list[int] = []

    def walk(rem: int) -> Iterator[tuple[int, ...]]:
        # rem is the unplaced set; its minimal elements lie above none of it
        if not rem:
            yield tuple(word)
            return
        above = 0
        t = rem
        while t:
            b = t & -t
            t ^= b
            above |= gt[b.bit_length() - 1]
        t = rem & ~above
        while t:
            b = t & -t
            t ^= b
            word.append(b.bit_length())
            yield from walk(rem ^ b)
            word.pop()

    return walk((1 << p.size) - 1)


def linear_extensions(p: Poset, force: bool = False) -> list[Permutation]:
    """All linear extensions as permutations, lexicographically sorted."""
    _check_size(p, force)
    return [Permutation(w) for w in _extension_words(p)]


# Packed generating functions of the sub-posets with at most
# _SHARED_MAX elements, keyed on their closed masks as bytes (a call's
# own table keys up to 8 masks as bytes, more as tuples) and shared by
# every le_gf call in the process.  Their slots are _SHARED_WIDTH bits
# wide, so calls on posets with pack_width(n) > _SHARED_WIDTH (n > 20)
# leave the table alone.  Sub-posets of size one or less are not stored,
# so filled by inversion posets alone (the survey, the CLI) it holds at
# most _SHARED_BOUND = 2! + 3! + ... + 7! = 5,912 entries.  Other posets
# could grow it toward the millions of posets on at most 7 points, so
# le_gf clears it before a call that finds it past that bound.
_SHARED_MAX = 7
_SHARED_WIDTH = pack_width(_SHARED_MAX)
_SHARED_BOUND = sum(factorial(k) for k in range(2, _SHARED_MAX + 1))
_shared_le: dict[bytes, int] = {}
# _DEL[i] maps a byte mask to that mask with bit i deleted, higher bits shifted down
_DEL = tuple(bytes([(m & (1 << i) - 1) | (m >> i + 1 << i) for m in range(256)]) for i in range(8))


def _le_packed(gt: bytes | tuple[int, ...], width: int, local: dict, shared: dict) -> int:
    # le(P) = sum over minimal e of q^(e-1) * le(std(P - e)): placing
    # the minimal element e first inverts it with the e-1 smaller
    # elements still unplaced.  A minimal element has no bit in any
    # mask, so dropping bit i shifts the higher bits down by one.
    # The survey spends most of its time here, so the set bits are
    # walked inline, not through the _bits generator.
    n = len(gt)
    if n < 2:
        return 1
    memo = shared if n <= _SHARED_MAX else local
    got = memo.get(gt)
    if got is not None:
        return got
    above = 0
    for m in gt:
        above |= m
    acc = 0
    sub_memo = shared if n - 1 <= _SHARED_MAX else local
    t = ((1 << n) - 1) & ~above
    while t:
        b = t & -t
        t ^= b
        i = b.bit_length() - 1
        rest = gt[:i] + gt[i + 1 :]
        if type(rest) is bytes:
            sub = rest.translate(_DEL[i])
        else:
            low = b - 1
            sub = tuple([(m & low) | (m >> (i + 1) << i) for m in rest])
            if n == 9:
                sub = bytes(sub)
        got = sub_memo.get(sub)  # a hit costs no call
        if got is None:
            got = _le_packed(sub, width, local, shared)
        acc += got << (width * i)
    memo[gt] = acc
    return acc


def le_gf(p: Poset, force: bool = False) -> IntPoly:
    """Generating function of linear extensions by inversions of the
    extension word.

    Deletes one minimal element at a time: le(P) is the sum over the
    minimal elements e of q^(e-1) le(std(P - e)), where std renumbers
    the remaining elements 1..n-1 in order.  Each polynomial is packed
    into one integer, a slot per coefficient.  Sub-posets with at most
    seven elements are remembered across calls in the shared table,
    which is emptied when it holds more than the 5,912 entries that
    inversion posets can fill; larger ones only for the length of the
    call, so a call keeps at most one entry per order filter of p.

    >>> print(le_gf(Poset(3)))
    1 + 2*q + 2*q^2 + q^3
    """
    _check_size(p, force)
    if len(_shared_le) > _SHARED_BOUND:
        _shared_le.clear()
    width = pack_width(p.size)
    local: dict[bytes | tuple[int, ...], int] = {}
    shared = _shared_le if width == _SHARED_WIDTH else local
    gt = bytes(p._gt) if p.size <= 8 else p._gt
    return IntPoly.from_packed(_le_packed(gt, width, local, shared), width)


def descent_gf(p: Poset, force: bool = False) -> IntPoly:
    """Generating function of linear extensions by descents, with each
    extension word contributing x^(descents + 1).  The variable is
    formal; it prints as q like every IntPoly."""
    _check_size(p, force)
    coeffs = [0] * (p.size + 1)
    for w in _extension_words(p):
        des = sum(1 for a, b in zip(w, w[1:]) if a > b)
        coeffs[des + 1] += 1
    return IntPoly(coeffs)


def _ideal_masks(p: Poset) -> list[int]:
    # A down-set: nothing outside it lies below anything inside it.
    # above[s], everything above some element of s, is built from s
    # with its lowest bit cleared, so each subset costs one OR.
    gt = p._gt
    full = (1 << p.size) - 1
    above = [0] * (full + 1)
    for s in range(1, full + 1):
        low = s & -s
        above[s] = above[s ^ low] | gt[low.bit_length() - 1]
    return [mask for mask in range(full + 1) if not above[full ^ mask] & mask]


def _op_values_bruteforce(p: Poset, m_max: int) -> list[int]:
    # Reference route for `verify des` and the tests: counts the
    # order-preserving maps into 1..m one element at a time, in index
    # order.  A value raises the floors of the later elements above it
    # and lowers the ceilings of the later ones below it, so no partial
    # map that breaks f(a) <= f(b) is extended.  The maps left to count
    # from index i on depend only on those floors and ceilings, so walk
    # is memoized on them, across every m.
    n = p.size
    raises: list[list[int]] = [[] for _ in range(n)]  # later, covering
    lowers: list[list[int]] = [[] for _ in range(n)]  # later, covered
    for a, b in p.covers():
        if a < b:
            raises[a - 1].append(b - 1)
        else:
            lowers[b - 1].append(a - 1)

    @cache
    def walk(i: int, lo: tuple[int, ...], hi: tuple[int, ...]) -> int:
        # lo[k - i] <= f(k) <= hi[k - i] for every element k >= i
        if i == n:
            return 1
        count = 0
        for v in range(lo[0], hi[0] + 1):
            floor, ceiling = list(lo[1:]), list(hi[1:])
            for k in raises[i]:
                floor[k - i - 1] = max(floor[k - i - 1], v)
            for k in lowers[i]:
                ceiling[k - i - 1] = min(ceiling[k - i - 1], v)
            count += walk(i + 1, tuple(floor), tuple(ceiling))
        return count

    return [walk(0, (1,) * n, (m,) * n) for m in range(1, m_max + 1)]


def _op_values_ideal_dp(p: Poset, m_max: int) -> list[int]:
    # Order-preserving maps into a chain of m correspond to multichains
    # of m-1 nested order ideals.
    ideals = _ideal_masks(p)
    full = (1 << p.size) - 1
    counts = {mask: 1 for mask in ideals}
    out = [counts[full]]
    for _ in range(m_max - 1):
        nxt = {}
        for mask in ideals:
            nxt[mask] = sum(c for sub, c in counts.items() if sub & mask == sub)
        counts = nxt
        out.append(counts[full])
    return out


def order_polynomial_values(p: Poset, m_max: int, force: bool = False) -> list[int]:
    """Number of order-preserving maps from p into the chain 1..m, for
    each m = 1..m_max."""
    _check_size(p, force, OP_SIZE_GUARD)
    if m_max < 1:
        raise ValueError(f"m_max must be positive, got {m_max}")
    if m_max > p.size + 2 and not force:
        raise GuardExceeded(
            f"m_max {m_max} exceeds the guard (size + 2 = {p.size + 2}); "
            "pass force=True (--force) to override"
        )
    return _op_values_ideal_dp(p, m_max)
