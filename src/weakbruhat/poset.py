"""Finite posets on small integer ground sets.

The poset of inversions of a permutation lives here, together with the
two combinators (disjoint union, ordinal sum) and the linear extension
machinery: explicit enumeration, the generating function by inversions
of the extension word, the generating function by descents, and order
polynomial values.

The strict order relation is stored transitively closed, one bitmask
per element, so comparisons are O(1) and the extension walks are cheap.
"""

from __future__ import annotations

from itertools import product
from math import factorial
from typing import Iterable, Iterator

from .errors import GuardExceeded
from .perm import Permutation
from .qpoly import IntPoly

SIZE_GUARD = 10  # linear extension work is exponential beyond this
OP_SIZE_GUARD = 8


class Poset:
    """Strict partial order on a finite set of positive integers.

    >>> p = Poset((1, 2, 3), [(1, 2), (2, 3)])
    >>> p.less(1, 3)
    True
    >>> p.covers()
    ((1, 2), (2, 3))
    """

    __slots__ = ("ground", "_index", "_gt")

    def __init__(self, ground: Iterable[int], relations: Iterable[tuple[int, int]] = ()):
        g = tuple(sorted(ground))
        if not g:
            raise ValueError("empty ground set")
        if len(set(g)) != len(g) or g[0] < 1:
            raise ValueError(f"ground must be distinct positive integers: {g}")
        index = {a: i for i, a in enumerate(g)}
        gt = [0] * len(g)
        for a, b in relations:
            if a not in index or b not in index:
                raise ValueError(f"relation ({a}, {b}) leaves the ground set")
            if a == b:
                raise ValueError(f"reflexive relation ({a}, {b})")
            gt[index[a]] |= 1 << index[b]
        # transitive closure by fixpoint
        changed = True
        while changed:
            changed = False
            for i in range(len(g)):
                acc = gt[i]
                t = acc
                while t:
                    b = t & -t
                    t ^= b
                    acc |= gt[b.bit_length() - 1]
                if acc != gt[i]:
                    gt[i] = acc
                    changed = True
        for i in range(len(g)):
            if gt[i] >> i & 1:
                raise ValueError("relations contain a cycle")
        self.ground = g
        self._index = index
        self._gt = tuple(gt)

    @classmethod
    def _from_closed_masks(cls, ground: tuple[int, ...], gt: tuple[int, ...]) -> "Poset":
        """Trusted constructor: gt must already be an irreflexive,
        transitively closed relation on ground, one mask per element."""
        p = cls.__new__(cls)
        p.ground = ground
        p._index = {a: i for i, a in enumerate(ground)}
        p._gt = gt
        return p

    @property
    def size(self) -> int:
        return len(self.ground)

    def less(self, a: int, b: int) -> bool:
        return self._gt[self._index[a]] >> self._index[b] & 1 == 1

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse diagram edges (a, b) with a covered by b."""
        out = []
        for i, above in enumerate(self._gt):
            via = 0
            t = above
            while t:
                b = t & -t
                t ^= b
                via |= self._gt[b.bit_length() - 1]
            direct = above & ~via
            t = direct
            while t:
                b = t & -t
                t ^= b
                out.append((self.ground[i], self.ground[b.bit_length() - 1]))
        return tuple(sorted(out))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poset)
            and self.ground == other.ground
            and self._gt == other._gt
        )

    def __hash__(self) -> int:
        return hash((self.ground, self._gt))

    def __repr__(self) -> str:
        return f"Poset({self.ground!r}, {list(self.covers())!r})"

    def relations(self) -> tuple[tuple[int, int], ...]:
        """All strict relations (a, b), transitively closed."""
        out = []
        for i, above in enumerate(self._gt):
            t = above
            while t:
                b = t & -t
                t ^= b
                out.append((self.ground[i], self.ground[b.bit_length() - 1]))
        return tuple(sorted(out))

    def shifted(self, offset: int) -> "Poset":
        """Relabeling helper: every element moved up by offset."""
        return Poset(
            (a + offset for a in self.ground),
            [(a + offset, b + offset) for a, b in self.relations()],
        )

    def _pred_masks(self) -> list[int]:
        n = self.size
        preds = [0] * n
        for i, above in enumerate(self._gt):
            t = above
            while t:
                b = t & -t
                t ^= b
                preds[b.bit_length() - 1] |= 1 << i
        return preds


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
    return Poset._from_closed_masks(tuple(range(1, pi.size + 1)), tuple(gt))


def disjoint_union(p: Poset, q: Poset) -> Poset:
    """Side-by-side union; ground sets must not overlap."""
    if set(p.ground) & set(q.ground):
        raise ValueError("ground sets overlap")
    return Poset(p.ground + q.ground, list(p.relations()) + list(q.relations()))


def ordinal_sum(p: Poset, q: Poset) -> Poset:
    """Union plus every element of p below every element of q."""
    if set(p.ground) & set(q.ground):
        raise ValueError("ground sets overlap")
    rels = list(p.relations()) + list(q.relations())
    rels += [(a, b) for a in p.ground for b in q.ground]
    return Poset(p.ground + q.ground, rels)


def _check_size(p: Poset, force: bool, limit: int = SIZE_GUARD) -> None:
    if p.size > limit and not force:
        raise GuardExceeded(
            f"poset size {p.size} exceeds the guard ({limit}); "
            "pass force=True (--force) to override"
        )


def _extension_words(p: Poset) -> Iterator[tuple[int, ...]]:
    """Backtracking enumeration, candidates tried in ascending value
    order so the output stream is lexicographically sorted."""
    n = p.size
    preds = p._pred_masks()
    ground = p.ground
    full = (1 << n) - 1
    word: list[int] = []

    def walk(placed: int) -> Iterator[tuple[int, ...]]:
        if placed == full:
            yield tuple(word)
            return
        rem = full & ~placed
        t = rem
        while t:
            b = t & -t
            t ^= b
            e = b.bit_length() - 1
            if preds[e] & placed == preds[e]:
                word.append(ground[e])
                yield from walk(placed | b)
                word.pop()

    return walk(0)


def linear_extensions(p: Poset, force: bool = False) -> list[Permutation]:
    """All linear extensions as permutations, lexicographically sorted.
    Requires ground set {1..n}."""
    _check_size(p, force)
    if p.ground != tuple(range(1, p.size + 1)):
        raise ValueError(f"extensions as permutations need ground 1..n, got {p.ground}")
    return [Permutation(w) for w in _extension_words(p)]


def _pack_width(n: int) -> int:
    """Bits per coefficient slot in le_gf for an n-element poset.  Every
    coefficient attached to an order ideal counts some of its linear
    extensions, so it is at most n! and never carries into the next
    slot."""
    return factorial(n).bit_length() + 1


def le_gf(p: Poset, force: bool = False) -> IntPoly:
    """Generating function of linear extensions by inversions of the
    extension word.

    Runs over order ideals rather than individual extensions: placing
    element e after ideal S contributes q^(number of unplaced elements
    smaller than e), and the polynomial attached to each ideal is packed
    into one big integer for speed.

    >>> print(le_gf(Poset((1, 2, 3), [])))
    1 + 2*q + 2*q^2 + q^3
    """
    _check_size(p, force)
    n = p.size
    pack = _pack_width(n)
    preds = p._pred_masks()
    full = (1 << n) - 1
    dp = {0: 1}
    for _ in range(n):
        ndp: dict[int, int] = {}
        get = ndp.get
        for placed, acc in dp.items():
            rem = full & ~placed
            t = rem
            while t:
                b = t & -t
                t ^= b
                e = b.bit_length() - 1
                if preds[e] & placed == preds[e]:
                    shift = pack * ((b - 1) & rem).bit_count()
                    key = placed | b
                    ndp[key] = get(key, 0) + (acc << shift)
        dp = ndp
    packed = dp[full]
    mask = (1 << pack) - 1
    coeffs = []
    while packed:
        coeffs.append(packed & mask)
        packed >>= pack
    return IntPoly(coeffs)


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
    n = p.size
    preds = p._pred_masks()
    out = []
    for mask in range(1 << n):
        ok = True
        t = mask
        while t:
            b = t & -t
            t ^= b
            if preds[b.bit_length() - 1] & mask != preds[b.bit_length() - 1]:
                ok = False
                break
        if ok:
            out.append(mask)
    return out


def _op_values_bruteforce(p: Poset, m_max: int) -> list[int]:
    # Reference route for `verify des` and the tests: tries every map.
    n = p.size
    idx = {a: i for i, a in enumerate(p.ground)}
    cover_pairs = [(idx[a], idx[b]) for a, b in p.covers()]
    out = []
    for m in range(1, m_max + 1):
        count = 0
        for f in product(range(1, m + 1), repeat=n):
            if all(f[i] <= f[j] for i, j in cover_pairs):
                count += 1
        out.append(count)
    return out


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


if __name__ == "__main__":
    import doctest

    doctest.testmod()
