"""The pairing (u, v) -> inverse(u) v between the two intervals around
a permutation and the whole symmetric group.

For separable pi the map from {u <= pi} x {v >= pi} is a bijection onto
S_n.  check_bijection verifies that extensionally from the actual
intervals, on the bytes words of interval's walk, one letter per byte.
For each u, t = bytes.maketrans(u, bytes(range(1, n + 1))) sends each
letter of u to its position, so the image of (u, v) is v.translate(t).
The check thus builds no Permutation per pair, and its images compare
and sort as tuple words would.  Permutation objects are built only for
PairTable.entries and the collisions of a failed check.  A table holds
words of at most MAX_LETTERS letters, and without force at most
weak_order.WORD_BUDGET pairs.
invert_phi reconstructs the unique preimage of a target w by one loop
down pi's separating tree, whose leaves are letters, filling u and v
slot by slot.  It verifies its answer and raises InternalInversionFailure
if the check fails, since the construction is easy to get subtly wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import factorial

from .errors import InternalInversionFailure, NotSeparable
from .perm import Permutation, _trusted, compose, identity, leq_weak, longest_element, word_text
from .separable import POSITIVE, Internal, is_separable, separating_tree, tree_size
from .weak_order import MAX_LETTERS, check_budget, interval


def phi(u: Permutation, v: Permutation) -> Permutation:
    """compose(inverse(u), v).

    >>> print(phi(Permutation((1, 2)), Permutation((2, 1))))
    21
    """
    return compose(u.inverse(), v)


def check_letters(n: int) -> None:
    """Refuse a pair table over words past MAX_LETTERS letters, forced or not."""
    if n > MAX_LETTERS:
        raise ValueError(f"pair tables hold words of at most {MAX_LETTERS} letters, not {n}")


def _perm(word: bytes) -> Permutation:
    # a Permutation holds its word as a tuple, never as bytes
    return _trusted(tuple(word))


def _csv_field(word: bytes) -> str:
    """A word as a CSV field.  Words of 10 or more letters print with
    commas, so those are quoted (RFC 4180); digits need no escaping."""
    text = word_text(word)
    return f'"{text}"' if "," in text else text


@dataclass(frozen=True)
class PairTable:
    """The pairs (u, v) with u <= pi <= v.  below and above hold the
    words of the two intervals as bytes, in interval order (by rank,
    then word); the pairs run u-major over them.  Permutation objects
    are built only by entries."""

    pi: Permutation
    below: tuple[bytes, ...]
    above: tuple[bytes, ...]

    def images(self) -> list[bytes]:
        """The word of phi(u, v) for every pair, in pair order, as bytes."""
        ident = bytes(range(1, self.pi.size + 1))
        tables = [bytes.maketrans(u, ident) for u in self.below]
        return [v.translate(t) for t in tables for v in self.above]

    @property
    def entries(self) -> dict:
        """{(u, v): phi(u, v)} as Permutations, in pair order."""
        pairs = product(map(_perm, self.below), map(_perm, self.above))
        return dict(zip(pairs, map(_perm, self.images())))

    def to_csv(self) -> str:
        """Rows (u, v, w) sorted by w, then u."""
        lines = ["u,v,w"]
        for w, (u, v) in sorted(zip(self.images(), product(self.below, self.above))):
            lines.append(",".join(map(_csv_field, (u, v, w))))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BijectionReport:
    is_bijection: bool
    collisions: tuple


def build_pair_table(pi: Permutation, force: bool = False) -> PairTable:
    """Every (u, v) with u <= pi <= v, over the intervals' bytes words as
    the walk built them.  ValueError past MAX_LETTERS letters, forced or
    not, before any walk; without force, GuardExceeded past WORD_BUDGET
    pairs, before any image."""
    check_letters(pi.size)
    below = tuple(chain.from_iterable(interval(identity(pi.size), pi, force=force).words))
    above = tuple(chain.from_iterable(interval(pi, longest_element(pi.size), force=force).words))
    check_budget(len(below) * len(above), force, "pairs")
    return PairTable(pi, below, above)


def check_bijection(pi: Permutation, force: bool = False) -> BijectionReport:
    """Is phi a bijection onto S_n from the two intervals around pi?

    >>> check_bijection(Permutation((4, 1, 3, 2))).is_bijection
    True
    >>> report = check_bijection(Permutation((2, 4, 1, 3)))
    >>> report.is_bijection
    False
    """
    table = build_pair_table(pi, force=force)
    images = table.images()
    if len(set(images)) == len(images) == factorial(pi.size):
        return BijectionReport(is_bijection=True, collisions=())
    by_image: dict[bytes, list] = {}
    for w, pair in zip(images, product(table.below, table.above)):
        by_image.setdefault(w, []).append(pair)
    collisions = tuple(
        (_perm(w), tuple((_perm(u), _perm(v)) for u, v in sorted(pairs)))
        for w, pairs in sorted(by_image.items())
        if len(pairs) > 1
    )
    return BijectionReport(is_bijection=False, collisions=collisions)


def _construct(root: Internal | int, w):
    """Words (u, v) with u <= p <= v and phi(u, v) = w, where p is the
    word of root's tree, filled from the root down.  Each block owns
    slots of u and of v, ascending, and a target t: its j-th slot of v
    takes the letter of its t[j]-th slot of u.  Each half's target is t
    on its own letters, standardised to 1..size."""
    n = tree_size(root)
    u, v = [0] * n, [0] * n
    stack = [(root, range(n), range(n), w)]
    while stack:
        node, u_slots, v_slots, t = stack.pop()
        if type(node) is int:
            u[u_slots[0]] = v[v_slots[0]] = node
            continue
        m = tree_size(node.left)
        if node.sign == POSITIVE:
            # the low half takes the first m slots of u, and those of v where t <= m
            low = [a <= m for a in t]
            low_v = [s for s, x in zip(v_slots, low) if x]
            high_v = [s for s, x in zip(v_slots, low) if not x]
            stack.append((node.left, u_slots[:m], low_v, [a for a in t if a <= m]))
            stack.append((node.right, u_slots[m:], high_v, [a - m for a in t if a > m]))
        else:
            # the high half takes the first m slots of v, and those of u that t[:m] names
            rank = [0] * (len(t) + 1)
            for half, v_half, t_half in (node.left, v_slots[:m], t[:m]), (node.right, v_slots[m:], t[m:]):
                named = sorted(t_half)
                for r, a in enumerate(named, 1):
                    rank[a] = r
                stack.append((half, [u_slots[a - 1] for a in named], v_half, [rank[a] for a in t_half]))
    return tuple(u), tuple(v)


def invert_phi(pi: Permutation, w: Permutation):
    """The unique (u, v) with u <= pi <= v and phi(u, v) = w.

    The construction is always verified before returning; a pair that
    fails the check raises InternalInversionFailure.

    >>> u, v = invert_phi(Permutation((4, 1, 3, 2)), Permutation((2, 3, 1, 4)))
    >>> print(u, v)
    1432 4312
    >>> phi(u, v)
    Permutation((2, 3, 1, 4))
    """
    if pi.size != w.size:
        raise ValueError(f"size mismatch: {pi.size} vs {w.size}")
    if not is_separable(pi):
        raise NotSeparable(f"{pi} contains 3142 or 2413")
    u, v = map(Permutation, _construct(separating_tree(pi), w.word))
    if phi(u, v) == w and leq_weak(u, pi) and leq_weak(pi, v):
        return u, v
    raise InternalInversionFailure(
        f"no verified preimage of {w} for pi = {pi} (construction gave {u}, {v})"
    )
