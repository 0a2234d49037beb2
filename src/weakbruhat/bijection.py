"""The pairing (u, v) -> inverse(u) v between the two intervals around
a permutation and the whole symmetric group.

For separable pi the map from {u <= pi} x {v >= pi} is a bijection onto
S_n.  check_bijection verifies that extensionally from the actual
intervals, on the bytes words of interval's walk, one letter per byte.
For each u, t = bytes.maketrans(u, bytes(range(1, n + 1))) sends each
letter of u to its position, so the image of (u, v) is v.translate(t).
The check thus builds no Permutation per pair, and its images compare
and sort as tuple words would.  Permutation objects are built only for
the collisions of a failed check.  A table holds words of at most
MAX_LETTERS letters, and without force at most weak_order.WORD_BUDGET
pairs.
phi_inverter(pi) tests pi's separability and builds its separating tree
and its perm.inversion_table once, and returns a function that inverts
phi at any number of targets w.  Since phi(u, v) = w says that
v[s] = u[w[s] - 1], one loop down the tree, whose leaves are letters,
hands each block its places of u and its slots of v.  Every answer is
verified (u and v are permutations, phi(u, v) = w, and u <= pi <= v
against pi's table), and a failed check raises InternalInversionFailure,
since the construction is easy to get subtly wrong.  invert_phi(pi, w)
is one target of phi_inverter(pi).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import factorial

from .errors import InternalInversionFailure, NotSeparable
from .perm import Permutation, _trusted, compose, identity, inversion_table
from .perm import longest_element, word_text
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
    then word); the pairs run u-major over them."""

    pi: Permutation
    below: tuple[bytes, ...]
    above: tuple[bytes, ...]

    def images(self) -> list[bytes]:
        """The word of phi(u, v) for every pair, in pair order, as bytes."""
        ident = bytes(range(1, self.pi.size + 1))
        tables = [bytes.maketrans(u, ident) for u in self.below]
        return [v.translate(t) for t in tables for v in self.above]

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
    word of root's tree, filled from the root down.  phi(u, v) = w says
    that v[s] = u[w[s] - 1] at every slot s, so each block owns places
    of u (counted from 1) and slots of v, both ascending, and w sends
    its slots onto its places; a letter writes itself into its one
    place and its one slot."""
    if type(root) is int:
        return (root,), (root,)
    n = root.size
    u, v = [0] * n, [0] * n
    stack = [(root, range(1, n + 1), range(n))]
    while stack:
        node, places, slots = stack.pop()
        left, right = node.left, node.right
        m = tree_size(left)
        if node.sign == POSITIVE:
            # the low half takes the first m places, and the slots that w sends there
            top = places[m - 1]
            left_places, right_places = places[:m], places[m:]
            left_slots = [s for s in slots if w[s] <= top]
            right_slots = [s for s in slots if w[s] > top]
        else:
            # the high half takes the first m slots, and the places that w sends them to
            left_slots, right_slots = slots[:m], slots[m:]
            left_places = sorted([w[s] for s in left_slots])
            right_places = sorted([w[s] for s in right_slots])
        if type(left) is int:
            u[left_places[0] - 1] = v[left_slots[0]] = left
        else:
            stack.append((left, left_places, left_slots))
        if type(right) is int:
            u[right_places[0] - 1] = v[right_slots[0]] = right
        else:
            stack.append((right, right_places, right_slots))
    return tuple(u), tuple(v)


def _within(u, inv, v) -> bool:
    """u <= pi <= v in the right weak order, for words u and v of pi's letters
    and inv = inversion_table(pi.word): the letters b > a that u places before
    a are among those of inv[a], and v places all of those before a."""
    seen = 0
    for a in u:
        if (seen >> a) & ~inv[a]:
            return False
        seen |= 1 << a
    seen = 0
    for a in v:
        if inv[a] & ~(seen >> a):
            return False
        seen |= 1 << a
    return True


def phi_inverter(pi: Permutation):
    """w -> the unique (u, v) with u <= pi <= v and phi(u, v) = w, for any
    number of targets w of pi's size.  pi's separability, its separating
    tree and its inversion_table are read once, here.

    Every pair is verified before it is returned: u and v are Permutations,
    phi(u, v) = w, and u <= pi <= v against pi's table.  A pair that fails
    raises InternalInversionFailure.

    >>> invert = phi_inverter(Permutation((4, 1, 3, 2)))
    >>> print(*invert(Permutation((2, 3, 1, 4))))
    1432 4312
    >>> print(*invert(Permutation((1, 2, 3, 4))))
    4132 4132
    """
    if not is_separable(pi):
        raise NotSeparable(f"{pi} contains 3142 or 2413")
    root, n, inv = separating_tree(pi), pi.size, inversion_table(pi.word)

    def invert(w: Permutation):
        if w.size != n:
            raise ValueError(f"size mismatch: {n} vs {w.size}")
        u_word, v_word = _construct(root, w.word)
        try:
            u, v = Permutation(u_word), Permutation(v_word)
            if phi(u, v) == w and _within(u.word, inv, v.word):
                return u, v
        except ValueError:  # a word that is no permutation, or of another size
            pass
        raise InternalInversionFailure(
            f"no verified preimage of {w} for pi = {pi}"
            f" (construction gave {word_text(u_word)}, {word_text(v_word)})"
        )

    return invert


def invert_phi(pi: Permutation, w: Permutation):
    """The unique (u, v) with u <= pi <= v and phi(u, v) = w: one target of
    phi_inverter(pi), verified as its answers are.

    >>> u, v = invert_phi(Permutation((4, 1, 3, 2)), Permutation((2, 3, 1, 4)))
    >>> print(u, v)
    1432 4312
    >>> phi(u, v)
    Permutation((2, 3, 1, 4))
    """
    return phi_inverter(pi)(w)
