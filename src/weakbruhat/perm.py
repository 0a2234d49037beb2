"""Permutations in one-line notation, with the operations that drive
the (right) weak order: inversion count, composition, 231 avoidance
and the order test itself.

A permutation of size n is a word of the integers 1..n, each exactly
once.  Composition follows (sigma tau)(i) = sigma(tau(i)), so
multiplying by the adjacent transposition s_i on the right swaps the
letters at word positions i and i+1:

>>> print(compose(parse_permutation("2413"), parse_permutation("1324")))
2143
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator


_INT_ONLY = {int}
_SORTED_WORDS: dict[int, list[int]] = {}  # n -> [1, ..., n], never mutated
_DIGITS = b"0123456789".ljust(256, b"\xff")  # letter -> its digit; 0xFF fails to decode


class Permutation:
    """Immutable permutation of {1, ..., n} stored as its word; it keeps its length and merge pass.

    >>> p = Permutation((4, 1, 3, 2))
    >>> p.length
    4
    >>> sorted(p.descent_set())
    [1, 3]
    >>> print(p.inverse())
    2431
    """

    # _merged: separable._merge's delta list for a separable word, False
    # for any other word, None until asked
    __slots__ = ("word", "_length", "_merged")

    def __init__(self, word: Iterable[int]):
        w = tuple(word)
        n = len(w)
        ref = _SORTED_WORDS.get(n)
        if ref is None:
            if not w:
                raise ValueError("empty word: permutations have size at least 1")
            ref = _SORTED_WORDS[n] = list(range(1, n + 1))
        # exact type: bool and float letters compare equal to ints
        if set(map(type, w)) != _INT_ONLY:
            raise ValueError(f"letters must be int: {w}")
        if sorted(w) != ref:
            raise ValueError(f"not a rearrangement of 1..{n}: {w}")
        self.word = w
        self._length: int | None = None
        self._merged: list[int] | bool | None = None

    @property
    def size(self) -> int:
        return len(self.word)

    @property
    def length(self) -> int:
        """Number of inversions: pairs i < j with word[i] > word[j]."""
        if self._length is None:
            # from the right: each letter inverts with the smaller letters
            # already seen, bit a of seen standing for letter a
            seen = inv = 0
            for a in reversed(self.word):
                inv += (seen & ((1 << a) - 1)).bit_count()
                seen |= 1 << a
            self._length = inv
        return self._length

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"Permutation({self.word!r})"

    def __str__(self) -> str:
        return word_text(self.word)

    def inverse(self) -> "Permutation":
        return _trusted(tuple(positions(self.word)[1:]))

    def complement(self) -> "Permutation":
        """Each letter a replaced by n+1-a.

        >>> print(Permutation((2, 4, 1, 3)).complement())
        3142
        """
        n = self.size
        # From a list, not a generator: tuple(generator) fills a 10-slot
        # tuple and resizes it, so each call moves a tuple from one of
        # CPython's per-length free lists to another, and those lists
        # fill up until a full collection empties them.
        return _trusted(tuple([n + 1 - a for a in self.word]))

    def descent_set(self) -> frozenset[int]:
        """Positions i with word[i] > word[i+1] (1-indexed)."""
        w = self.word
        return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def avoids_231(word: tuple[int, ...]) -> bool:
    """True when no letters b, c, a appear in that order with a < b < c.

    Knuth's stack sort, in one pass: a word avoids 231 exactly when one
    stack sorts it.  Each letter pops the smaller letters off the stack
    into the output, then goes on; the sort fails when a letter comes in
    below one already output, which then was popped by a larger letter
    between the two.

    >>> avoids_231((1, 4, 2, 3, 6, 5)), avoids_231((2, 4, 1, 3))
    (True, False)
    """
    stack = []
    out = 0  # the last letter output
    for a in word:
        if a < out:
            return False
        while stack and stack[-1] < a:
            out = stack.pop()
        stack.append(a)
    return True


def positions(word: tuple[int, ...]) -> list[int]:
    """pos[a] is the position of letter a in word, counted from 1, and
    pos[0] is unused; pos[1:] is the word of the inverse.

    >>> positions((4, 1, 3, 2))
    [0, 2, 4, 3, 1]
    """
    pos = [0] * (len(word) + 1)
    for i, a in enumerate(word, start=1):
        pos[a] = i
    return pos


def word_text(word: tuple[int, ...] | bytes) -> str:
    """Digits up to 9 letters, comma-separated beyond.  A word of up to
    9 letters must have letters 0..9; any other letter raises ValueError.

    >>> word_text((4, 1, 3, 2)), word_text(tuple(range(10, 0, -1)))
    ('4132', '10,9,8,7,6,5,4,3,2,1')
    """
    if len(word) <= 9:
        return bytes(word).translate(_DIGITS).decode("ascii")
    return ",".join(map(str, word))


def _trusted(word: tuple[int, ...]) -> Permutation:
    """A Permutation from a word that is valid by construction (a
    rearrangement of a valid word, or its inverse or complement),
    skipping the checks of Permutation(...).  A module-level function
    rather than a classmethod, so that it works wherever the name
    Permutation is rebound to a plain callable."""
    p = object.__new__(Permutation)
    p.word = word
    p._length = p._merged = None
    return p


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def longest_element(n: int) -> Permutation:
    """The reversal n, n-1, ..., 1, top of the weak order."""
    return Permutation(range(n, 0, -1))


def compose(sigma: Permutation, tau: Permutation) -> Permutation:
    """(sigma tau)(i) = sigma(tau(i))."""
    if sigma.size != tau.size:
        raise ValueError(f"size mismatch: {sigma.size} vs {tau.size}")
    sw = sigma.word
    return _trusted(tuple([sw[t - 1] for t in tau.word]))


def inversion_table(word: tuple[int, ...]) -> list[int]:
    """inv[a] has bit b - a set for each letter b > a that word places
    before a; inv[0] is unused.

    >>> inversion_table((4, 1, 3, 2))
    [0, 8, 6, 2, 0]
    """
    inv, seen = [0] * (len(word) + 1), 0  # bit b of seen for each letter b passed
    for a in word:
        inv[a] = seen >> a
        seen |= 1 << a
    return inv


def leq_weak(u: Permutation, v: Permutation) -> bool:
    """Right weak order comparison by inversion sets: u <= v iff every
    inversion of u (a value pair b > a with b placed before a) is an
    inversion of v.  One pass of u against v's inversion_table.

    >>> leq_weak(parse_permutation("2134"), parse_permutation("1243"))
    False
    >>> leq_weak(parse_permutation("4132"), parse_permutation("4312"))
    True
    """
    if u.size != v.size:
        raise ValueError(f"size mismatch: {u.size} vs {v.size}")
    inv, seen = inversion_table(v.word), 0
    for a in u.word:
        # the letters b > a that u places before a, each placed so by v too
        if (seen >> a) & ~inv[a]:
            return False
        seen |= 1 << a
    return True


def parse_permutation(text: str) -> Permutation:
    """Parse the compact digit form ("4132") or the comma form
    ("10,3,1,2,...").  Commas decide which form applies.

    >>> parse_permutation("4132").word
    (4, 1, 3, 2)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    if "," in text:
        try:
            word = [int(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"bad comma-separated permutation: {text!r}") from None
    else:
        if not text.isdigit():
            raise ValueError(f"bad permutation word: {text!r}")
        word = [int(ch) for ch in text]
    return Permutation(word)


def all_permutations(n: int) -> Iterator[Permutation]:
    """All of S_n in lexicographic word order; only the identity is validated."""
    yield from map(_trusted, permutations(identity(n).word))
