"""Intervals in the weak order on S_n: enumeration, rank generating
functions, saturated chains, reduced words, and DOT/JSON export.

In the right weak order u <= v exactly when the inversion set of u
(value pairs b > a with b placed before a) is contained in that of v.
An upper cover w s_i swaps an ascent a < b of w and adds the one
inversion (a, b), so a cover of some w <= top stays below top exactly
when top places b before a: one lookup in top's letter-position table.
interval walks with that test, each element once, on bytes words up to
MAX_LETTERS letters.  Interval.elements() and the chains give word
tuples: wrap one as Permutation(w) for an object.  WORD_BUDGET caps
the words an interval or pair table may hold without force, at any n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .errors import GuardExceeded, IncomparableEndpoints
from .perm import Permutation, leq_weak, positions, word_text
from .qpoly import IntPoly

WORD_BUDGET = factorial(9)
MAX_LETTERS = 255  # the longest words that interval walks as bytes


def check_budget(words: int, force: bool, unit: str = "words") -> None:
    """Refuse an enumeration of more than WORD_BUDGET words (or pairs)
    unless forced."""
    if words > WORD_BUDGET and not force:
        raise GuardExceeded(
            f"enumeration passes the budget of {WORD_BUDGET} {unit}; "
            "pass force=True (--force) to override"
        )


@dataclass(frozen=True)
class Interval:
    """A weak order interval: words[k] holds the words of length
    length(bottom) + k, sorted, as the walk built them (bytes up to
    MAX_LETTERS letters); elements() gives them as tuples."""

    bottom: Permutation
    top: Permutation
    words: tuple[tuple[bytes | tuple[int, ...], ...], ...]

    @property
    def size(self) -> int:
        return sum(map(len, self.words))

    def elements(self) -> Iterator[tuple[int, ...]]:
        return (tuple(w) for rank in self.words for w in rank)


def interval(bottom: Permutation, top: Permutation, force: bool = False) -> Interval:
    """The words of all w with bottom <= w <= top, rank by rank, each
    built once by reverse search (Avis and Fukuda 1996): only from its
    lower cover at its rightmost descent that stays >= bottom.  So a
    cover x s_i is kept unless it has such a descent at i + 1, and its
    own covers are sought from i - 1 on.  A bytes swap is one translate.
    Without force, raises GuardExceeded past WORD_BUDGET words."""
    if bottom.size != top.size:
        raise ValueError(f"size mismatch: {bottom.size} vs {top.size}")
    if not leq_weak(bottom, top):
        raise IncomparableEndpoints(f"{bottom} is not below {top} in the weak order")
    n, up, down = top.size, positions(top.word), positions(bottom.word)
    rank, starts, ranks, total, swaps = [bottom.word], [0], [], 0, None
    if n <= MAX_LETTERS:
        # swaps[a][b] swaps letters a < b, made by _swap at first use; rows share swaps[0] till then
        rank, swaps = [bytes(bottom.word)], [[b""] * (n + 1)] * (n + 1)
    while rank:
        ranks.append(tuple(sorted(rank)))
        total += len(rank)
        covers, cover_starts = [], []
        for w, start in zip(rank, starts):
            # checked before each word's covers, so a refused walk holds
            # at most n - 1 words past the budget
            if total + len(covers) > WORD_BUDGET:
                check_budget(total + len(covers), force)
            for i in range(start, n - 1):
                a, b = w[i], w[i + 1]
                if a < b and up[b] < up[a]:
                    # kept only if i is the cover's rightmost such descent
                    if i < n - 2 and a > (c := w[i + 2]) and down[c] < down[a]:
                        continue
                    covers.append(w.translate(swaps[a][b] or _swap(swaps, a, b)) if swaps else w[:i] + (b, a) + w[i + 2 :])
                    cover_starts.append(i - 1 if i else 0)
        rank, starts = covers, cover_starts
    return Interval(bottom, top, tuple(ranks))


def _swap(swaps: list[list[bytes]], a: int, b: int) -> bytes:
    if swaps[a] is swaps[0]:  # the shared row: no letter is 0, so it stays empty
        swaps[a] = swaps[0][:]
    swaps[a][b] = bytes.maketrans(bytes((a, b)), bytes((b, a)))
    return swaps[a][b]


def rank_gf(iv: Interval) -> IntPoly:
    """Rank generating function: coefficient k counts rank k."""
    return IntPoly(map(len, iv.words))


def all_saturated_chains(
    u: Permutation, v: Permutation
) -> list[tuple[tuple[int, ...], ...]]:
    """Every saturated chain u = w_0 < w_1 < ... < w_k = v, each step a
    cover, as a tuple of words."""
    if not leq_weak(u, v):
        raise IncomparableEndpoints(f"{u} is not below {v} in the weak order")
    pos = positions(v.word)
    out: list[tuple[tuple[int, ...], ...]] = []
    chain = [u.word]

    def walk(w: tuple[int, ...]) -> None:
        if w == v.word:
            out.append(tuple(chain))
            return
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a < b and pos[b] < pos[a]:
                chain.append(w[:i] + (b, a) + w[i + 2 :])
                walk(chain[-1])
                chain.pop()

    walk(u.word)
    return out


def reduced_words(pi: Permutation) -> set[tuple[int, ...]]:
    """All reduced words: index sequences (i_1, ..., i_l) with
    pi = s_{i_1} ... s_{i_l} and l = length(pi).  Peeling a descent off
    the right end shortens the element by one, so the words build up
    from the identity.

    >>> sorted(reduced_words(Permutation((3, 2, 1))))
    [(1, 2, 1), (2, 1, 2)]
    """
    memo: dict[tuple[int, ...], set[tuple[int, ...]]] = {}

    def words(w: tuple[int, ...]) -> set[tuple[int, ...]]:
        got = memo.get(w)
        if got is not None:
            return got
        out = set()
        for i in range(1, len(w)):
            if w[i - 1] > w[i]:
                for r in words(w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]):
                    out.add(r + (i,))
        # only the identity has no descent
        memo[w] = out or {()}
        return memo[w]

    return words(pi.word)


def interval_json(iv: Interval) -> dict:
    return {
        "bottom": str(iv.bottom),
        "top": str(iv.top),
        "ranks": [[word_text(w) for w in rank] for rank in iv.words],
    }


def hasse_dot(iv: Interval) -> str:
    """DOT rendering of the interval's Hasse diagram, one rank per row.
    Every element is below top, so its up-edges are the covers that
    stay below top, found by the same test as the walk."""
    pos = positions(iv.top.word)
    lines = ["digraph interval {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for rank in iv.words:
        row = " ".join(f'"{word_text(w)}";' for w in rank)
        lines.append(f"  {{ rank=same; {row} }}")
    for w in iv.elements():
        text = word_text(w)
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a < b and pos[b] < pos[a]:
                lines.append(f'  "{text}" -> "{word_text(w[:i] + (b, a) + w[i + 2 :])}";')
    lines.append("}")
    return "\n".join(lines)
