"""Intervals in the weak order on S_n: enumeration, rank generating
functions, saturated chains, reduced words, and DOT/JSON export.

In the right weak order u <= v exactly when the inversion set of u
(value pairs b > a with b placed before a) is contained in that of v.
An upper cover w s_i swaps an ascent a < b of w and adds the one
inversion (a, b), so a cover of some w <= top stays below top exactly
when top places b before a: one lookup in top's letter-position table.
The walks run on word tuples with that test, and the elements of
intervals and chains stay word tuples; wrap one as Permutation(w) where
an object is wanted.  WORD_BUDGET caps the words an interval or a pair
table may hold without force, whatever n is; check_budget applies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .errors import GuardExceeded, IncomparableEndpoints
from .perm import Permutation, leq_weak, positions, word_text
from .qpoly import IntPoly

WORD_BUDGET = factorial(9)


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
    """A weak order interval, elements grouped by rank offset from the
    bottom.  ranks[k] holds the words of the elements of length
    length(bottom) + k, sorted."""

    bottom: Permutation
    top: Permutation
    ranks: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.ranks)

    def elements(self) -> Iterator[tuple[int, ...]]:
        for rank in self.ranks:
            yield from rank


def interval(bottom: Permutation, top: Permutation, force: bool = False) -> Interval:
    """The words of all w with bottom <= w <= top, by upward BFS over
    covers that stay below top.  Ranks are graded, so each rank only
    needs to deduplicate itself.  Without force, raises GuardExceeded
    as soon as more than WORD_BUDGET words are found."""
    if bottom.size != top.size:
        raise ValueError(f"size mismatch: {bottom.size} vs {top.size}")
    if not leq_weak(bottom, top):
        raise IncomparableEndpoints(f"{bottom} is not below {top} in the weak order")
    pos = positions(top.word)
    ranks = []
    frontier = {bottom.word}
    total = 0
    while frontier:
        words = sorted(frontier)
        ranks.append(tuple(words))
        total += len(words)
        frontier = set()
        for w in words:
            # checked before each word's covers, so a refused walk holds
            # at most n - 1 words past the budget
            if total + len(frontier) > WORD_BUDGET:
                check_budget(total + len(frontier), force)
            for i in range(len(w) - 1):
                a, b = w[i], w[i + 1]
                if a < b and pos[b] < pos[a]:
                    frontier.add(w[:i] + (b, a) + w[i + 2 :])
    return Interval(bottom, top, tuple(ranks))


def rank_gf(iv: Interval) -> IntPoly:
    """Rank generating function: coefficient k counts rank k."""
    return IntPoly(len(r) for r in iv.ranks)


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
        "ranks": [[word_text(w) for w in rank] for rank in iv.ranks],
    }


def hasse_dot(iv: Interval) -> str:
    """DOT rendering of the interval's Hasse diagram, one rank per row.
    Every element is below top, so its up-edges are the covers that
    stay below top, found by the same test as the BFS."""
    pos = positions(iv.top.word)
    lines = ["digraph interval {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for rank in iv.ranks:
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
