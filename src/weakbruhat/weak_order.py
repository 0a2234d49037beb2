"""Intervals in the weak order on S_n: enumeration, rank generating
functions, saturated chains, reduced words, and DOT/JSON export.

Interval enumeration walks upward from the bottom through covers,
pruning by comparison with the top, so the work is proportional to the
interval actually returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import GuardExceeded, IncomparableEndpoints
from .perm import Permutation, leq_weak
from .qpoly import IntPoly

INTERVAL_GUARD = 10


@dataclass(frozen=True)
class Interval:
    """A weak order interval, elements grouped by rank offset from the
    bottom.  ranks[k] holds the elements of length length(bottom) + k,
    sorted by word."""

    bottom: Permutation
    top: Permutation
    ranks: tuple[tuple[Permutation, ...], ...]

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.ranks)

    def elements(self) -> Iterator[Permutation]:
        for rank in self.ranks:
            yield from rank


def interval(bottom: Permutation, top: Permutation, force: bool = False) -> Interval:
    """All w with bottom <= w <= top, by upward BFS with pruning."""
    if bottom.size != top.size:
        raise ValueError(f"size mismatch: {bottom.size} vs {top.size}")
    if bottom.size > INTERVAL_GUARD and not force:
        raise GuardExceeded(
            f"interval enumeration guarded at n <= {INTERVAL_GUARD} "
            f"(got {bottom.size}); pass force=True (--force) to override"
        )
    if not leq_weak(bottom, top):
        raise IncomparableEndpoints(f"{bottom} is not below {top} in the weak order")
    ranks = []
    frontier = [bottom]
    seen = {bottom.word}
    while frontier:
        ranks.append(tuple(sorted(frontier, key=lambda p: p.word)))
        nxt = []
        for w in frontier:
            for c in w.upper_covers():
                if c.word not in seen and leq_weak(c, top):
                    seen.add(c.word)
                    nxt.append(c)
        frontier = nxt
    return Interval(bottom, top, tuple(ranks))


def rank_gf(iv: Interval) -> IntPoly:
    """Rank generating function: coefficient k counts rank k."""
    return IntPoly(len(r) for r in iv.ranks)


def all_saturated_chains(
    u: Permutation, v: Permutation
) -> list[tuple[Permutation, ...]]:
    """Every saturated chain u = w_0 < w_1 < ... < w_k = v, each step a
    cover."""
    if not leq_weak(u, v):
        raise IncomparableEndpoints(f"{u} is not below {v} in the weak order")
    out: list[tuple[Permutation, ...]] = []
    chain = [u]

    def walk(w: Permutation) -> None:
        if w == v:
            out.append(tuple(chain))
            return
        for c in w.upper_covers():
            if leq_weak(c, v):
                chain.append(c)
                walk(c)
                chain.pop()

    walk(u)
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

    def words(w: Permutation) -> set[tuple[int, ...]]:
        if w.length == 0:
            return {()}
        got = memo.get(w.word)
        if got is not None:
            return got
        out = set()
        for i in sorted(w.descent_set()):
            for r in words(w.times_s(i)):
                out.add(r + (i,))
        memo[w.word] = out
        return out

    return words(pi)


def interval_json(iv: Interval) -> dict:
    return {
        "bottom": str(iv.bottom),
        "top": str(iv.top),
        "ranks": [[str(p) for p in rank] for rank in iv.ranks],
    }


def hasse_dot(iv: Interval) -> str:
    """DOT rendering of the interval's Hasse diagram, one rank per row."""
    members = {p.word for p in iv.elements()}
    lines = ["digraph interval {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for rank in iv.ranks:
        row = " ".join(f'"{p}";' for p in rank)
        lines.append(f"  {{ rank=same; {row} }}")
    for rank in iv.ranks:
        for w in rank:
            for c in w.upper_covers():
                if c.word in members:
                    lines.append(f'  "{w}" -> "{c}";')
    lines.append("}")
    return "\n".join(lines)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
