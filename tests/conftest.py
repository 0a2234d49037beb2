"""Fixtures and helpers shared across test modules."""

import random
from functools import cache

import pytest

from weakbruhat.bijection import phi_inverter
from weakbruhat.perm import Permutation, all_permutations
from weakbruhat.separable import is_separable
from weakbruhat.survey import iter_records


@pytest.fixture(scope="session")
def phi_inverses():
    """n -> (S_n as a list, [(pi, [phi_inverter(pi)(w) for w in S_n])] over
    the separable pi in word order), walked once per n and session, for
    n <= 6.  It asserts nothing: the tests that read it do.  Equal words
    share one Permutation, so the 283,680 pairs of S_6 hold few objects."""
    walks = {}

    def walk(n):
        if n not in walks:
            perms, rows = list(all_permutations(n)), []
            for pi in filter(is_separable, perms):
                invert, shared = phi_inverter(pi), {}
                pairs = [tuple(shared.setdefault(x.word, x) for x in invert(w)) for w in perms]
                rows.append((pi, pairs))
            walks[n] = perms, rows
        return walks[n]

    return walk


@pytest.fixture(scope="session")
def survey_records():
    """n -> list(iter_records(n)), computed once per n and session.  It
    asserts nothing: the tests that read it do."""
    return cache(lambda n: list(iter_records(n)))


def seeded_separable_words(count, seed, sizes=range(9, 41)):
    """count random direct or skew sums of n letters, n drawn from sizes."""
    rng = random.Random(seed)

    def draw(n):
        if n == 1:
            return (1,)
        m = rng.randint(1, n - 1)
        left, right = draw(m), draw(n - m)
        if rng.random() < 0.5:
            return left + tuple(a + m for a in right)
        return tuple(a + n - m for a in left) + right

    return [Permutation(draw(rng.choice(sizes))) for _ in range(count)]
