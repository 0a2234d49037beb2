"""Fixtures shared across test modules."""

import pytest

from weakbruhat.bijection import phi_inverter
from weakbruhat.perm import all_permutations
from weakbruhat.separable import is_separable


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
