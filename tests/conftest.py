"""Fixtures and helpers shared across test modules, and the reference
routines that tests compare the library against."""

import random
from functools import cache
from itertools import combinations
from operator import itemgetter, lt

import pytest

from weakbruhat import separable, survey
from weakbruhat.bijection import phi_inverter
from weakbruhat.perm import Permutation, all_permutations
from weakbruhat.qpoly import IntPoly
from weakbruhat.separable import is_separable


def contains_pattern(pi, pattern) -> bool:
    """Subsequence scan for an order-isomorphic copy of pattern in the
    Permutation pi: each k-subset of letters is read in the order of the
    pattern's values, and a copy is one whose letters then increase."""
    if not isinstance(pattern, Permutation):
        pattern = Permutation(pattern)
    k = pattern.size
    if k > pi.size:
        return False
    if k == 1:
        return True
    by_value = itemgetter(*(i - 1 for i in pattern.inverse().word))
    for vals in map(by_value, combinations(pi.word, k)):
        if all(map(lt, vals, vals[1:])):
            return True
    return False


def iter_records(n, force=False):
    """S_n's SurveyRecords in lexicographic word order, from one process,
    read back through the row reader a resume uses."""
    survey._check_scan_args(n, force)
    for block, _, _ in survey._iter_chunk_results(n, workers=1, start=0):
        yield from survey._read_rows(block.decode().splitlines())


def q_int(i):
    """The q-integer [i] = 1 + q + ... + q^(i-1); [0] = 0."""
    return IntPoly([1] * i)


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


@pytest.fixture
def merged_words(monkeypatch):
    """The words separable._merge reads, in order."""
    seen = []
    real = separable._merge
    monkeypatch.setattr(separable, "_merge", lambda word: seen.append(word) or real(word))
    return seen


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
