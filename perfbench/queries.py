"""Seeded query mix for the `queries` workload and the independent
checks its answers are held to.

Five homogeneous kinds of CLI argument vectors:

- interval:      `interval W --side below|above --gf`, W uniform in S_8
- pairs:         `bijection W` (pair-table check), W separable in S_7
- analyze_sep:   `analyze W`, W separable with n = 12..24
- analyze_small: `analyze W`, W non-separable with n = 9..10
- invert:        `bijection W --invert T`, W separable with n = 12..24

Separable words are built from random separating trees, non-separable
ones by rejection against a brute-force 2413/3142 scan written here, so
the generator trusts nothing in the package.  The checks use routes
other than the one the command takes (see `check`).
"""

from __future__ import annotations

import json
import random
from itertools import combinations

KINDS = ("interval", "pairs", "analyze_sep", "analyze_small", "invert")


def fmt(word) -> str:
    """CLI form of a word: digits up to n = 9, commas beyond."""
    if len(word) <= 9:
        return "".join(str(a) for a in word)
    return ",".join(str(a) for a in word)


def parse(text: str) -> tuple[int, ...]:
    if "," in text:
        return tuple(int(p) for p in text.split(","))
    return tuple(int(ch) for ch in text)


def random_separable(rng: random.Random, n: int) -> tuple[int, ...]:
    """A separable word of size n from a random separating tree: each
    internal node splits the size at random and stacks its blocks
    low-high (direct sum) or high-low (skew sum)."""
    if n == 1:
        return (1,)
    k = rng.randint(1, n - 1)
    left = random_separable(rng, k)
    right = random_separable(rng, n - k)
    if rng.random() < 0.5:
        return left + tuple(a + k for a in right)
    return tuple(a + n - k for a in left) + right


def has_forbidden_pattern(word) -> bool:
    """Brute-force containment of 2413 or 3142."""
    for a, b, c, d in combinations(word, 4):
        if c < a < d < b or b < d < a < c:
            return True
    return False


def random_nonseparable(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        word = list(range(1, n + 1))
        rng.shuffle(word)
        if has_forbidden_pattern(word):
            return tuple(word)


def query_blocks(seed: int, per_kind: int):
    """Endless stream of blocks, each `per_kind` queries of every kind
    as (kind, argv) in shuffled order.  The stream depends only on the
    seed, so a run that stops earlier has seen a prefix of it."""
    rng = random.Random(seed)
    j = 0
    while True:
        block: list[tuple[str, list[str]]] = []
        # sides and sizes take their values in turn rather than at
        # random, because cost depends steeply on them
        for i in range(j, j + per_kind):
            w = list(range(1, 9))
            rng.shuffle(w)
            side = ("below", "above")[i % 2]
            block.append(("interval", ["--json", "interval", fmt(w), "--side", side, "--gf"]))
            block.append(("pairs", ["--json", "bijection", fmt(random_separable(rng, 7))]))
            w = random_separable(rng, 12 + i % 13)
            block.append(("analyze_sep", ["--json", "analyze", fmt(w)]))
            w = random_nonseparable(rng, 9 + i % 2)
            block.append(("analyze_small", ["--json", "analyze", fmt(w)]))
            n = 12 + (i + 6) % 13
            t = list(range(1, n + 1))
            rng.shuffle(t)
            w = random_separable(rng, n)
            block.append(("invert", ["--json", "bijection", fmt(w), "--invert", fmt(t)]))
        j += per_kind
        rng.shuffle(block)
        yield block


# --- polynomials as coefficient lists, independent of weakbruhat.qpoly ---


def parse_poly(text: str) -> list[int]:
    """Read the package's printed form, e.g. `1 + 2*q - q^3`."""
    coeffs: dict[int, int] = {}
    sign = 1
    for tok in text.split():
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        if "q" in tok:
            mag, _, var = tok.rpartition("*")
            c = int(mag) if mag else 1
            k = int(var[2:]) if var.startswith("q^") else 1
        else:
            c, k = int(tok), 0
        coeffs[k] = coeffs.get(k, 0) + sign * c
        sign = 1
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def q_factorial(n: int) -> list[int]:
    out = [1]
    for i in range(1, n + 1):
        out = poly_mul(out, [1] * i)
    return out


# --- permutations as tuples, independent of weakbruhat.perm ---


def inversion_count(word) -> int:
    return sum(1 for i, j in combinations(range(len(word)), 2) if word[i] > word[j])


def value_inversions(word) -> set[tuple[int, int]]:
    """Value pairs (a, b), a < b, with b placed before a.  In the right
    weak order u <= v exactly when these sets are nested."""
    return {(b, a) for a, b in combinations(word, 2) if a > b}


def weak_leq(u, v) -> bool:
    return value_inversions(u) <= value_inversions(v)


def phi_word(u, v) -> tuple[int, ...]:
    """Word of inverse(u) composed with v."""
    inv = [0] * len(u)
    for i, a in enumerate(u, start=1):
        inv[a - 1] = i
    return tuple(inv[a - 1] for a in v)


def expected_interval(word, side: str) -> list[int]:
    """Interval generating function through linear extensions of the
    inversion poset; the upper side goes through the complement, whose
    lower interval is the upper one turned upside down."""
    from weakbruhat.perm import Permutation
    from weakbruhat.poset import inversion_poset, le_gf

    pi = Permutation(word)
    if side == "below":
        return list(le_gf(inversion_poset(pi)).coeffs)
    return list(le_gf(inversion_poset(pi.complement())).coeffs)[::-1]


def check(kind: str, argv: list[str], code: int, out: str) -> str | None:
    """None when the answer is right, else a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    word = parse(argv[2])
    n = len(word)
    if kind == "interval":
        got = parse_poly(out.strip())
        want = expected_interval(word, argv[4])
        return None if got == want else f"gf {got} != {want}"
    data = json.loads(out)
    if kind == "pairs":
        if data["is_bijection"] is not True or data["collisions"]:
            return "pair table is not a bijection"
        return None
    if kind == "invert":
        u, v, t = parse(data["u"]), parse(data["v"]), parse(argv[4])
        if phi_word(u, v) != t:
            return "phi(u, v) != target"
        if not (weak_leq(u, word) and weak_leq(word, v)):
            return "u <= W <= v fails"
        return None
    below, above = parse_poly(data["gf_below"]), parse_poly(data["gf_above"])
    if kind == "analyze_sep":
        if data["separable"] is not True:
            return "separable word reported non-separable"
        return None if poly_mul(below, above) == q_factorial(n) else "below*above != [n]!"
    # analyze_small: the le_gf route, held to facts read off the word
    inv = inversion_count(word)
    if data["separable"] is not False:
        return "non-separable word reported separable"
    if len(below) != inv + 1 or len(above) != n * (n - 1) // 2 - inv + 1:
        return "degree does not match the inversion count"
    if below[0] != 1 or below[-1] != 1 or above[0] != 1 or above[-1] != 1:
        return "end coefficients are not 1"
    # atoms below W are the s_i with i+1 left of i; W covers one
    # element per descent
    pos = {a: i for i, a in enumerate(word)}
    atoms = sum(1 for a in range(1, n) if pos[a + 1] < pos[a])
    covered = sum(1 for i in range(n - 1) if word[i] > word[i + 1])
    if inv >= 1 and (below[1] != atoms or below[-2] != covered):
        return "rank sizes next to the ends are wrong"
    return None
