"""Verification suites.

Each suite replays one structural identity of the library over an
exhaustive range of inputs, always through at least two independent
code paths, and reports one pass/fail line per property with
counterexample words on failure.  The suites exist so that every
formula shipped here can be checked from scratch on demand rather than
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bijection import check_bijection, invert_phi, phi
from .errors import InternalInversionFailure, UsageError
from .perm import Permutation  # noqa: F401  (the benchmark's tracer wraps this binding)
from .perm import all_permutations, identity, longest_element
from .poset import (
    Poset,
    _op_values_bruteforce,
    descent_gf,
    disjoint_union,
    inversion_poset,
    le_gf,
    order_polynomial_values,
    ordinal_sum,
)
from .qpoly import is_cyclotomic_product, q_binomial, q_factorial
from .separable import (
    gf_above_closed,
    gf_above_from_complement,
    gf_above_recursive,
    gf_below_231,
    gf_below_closed,
    gf_below_recursive,
    is_separable,
    separating_tree,
)
from .survey import schroder
from .weak_order import all_saturated_chains, interval, rank_gf, reduced_words

_SHOW = 8


@dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class _Failures:
    """Collects counterexample words and renders a capped summary."""

    def __init__(self):
        self.words: list[str] = []

    def add(self, word) -> None:
        self.words.append(str(word))

    def __bool__(self) -> bool:
        return bool(self.words)

    def detail(self) -> str:
        if not self.words:
            return ""
        shown = " ".join(self.words[:_SHOW])
        extra = len(self.words) - _SHOW
        tail = f" and {extra} more" if extra > 0 else ""
        return f"counterexamples: {shown}{tail}"


def _check(label: str, failures: _Failures, ok_detail: str) -> Check:
    if failures:
        return Check(label, False, failures.detail())
    return Check(label, True, ok_detail)


def _separable_words(n: int):
    for pi in all_permutations(n):
        if is_separable(pi):
            yield pi


def suite_main_theorem(n_max: int = 7, force: bool = False) -> SuiteResult:
    """Product of the two interval generating functions of a separable
    permutation equals the full q-factorial."""
    product_fails = _Failures()
    count_fails = _Failures()
    brute_fails = _Failures()
    checked = 0
    brute_checked = 0
    for n in range(1, n_max + 1):
        fact = q_factorial(n)
        w0 = longest_element(n)
        seen = 0
        for pi in _separable_words(n):
            seen += 1
            checked += 1
            if gf_below_recursive(pi) * gf_above_recursive(pi) != fact:
                product_fails.add(pi)
            if n <= 5:
                brute_checked += 1
                below = rank_gf(interval(identity(n), pi, force=force))
                above = rank_gf(interval(pi, w0, force=force))
                if below * above != fact:
                    brute_fails.add(pi)
        if seen != schroder(n - 1):
            count_fails.add(f"n={n}:{seen}!={schroder(n - 1)}")
    return SuiteResult(
        "main-theorem",
        (
            _check(
                "formula product F(below)*F(above) equals the q-factorial",
                product_fails,
                f"{checked} separable permutations checked, n <= {n_max}",
            ),
            _check(
                "separable counts match the Schroeder numbers",
                count_fails,
                f"n <= {n_max}",
            ),
            _check(
                "brute-force interval enumeration agrees",
                brute_fails,
                f"{brute_checked} separable permutations checked, n <= {min(n_max, 5)}",
            ),
        ),
    )


def suite_ff(n_max: int = 6, force: bool = False) -> SuiteResult:
    """Linear extensions of the inversion poset reproduce the lower
    interval's rank generating function, separable or not."""
    fails = _Failures()
    checked = 0
    for n in range(1, n_max + 1):
        e = identity(n)
        for pi in all_permutations(n):
            checked += 1
            via_poset = le_gf(inversion_poset(pi), force=force)
            via_interval = rank_gf(interval(e, pi, force=force))
            if via_poset != via_interval:
                fails.add(pi)
    return SuiteResult(
        "ff",
        (
            _check(
                "linear-extension count by inversions equals the interval rank data",
                fails,
                f"{checked} permutations checked, n <= {n_max}",
            ),
        ),
    )


def suite_duality(n_max: int = 5, force: bool = False) -> SuiteResult:
    """Complementation turns upper intervals into lower ones: the rank
    data of [pi, w0] read backwards is the rank data of [id, pi^c]."""
    len_fails = _Failures()
    gf_fails = _Failures()
    checked = 0
    for n in range(1, n_max + 1):
        e = identity(n)
        w0 = longest_element(n)
        top_rank = n * (n - 1) // 2
        for pi in all_permutations(n):
            checked += 1
            if pi.complement().length != top_rank - pi.length:
                len_fails.add(pi)
            above = rank_gf(interval(pi, w0, force=force))
            below_c = rank_gf(interval(e, pi.complement(), force=force))
            if above.reverse() != below_c:
                gf_fails.add(pi)
    return SuiteResult(
        "duality",
        (
            _check(
                "complement length is the corank",
                len_fails,
                f"{checked} permutations checked, n <= {n_max}",
            ),
            _check(
                "upper interval reversed equals the complement's lower interval",
                gf_fails,
                f"{checked} permutations checked, n <= {n_max}",
            ),
        ),
    )


def _chain_word(chain) -> tuple[int, ...]:
    word = []
    for x, y in zip(chain, chain[1:]):
        i = next(k for k in range(len(x.word)) if x.word[k] != y.word[k])
        word.append(i + 1)
    return tuple(word)


def suite_chains_words(n_max: int = 5, force: bool = False) -> SuiteResult:
    """Saturated chains from the identity, read edge by edge, are
    exactly the reduced words."""
    count_fails = _Failures()
    replay_fails = _Failures()
    checked = 0
    for n in range(1, n_max + 1):
        e = identity(n)
        for pi in all_permutations(n):
            checked += 1
            words = reduced_words(pi)
            chains = all_saturated_chains(e, pi)
            if len(chains) != len(words):
                count_fails.add(pi)
                continue
            replayed = {_chain_word(c) for c in chains}
            if replayed != words:
                replay_fails.add(pi)
    return SuiteResult(
        "chains-words",
        (
            _check(
                "chain counts equal reduced word counts",
                count_fails,
                f"{checked} permutations checked, n <= {n_max}",
            ),
            _check(
                "edge labels of saturated chains replay the reduced words",
                replay_fails,
                f"{checked} permutations checked, n <= {n_max}",
            ),
        ),
    )


def _all_posets(k: int) -> list[Poset]:
    """Every partial order on {1..k}, by brute force over relation sets."""
    ground = range(1, k + 1)
    pairs = [(a, b) for a in ground for b in ground if a != b]
    seen: set[frozenset] = set()
    out = []
    for r in range(len(pairs) + 1):
        for chosen in combinations(pairs, r):
            if any((b, a) in chosen for a, b in chosen):
                continue
            try:
                p = Poset(ground, chosen)
            except ValueError:
                continue
            key = frozenset(p.relations())
            if key not in seen:
                seen.add(key)
                out.append(p)
    return out


def suite_op_lemma(n_max: int = 3, force: bool = False) -> SuiteResult:
    """Product rules for linear-extension generating functions under
    ordinal sum and disjoint union of posets."""
    sum_fails = _Failures()
    union_fails = _Failures()
    counted = {k: len(_all_posets(k)) for k in range(1, n_max + 1)}
    expected = {1: 1, 2: 3, 3: 19}
    enum_fails = _Failures()
    for k, c in counted.items():
        if k in expected and c != expected[k]:
            enum_fails.add(f"size {k}: {c} != {expected[k]}")
    pairs = 0
    for a in range(1, n_max + 1):
        for b in range(1, n_max + 1):
            for p in _all_posets(a):
                gp = le_gf(p, force=force)
                for q in _all_posets(b):
                    shifted = q.shifted(a)
                    gq = le_gf(shifted, force=force)
                    pairs += 1
                    if le_gf(ordinal_sum(p, shifted), force=force) != gp * gq:
                        sum_fails.add(f"{p!r}+{q!r}")
                    expected_union = gp * gq * q_binomial(a + b, a)
                    if le_gf(disjoint_union(p, shifted), force=force) != expected_union:
                        union_fails.add(f"{p!r}|{q!r}")
    return SuiteResult(
        "op-lemma",
        (
            _check(
                "poset enumeration finds the known counts",
                enum_fails,
                f"sizes 1..{n_max}",
            ),
            _check(
                "ordinal sum multiplies the generating functions",
                sum_fails,
                f"{pairs} poset pairs checked",
            ),
            _check(
                "disjoint union multiplies and attaches a q-binomial",
                union_fails,
                f"{pairs} poset pairs checked",
            ),
        ),
    )


def suite_des(n_max: int = 5, force: bool = False) -> SuiteResult:
    """Descents of linear extensions determine the order polynomial:
    sum_m Omega(m) x^m = (sum_L x^(des(L)+1)) / (1-x)^(size+1)."""
    identity_fails = _Failures()
    route_fails = _Failures()
    checked = 0
    for n in range(1, n_max + 1):
        for pi in all_permutations(n):
            checked += 1
            p = inversion_poset(pi)
            m_max = n + 2
            omega = order_polynomial_values(p, m_max, force=force)
            w = descent_gf(p, force=force)
            for m in range(1, m_max + 1):
                # coefficient of x^m in W(x) / (1-x)^(n+1)
                total = sum(
                    w.coeffs[k] * comb(n + m - k, n)
                    for k in range(1, min(m, w.degree) + 1)
                )
                if total != omega[m - 1]:
                    identity_fails.add(pi)
                    break
            if _op_values_bruteforce(p, m_max) != omega:
                route_fails.add(pi)
    return SuiteResult(
        "des",
        (
            _check(
                "descent generating function expands to the order polynomial",
                identity_fails,
                f"{checked} inversion posets checked, n <= {n_max}",
            ),
            _check(
                "both order-polynomial routes agree",
                route_fails,
                f"{checked} inversion posets checked, n <= {n_max}",
            ),
        ),
    )


def suite_formula(n_max: int = 7, force: bool = False) -> SuiteResult:
    """Closed-form tree formulas, block recursions, the q-factorial
    quotient, and brute-force enumeration all compute the same
    generating functions on separable permutations."""
    closed_fails = _Failures()
    largest_fails = _Failures()
    quotient_fails = _Failures()
    brute_fails = _Failures()
    checked = 0
    brute_checked = 0
    for n in range(1, n_max + 1):
        e = identity(n)
        w0 = longest_element(n)
        for pi in _separable_words(n):
            checked += 1
            below = gf_below_recursive(pi)
            above = gf_above_recursive(pi)
            tree = separating_tree(pi)
            if gf_below_closed(tree) != below or gf_above_closed(tree) != above:
                closed_fails.add(pi)
            big = separating_tree(pi, largest=True)
            if gf_below_closed(big) != below or gf_above_closed(big) != above:
                largest_fails.add(pi)
            if gf_above_from_complement(pi) != above:
                quotient_fails.add(pi)
            if n <= 5:
                brute_checked += 1
                if rank_gf(interval(e, pi, force=force)) != below:
                    brute_fails.add(pi)
                elif rank_gf(interval(pi, w0, force=force)) != above:
                    brute_fails.add(pi)
    return SuiteResult(
        "formula",
        (
            _check(
                "closed tree formulas match the block recursions",
                closed_fails,
                f"{checked} separable permutations checked, n <= {n_max}",
            ),
            _check(
                "largest-split trees give the same closed formulas",
                largest_fails,
                f"{checked} separable permutations checked, n <= {n_max}",
            ),
            _check(
                "q-factorial quotient reproduces the upper generating function",
                quotient_fails,
                f"{checked} separable permutations checked, n <= {n_max}",
            ),
            _check(
                "brute-force interval enumeration agrees",
                brute_fails,
                f"{brute_checked} separable permutations checked, n <= {min(n_max, 5)}",
            ),
        ),
    )


def suite_explicit_231(n_max: int = 8, force: bool = False) -> SuiteResult:
    """The per-letter distance product for 231-avoiding permutations
    against the block recursion, linear extensions, and brute force."""
    catalan_fails = _Failures()
    rec_fails = _Failures()
    le_fails = _Failures()
    brute_fails = _Failures()
    checked = 0
    brute_checked = 0
    for n in range(1, n_max + 1):
        e = identity(n)
        seen = 0
        for pi in all_permutations(n):
            if pi.contains_pattern((2, 3, 1)):
                continue
            seen += 1
            checked += 1
            product = gf_below_231(pi)
            if product != gf_below_recursive(pi):
                rec_fails.add(pi)
            if product != le_gf(inversion_poset(pi), force=force):
                le_fails.add(pi)
            if n <= 5:
                brute_checked += 1
                if product != rank_gf(interval(e, pi, force=force)):
                    brute_fails.add(pi)
        if seen != comb(2 * n, n) // (n + 1):
            catalan_fails.add(f"n={n}:{seen}")
    return SuiteResult(
        "explicit-231",
        (
            _check(
                "231-avoiding counts match the Catalan numbers",
                catalan_fails,
                f"n <= {n_max}",
            ),
            _check(
                "distance product matches the block recursion",
                rec_fails,
                f"{checked} permutations checked, n <= {n_max}",
            ),
            _check(
                "distance product matches the linear-extension route",
                le_fails,
                f"{checked} permutations checked, n <= {n_max}",
            ),
            _check(
                "distance product matches brute-force enumeration",
                brute_fails,
                f"{brute_checked} permutations checked, n <= {min(n_max, 5)}",
            ),
        ),
    )


def suite_bijection(n_max: int = 6, force: bool = False) -> SuiteResult:
    """Pairing each element below pi with each element above pi via
    u^(-1)v covers the whole symmetric group exactly once, and the
    constructive inverse round-trips."""
    sep_fails = _Failures()
    exact4_fails = _Failures()
    invert_fails = _Failures()
    checked = 0
    inverted = 0
    for n in range(1, n_max + 1):
        perms = list(all_permutations(n))
        for pi in perms:
            sep = is_separable(pi)
            if sep:
                checked += 1
                if not check_bijection(pi, force=force).is_bijection:
                    sep_fails.add(pi)
            if n == 4 and check_bijection(pi).is_bijection == (not sep):
                # bijection must hold exactly on the separable words
                exact4_fails.add(pi)
            if sep and n <= 5:
                for w in perms:
                    inverted += 1
                    try:
                        u, v = invert_phi(pi, w)
                    except InternalInversionFailure:
                        invert_fails.add(f"{pi}:{w}")
                        continue
                    if phi(u, v) != w:
                        invert_fails.add(f"{pi}:{w}")
    return SuiteResult(
        "bijection",
        (
            _check(
                "pairing is a bijection for every separable word",
                sep_fails,
                f"{checked} separable permutations checked, n <= {n_max}",
            ),
            _check(
                "at n=4 the bijection fails exactly off the separable words",
                exact4_fails,
                "24 permutations checked",
            ),
            _check(
                "constructive inverse round-trips",
                invert_fails,
                f"{inverted} (word, target) pairs checked, n <= {min(n_max, 5)}",
            ),
        ),
    )


def suite_sym_unim(n_max: int = 7, force: bool = False) -> SuiteResult:
    """Separable generating functions are symmetric and unimodal, and
    every rank-symmetric generating function seen in an exhaustive scan
    factors into cyclotomic polynomials."""
    shape_fails = _Failures()
    cyclotomic_fails = _Failures()
    checked = 0
    scanned = 0
    for n in range(1, n_max + 1):
        for pi in all_permutations(n):
            scanned += 1
            if is_separable(pi):
                checked += 1
                below = gf_below_recursive(pi)
                above = gf_above_recursive(pi)
                if not (below.is_symmetric() and below.is_unimodal()):
                    shape_fails.add(pi)
                elif not (above.is_symmetric() and above.is_unimodal()):
                    shape_fails.add(pi)
            else:
                below = le_gf(inversion_poset(pi), force=force)
            if below.is_symmetric() and not is_cyclotomic_product(below):
                cyclotomic_fails.add(pi)
    return SuiteResult(
        "sym-unim",
        (
            _check(
                "separable generating functions are symmetric and unimodal",
                shape_fails,
                f"{checked} separable permutations checked, n <= {n_max}",
            ),
            _check(
                "rank-symmetric implies a cyclotomic product",
                cyclotomic_fails,
                f"{scanned} permutations scanned, n <= {n_max}",
            ),
        ),
    )


SUITES = {
    "main-theorem": (suite_main_theorem, 7),
    "ff": (suite_ff, 6),
    "duality": (suite_duality, 5),
    "chains-words": (suite_chains_words, 5),
    "op-lemma": (suite_op_lemma, 3),
    "des": (suite_des, 5),
    "formula": (suite_formula, 7),
    "explicit-231": (suite_explicit_231, 8),
    "bijection": (suite_bijection, 6),
    "sym-unim": (suite_sym_unim, 7),
}


def run_suite(name: str, n: int | None = None, force: bool = False) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if n is not None and n < 1:
        raise UsageError(f"suite size n must be >= 1, got {n}")
    fn, default_n = SUITES[name]
    return fn(default_n if n is None else n, force=force)


def suite_names() -> tuple[str, ...]:
    return tuple(SUITES)
