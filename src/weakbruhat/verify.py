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

from .bijection import check_bijection, phi, phi_inverter
from .bijection import invert_phi  # noqa: F401  (the benchmark's tracer wraps this binding)
from .errors import InternalInversionFailure, UsageError
from .perm import Permutation  # noqa: F401  (the benchmark's tracer wraps this binding)
from .perm import all_permutations, avoids_231, identity, longest_element
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
# largest n at which suites also run interval BFS and try every inverse target
_BRUTE_N = 5


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


class _Tally:
    """One verified property: its label, the number of inputs it was
    evaluated on, and its counterexamples.  A witness is given as parts
    that are formatted, joined by sep, only when the check fails.  The
    pass detail fills {count} (inputs checked), {n} (the suite size) and
    {brute} (the size the per-word routes reached) into the template."""

    def __init__(self, label: str, detail: str, sep: str = ":"):
        self.label = label
        self.detail = detail
        self.sep = sep
        self.count = 0
        self.witnesses: list[str] = []

    def check(self, ok: bool, *witness) -> bool:
        self.count += 1
        if not ok:
            self.witnesses.append(self.sep.join(map(str, witness)))
        return ok

    def result(self, n_max: int) -> Check:
        if not self.witnesses:
            detail = self.detail.format(count=self.count, n=n_max, brute=min(n_max, _BRUTE_N))
            return Check(self.label, True, detail)
        shown = " ".join(self.witnesses[:_SHOW])
        extra = len(self.witnesses) - _SHOW
        tail = f" and {extra} more" if extra > 0 else ""
        return Check(self.label, False, f"counterexamples: {shown}{tail}")


# pass-detail templates shared by several tallies
_WORDS = "{count} permutations checked, n <= {n}"
_SEPARABLE = "{count} separable permutations checked, n <= {n}"
_BRUTE = "{count} separable permutations checked, n <= {brute}"


def _separable_words(n: int) -> list:
    return [pi for pi in all_permutations(n) if is_separable(pi)]


def suite_main_theorem(n_max: int, force: bool = False) -> SuiteResult:
    """Product of the two interval generating functions of a separable
    permutation equals the full q-factorial.  The product tally holds by
    construction (gf_above_recursive takes exponents 1 - g_i); the brute
    tally at n <= 5 and suite_formula's closed formulas are the evidence.
    A check of the theorem needs a route that shares no code with _merge."""
    product, schroeder, brute = tallies = (
        _Tally("formula product F(below)*F(above) equals the q-factorial", _SEPARABLE),
        _Tally("separable counts match the Schroeder numbers", "n <= {n}"),
        _Tally("brute-force interval enumeration agrees", _BRUTE),
    )
    for n in range(1, n_max + 1):
        fact = q_factorial(n)
        w0 = longest_element(n)
        words = _separable_words(n)
        for pi in words:
            product.check(gf_below_recursive(pi) * gf_above_recursive(pi) == fact, pi)
            if n <= _BRUTE_N:
                below = rank_gf(interval(identity(n), pi, force=force))
                above = rank_gf(interval(pi, w0, force=force))
                brute.check(below * above == fact, pi)
        expected = schroder(n - 1)
        schroeder.check(len(words) == expected, f"n={n}:{len(words)}!={expected}")
    return SuiteResult("main-theorem", tuple(t.result(n_max) for t in tallies))


def suite_ff(n_max: int, force: bool = False) -> SuiteResult:
    """Linear extensions of the inversion poset reproduce the lower
    interval's rank generating function, separable or not."""
    agree = _Tally("linear-extension count by inversions equals the interval rank data", _WORDS)
    for n in range(1, n_max + 1):
        e = identity(n)
        for pi in all_permutations(n):
            via_poset = le_gf(inversion_poset(pi), force=force)
            via_interval = rank_gf(interval(e, pi, force=force))
            agree.check(via_poset == via_interval, pi)
    return SuiteResult("ff", (agree.result(n_max),))


def suite_duality(n_max: int, force: bool = False) -> SuiteResult:
    """Complementation turns upper intervals into lower ones: the rank
    data of [pi, w0] read backwards is the rank data of [id, pi^c]."""
    corank, reverse = tallies = (
        _Tally("complement length is the corank", _WORDS),
        _Tally("upper interval reversed equals the complement's lower interval", _WORDS),
    )
    for n in range(1, n_max + 1):
        e = identity(n)
        w0 = longest_element(n)
        top_rank = n * (n - 1) // 2
        for pi in all_permutations(n):
            corank.check(pi.complement().length == top_rank - pi.length, pi)
            above = rank_gf(interval(pi, w0, force=force))
            below_c = rank_gf(interval(e, pi.complement(), force=force))
            reverse.check(above.reverse() == below_c, pi)
    return SuiteResult("duality", tuple(t.result(n_max) for t in tallies))


def _chain_word(chain) -> tuple[int, ...]:
    return tuple(
        next(i for i, (a, b) in enumerate(zip(x, y), start=1) if a != b)
        for x, y in zip(chain, chain[1:])
    )


def suite_chains_words(n_max: int, force: bool = False) -> SuiteResult:
    """Saturated chains from the identity, read edge by edge, are
    exactly the reduced words."""
    counts, replay = tallies = (
        _Tally("chain counts equal reduced word counts", _WORDS),
        _Tally("edge labels of saturated chains replay the reduced words", _WORDS),
    )
    for n in range(1, n_max + 1):
        e = identity(n)
        for pi in all_permutations(n):
            words = reduced_words(pi)
            chains = all_saturated_chains(e, pi)
            if not counts.check(len(chains) == len(words), pi):
                continue
            replay.check({_chain_word(c) for c in chains} == words, pi)
    return SuiteResult("chains-words", tuple(t.result(n_max) for t in tallies))


def _all_posets(k: int) -> list[Poset]:
    """Every partial order on {1..k}, by brute force over relation sets."""
    pairs = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1) if a != b]
    out: dict[Poset, None] = {}  # a Poset hashes on its closed masks
    for r in range(len(pairs) + 1):
        for chosen in combinations(pairs, r):
            if any((b, a) in chosen for a, b in chosen):
                continue
            try:
                out.setdefault(Poset(k, chosen))
            except ValueError:
                continue
    return list(out)


# partial orders on k labelled points, k = 1, 2, ... (OEIS A001035)
_POSET_COUNTS = (1, 3, 19, 219)


def suite_op_lemma(n_max: int, force: bool = False) -> SuiteResult:
    """Product rules for linear-extension generating functions under
    ordinal sum and disjoint union of posets."""
    pairs = "{count} poset pairs checked"
    enum, ordinal, union = tallies = (
        _Tally("poset enumeration finds the known counts", "sizes 1..{count}"),
        _Tally("ordinal sum multiplies the generating functions", pairs, sep="+"),
        _Tally("disjoint union multiplies and attaches a q-binomial", pairs, sep="|"),
    )
    posets = {k: _all_posets(k) for k in range(1, n_max + 1)}
    for (k, found), known in zip(posets.items(), _POSET_COUNTS):
        enum.check(len(found) == known, f"size {k}: {len(found)} != {known}")
    for a in range(1, n_max + 1):
        for b in range(1, n_max + 1):
            for p in posets[a]:
                gp = le_gf(p, force=force)
                for q in posets[b]:
                    gq = le_gf(q, force=force)
                    ordinal.check(le_gf(ordinal_sum(p, q), force=force) == gp * gq, p, q)
                    expected_union = gp * gq * q_binomial(a + b, a)
                    union.check(le_gf(disjoint_union(p, q), force=force) == expected_union, p, q)
    return SuiteResult("op-lemma", tuple(t.result(n_max) for t in tallies))


def suite_des(n_max: int, force: bool = False) -> SuiteResult:
    """Descents of linear extensions determine the order polynomial:
    sum_m Omega(m) x^m = (sum_L x^(des(L)+1)) / (1-x)^(size+1)."""
    posets = "{count} inversion posets checked, n <= {n}"
    expansion, routes = tallies = (
        _Tally("descent generating function expands to the order polynomial", posets),
        _Tally("both order-polynomial routes agree", posets),
    )
    for n in range(1, n_max + 1):
        for pi in all_permutations(n):
            p = inversion_poset(pi)
            m_max = n + 2
            omega = order_polynomial_values(p, m_max, force=force)
            w = descent_gf(p, force=force)
            # coefficient of x^m in W(x) / (1-x)^(n+1), for each m
            expanded = all(
                sum(w.coeffs[k] * comb(n + m - k, n) for k in range(1, min(m, w.degree) + 1))
                == omega[m - 1]
                for m in range(1, m_max + 1)
            )
            expansion.check(expanded, pi)
            routes.check(_op_values_bruteforce(p, m_max) == omega, pi)
    return SuiteResult("des", tuple(t.result(n_max) for t in tallies))


def suite_formula(n_max: int, force: bool = False) -> SuiteResult:
    """Closed-form tree formulas, block recursions, the q-factorial
    quotient, and brute-force enumeration all compute the same
    generating functions on separable permutations.  The quotient tally
    holds by construction (gf_above_recursive is that quotient); the brute
    tally at n <= 5 and the closed formulas, off separating_tree, are the
    evidence.  A check of the theorem needs a route sharing no code with _merge."""
    closed, largest, quotient, brute = tallies = (
        _Tally("closed tree formulas match the block recursions", _SEPARABLE),
        _Tally("largest-split trees give the same closed formulas", _SEPARABLE),
        _Tally("q-factorial quotient reproduces the upper generating function", _SEPARABLE),
        _Tally("brute-force interval enumeration agrees", _BRUTE),
    )
    for n in range(1, n_max + 1):
        e = identity(n)
        w0 = longest_element(n)
        for pi in _separable_words(n):
            below = gf_below_recursive(pi)
            above = gf_above_recursive(pi)
            tree = separating_tree(pi)
            closed.check(gf_below_closed(tree) == below and gf_above_closed(tree) == above, pi)
            big = separating_tree(pi, largest=True)
            largest.check(gf_below_closed(big) == below and gf_above_closed(big) == above, pi)
            quotient.check(gf_above_from_complement(pi) == above, pi)
            if n <= _BRUTE_N:
                brute.check(
                    rank_gf(interval(e, pi, force=force)) == below
                    and rank_gf(interval(pi, w0, force=force)) == above,
                    pi,
                )
    return SuiteResult("formula", tuple(t.result(n_max) for t in tallies))


def suite_explicit_231(n_max: int, force: bool = False) -> SuiteResult:
    """The per-letter distance product for 231-avoiding permutations
    against the block recursion, linear extensions, and brute force.
    The product and the recursion both expand through qint_product; the
    le_gf and BFS tallies share no code with it or with _merge."""
    catalan, recursion, extensions, brute = tallies = (
        _Tally("231-avoiding counts match the Catalan numbers", "n <= {n}"),
        _Tally("distance product matches the block recursion", _WORDS),
        _Tally("distance product matches the linear-extension route", _WORDS),
        _Tally(
            "distance product matches brute-force enumeration",
            "{count} permutations checked, n <= {brute}",
        ),
    )
    for n in range(1, n_max + 1):
        e = identity(n)
        avoiders = [pi for pi in all_permutations(n) if avoids_231(pi.word)]
        for pi in avoiders:
            product = gf_below_231(pi)
            recursion.check(product == gf_below_recursive(pi), pi)
            extensions.check(product == le_gf(inversion_poset(pi), force=force), pi)
            if n <= _BRUTE_N:
                brute.check(product == rank_gf(interval(e, pi, force=force)), pi)
        catalan.check(len(avoiders) == comb(2 * n, n) // (n + 1), f"n={n}:{len(avoiders)}")
    return SuiteResult("explicit-231", tuple(t.result(n_max) for t in tallies))


def suite_bijection(n_max: int, force: bool = False) -> SuiteResult:
    """Pairing each element below pi with each element above pi via
    u^(-1)v covers the whole symmetric group exactly once, and the
    constructive inverse round-trips."""
    pairing, exact4, inverse = tallies = (
        _Tally("pairing is a bijection for every separable word", _SEPARABLE),
        _Tally("at n=4 the bijection fails exactly off the separable words", "{count} permutations checked"),
        _Tally("constructive inverse round-trips", "{count} (word, target) pairs checked, n <= {brute}"),
    )
    for n in range(1, n_max + 1):
        perms = list(all_permutations(n))
        for pi in perms:
            sep = is_separable(pi)
            if sep or n == 4:
                holds = check_bijection(pi, force=force).is_bijection
                if sep:
                    pairing.check(holds, pi)
                if n == 4:
                    # the bijection must hold exactly on the separable words
                    exact4.check(holds == sep, pi)
            if sep and n <= _BRUTE_N:
                invert = phi_inverter(pi)
                for w in perms:
                    try:
                        u, v = invert(w)
                    except InternalInversionFailure:
                        inverse.check(False, pi, w)
                        continue
                    inverse.check(phi(u, v) == w, pi, w)
    return SuiteResult("bijection", tuple(t.result(n_max) for t in tallies))


def suite_sym_unim(n_max: int, force: bool = False) -> SuiteResult:
    """Separable generating functions are symmetric and unimodal, and
    every rank-symmetric generating function seen in an exhaustive scan
    factors into cyclotomic polynomials."""
    shape, cyclotomic = tallies = (
        _Tally("separable generating functions are symmetric and unimodal", _SEPARABLE),
        _Tally("rank-symmetric implies a cyclotomic product", "{count} permutations scanned, n <= {n}"),
    )
    for n in range(1, n_max + 1):
        for pi in all_permutations(n):
            if is_separable(pi):
                below = gf_below_recursive(pi)
                above = gf_above_recursive(pi)
                shape.check(
                    below.is_symmetric() and below.is_unimodal()
                    and above.is_symmetric() and above.is_unimodal(),
                    pi,
                )
            else:
                below = le_gf(inversion_poset(pi), force=force)
            cyclotomic.check(not below.is_symmetric() or is_cyclotomic_product(below), pi)
    return SuiteResult("sym-unim", tuple(t.result(n_max) for t in tallies))


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
