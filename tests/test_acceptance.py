"""Acceptance gate.  One test per contract criterion, each printing a
single PASS or FAIL line with the quantity checked and its time budget.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

Criterion 10 is split: the symmetry/unimodality half passes; the
implication "rank-symmetric => product of cyclotomic polynomials" is an
expected failure because genuine counterexamples exist from n = 6 on
(first witness 245163).  The failure is mathematical, not a bug: both
generating-function routes agree on the witnesses, and a witness value
of 13 at q = 1 cannot be realized by cyclotomic factors within degree 6.
"""

import hashlib
import json
import time
from itertools import permutations as iter_perms

import pytest

from weakbruhat.cli import main as cli_main
from weakbruhat.perm import Permutation, all_permutations, identity, longest_element
from weakbruhat.qpoly import is_cyclotomic_product, q_factorial
from weakbruhat.separable import (
    gf_above_closed,
    gf_above_recursive,
    gf_below_231,
    gf_below_closed,
    gf_below_recursive,
    is_separable,
    separating_tree,
)
from weakbruhat.survey import scan, schroder
from weakbruhat.verify import run_suite
from weakbruhat.weak_order import interval, rank_gf


# the n = 8 survey CSV, byte for byte; any change to a row, a column or
# the formatting shows here
SURVEY_N8_SHA256 = "9575599d8ae621b721d15c243bd1443dfdf368c1ba2c58878a0eea6d9a7f51ff"


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:>2} ({name}): {status} - {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def separable_words(n):
    return [p for p in all_permutations(n) if is_separable(p)]


def test_criterion_01_factorization_identity():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 8):
        fact = q_factorial(n)
        for pi in separable_words(n):
            checked += 1
            assert gf_below_recursive(pi) * gf_above_recursive(pi) == fact
    formula_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    brute = 0
    for n in range(1, 6):
        e, w0 = identity(n), longest_element(n)
        for pi in separable_words(n):
            brute += 1
            assert gf_below_recursive(pi) == rank_gf(interval(e, pi))
            assert gf_above_recursive(pi) == rank_gf(interval(pi, w0))
    brute_time = time.perf_counter() - t0

    report(
        1,
        "factorization identity",
        checked == 2321 and formula_time < 10 and brute_time < 30,
        f"{checked} separable words, n <= 7, formulas {formula_time:.2f}s; "
        f"{brute} cross-checked by interval search, n <= 5, {brute_time:.2f}s",
    )


def test_criterion_02_worked_example_4132(capsys):
    code = cli_main(["analyze", "4132", "--json"])
    data = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and data["gf_below"] == "1 + 2*q + 2*q^2 + 2*q^3 + q^4"
        and data["gf_above"] == "1 + q + q^2"
    )
    with capsys.disabled():
        report(2, "worked example 4132", ok, "analyze output bit-exact")


def test_criterion_03_worked_example_4231():
    tree = separating_tree(Permutation((4, 2, 3, 1)))
    below = gf_below_closed(tree)
    above = gf_above_closed(tree)
    ok = below == q_factorial(4).exact_div(q_factorial(2)) and above == q_factorial(2)
    report(3, "worked example 4231", ok, f"closed formulas give {below} and {above}")


def test_criterion_04_explicit_231_products():
    fixture = gf_below_231(Permutation((1, 4, 2, 3, 6, 5)))
    ok = fixture.coeffs == (1, 2, 2, 1)

    t0 = time.perf_counter()
    e = identity(8)
    words = [p for p in all_permutations(8) if not p.contains_pattern((2, 3, 1))]
    mismatches = [pi for pi in words if gf_below_231(pi) != rank_gf(interval(e, pi))]
    elapsed = time.perf_counter() - t0

    report(
        4,
        "per-letter distance product",
        ok and len(words) == 1430 and not mismatches and elapsed < 120,
        f"fixture exact; {len(words)} words of size 8 match interval search in {elapsed:.1f}s",
    )


def test_criterion_05_survey_at_8(tmp_path):
    out = tmp_path / "s8.csv"
    t0 = time.perf_counter()
    rep = scan(8, out=str(out))
    elapsed = time.perf_counter() - t0

    sha = hashlib.sha256(out.read_bytes()).hexdigest()
    broken_divisibility = []
    with open(out) as handle:
        next(handle)
        for line in handle:
            word, sep, _, _, _, _, div = line.rstrip("\n").split(",")
            if sep == "true" and div != "true":
                broken_divisibility.append(word)

    ok = (
        rep.count_separable == 8558
        and rep.count_rank_symmetric == 10728
        and rep.count_symmetric_nondividing == 961
        and not broken_divisibility
        and sha == SURVEY_N8_SHA256
        and elapsed < 1800
    )
    report(
        5,
        "size-8 survey",
        ok,
        f"8558 separable / 10728 rank-symmetric / 961 symmetric non-dividing, "
        f"every separable gf divides [8]!, CSV sha256 {sha[:8]}, {elapsed:.1f}s",
    )


def test_criterion_06_schroder_sequence():
    expected = [1, 2, 6, 22, 90, 394, 1806, 8558]
    counted = [len(separable_words(n)) for n in range(1, 8)]
    counted.append(sum(1 for w in iter_perms(range(1, 9)) if is_separable(Permutation(w))))
    recurrence = [schroder(n - 1) for n in range(1, 9)]
    report(
        6,
        "separable counts",
        counted == expected == recurrence,
        f"n = 1..8 -> {counted}",
    )


def test_criterion_07_extensions_match_intervals():
    t0 = time.perf_counter()
    result = run_suite("ff", 6)
    elapsed = time.perf_counter() - t0
    report(
        7,
        "linear extensions vs intervals",
        result.passed and elapsed < 300,
        f"all words n <= 6, exhaustive, {elapsed:.1f}s",
    )


def test_criterion_08_pairing_bijection():
    t0 = time.perf_counter()
    result = run_suite("bijection", 6)
    elapsed = time.perf_counter() - t0
    detail = "; ".join(c.label for c in result.checks if not c.passed) or (
        f"separable n <= 6 bijective, inverse round-trips n <= 5, "
        f"size-4 failures exactly {{2413, 3142}}, {elapsed:.1f}s"
    )
    report(8, "interval pairing", result.passed, detail)


def test_criterion_09_order_structure():
    budgets = {}
    ok = True
    for name, n in (("duality", 5), ("op-lemma", 3), ("des", 5), ("chains-words", 5)):
        t0 = time.perf_counter()
        result = run_suite(name, n)
        elapsed = time.perf_counter() - t0
        budgets[name] = elapsed
        ok = ok and result.passed and elapsed < 120
    detail = ", ".join(f"{name} {sec:.1f}s" for name, sec in budgets.items())
    report(9, "duality, products, order polynomials, chains", ok, detail)


def test_criterion_10a_symmetry_unimodality():
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 8):
        for pi in separable_words(n):
            checked += 1
            for gf in (gf_below_recursive(pi), gf_above_recursive(pi)):
                assert gf.coeffs == gf.coeffs[::-1], pi
                top = gf.coeffs.index(max(gf.coeffs))
                rising, falling = gf.coeffs[: top + 1], gf.coeffs[top:]
                assert all(a <= b for a, b in zip(rising, rising[1:])), pi
                assert all(a >= b for a, b in zip(falling, falling[1:])), pi
    elapsed = time.perf_counter() - t0
    report(
        "10a",
        "symmetry and unimodality",
        checked == 2321 and elapsed < 120,
        f"both generating functions for {checked} separable words, n <= 7, {elapsed:.1f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="rank-symmetric generating functions that are not cyclotomic products "
    "exist from n = 6 on (first witness 245163); verified on two independent "
    "computation routes, and a value of 13 at q = 1 is unreachable by cyclotomic "
    "factors within degree 6",
)
def test_criterion_10b_rank_symmetric_cyclotomic(survey_records):
    witnesses = []
    symmetric = 0
    for n in range(1, 8):
        for record in survey_records(n):
            if record.rank_symmetric:
                symmetric += 1
                if not record.cyclotomic_product:
                    witnesses.append(record.word)
    passed = not witnesses
    status = "PASS" if passed else "FAIL"
    print(
        f"criterion 10b (rank-symmetric => cyclotomic): {status} - "
        f"{len(witnesses)} of {symmetric} rank-symmetric words n <= 7 are not "
        f"cyclotomic products (first: {witnesses[0] if witnesses else 'none'}); "
        "expected failure, see the unimodality notes in README"
    )
    assert passed


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="the size-8 long mode finds 677 further rank-symmetric words that "
    "are not cyclotomic products",
)
def test_criterion_10b_long_mode_at_8(survey_records):
    witnesses = []
    symmetric = 0
    for record in survey_records(8):
        if record.rank_symmetric:
            symmetric += 1
            if not record.cyclotomic_product:
                witnesses.append(record.word)
    assert symmetric == 10728
    passed = not witnesses
    status = "PASS" if passed else "FAIL"
    print(
        f"criterion 10b long mode (size 8): {status} - {len(witnesses)} of "
        f"{symmetric} rank-symmetric words are not cyclotomic products"
    )
    assert passed
