"""The verification suites as a library surface: registry, pass/fail
shapes, and the one suite that is expected to report counterexamples."""

import pytest

from weakbruhat import verify
from weakbruhat.verify import SUITES, run_suite, suite_names

# (suite, n, label, passed, detail) for every suite at n = 1..4
# (op-lemma 1..3): what each check reports, word for word
GOLDEN = (
    ("main-theorem", 1, "formula product F(below)*F(above) equals the q-factorial", True, "1 separable permutations checked, n <= 1"),
    ("main-theorem", 1, "separable counts match the Schroeder numbers", True, "n <= 1"),
    ("main-theorem", 1, "brute-force interval enumeration agrees", True, "1 separable permutations checked, n <= 1"),
    ("main-theorem", 2, "formula product F(below)*F(above) equals the q-factorial", True, "3 separable permutations checked, n <= 2"),
    ("main-theorem", 2, "separable counts match the Schroeder numbers", True, "n <= 2"),
    ("main-theorem", 2, "brute-force interval enumeration agrees", True, "3 separable permutations checked, n <= 2"),
    ("main-theorem", 3, "formula product F(below)*F(above) equals the q-factorial", True, "9 separable permutations checked, n <= 3"),
    ("main-theorem", 3, "separable counts match the Schroeder numbers", True, "n <= 3"),
    ("main-theorem", 3, "brute-force interval enumeration agrees", True, "9 separable permutations checked, n <= 3"),
    ("main-theorem", 4, "formula product F(below)*F(above) equals the q-factorial", True, "31 separable permutations checked, n <= 4"),
    ("main-theorem", 4, "separable counts match the Schroeder numbers", True, "n <= 4"),
    ("main-theorem", 4, "brute-force interval enumeration agrees", True, "31 separable permutations checked, n <= 4"),
    ("ff", 1, "linear-extension count by inversions equals the interval rank data", True, "1 permutations checked, n <= 1"),
    ("ff", 2, "linear-extension count by inversions equals the interval rank data", True, "3 permutations checked, n <= 2"),
    ("ff", 3, "linear-extension count by inversions equals the interval rank data", True, "9 permutations checked, n <= 3"),
    ("ff", 4, "linear-extension count by inversions equals the interval rank data", True, "33 permutations checked, n <= 4"),
    ("duality", 1, "complement length is the corank", True, "1 permutations checked, n <= 1"),
    ("duality", 1, "upper interval reversed equals the complement's lower interval", True, "1 permutations checked, n <= 1"),
    ("duality", 2, "complement length is the corank", True, "3 permutations checked, n <= 2"),
    ("duality", 2, "upper interval reversed equals the complement's lower interval", True, "3 permutations checked, n <= 2"),
    ("duality", 3, "complement length is the corank", True, "9 permutations checked, n <= 3"),
    ("duality", 3, "upper interval reversed equals the complement's lower interval", True, "9 permutations checked, n <= 3"),
    ("duality", 4, "complement length is the corank", True, "33 permutations checked, n <= 4"),
    ("duality", 4, "upper interval reversed equals the complement's lower interval", True, "33 permutations checked, n <= 4"),
    ("chains-words", 1, "chain counts equal reduced word counts", True, "1 permutations checked, n <= 1"),
    ("chains-words", 1, "edge labels of saturated chains replay the reduced words", True, "1 permutations checked, n <= 1"),
    ("chains-words", 2, "chain counts equal reduced word counts", True, "3 permutations checked, n <= 2"),
    ("chains-words", 2, "edge labels of saturated chains replay the reduced words", True, "3 permutations checked, n <= 2"),
    ("chains-words", 3, "chain counts equal reduced word counts", True, "9 permutations checked, n <= 3"),
    ("chains-words", 3, "edge labels of saturated chains replay the reduced words", True, "9 permutations checked, n <= 3"),
    ("chains-words", 4, "chain counts equal reduced word counts", True, "33 permutations checked, n <= 4"),
    ("chains-words", 4, "edge labels of saturated chains replay the reduced words", True, "33 permutations checked, n <= 4"),
    ("op-lemma", 1, "poset enumeration finds the known counts", True, "sizes 1..1"),
    ("op-lemma", 1, "ordinal sum multiplies the generating functions", True, "1 poset pairs checked"),
    ("op-lemma", 1, "disjoint union multiplies and attaches a q-binomial", True, "1 poset pairs checked"),
    ("op-lemma", 2, "poset enumeration finds the known counts", True, "sizes 1..2"),
    ("op-lemma", 2, "ordinal sum multiplies the generating functions", True, "16 poset pairs checked"),
    ("op-lemma", 2, "disjoint union multiplies and attaches a q-binomial", True, "16 poset pairs checked"),
    ("op-lemma", 3, "poset enumeration finds the known counts", True, "sizes 1..3"),
    ("op-lemma", 3, "ordinal sum multiplies the generating functions", True, "529 poset pairs checked"),
    ("op-lemma", 3, "disjoint union multiplies and attaches a q-binomial", True, "529 poset pairs checked"),
    ("des", 1, "descent generating function expands to the order polynomial", True, "1 inversion posets checked, n <= 1"),
    ("des", 1, "both order-polynomial routes agree", True, "1 inversion posets checked, n <= 1"),
    ("des", 2, "descent generating function expands to the order polynomial", True, "3 inversion posets checked, n <= 2"),
    ("des", 2, "both order-polynomial routes agree", True, "3 inversion posets checked, n <= 2"),
    ("des", 3, "descent generating function expands to the order polynomial", True, "9 inversion posets checked, n <= 3"),
    ("des", 3, "both order-polynomial routes agree", True, "9 inversion posets checked, n <= 3"),
    ("des", 4, "descent generating function expands to the order polynomial", True, "33 inversion posets checked, n <= 4"),
    ("des", 4, "both order-polynomial routes agree", True, "33 inversion posets checked, n <= 4"),
    ("formula", 1, "closed tree formulas match the block recursions", True, "1 separable permutations checked, n <= 1"),
    ("formula", 1, "largest-split trees give the same closed formulas", True, "1 separable permutations checked, n <= 1"),
    ("formula", 1, "q-factorial quotient reproduces the upper generating function", True, "1 separable permutations checked, n <= 1"),
    ("formula", 1, "brute-force interval enumeration agrees", True, "1 separable permutations checked, n <= 1"),
    ("formula", 2, "closed tree formulas match the block recursions", True, "3 separable permutations checked, n <= 2"),
    ("formula", 2, "largest-split trees give the same closed formulas", True, "3 separable permutations checked, n <= 2"),
    ("formula", 2, "q-factorial quotient reproduces the upper generating function", True, "3 separable permutations checked, n <= 2"),
    ("formula", 2, "brute-force interval enumeration agrees", True, "3 separable permutations checked, n <= 2"),
    ("formula", 3, "closed tree formulas match the block recursions", True, "9 separable permutations checked, n <= 3"),
    ("formula", 3, "largest-split trees give the same closed formulas", True, "9 separable permutations checked, n <= 3"),
    ("formula", 3, "q-factorial quotient reproduces the upper generating function", True, "9 separable permutations checked, n <= 3"),
    ("formula", 3, "brute-force interval enumeration agrees", True, "9 separable permutations checked, n <= 3"),
    ("formula", 4, "closed tree formulas match the block recursions", True, "31 separable permutations checked, n <= 4"),
    ("formula", 4, "largest-split trees give the same closed formulas", True, "31 separable permutations checked, n <= 4"),
    ("formula", 4, "q-factorial quotient reproduces the upper generating function", True, "31 separable permutations checked, n <= 4"),
    ("formula", 4, "brute-force interval enumeration agrees", True, "31 separable permutations checked, n <= 4"),
    ("explicit-231", 1, "231-avoiding counts match the Catalan numbers", True, "n <= 1"),
    ("explicit-231", 1, "distance product matches the block recursion", True, "1 permutations checked, n <= 1"),
    ("explicit-231", 1, "distance product matches the linear-extension route", True, "1 permutations checked, n <= 1"),
    ("explicit-231", 1, "distance product matches brute-force enumeration", True, "1 permutations checked, n <= 1"),
    ("explicit-231", 2, "231-avoiding counts match the Catalan numbers", True, "n <= 2"),
    ("explicit-231", 2, "distance product matches the block recursion", True, "3 permutations checked, n <= 2"),
    ("explicit-231", 2, "distance product matches the linear-extension route", True, "3 permutations checked, n <= 2"),
    ("explicit-231", 2, "distance product matches brute-force enumeration", True, "3 permutations checked, n <= 2"),
    ("explicit-231", 3, "231-avoiding counts match the Catalan numbers", True, "n <= 3"),
    ("explicit-231", 3, "distance product matches the block recursion", True, "8 permutations checked, n <= 3"),
    ("explicit-231", 3, "distance product matches the linear-extension route", True, "8 permutations checked, n <= 3"),
    ("explicit-231", 3, "distance product matches brute-force enumeration", True, "8 permutations checked, n <= 3"),
    ("explicit-231", 4, "231-avoiding counts match the Catalan numbers", True, "n <= 4"),
    ("explicit-231", 4, "distance product matches the block recursion", True, "22 permutations checked, n <= 4"),
    ("explicit-231", 4, "distance product matches the linear-extension route", True, "22 permutations checked, n <= 4"),
    ("explicit-231", 4, "distance product matches brute-force enumeration", True, "22 permutations checked, n <= 4"),
    ("bijection", 1, "pairing is a bijection for every separable word", True, "1 separable permutations checked, n <= 1"),
    ("bijection", 1, "at n=4 the bijection fails exactly off the separable words", True, "0 permutations checked"),
    ("bijection", 1, "constructive inverse round-trips", True, "1 (word, target) pairs checked, n <= 1"),
    ("bijection", 2, "pairing is a bijection for every separable word", True, "3 separable permutations checked, n <= 2"),
    ("bijection", 2, "at n=4 the bijection fails exactly off the separable words", True, "0 permutations checked"),
    ("bijection", 2, "constructive inverse round-trips", True, "5 (word, target) pairs checked, n <= 2"),
    ("bijection", 3, "pairing is a bijection for every separable word", True, "9 separable permutations checked, n <= 3"),
    ("bijection", 3, "at n=4 the bijection fails exactly off the separable words", True, "0 permutations checked"),
    ("bijection", 3, "constructive inverse round-trips", True, "41 (word, target) pairs checked, n <= 3"),
    ("bijection", 4, "pairing is a bijection for every separable word", True, "31 separable permutations checked, n <= 4"),
    ("bijection", 4, "at n=4 the bijection fails exactly off the separable words", True, "24 permutations checked"),
    ("bijection", 4, "constructive inverse round-trips", True, "569 (word, target) pairs checked, n <= 4"),
    ("sym-unim", 1, "separable generating functions are symmetric and unimodal", True, "1 separable permutations checked, n <= 1"),
    ("sym-unim", 1, "rank-symmetric implies a cyclotomic product", True, "1 permutations scanned, n <= 1"),
    ("sym-unim", 2, "separable generating functions are symmetric and unimodal", True, "3 separable permutations checked, n <= 2"),
    ("sym-unim", 2, "rank-symmetric implies a cyclotomic product", True, "3 permutations scanned, n <= 2"),
    ("sym-unim", 3, "separable generating functions are symmetric and unimodal", True, "9 separable permutations checked, n <= 3"),
    ("sym-unim", 3, "rank-symmetric implies a cyclotomic product", True, "9 permutations scanned, n <= 3"),
    ("sym-unim", 4, "separable generating functions are symmetric and unimodal", True, "31 separable permutations checked, n <= 4"),
    ("sym-unim", 4, "rank-symmetric implies a cyclotomic product", True, "33 permutations scanned, n <= 4"),
)


def test_registry_is_complete():
    assert suite_names() == (
        "main-theorem",
        "ff",
        "duality",
        "chains-words",
        "op-lemma",
        "des",
        "formula",
        "explicit-231",
        "bijection",
        "sym-unim",
    )
    assert set(SUITES) == set(suite_names())


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("no-such-suite")


def test_main_theorem_counts_cumulatively():
    result = run_suite("main-theorem", 5)
    assert result.passed
    labels = {c.label: c.detail for c in result.checks}
    assert "121 separable permutations" in labels["formula product F(below)*F(above) equals the q-factorial"]


@pytest.mark.parametrize(
    "name,n",
    [("formula", 5), ("explicit-231", 5), ("des", 4), pytest.param("des", 6, marks=pytest.mark.slow)],
)
def test_passing_suites(name, n):
    result = run_suite(name, n)
    assert result.passed, [c.label for c in result.checks if not c.passed]


def test_op_lemma_counts_small_posets():
    result = run_suite("op-lemma")
    assert result.passed
    # 1 + 3 + 19 posets up to size 3 give 23*23 ordered pairs
    assert any("529 poset pairs" in c.detail for c in result.checks)


def test_sym_unim_reports_honest_counterexamples():
    result = run_suite("sym-unim", 6)
    assert not result.passed
    by_label = {c.label: c for c in result.checks}
    shape = by_label["separable generating functions are symmetric and unimodal"]
    assert shape.passed
    implication = by_label["rank-symmetric implies a cyclotomic product"]
    assert not implication.passed
    assert "245163" in implication.detail
    assert len(implication.detail.split(":")[1].split()) == 7


def test_counterexample_list_is_capped():
    result = run_suite("sym-unim", 7)
    implication = next(c for c in result.checks if not c.passed)
    assert "more" in implication.detail
    # 8 shown and 79 more: 87 words of n <= 7 have a rank-symmetric
    # lower interval whose polynomial is no cyclotomic product
    assert implication.detail.endswith(" and 79 more")


@pytest.mark.parametrize("name", suite_names())
def test_golden_reports(name):
    rows = [row for row in GOLDEN if row[0] == name]
    sizes = sorted({row[1] for row in rows})
    assert sizes == ([1, 2, 3] if name == "op-lemma" else [1, 2, 3, 4])
    got = [
        (name, n, c.label, c.passed, c.detail)
        for n in sizes
        for c in run_suite(name, n).checks
    ]
    assert got == rows


def test_bijection_n4_check_reports_what_it_checked():
    exact4 = "at n=4 the bijection fails exactly off the separable words"
    below = {c.label: c.detail for c in run_suite("bijection", 3).checks}
    assert below[exact4] == "0 permutations checked"
    at4 = {c.label: c.detail for c in run_suite("bijection", 4).checks}
    assert at4[exact4] == "24 permutations checked"


def test_op_lemma_compares_the_size_4_count(monkeypatch):
    # 219 posets at size 4 (OEIS A001035); a short list must be caught
    real = verify._all_posets
    monkeypatch.setattr(verify, "_all_posets", lambda k: real(k)[:5] if k == 4 else real(k))
    enum = run_suite("op-lemma", 4).checks[0]
    assert not enum.passed
    assert enum.detail == "counterexamples: size 4: 5 != 219"


def test_op_lemma_detail_names_only_the_compared_sizes(monkeypatch):
    monkeypatch.setattr(verify, "_POSET_COUNTS", (1, 3))
    enum = run_suite("op-lemma", 3).checks[0]
    assert enum.passed and enum.detail == "sizes 1..2"
