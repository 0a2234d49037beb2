"""Command-line behaviour: exit codes, JSON contracts, and the worked
examples that the library's fixtures pin down."""

import json
import sys
from math import factorial

import pytest

from weakbruhat import bijection, cli, weak_order
from weakbruhat.bijection import build_pair_table
from weakbruhat.cli import main
from weakbruhat.perm import Permutation, all_permutations, identity, longest_element, parse_permutation
from weakbruhat.poset import inversion_poset, le_gf
from weakbruhat.qpoly import is_cyclotomic_product, q_factorial
from weakbruhat.separable import gf_above_recursive, gf_below_recursive, interval_sizes, qint_exponents
from weakbruhat.weak_order import interval, rank_gf

from conftest import seeded_separable_words


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_analyze_4132_json(capsys):
    code, data, _ = run_json(capsys, "analyze", "4132")
    assert code == 0
    assert data == {
        "word": "4132",
        "length": 4,
        "descents": [1, 3],
        "separable": True,
        "gf_below": "1 + 2*q + 2*q^2 + 2*q^3 + q^4",
        "gf_above": "1 + q + q^2",
        "product_is_qfactorial": True,
        "rank_symmetric": True,
        "unimodal": True,
        "cyclotomic_product": True,
    }


def test_analyze_identity(capsys):
    code, data, _ = run_json(capsys, "analyze", "1234")
    assert code == 0
    assert data["gf_below"] == "1"
    assert data["length"] == 0
    assert data["descents"] == []


def test_analyze_non_separable(capsys):
    code, data, _ = run_json(capsys, "analyze", "2413")
    assert code == 0
    assert data["separable"] is False
    assert data["gf_below"] == "1 + 2*q + q^2 + q^3"
    assert data["product_is_qfactorial"] is False


@pytest.mark.parametrize("n", range(1, 7))
def test_analyze_checks_match_the_polynomial_route(capsys, n):
    # separable words answer from q-integer exponents; both booleans are
    # recomputed here from linear extensions of the inversion poset
    for pi in all_permutations(n):
        code, data, _ = run_json(capsys, "analyze", str(pi))
        below = le_gf(inversion_poset(pi))
        above = le_gf(inversion_poset(pi.complement())).reverse()
        assert code == 0
        assert data["product_is_qfactorial"] == (below * above == q_factorial(n)), pi
        assert data["cyclotomic_product"] == is_cyclotomic_product(below), pi


def test_separable_analyze_needs_no_polynomial_checks(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the polynomial route ran")

    monkeypatch.setattr(cli, "is_cyclotomic_product", refuse)
    monkeypatch.setattr(cli, "q_factorial", refuse)
    code, data, _ = run_json(capsys, "analyze", "4132")
    assert code == 0 and data["product_is_qfactorial"] and data["cyclotomic_product"]


def test_non_separable_analyze_keeps_the_polynomial_checks(capsys, monkeypatch):
    calls = []
    for name in ("is_cyclotomic_product", "q_factorial"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    code, data, _ = run_json(capsys, "analyze", "2413")
    assert code == 0 and data["separable"] is False
    assert data["product_is_qfactorial"] is False
    assert sorted(calls) == ["is_cyclotomic_product", "q_factorial"]


def test_separable_words_build_no_complement_word(capsys, monkeypatch):
    # the upper side of a separable word comes from its own exponents, 1 - g_i
    real = Permutation.complement

    def refuse(self):
        raise AssertionError(f"the complement of {self} was built")

    monkeypatch.setattr(Permutation, "complement", refuse)
    pi = Permutation((4, 1, 3, 2))
    assert str(gf_above_recursive(pi)) == "1 + q + q^2"
    assert interval_sizes(pi) == (8, 3)
    assert qint_exponents(pi) == [1, 0, 1]
    code, data, _ = run_json(capsys, "analyze", "4132")
    assert code == 0 and data["gf_above"] == "1 + q + q^2" and data["product_is_qfactorial"]
    assert run(capsys, "interval", "4132", "--side", "above", "--gf") == (0, "1 + q + q^2\n", "")
    # a non-separable word still reads its upper side off the complement's le_gf
    built = []
    monkeypatch.setattr(Permutation, "complement", lambda self: built.append(str(self)) or real(self))
    code, data, _ = run_json(capsys, "analyze", "2413")
    assert code == 0 and data["gf_above"] == "1 + 2*q + q^2 + q^3" and built == ["2413"]


def test_analyze_flags_match_the_polynomial_routes_beyond_exhaustive(capsys):
    # on a separable word both flags are constants of the theorems; the
    # product of the polynomials and the cyclotomic test must agree
    for pi in seeded_separable_words(200, seed=32, sizes=range(9, 31)):
        code, data, _ = run_json(capsys, "analyze", ",".join(map(str, pi.word)))
        below, above = gf_below_recursive(pi), gf_above_recursive(pi)
        assert code == 0 and data["gf_below"] == str(below) and data["gf_above"] == str(above)
        assert data["product_is_qfactorial"] == (below * above == q_factorial(pi.size)), pi
        assert data["cyclotomic_product"] == is_cyclotomic_product(below), pi


def test_analyze_of_a_separable_word_merges_once(capsys, merged_words):
    # is_separable and the two recursions share the Permutation's one pass
    code, data, _ = run_json(capsys, "analyze", "4132")
    assert code == 0 and data["product_is_qfactorial"] and data["cyclotomic_product"]
    assert merged_words == [(4, 1, 3, 2)]


def test_interval_gf_and_bijection_merge_once(capsys, merged_words):
    assert run(capsys, "interval", "4132", "--gf") == (0, "1 + 2*q + 2*q^2 + 2*q^3 + q^4\n", "")
    assert merged_words == [(4, 1, 3, 2)]
    merged_words.clear()
    code, data, _ = run_json(capsys, "bijection", "4132")
    assert code == 0 and data["is_bijection"] is True
    assert merged_words == [(4, 1, 3, 2)]


def test_analyze_s4_rank_histogram(capsys):
    # sizes per rank across all of S4, recovered from the analyze output
    from itertools import permutations

    counts = [0] * 7
    for word in permutations(range(1, 5)):
        text = "".join(str(a) for a in word)
        _, data, _ = run_json(capsys, "analyze", text)
        counts[data["length"]] += 1
    assert counts == [1, 3, 5, 6, 5, 3, 1]


def test_analyze_text_output_aligned(capsys):
    code, out, _ = run(capsys, "analyze", "4132")
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert any(line.startswith("word") and line.endswith("4132") for line in lines)
    assert any(line.startswith("gf_below") for line in lines)
    # keys are padded to a common width, so values start at one column
    starts = {len(line) - len(line.split(None, 1)[1]) for line in lines}
    assert len(starts) == 1


def test_tree_text_and_dot(capsys):
    code, out, _ = run(capsys, "tree", "4231")
    assert code == 0
    assert out.count("negative") == 2
    assert out.count("positive") == 1
    assert out.count("leaf") == 4

    code, dot, _ = run(capsys, "tree", "4231", "--dot")
    assert code == 0
    assert dot.count('"Negative Node"') == 2
    assert dot.count('"Positive Node"') == 1


def test_tree_json(capsys):
    code, _, err = run(capsys, "tree", "3142", "--json")
    assert code == 1
    assert "error:" in err
    code, data, _ = run_json(capsys, "tree", "4231")
    assert code == 0
    assert data["sign"] == "negative"


def test_tree_rejects_non_separable(capsys):
    code, out, err = run(capsys, "tree", "2413")
    assert code == 1
    assert "error:" in err
    assert out == ""


def test_interval_gf(capsys):
    code, out, _ = run(capsys, "interval", "4132", "--side", "above", "--gf")
    assert code == 0
    assert out.strip() == "1 + q + q^2"
    code, out, _ = run(capsys, "interval", "4132", "--side", "below", "--gf")
    assert code == 0
    assert out.strip() == "1 + 2*q + 2*q^2 + 2*q^3 + q^4"


def test_interval_gf_stays_text_under_json(capsys):
    # --json leaves --gf's one line of polynomial text as it is
    for side in ("below", "above"):
        _, plain, _ = run(capsys, "interval", "4132", "--side", side, "--gf")
        code, out, err = run(capsys, "--json", "interval", "4132", "--side", side, "--gf")
        assert code == 0 and err == ""
        assert out == plain
    code, out, _ = run(capsys, "interval", "4132", "--gf", "--json")
    assert code == 0
    assert out == "1 + 2*q + 2*q^2 + 2*q^3 + q^4\n"


def test_interval_summary_and_dot(capsys):
    code, out, _ = run(capsys, "interval", "321", "--side", "below")
    assert code == 0
    assert "bottom" in out and "123" in out
    assert "size" in out and "6" in out

    code, dot, _ = run(capsys, "interval", "321", "--side", "below", "--dot")
    assert code == 0
    assert dot.count("->") == 6


def test_interval_renderers_print_pinned_text(capsys):
    # the DOT text of [1234, 4132] in full: ranks as rows, then each
    # element's covers in the order of its positions
    code, dot, _ = run(capsys, "interval", "4132", "--dot")
    assert code == 0
    assert dot == (
        "digraph interval {\n  rankdir=BT;\n  node [shape=plaintext];\n"
        '  { rank=same; "1234"; }\n'
        '  { rank=same; "1243"; "1324"; }\n'
        '  { rank=same; "1342"; "1423"; }\n'
        '  { rank=same; "1432"; "4123"; }\n'
        '  { rank=same; "4132"; }\n'
        '  "1234" -> "1324";\n  "1234" -> "1243";\n  "1243" -> "1423";\n'
        '  "1324" -> "1342";\n  "1342" -> "1432";\n  "1423" -> "4123";\n'
        '  "1423" -> "1432";\n  "1432" -> "4132";\n  "4123" -> "4132";\n}\n'
    )
    # 11 letters: every word prints with commas, rank by rank
    word = "10,9,8,7,6,5,4,3,2,1,11"
    code, out, _ = run(capsys, "--json", "interval", word, "--side", "above")
    assert code == 0
    ranks = json.loads(out)["ranks"]
    iv = interval(parse_permutation(word), longest_element(11))
    assert [w for rank in ranks for w in rank] == [",".join(map(str, w)) for w in iv.elements()]
    assert [len(rank) for rank in ranks] == [len(rank) for rank in iv.words] == [1] * 11


def _bfs_summary(iv):
    # the summary layout, read off the enumerated interval
    rows = [
        ("bottom", str(iv.bottom)),
        ("top", str(iv.top)),
        ("size", str(iv.size)),
        ("rank sizes", ", ".join(str(len(r)) for r in iv.words)),
        ("rank gf", str(rank_gf(iv))),
    ]
    return "".join(f"{key.ljust(10)}  {value}\n" for key, value in rows)


@pytest.mark.parametrize("n", [*range(1, 6), pytest.param(6, marks=pytest.mark.slow)])
def test_interval_summary_and_gf_match_bfs(capsys, n):
    for pi in all_permutations(n):
        for side in ("below", "above"):
            if side == "below":
                iv = interval(identity(n), pi)
            else:
                iv = interval(pi, longest_element(n))
            code, out, _ = run(capsys, "interval", str(pi), "--side", side)
            assert (code, out) == (0, _bfs_summary(iv)), (pi, side)
            code, out, _ = run(capsys, "interval", str(pi), "--side", side, "--gf")
            assert (code, out) == (0, f"{rank_gf(iv)}\n"), (pi, side)


def test_interval_summary_and_gf_enumerate_nothing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("interval enumerated")

    monkeypatch.setattr(cli, "interval", refuse)
    for word in ("4132", "2413", "35142"):
        for side in ("below", "above"):
            code, out, _ = run(capsys, "interval", word, "--side", side)
            assert code == 0 and "rank gf" in out
            code, out, _ = run(capsys, "interval", word, "--side", side, "--gf")
            assert code == 0 and out.startswith("1")
    with pytest.raises(AssertionError, match="interval enumerated"):
        main(["interval", "4132", "--dot"])


def test_interval_past_the_bfs_guard(capsys, monkeypatch):
    word = "10,9,8,7,6,5,4,3,2,1,11"
    _, data, _ = run_json(capsys, "analyze", word)
    for side in ("below", "above"):
        want = data[f"gf_{side}"]
        code, out, _ = run(capsys, "interval", word, "--side", side, "--gf")
        assert (code, out) == (0, want + "\n")
        code, out, _ = run(capsys, "interval", word, "--side", side)
        assert code == 0
        rows = dict(line.split("  ", 1) for line in out.splitlines())
        assert rows["rank gf"].strip() == want
        coeffs = [int(c) for c in rows["rank sizes"].strip().split(", ")]
        assert int(rows["size"]) == sum(coeffs)
    # --dot and --json list the elements, so they enumerate: [pi, w0]
    # has 11 words and runs, [id, pi] has 10! and passes the budget
    code, data, err = run_json(capsys, "interval", word, "--side", "above")
    assert code == 0 and err == ""
    assert sum(len(r) for r in data["ranks"]) == 11
    monkeypatch.setattr(weak_order, "WORD_BUDGET", 11)
    for flag in ("--dot", "--json"):
        code, out, _ = run(capsys, "interval", word, "--side", "above", flag)
        assert code == 0 and word in out
        code, out, err = run(capsys, "interval", word, "--side", "below", flag)
        assert code == 1 and out == ""
        assert "--force" in err


def test_budget_refuses_separable_words_before_any_walk(capsys, monkeypatch):
    # the block recursion counts a separable word's intervals, so a
    # command past the budget is refused without walking a single word
    def refuse(*args, **kwargs):
        raise AssertionError("interval enumerated")

    monkeypatch.setattr(cli, "interval", refuse)
    monkeypatch.setattr(bijection, "interval", refuse)
    w0 = ",".join(str(a) for a in range(100, 0, -1))
    e = ",".join(str(a) for a in range(1, 101))
    for argv in (
        ("interval", w0, "--dot"),
        ("interval", w0, "--json"),
        ("interval", "10,9,8,7,6,5,4,3,2,1,11", "--dot"),
        ("bijection", e),
        ("bijection", e, "--table"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "budget" in err and "--force" in err


def test_budget_refuses_non_separable_words_during_the_walk(capsys, monkeypatch):
    # a non-separable word is not counted beforehand: its walk refuses
    # once it passes the budget
    word = "2,4,1,3,5,6,7,8,9,10,11"
    monkeypatch.setattr(weak_order, "WORD_BUDGET", 50)
    for argv in (("interval", word, "--side", "above", "--dot"), ("bijection", word)):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "budget" in err and "--force" in err
    code, out, _ = run(capsys, "interval", word, "--dot")
    assert code == 0 and word in out


def test_small_interval_of_a_long_word_lists_without_force(capsys):
    word = "2,1,3,4,5,6,7,8,9,10,12,11"
    code, data, err = run_json(capsys, "interval", word)
    assert code == 0 and err == ""
    assert [len(r) for r in data["ranks"]] == [1, 2, 1]
    code, dot, err = run(capsys, "interval", word, "--dot")
    assert code == 0 and err == ""
    assert dot.count(" -> ") == 4


def test_force_note_counts_the_words_enumerated(capsys):
    def noted(*argv):
        code, _, err = run(capsys, "--force", *argv)
        assert code == 0
        count, unit = err.split("; ")[1].split()[:2]
        assert unit == "words,"
        return int(count)

    # 18 words below a 10-letter word, where an n! guess gave ~544 MB
    word = "3,1,2,5,4,6,7,10,8,9"
    pi = parse_permutation(word)
    assert noted("interval", word, "--dot") == interval(identity(10), pi).size == 18
    for word in ("4132", "2413", "35142", "1"):
        pi = parse_permutation(word)
        n = pi.size
        for side, iv in (("below", interval(identity(n), pi)), ("above", interval(pi, longest_element(n)))):
            assert noted("interval", word, "--side", side, "--dot") == iv.size
            assert noted("interval", word, "--side", side, "--json") == iv.size
        table = build_pair_table(pi)
        assert noted("bijection", word) == noted("bijection", word, "--table") == len(table.images())


def test_bijection_tests_separability_once(capsys, monkeypatch):
    calls = []

    def counted(pi):
        calls.append(pi)
        return separable_test(pi)

    separable_test = cli.is_separable
    monkeypatch.setattr(cli, "is_separable", counted)
    for word, sep in (("4132", True), ("2413", False)):
        calls.clear()
        code, data, _ = run_json(capsys, "bijection", word)
        assert code == 0 and data["separable"] is sep and len(calls) == 1


def test_bijection_past_the_letter_limit_exits_1_before_any_walk(capsys, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("counted or walked an interval")

    monkeypatch.setattr(bijection, "interval", walk)
    monkeypatch.setattr(cli, "_check_words", walk)
    separable = ",".join(map(str, range(1, 257)))
    non_separable = "2,4,1,3," + ",".join(map(str, range(5, 257)))
    for word in (separable, non_separable):
        for argv in (("bijection", word), ("--force", "bijection", word), ("--force", "bijection", word, "--table")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == "error: pair tables hold words of at most 255 letters, not 256\n"


def test_interval_non_separable_past_the_guard(capsys):
    word = "2,4,1,3,5,6,7,8,9,10,11"
    for extra in ((), ("--gf",)):
        for side in ("below", "above"):
            code, out, err = run(capsys, "interval", word, "--side", side, *extra)
            assert code == 1 and out == ""
            assert "error:" in err and "--force" in err


def test_force_memory_note_on_interval_gf_counts_order_ideals(capsys):
    word = ",".join(str(a) for a in (1, 3, 2, *range(4, 21)))
    code, out, err = run(capsys, "--force", "interval", word, "--gf")
    assert code == 0 and out.startswith("1 + q")
    mb = int(err.split("~")[1].split()[0])
    assert mb * 1e6 <= 2**20 * 150


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "op-lemma")
    assert code == 0
    assert "suite op-lemma" in out
    assert "pass:" in out
    assert "FAIL" not in out


def test_verify_json(capsys):
    code, data, _ = run_json(capsys, "verify", "duality", "--n", "4")
    assert code == 0
    assert data["suite"] == "duality"
    assert data["passed"] is True
    assert all(check["passed"] for check in data["checks"])


def test_verify_unknown_suite_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-suite"])
    assert exc.value.code == 2


def test_survey_command(tmp_path, capsys):
    out = tmp_path / "s4.csv"
    code, data, _ = run_json(capsys, "survey", "--n", "4", "--out", str(out))
    assert code == 0
    assert data["count_separable"] == 22
    assert data["total"] == 24
    assert out.exists()


def test_survey_guard_exit(capsys):
    code, out, err = run(capsys, "survey", "--n", "9")
    assert code == 1
    assert "--force" in err or "force" in err


def test_bijection_check(capsys):
    code, data, _ = run_json(capsys, "bijection", "2413")
    assert code == 0
    assert data["separable"] is False
    assert data["is_bijection"] is False
    assert data["collisions"]
    code, data, _ = run_json(capsys, "bijection", "4132")
    assert data["is_bijection"] is True


def test_bijection_invert(capsys):
    code, data, _ = run_json(capsys, "bijection", "4132", "--invert", "2314")
    assert code == 0
    u, v = data["u"], data["v"]
    assert len(u) == 4 and len(v) == 4


def test_bijection_table(tmp_path, capsys):
    out = tmp_path / "pairs.csv"
    code, _, _ = run(capsys, "bijection", "312", "--table", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v,w"
    assert len(lines) == 7


@pytest.mark.parametrize(
    "argv",
    [
        ("tree", "4231"),
        ("tree", "4231", "--dot"),
        ("tree", "4231", "--json"),
        ("interval", "4132"),
        ("interval", "4132", "--gf"),
        ("interval", "4132", "--side", "above", "--dot"),
        ("interval", "4132", "--json"),
        ("bijection", "312", "--table"),
        ("bijection", "4132"),
        ("bijection", "4132", "--json"),
        ("bijection", "4132", "--invert", "2314"),
        ("bijection", "4132", "--invert", "2314", "--json"),
    ],
)
def test_out_file_equals_stdout(tmp_path, capsys, argv):
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    out = tmp_path / "out.txt"
    code, rest, _ = run(capsys, *argv, "--out", str(out))
    assert code == 0
    assert rest == ""
    assert out.read_text() == printed
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize(
    "argv",
    [
        ("tree", "4132", "--out"),
        ("survey", "--n", "3", "--out"),
        ("bijection", "312", "--table", "--out"),
    ],
)
def test_unwritable_out_is_an_error_exit_1(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, str(target))
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


DEEP = ",".join(map(str, range(1, 1201)))  # the identity: 1,199 nested splits


@pytest.mark.parametrize("flag", ["--gf", "--dot"])
def test_interval_of_a_deep_word(capsys, flag):
    code, out, _ = run(capsys, "interval", DEEP, flag)
    assert code == 0
    if flag == "--gf":
        assert out == "1\n"
    else:
        assert out.startswith("digraph")


@pytest.mark.parametrize("flags, leaf", [((), "leaf "), (("--dot",), "shape=plaintext")], ids=["text", "dot"])
def test_tree_of_a_deep_word(capsys, flags, leaf):
    # the tree is built and rendered by loops, so no depth grows with it
    code, out, _ = run(capsys, "tree", DEEP, *flags)
    assert code == 0
    assert out.count(leaf) == 1200


# the JSON writer and the inverse construction are loops too
@pytest.mark.parametrize("argv", [("tree", DEEP, "--json"), ("--json", "bijection", DEEP, "--invert", DEEP)])
def test_json_tree_and_inverse_of_a_deep_word(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    if argv[0] == "tree":
        # json.loads would nest a call per level, so count the leaves
        assert out.count('"leaf"') == 1200
    else:
        data = json.loads(out)
        assert data["u"] == data["v"] == data["word"] == DEEP


def test_a_step_recursing_per_letter_is_an_error_exit_1(capsys):
    # le_gf under --force deletes one letter per level of its recursion
    limit = sys.getrecursionlimit()
    word = ",".join(map(str, (2, 4, 1, 3, *range(5, limit + 101))))
    code, out, err = run(capsys, "--force", "analyze", word)
    assert code == 1 and out == ""
    note, message = err.splitlines()
    assert note.startswith("guard override active; memory estimate ~")
    assert message == f"error: analyze: a step recursing once per letter passed the recursion limit ({limit})"


@pytest.mark.parametrize("objects", [2**1100, 30_000], ids=["2^1100", "30000"])
def test_memory_note_rounds_in_integers(capsys, objects):
    # half to even, as round() on the float did where a float held it
    whole, rest = divmod(objects * 150, 10**6)
    mb = whole + (2 * rest > 10**6 or (2 * rest == 10**6 and whole % 2))
    cli._memory_note(objects)
    assert capsys.readouterr().err == f"guard override active; memory estimate ~{mb} MB\n"
    assert objects != 30_000 or mb == 4


def test_parser_built_once_per_process(capsys):
    # the flags before and after the subcommand, set and unset, in one
    # process: no call may see a value another call parsed
    calls = [
        ("analyze", "4132"),
        ("--json", "analyze", "4132"),
        ("analyze", "4132", "--json"),
        ("analyze", "4132"),
        ("--force", "interval", "4132", "--gf"),
        ("interval", "4132", "--gf", "--force"),
        ("interval", "4132", "--gf"),
        ("--json", "--force", "tree", "4132"),
        ("tree", "4132"),
        ("analyze", "0"),
    ]
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(capsys, *argv))
    cli._parser.cache_clear()
    together = [run(capsys, *argv) for argv in calls]
    assert together == alone
    assert cli._parser.cache_info().misses == 1
    assert {code for code, _, _ in alone} == {0, 2}
    assert alone[1][1] == alone[2][1] != alone[0][1] == alone[3][1]
    assert "MB" in alone[4][2] and alone[6][2] == ""


def test_parse_errors_exit_2(capsys):
    for bad in ("125", "0", "abc", "1,2,2"):
        code, out, err = run(capsys, "analyze", bad)
        assert code == 2
        assert "usage error:" in err


def test_force_prints_memory_note(capsys):
    code, out, err = run(capsys, "analyze", "4132", "--force")
    assert code == 0
    assert "MB" in err or err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "formula", "--n", "0"),
        ("verify", "formula", "--n", "-3"),
        ("survey", "--n", "0"),
        ("survey", "--n", "-1"),
        ("--force", "survey", "--n", "0"),
        ("--force", "survey", "--n", "-1"),
        ("survey", "--n", "4", "--workers", "-2"),
        ("survey", "--n", "4", "--workers", "0"),
        ("survey", "--n", "3", "--resume"),
        ("--force", "survey", "--n", "4", "--workers", "0"),
        ("--force", "survey", "--n", "3", "--resume"),
    ],
)
def test_out_of_range_sizes_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "usage error:" in err
    assert "memory estimate" not in err
    assert "pass:" not in out


def test_library_callers_get_the_range_checks_too():
    from weakbruhat.errors import UsageError
    from weakbruhat.survey import scan
    from weakbruhat.verify import run_suite

    with pytest.raises(UsageError):
        run_suite("formula", n=0)
    with pytest.raises(UsageError):
        scan(4, workers=-2)
    with pytest.raises(UsageError):
        scan(0)
    with pytest.raises(UsageError, match="--out"):
        scan(3, resume=True)


def test_survey_has_no_mode_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--n", "4", "--mode", "exact-bruteforce"])
    assert exc.value.code == 2
    assert "--mode" in capsys.readouterr().err


def test_bijection_has_no_check_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bijection", "4132", "--check"])
    assert exc.value.code == 2
    assert "--check" in capsys.readouterr().err


def test_force_memory_note_on_analyze_counts_order_ideals(capsys):
    # a separable 20-letter word; neither analyze route enumerates S_20
    word = ",".join(str(a) for a in (1, 3, 2, *range(4, 21)))
    code, _, err = run(capsys, "--force", "analyze", word)
    assert code == 0
    mb = int(err.split("~")[1].split()[0])
    assert mb * 1e6 <= 2**20 * 150


def test_force_memory_note_follows_the_route(capsys):
    def note_mb(*argv):
        code, _, err = run(capsys, "--force", *argv)
        assert code == 0
        return int(err.split("~")[1].split()[0])

    # at 24 letters n! objects would be ~9e19 MB and 2^n ~2517 MB
    sep = ",".join(str(a) for a in (1, 3, 2, *range(4, 25)))
    non_sep = ",".join(str(a) for a in (2, 4, 1, 3, *range(5, 25)))
    assert note_mb("bijection", sep, "--invert", sep) == 1
    assert note_mb("analyze", sep) == 1
    assert note_mb("interval", sep, "--gf") == 1
    # P(non_sep) has 28 order filters, so le_gf at most 28 entries: the empty,
    # 24 single and 3 two-letter decreasing subsequences (21, 41, 43)
    assert cli._filters(parse_permutation(non_sep).word) == 28
    assert note_mb("interval", non_sep, "--gf") == 1
    # the check and the table pair up all of S_8
    assert note_mb("bijection", "12345678") == note_mb("bijection", "12345678", "--table")
    assert note_mb("bijection", "12345678") == round(factorial(8) * 150 / 1e6) == 6


@pytest.mark.parametrize("n", range(1, 7))
def test_order_filters_are_the_decreasing_subsequences(n):
    # brute-force up-sets of P(pi) and P(pi^c) against the counts _gf_note sums
    def up_sets(p):
        covers = p.covers()
        return sum(all(not mask >> a - 1 & 1 or mask >> b - 1 & 1 for a, b in covers) for mask in range(1 << n))

    for pi in all_permutations(n):
        assert cli._filters(pi.word) == up_sets(inversion_poset(pi)), pi
        assert cli._filters([-a for a in pi.word]) == up_sets(inversion_poset(pi.complement())), pi


def test_force_note_sums_the_sides_the_command_evaluates(capsys):
    # 2,4,1,3,5,...,1100: 1 + 1,100 + 3 filters below; above, the 8 increasing
    # subsequences of 2413 each extended by any subset of the 1,096 letters after
    pi = parse_permutation(",".join(map(str, (2, 4, 1, 3, *range(5, 1101)))))
    above = 8 * 2**1096
    for sides, objects in ((("below",), 1104), (("above",), above), (("below", "above"), 1104 + above)):
        cli._gf_note(pi, False, True, *sides)
        mb = max(1, round(objects * 150, -6) // 10**6)
        assert capsys.readouterr().err == f"guard override active; memory estimate ~{mb} MB\n"
    cli._gf_note(pi, False, False, "below", "above")
    assert capsys.readouterr().err == ""
