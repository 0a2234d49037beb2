"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

The smoke runs (survey n = 5, 15 queries, verify at n <= 3) check that
every metric BENCHMARK.json names is emitted with its unit; the full
traced survey checks the call counts that must repeat exactly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from itertools import permutations

import pytest

import queries
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(n, u) for n, u, _ in run.PER_LAYER] + list(run.TRACE_OVERHEAD)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == per_layer


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in out["metrics"].items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in out["metrics"].values())


def _layer_counts(proc) -> dict:
    metrics = last_json(proc)["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith((".calls", ".elements", "csv_bytes"))}


def test_query_counts_repeat_exactly():
    args = ("--workload", "queries", "--seed", "11", "--seconds", "1", "--trace", "1", "--smoke")
    first, second = bench(*args), bench(*args)
    assert first.returncode == 0 and second.returncode == 0
    counts = _layer_counts(first)
    assert counts == _layer_counts(second)
    assert counts["weak_order.interval.calls"] > 0 and counts["bijection.phi.calls"] > 0


def test_survey_n8_counts_are_exact():
    proc = bench("--workload", "survey-n8", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    counts = _layer_counts(proc)
    assert counts["perm.Permutation.calls"] == 40320
    assert counts["separable.is_separable.calls"] == 80640
    assert counts["separable.gf_below_recursive.calls"] == 8558
    assert counts["poset.le_gf.calls"] == 31762
    assert counts["qpoly.is_cyclotomic_product.calls"] == 7965
    assert counts["survey.format_row.calls"] == 40320
    assert counts["survey.fsync.calls"] == 160
    assert counts["survey.csv_bytes"] == 3082908
    assert counts["weak_order.interval.calls"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_checks_reject_wrong_answers():
    qs = next(queries.query_blocks(5, 2))
    kind, argv = next(q for q in qs if q[0] == "interval")
    word = queries.parse(argv[2])
    right = " + ".join(f"{c}*q^{k}" for k, c in
                       enumerate(queries.expected_interval(word, argv[4])))
    assert queries.check(kind, argv, 0, right) is None
    assert queries.check(kind, argv, 0, right + " + q^99") is not None
    assert queries.check(kind, argv, 1, right) is not None
    kind, argv = next(q for q in qs if q[0] == "invert")
    n = len(queries.parse(argv[2]))
    ident = queries.fmt(range(1, n + 1))
    bogus = json.dumps({"u": ident, "v": ident})
    assert queries.check(kind, argv, 0, bogus) is not None


def test_weak_leq_matches_the_package():
    from weakbruhat.perm import Permutation, leq_weak

    words = list(permutations(range(1, 5)))
    for u in words:
        for v in words:
            assert queries.weak_leq(u, v) == leq_weak(Permutation(u), Permutation(v))


def test_generators():
    from weakbruhat.separable import is_separable
    from weakbruhat.perm import Permutation
    import random

    rng = random.Random(0)
    for n in (1, 2, 7, 15):
        w = queries.random_separable(rng, n)
        assert sorted(w) == list(range(1, n + 1)) and is_separable(Permutation(w))
    w = queries.random_nonseparable(rng, 9)
    assert not is_separable(Permutation(w))
    first, second = queries.query_blocks(4, 3), queries.query_blocks(4, 3)
    assert [next(first) for _ in range(3)] == [next(second) for _ in range(3)]


def test_counterexample_count_and_tail():
    assert run._counterexamples("counterexamples: a b c d e f g h and 79 more") == 87
    assert run._counterexamples("counterexamples: a b") == 2
    assert run._tail(list(range(100))) == (90, 89)
    assert run._tail(list(range(1000))) == (99, 989)
    assert run._tail(list(range(10000))) == (99.9, 9989)
    assert run._tail(list(range(15))) is None
