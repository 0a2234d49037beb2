"""Exhaustive scans: record stream, aggregation, the BFS cross-check,
one worker path with and without an output file, and the
checkpoint/resume contract (interrupted runs finish byte-identical)."""

import hashlib
import json
from dataclasses import replace

import pytest

from weakbruhat import poset, survey
from weakbruhat.errors import CheckpointError, GuardExceeded, UsageError
from weakbruhat.perm import Permutation, all_permutations, identity
from weakbruhat.separable import is_separable, qint_exponents
from weakbruhat.survey import (
    SurveyRecord,
    scan,
    schroder,
)
from weakbruhat.weak_order import interval, rank_gf

from conftest import iter_records

# the n = 5 survey CSV, byte for byte, at one worker and through the pool
SURVEY_N5_SHA256 = "dd00fa487285ccacdf5f39254ca7943ab69c08b42cc8d256c9674a385a4981f2"


def test_schroder_values():
    assert [schroder(k) for k in range(8)] == [1, 2, 6, 22, 90, 394, 1806, 8558]


def test_scan_merges_each_word_once(merged_words):
    # the two is_separable calls and the recursion share the word's one pass
    report = scan(6, workers=1)
    assert report.count_separable == schroder(5)
    assert len(merged_words) == 720 and len(set(merged_words)) == 720


def test_iter_records_n4():
    records = list(iter_records(4))
    assert len(records) == 24
    assert [r.word for r in records] == sorted(r.word for r in records)
    assert sum(r.is_separable for r in records) == 22
    by_word = {r.word: r for r in records}
    r = by_word["2413"]
    assert r == SurveyRecord(
        word="2413",
        is_separable=False,
        gf_below=r.gf_below,
        rank_symmetric=False,
        unimodal=True,
        cyclotomic_product=False,
        divides_qfact=False,
    )
    assert r.gf_below.coeffs == (1, 2, 1, 1)
    assert by_word["1234"].gf_below.coeffs == (1,)
    assert by_word["4321"].divides_qfact


@pytest.mark.parametrize("n", [*range(1, 7), pytest.param(7, marks=pytest.mark.slow)])
def test_records_match_interval_bfs(n, survey_records):
    # the survey's route (recursion or linear extensions) against BFS
    for rec in survey_records(n):
        pi = Permutation(tuple(int(c) for c in rec.word))
        assert rec.gf_below == rank_gf(interval(identity(n), pi)), rec.word


def test_force_scan_without_out_uses_the_pool(monkeypatch):
    monkeypatch.setattr(survey, "_CHUNK", 16)
    serial = scan(5, workers=1, force=True)
    contexts = []
    real = survey.get_context

    def spy(method):
        contexts.append(method)
        return real(method)

    monkeypatch.setattr(survey, "get_context", spy)
    pooled = scan(5, workers=2, force=True)
    assert contexts == ["fork"]
    assert replace(pooled, wall_time=0) == replace(serial, wall_time=0)


def test_survey_limit_is_within_the_le_gf_guard():
    # why records need no force of their own: scan's guard is the only one
    assert survey.SURVEY_HARD_LIMIT <= poset.SIZE_GUARD


def test_scan_in_memory_counts():
    report = scan(5)
    assert report.n == 5
    assert report.total == 120
    assert report.count_separable == schroder(4) == 90
    assert report.count_rank_symmetric == 94
    assert report.count_symmetric_cyclotomic == 94
    assert report.count_symmetric_nondividing == 2
    assert report.wall_time > 0


def test_scan_n1_all_counts_one():
    report = scan(1)
    assert (report.total, report.count_separable, report.count_rank_symmetric) == (1, 1, 1)


def test_scan_writes_csv_and_summary(tmp_path):
    out = tmp_path / "s4.csv"
    report = scan(4, out=str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "word,separable,gf,symmetric,unimodal,cyclotomic,divides"
    assert len(lines) == 1 + 24
    assert lines[1] == "1234,true,1,true,true,true,true"
    row_2413 = next(line for line in lines if line.startswith("2413,"))
    assert row_2413 == "2413,false,1;2;1;1,false,true,false,false"
    summary = json.loads((tmp_path / "s4.csv.summary.json").read_text())
    assert summary["count_separable"] == report.count_separable == 22
    ckpt = json.loads((tmp_path / "s4.csv.ckpt").read_text())
    assert ckpt["completed"] == 24
    assert not (tmp_path / "s4.csv.partial").exists()


class _Trip:
    """Raise once a set number of rows have been encoded (in each
    process: a forked pool worker counts from its copy)."""

    def __init__(self, limit, inner, exc=KeyboardInterrupt):
        self.limit = limit
        self.inner = inner
        self.exc = exc
        self.count = 0

    def __call__(self, word):
        self.count += 1
        if self.count > self.limit:
            raise self.exc("simulated interrupt")
        return self.inner(word)


def _interrupted_scan(out, monkeypatch, n=5, chunk=16, limit=40, workers=1,
                      exc=KeyboardInterrupt):
    """An S_n scan into out, in chunks of `chunk`, cut off once a process
    has encoded `limit` rows."""
    monkeypatch.setattr(survey, "_CHUNK", chunk)
    trip = _Trip(limit, survey._encode_row, exc)
    monkeypatch.setattr(survey, "_encode_row", trip)
    with pytest.raises(exc):
        scan(n, out=str(out), workers=workers)
    monkeypatch.setattr(survey, "_encode_row", trip.inner)


def test_resume_after_interrupt_is_byte_identical(tmp_path, monkeypatch):
    clean = tmp_path / "clean.csv"
    scan(5, out=str(clean), workers=1)

    out = tmp_path / "s5.csv"
    _interrupted_scan(out, monkeypatch)

    ckpt = json.loads((tmp_path / "s5.csv.ckpt").read_text())
    assert 0 < ckpt["completed"] < 120
    assert ckpt["completed"] % 16 == 0
    assert (tmp_path / "s5.csv.partial").exists()

    report = scan(5, out=str(out), resume=True, workers=1)
    assert report.total == 120
    assert out.read_bytes() == clean.read_bytes()
    assert not (tmp_path / "s5.csv.partial").exists()


def test_resume_from_checkpoint_with_a_mode_key(tmp_path, monkeypatch):
    # checkpoints written before the survey had one route carry "mode"
    clean = tmp_path / "clean.csv"
    scan(5, out=str(clean), workers=1)

    out = tmp_path / "s5.csv"
    _interrupted_scan(out, monkeypatch)

    ckpt = tmp_path / "s5.csv.ckpt"
    meta = json.loads(ckpt.read_text())
    meta["mode"] = "exact-bruteforce"
    ckpt.write_text(json.dumps(meta))

    scan(5, out=str(out), resume=True, workers=1)
    assert out.read_bytes() == clean.read_bytes()


def test_n7_csv_is_the_same_at_any_worker_count_and_after_resume(tmp_path, monkeypatch):
    # 5040 words in chunks of 500: ten full chunks and a last one of 40
    monkeypatch.setattr(survey, "_CHUNK", 500)
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    scan(7, out=str(serial), workers=1)
    scan(7, out=str(pooled), workers=2)
    assert pooled.read_bytes() == serial.read_bytes()

    # a pool worker fails on its 1,201st word: in its third chunk at the latest
    resumed = tmp_path / "resumed.csv"
    _interrupted_scan(resumed, monkeypatch, n=7, chunk=500, limit=1200, workers=2,
                      exc=RuntimeError)
    ckpt = json.loads((tmp_path / "resumed.csv.ckpt").read_text())
    assert 0 < ckpt["completed"] < 5040 and ckpt["completed"] % 500 == 0
    report = scan(7, out=str(resumed), resume=True, workers=2)
    assert resumed.read_bytes() == serial.read_bytes()
    # separable, rank-symmetric, symmetric-cyclotomic, symmetric-nondividing
    counts = (report.count_separable, report.count_rank_symmetric,
              report.count_symmetric_cyclotomic, report.count_symmetric_nondividing)
    assert counts == (schroder(6), 2116, 2036, 160)


def test_parallel_output_matches_serial(tmp_path, monkeypatch):
    # small chunks so 120 records exceed the serial cutoff of 2 chunks
    monkeypatch.setattr(survey, "_CHUNK", 16)
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    scan(5, out=str(serial), workers=1)
    report = scan(5, out=str(pooled), workers=2)
    assert report.total == 120
    assert pooled.read_bytes() == serial.read_bytes()
    for path in (serial, pooled):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SURVEY_N5_SHA256


def test_resume_without_checkpoint_runs_fresh(tmp_path):
    out = tmp_path / "s3.csv"
    report = scan(3, out=str(out), resume=True)
    assert report.total == 6
    assert len(out.read_text().splitlines()) == 7


def test_resume_on_completed_run_short_circuits(tmp_path):
    out = tmp_path / "s4.csv"
    scan(4, out=str(out))
    before = out.read_bytes()
    report = scan(4, out=str(out), resume=True)
    assert report.total == 24
    assert out.read_bytes() == before


@pytest.mark.parametrize("renamed", [False, True])
def test_resume_of_a_finished_run_drops_stray_bytes(tmp_path, renamed):
    # a finished run cut off before (renamed=False) or after its rename,
    # with bytes past the checkpointed prefix
    clean = tmp_path / "clean.csv"
    scan(5, out=str(clean), workers=1)
    summary = (tmp_path / "clean.csv.summary.json").read_text()

    out = tmp_path / "s5.csv"
    data = tmp_path / ("s5.csv" if renamed else "s5.csv.partial")
    data.write_bytes(clean.read_bytes() + b"stray\nrow\n")
    (tmp_path / "s5.csv.ckpt").write_bytes((tmp_path / "clean.csv.ckpt").read_bytes())

    report = scan(5, out=str(out), resume=True, workers=1)
    assert report.total == 120
    assert out.read_bytes() == clean.read_bytes()
    assert not (tmp_path / "s5.csv.partial").exists()
    fields = json.loads((tmp_path / "s5.csv.summary.json").read_text())
    assert {**fields, "wall_time": 0} == {**json.loads(summary), "wall_time": 0}


def test_resume_after_interrupt_drops_stray_bytes(tmp_path, monkeypatch):
    clean = tmp_path / "clean.csv"
    scan(5, out=str(clean), workers=1)

    out = tmp_path / "s5.csv"
    _interrupted_scan(out, monkeypatch)
    with open(tmp_path / "s5.csv.partial", "ab") as fh:
        fh.write(b"54321,tr")

    scan(5, out=str(out), resume=True, workers=1)
    assert out.read_bytes() == clean.read_bytes()


def test_resume_rejects_tampered_stream(tmp_path, monkeypatch):
    out = tmp_path / "s5.csv"
    _interrupted_scan(out, monkeypatch)

    partial = tmp_path / "s5.csv.partial"
    data = partial.read_bytes()
    partial.write_bytes(data.replace(b"true", b"trye", 1))  # same length, new hash
    with pytest.raises(CheckpointError, match="hash"):
        scan(5, out=str(out), resume=True, workers=1)


def test_rows_read_back_to_the_csv(tmp_path):
    # iter_records reads the rows the scan writes, through the same reader
    # as a resume; formatting the records again gives the file back
    out = tmp_path / "s5.csv"
    scan(5, out=str(out), workers=1)
    flag = {True: "true", False: "false"}
    rows = [
        f"{r.word},{flag[r.is_separable]},{';'.join(map(str, r.gf_below.coeffs))},"
        f"{flag[r.rank_symmetric]},{flag[r.unimodal]},{flag[r.cyclotomic_product]},"
        f"{flag[r.divides_qfact]}\n"
        for r in iter_records(5)
    ]
    assert survey.CSV_HEADER + "".join(rows) == out.read_text()


@pytest.mark.parametrize(
    "row",
    ["2413,false,1;2;1;1,false,true,false", "2413,no,1;2;1;1,false,true,false,false",
     "2413,false,1;x;1;1,false,true,false,false", "2413,false,,false,true,false,false"],
    ids=["six-fields", "bad-flag", "bad-coefficient", "empty-gf"],
)
def test_resume_rejects_a_malformed_row_under_a_matching_hash(tmp_path, row):
    out = tmp_path / "s4.csv"
    scan(4, out=str(out))
    data = out.read_bytes().replace(b"2413,false,1;2;1;1,false,true,false,false",
                                    row.encode())
    out.write_bytes(data)
    ckpt = tmp_path / "s4.csv.ckpt"
    meta = json.loads(ckpt.read_text())
    meta.update(bytes=len(data), sha256=hashlib.sha256(data).hexdigest())
    ckpt.write_text(json.dumps(meta))
    with pytest.raises(CheckpointError, match="malformed survey row"):
        scan(4, out=str(out), resume=True)


def test_row_reader_raises_a_plain_value_error():
    # iter_records reads rows through the reader a resume uses; a malformed
    # row there involves no checkpoint, so only the resume names one
    with pytest.raises(ValueError, match="malformed survey row") as info:
        list(survey._read_rows(["2413,no,1;2;1;1,false,true,false,false"]))
    assert not isinstance(info.value, CheckpointError)


def test_resume_rejects_mismatched_parameters(tmp_path):
    out = tmp_path / "s.csv"
    scan(4, out=str(out))
    with pytest.raises(CheckpointError):
        scan(5, out=str(out), resume=True)


@pytest.mark.parametrize(
    "meta, reason",
    [
        ('"n completed bytes sha256"', "not a JSON object"),
        ("[24, 4]", "not a JSON object"),
        ('{"n": 4, "completed": 24, "bytes": "976", "sha256": "%s"}', "malformed 'bytes'"),
        ('{"n": 4, "completed": 24.0, "bytes": 976, "sha256": "%s"}', "malformed 'completed'"),
        ('{"n": 4, "completed": true, "bytes": 976, "sha256": "%s"}', "malformed 'completed'"),
        ('{"n": true, "completed": 24, "bytes": 976, "sha256": "%s"}', "malformed 'n'"),
        ('{"n": 4, "completed": 24, "bytes": 976, "sha256": 5}', "malformed 'sha256'"),
        ('{"n": 4, "completed": 25, "bytes": 976, "sha256": "%s"}', "claims 25 of 24"),
        ('{"n": 4, "completed": -1, "bytes": 976, "sha256": "%s"}', "claims -1 of 24"),
        ('{"n": 4, "completed": 0, "bytes": 10, "sha256": "%s"}', "less than the header"),
        (b"\xff\xfe", "unreadable"),
    ],
    ids=["string", "list", "bytes-str", "completed-float", "completed-bool", "n-bool",
         "sha256-int", "completed-high", "completed-negative", "bytes-short", "not-utf8"],
)
def test_resume_rejects_malformed_checkpoint_fields(tmp_path, capsys, meta, reason):
    from weakbruhat.cli import main

    out = tmp_path / "s4.csv"
    scan(4, out=str(out))
    ckpt = tmp_path / "s4.csv.ckpt"
    if isinstance(meta, str):
        meta = meta.replace("%s", json.loads(ckpt.read_text())["sha256"]).encode()
    ckpt.write_bytes(meta)
    assert main(["survey", "--n", "4", "--out", str(out), "--resume"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert "Traceback" not in err


def test_scan_guards():
    with pytest.raises(GuardExceeded, match="force"):
        scan(9)
    with pytest.raises(GuardExceeded, match="not supported"):
        scan(10, force=True)
    with pytest.raises(UsageError):
        scan(0)


def test_predicate_cache_keeps_sizes_apart():
    # [5] divides [5]! but not [4]!; a shared cache entry must not leak
    survey._predicates.cache_clear()
    coeffs = (1, 1, 1, 1, 1)
    assert survey._predicates(coeffs, 4) == (",1;1;1;1;1,true,true,true,false\n", True, True, True)
    assert survey._predicates(coeffs, 5) == (",1;1;1;1;1,true,true,true,true\n", True, True, False)
    assert survey._predicates.cache_info().currsize == 2


@pytest.mark.parametrize("n", range(1, 8))
def test_divisibility_runs_only_on_cyclotomic_products(n):
    # the shortcut against dividing [n]! by every distinct gf of S_n
    from weakbruhat.errors import NonzeroRemainder
    from weakbruhat.qpoly import is_cyclotomic_product, q_factorial

    survey._predicates.cache_clear()
    gfs = {rec.gf_below for rec in iter_records(n)}
    # one entry per distinct (gf, n)
    assert survey._predicates.cache_info().currsize == len(gfs)
    flag = {True: "true", False: "false"}
    for gf in gfs:
        try:
            q_factorial(n).exact_div(gf)
            div = True
        except NonzeroRemainder:
            div = False
        cyc, sym = is_cyclotomic_product(gf), gf.is_symmetric()
        tail, *count_flags = survey._predicates(gf.coeffs, n)
        assert tail.endswith(f",{flag[cyc]},{flag[div]}\n"), gf
        assert count_flags == [sym, sym and cyc, sym and not div], gf
    assert survey._predicates.cache_info().currsize == len(gfs)


def test_shared_le_table_keeps_only_small_posets(monkeypatch, capsys):
    # a survey and a 10-letter non-separable analyze; sub-posets with
    # more than seven elements stay in their call's own table
    from math import factorial

    from weakbruhat.cli import main

    monkeypatch.setattr(poset, "_shared_le", {})
    scan(7, workers=1)
    assert main(["--json", "analyze", "2,4,1,3,5,6,7,8,9,10"]) == 0
    assert json.loads(capsys.readouterr().out)["separable"] is False
    sizes = {len(key) for key in poset._shared_le}
    assert max(sizes) == poset._SHARED_MAX == 7
    assert len(poset._shared_le) <= sum(factorial(k) for k in range(2, 8))


def test_shared_le_table_is_keyed_by_byte_rows(monkeypatch):
    monkeypatch.setattr(poset, "_shared_le", {})
    scan(7, workers=1)
    assert poset._shared_le
    assert all(type(key) is bytes and len(key) <= 7 for key in poset._shared_le)


def test_record_tuple_rejects_malformed_gf(monkeypatch):
    # the per-record validation is the survey's own safety net
    from weakbruhat.qpoly import IntPoly

    monkeypatch.setattr(survey, "_gf_below", lambda pi: IntPoly((1, 1, 1)))
    with pytest.raises(AssertionError, match="malformed"):
        survey._encode_row((2, 1))


def test_negative_coefficients_are_caught_on_the_cache_miss(monkeypatch):
    # the sign check runs once per distinct polynomial, in _predicates;
    # (1, -1, 1) passes the per-word checks of (3, 1, 2): constant term
    # 1, degree 2 = its length
    from weakbruhat.qpoly import IntPoly

    monkeypatch.setattr(survey, "_gf_below", lambda pi: IntPoly((1, -1, 1)))
    with pytest.raises(AssertionError, match="malformed"):
        survey._encode_row((3, 1, 2))
    with pytest.raises(AssertionError, match="malformed"):
        survey._encode_row((3, 1, 2))  # a failed check is never cached


def test_memo_tables_hold_quadratically_many_entries(monkeypatch):
    # every key of these tables is O(n^2): an order d with phi(d) at most
    # the degree n(n-1)/2, or a q-integer [i], i <= n, at a slot width
    from weakbruhat import qpoly
    from weakbruhat.qpoly import cyclotomic

    n = 7
    tables = (cyclotomic, survey._predicates, qpoly._orders_upto, qpoly._packed_cyclotomic, qpoly._packed_qint, qpoly._expand)
    for table in tables:
        table.cache_clear()
    widths = set()
    slot_width = qpoly._slot_width

    def recorded(coeffs):
        width = slot_width(coeffs)
        widths.add(width)
        return width

    monkeypatch.setattr(qpoly, "_slot_width", recorded)
    scan(n, workers=1)
    assert 0 < cyclotomic.cache_info().currsize <= (n + 1) * (n + 2) // 2
    # at most one packed [i] per (i, width): every word of S_n is expanded
    # at pack_width(n)
    assert 0 < qpoly._packed_qint.cache_info().currsize <= n - 1
    # one expansion per exponent vector: the words' g and the complements' 1 - g
    vectors = set()
    for pi in all_permutations(n):
        if is_separable(pi):
            g = qint_exponents(pi)
            vectors.update((tuple(g), tuple(1 - e for e in g)))
    assert 0 < qpoly._expand.cache_info().currsize <= len(vectors)
    # is_cyclotomic_product keeps one (d, phi(d)) list per power of two
    # up to the largest degree, [n]!'s, and one packed Phi_d per order
    # tried at each slot width
    degree = n * (n - 1) // 2
    assert 0 < qpoly._orders_upto.cache_info().currsize <= degree.bit_length() + 1
    packed = qpoly._packed_cyclotomic.cache_info().currsize
    assert 0 < packed <= len(widths) * cyclotomic.cache_info().currsize
