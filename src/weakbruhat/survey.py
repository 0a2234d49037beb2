"""Exhaustive S_n scans: for every permutation, the rank generating
function of its lower interval and four derived predicates (separable,
rank-symmetric, unimodal, cyclotomic product, divisor of [n]!).

Separable permutations go through the block recursion, read off
is_separable's merge pass; non-separable ones go through linear extensions of the inversion poset.
That is the only record route; interval BFS stays as the cross-check in
`verify ff` and the tests.  Every scan, with or without an output file,
consumes one chunk stream (serial at one worker, a fork pool
otherwise), in lexicographic word order.  Each chunk comes back as its
encoded CSV rows, one bytes block, plus its counts: the worker formats
the rows (a row's tail after the separable flag is cached once per
polynomial), and the parent only writes, hashes, fsyncs and adds up.
So output files are deterministic, and a checkpoint (record count plus
a running SHA-256 of the emitted bytes) makes interrupted runs
resumable with byte-identical results.  A resume, of a finished run or
not, truncates the data file to the checkpointed prefix, recounts the
summary from those rows and streams whatever records remain.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from hashlib import sha256
from itertools import islice, permutations
from math import factorial
from multiprocessing import get_context

from .errors import CheckpointError, GuardExceeded, NonzeroRemainder, UsageError
from .perm import Permutation
from .poset import inversion_poset, le_gf
from .qpoly import IntPoly, is_cyclotomic_product, q_factorial
from .separable import gf_below_recursive, is_separable
from .weak_order import interval  # noqa: F401  (the benchmark's tracer wraps this binding)

SURVEY_GUARD = 8
SURVEY_HARD_LIMIT = 9
_CHUNK = 512

CSV_HEADER = "word,separable,gf,symmetric,unimodal,cyclotomic,divides\n"
_FLAG = {True: "true", False: "false"}
_FLAG_OF = {"true": True, "false": False}


@dataclass(frozen=True)
class SurveyRecord:
    word: str
    is_separable: bool
    gf_below: IntPoly
    rank_symmetric: bool
    unimodal: bool
    cyclotomic_product: bool
    divides_qfact: bool


@dataclass(frozen=True)
class SurveyReport:
    n: int
    total: int
    count_separable: int
    count_rank_symmetric: int
    count_symmetric_cyclotomic: int
    count_symmetric_nondividing: int
    wall_time: float  # this run only; resumed runs report their own slice


@lru_cache(maxsize=None)
def schroder(k: int) -> int:
    """Large Schroeder numbers 1, 2, 6, 22, 90, 394, 1806, 8558, ...
    by the convolution recurrence.  `verify main-theorem` and the tests
    check the separable counts against these.

    >>> [schroder(k) for k in range(8)]
    [1, 2, 6, 22, 90, 394, 1806, 8558]
    """
    if k < 0:
        raise ValueError(f"schroder index must be nonnegative, got {k}")
    if k == 0:
        return 1
    return schroder(k - 1) + sum(schroder(j) * schroder(k - 1 - j) for j in range(k))


# Per-process memo: many permutations share one generating function
# (7,965 distinct ones among the 40,320 words of S_8).  No predicate
# dominates a miss: over those 7,965, about 75 ms in all on a 2-core
# x86_64 host (Python 3.11), the sign check and the row text take some
# 30 ms, unimodality 20, the cyclotomic factoring 15 and the division
# of [n]! 7.  Divisibility is against [n]!, so n is part of the key.
# The sign check of the generating function is a function of its
# coefficients alone, so it runs here, once per distinct polynomial; a
# failed check raises, and nothing is cached for it.
@lru_cache(maxsize=None)
def _predicates(coeffs: tuple[int, ...], n: int) -> tuple[str, bool, bool, bool]:
    """The row's text after its separable flag, `,gf,sym,uni,cyc,div`
    and the newline, and the count flags of _count_flags."""
    if any(c < 0 for c in coeffs):
        raise AssertionError(f"malformed generating function: negative coefficients {coeffs}")
    gf = IntPoly(coeffs)
    sym = gf.is_symmetric()
    uni = gf.is_unimodal()
    cyc = is_cyclotomic_product(gf)
    # Only a cyclotomic product can divide [n]!: [n]! is the product of
    # Phi_d^(n // d) over 2 <= d <= n (Phi_1 is no factor, as [n]! at
    # q = 1 is n! != 0), and by unique factorization in Z[q] a divisor
    # with constant term 1 is a product of some of those Phi_d.
    div = False
    if cyc:
        try:
            q_factorial(n).exact_div(gf)
            div = True
        except NonzeroRemainder:
            pass
    f = [_FLAG[b] for b in (sym, uni, cyc, div)]
    tail = f",{';'.join(map(str, coeffs))},{f[0]},{f[1]},{f[2]},{f[3]}\n"
    return (tail, *_count_flags(sym, cyc, div))


def _count_flags(sym: bool, cyc: bool, div: bool) -> tuple[bool, bool, bool]:
    """Rank-symmetric; symmetric and cyclotomic; symmetric and not
    dividing [n]!: the three summary counts a row's polynomial adds to."""
    return sym, sym and cyc, sym and not div


def _gf_below(pi: Permutation) -> IntPoly:
    # no force needed: SURVEY_HARD_LIMIT <= poset.SIZE_GUARD
    if is_separable(pi):
        return gf_below_recursive(pi)
    return le_gf(inversion_poset(pi))


def _encode_row(word: tuple[int, ...]):
    """One word's CSV row, its separable flag and its three count flags."""
    pi = Permutation(word)
    sep = is_separable(pi)
    gf = _gf_below(pi)
    if gf.coeffs[0] != 1 or gf.degree != pi.length:
        raise AssertionError(f"malformed generating function for {pi}: {gf.coeffs}")
    tail, sym, sym_cyc, sym_nondiv = _predicates(gf.coeffs, pi.size)
    return _format_row(str(pi), sep, tail), sep, sym, sym_cyc, sym_nondiv


def _scan_chunk(words):
    """The rows of a chunk of words as one bytes block, the number of
    words, and the chunk's four counts in _Counts.add order."""
    rows = []
    n_sep = n_sym = n_cyc = n_nondiv = 0
    for word in words:
        row, sep, sym, sym_cyc, sym_nondiv = _encode_row(word)
        rows.append(row)
        n_sep += sep
        n_sym += sym
        n_cyc += sym_cyc
        n_nondiv += sym_nondiv
    return "".join(rows).encode(), len(rows), (n_sep, n_sym, n_cyc, n_nondiv)


def _read_rows(rows):
    """SurveyRecords from the CSV rows _encode_row writes, read without
    their newlines.  A row not of that form raises ValueError."""
    for row in rows:
        try:
            word, sep, gf, sym, uni, cyc, div = row.split(",")
            flags = [_FLAG_OF[f] for f in (sep, sym, uni, cyc, div)]
            poly = IntPoly(map(int, gf.split(";")))
        except (KeyError, ValueError):
            raise ValueError(f"malformed survey row: {row!r}") from None
        yield SurveyRecord(word, flags[0], poly, *flags[1:])


def iter_records(n: int, force: bool = False):
    """Single-process record stream in lexicographic word order."""
    _check_scan_args(n, force)
    for block, _, _ in _iter_chunk_results(n, workers=1, start=0):
        yield from _read_rows(block.decode().splitlines())


def _check_scan_args(
    n: int, force: bool, workers: int | None = None, out: str | None = None, resume: bool = False
) -> None:
    if n < 1:
        raise UsageError(f"scan needs n >= 1, got {n}")
    if n > SURVEY_HARD_LIMIT:
        raise GuardExceeded(f"surveys beyond n = {SURVEY_HARD_LIMIT} are not supported")
    if n > SURVEY_GUARD and not force:
        raise GuardExceeded(
            f"survey guarded at n <= {SURVEY_GUARD} (got {n}); "
            "pass force=True (--force) to override"
        )
    if workers is not None and workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    if resume and out is None:
        raise UsageError("resume needs the CSV path (--out) of the scan to continue")


def _format_row(word: str, sep: bool, tail: str) -> str:
    return f"{word},{_FLAG[sep]}{tail}"


class _Counts:
    __slots__ = ("separable", "symmetric", "symmetric_cyclotomic", "symmetric_nondividing")

    def __init__(self):
        self.separable = 0
        self.symmetric = 0
        self.symmetric_cyclotomic = 0
        self.symmetric_nondividing = 0

    def add(self, sep: int, sym: int, sym_cyc: int, sym_nondiv: int) -> None:
        """Add counts (or flags) of separable, rank-symmetric,
        symmetric-cyclotomic and symmetric-nondividing words."""
        self.separable += sep
        self.symmetric += sym
        self.symmetric_cyclotomic += sym_cyc
        self.symmetric_nondividing += sym_nondiv


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _write_checkpoint(path: str, n: int, completed: int, nbytes: int, digest: str) -> None:
    meta = {"n": n, "completed": completed, "bytes": nbytes, "sha256": digest}
    _atomic_write(path, json.dumps(meta).encode())


def _chunked_words(n: int, start: int, size: int):
    stream = islice(permutations(range(1, n + 1)), start, None)
    while True:
        chunk = tuple(islice(stream, size))
        if not chunk:
            return
        yield chunk


def scan(
    n: int,
    out: str | None = None,
    resume: bool = False,
    workers: int | None = None,
    force: bool = False,
) -> SurveyReport:
    """Survey all of S_n.  With out set, stream a CSV there (plus a
    .ckpt checkpoint while running and a .summary.json at the end);
    resume=True continues an interrupted scan from its checkpoint."""
    _check_scan_args(n, force, workers, out, resume)
    t0 = time.monotonic()
    counts = _Counts()
    if workers is None:
        workers = os.cpu_count() or 1

    if out is None:
        for _, _, chunk_counts in _iter_chunk_results(n, workers, 0):
            counts.add(*chunk_counts)
        return _make_report(n, counts, t0)

    partial = out + ".partial"
    ckpt = out + ".ckpt"
    fresh = not (resume and os.path.exists(ckpt))
    if fresh:
        header = CSV_HEADER.encode()
        completed, nbytes, hasher = 0, len(header), sha256(header)
    else:
        completed, nbytes, hasher = _load_checkpoint(ckpt, out, partial, n, counts)
        if not os.path.exists(partial):
            # a finished run: its data is already out, so take it back
            os.replace(out, partial)

    with open(partial, "wb" if fresh else "r+b") as sink:
        if fresh:
            sink.write(header)
            _write_checkpoint(ckpt, n, 0, nbytes, hasher.hexdigest())
        else:
            sink.truncate(nbytes)
            sink.seek(nbytes)
        for block, words, chunk_counts in _iter_chunk_results(n, workers, completed):
            sink.write(block)
            hasher.update(block)
            nbytes += len(block)
            counts.add(*chunk_counts)
            completed += words
            sink.flush()
            os.fsync(sink.fileno())
            _write_checkpoint(ckpt, n, completed, nbytes, hasher.hexdigest())

    os.replace(partial, out)
    report = _make_report(n, counts, t0)
    _atomic_write(out + ".summary.json", json.dumps(asdict(report)).encode())
    return report


def _make_report(n: int, counts: _Counts, t0: float) -> SurveyReport:
    return SurveyReport(
        n=n,
        total=factorial(n),
        count_separable=counts.separable,
        count_rank_symmetric=counts.symmetric,
        count_symmetric_cyclotomic=counts.symmetric_cyclotomic,
        count_symmetric_nondividing=counts.symmetric_nondividing,
        wall_time=time.monotonic() - t0,
    )


def _load_checkpoint(ckpt: str, out: str, partial: str, n: int, counts: _Counts):
    """Validate the checkpoint and the prefix of the data file it names,
    count that prefix's rows into counts, and return the record count,
    the prefix length and a SHA-256 that has taken in the prefix.  Reads
    no byte of the data file past the prefix."""
    try:
        with open(ckpt, "rb") as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable checkpoint {ckpt}: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"checkpoint {ckpt} is not a JSON object")
    for key, kind in (("n", int), ("completed", int), ("bytes", int), ("sha256", str)):
        if key not in meta:
            raise CheckpointError(f"checkpoint {ckpt} is missing {key!r}")
        if not isinstance(meta[key], kind) or isinstance(meta[key], bool):
            raise CheckpointError(f"checkpoint {ckpt} has a malformed {key!r}: {meta[key]!r}")
    if meta["n"] != n:
        raise CheckpointError(
            f"checkpoint {ckpt} was written by a different scan (n={meta['n']})"
        )
    completed, nbytes, total = meta["completed"], meta["bytes"], factorial(n)
    if not 0 <= completed <= total:
        raise CheckpointError(f"checkpoint {ckpt} claims {completed} of {total} records")
    if nbytes < len(CSV_HEADER):
        raise CheckpointError(f"checkpoint {ckpt} claims {nbytes} bytes, less than the header")
    stream = partial if os.path.exists(partial) else out
    if not os.path.exists(stream):
        raise CheckpointError(f"checkpoint {ckpt} has no data file alongside it")
    if stream == out and completed != total:
        raise CheckpointError(f"checkpoint {ckpt} is incomplete but {partial} is gone")
    with open(stream, "rb") as fh:
        prefix = fh.read(nbytes)
    if len(prefix) < nbytes:
        raise CheckpointError(
            f"{stream} is shorter ({len(prefix)} bytes) than its checkpoint claims "
            f"({nbytes} bytes)"
        )
    hasher = sha256(prefix)
    if hasher.hexdigest() != meta["sha256"]:
        raise CheckpointError(f"{stream} does not match the checkpoint hash in {ckpt}")
    lines = prefix.decode().splitlines()
    if not lines or lines[0] != CSV_HEADER.strip():
        raise CheckpointError(f"{stream} does not start with the survey header")
    if len(lines) - 1 != completed:
        raise CheckpointError(
            f"{stream} holds {len(lines) - 1} records but the checkpoint "
            f"claims {completed}"
        )
    try:
        for rec in _read_rows(islice(lines, 1, None)):
            counts.add(rec.is_separable, *_count_flags(
                rec.rank_symmetric, rec.cyclotomic_product, rec.divides_qfact))
    except ValueError as exc:
        raise CheckpointError(f"{stream}: {exc}") from None
    return completed, nbytes, hasher


def _iter_chunk_results(n: int, workers: int, start: int):
    chunks = _chunked_words(n, start, _CHUNK)
    remaining = factorial(n) - start
    if workers <= 1 or remaining <= 2 * _CHUNK:
        for chunk in chunks:
            yield _scan_chunk(chunk)
        return
    ctx = get_context("fork")
    with ctx.Pool(processes=workers) as pool:
        yield from pool.imap(_scan_chunk, chunks)
