"""weakbruhat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  The package is used from src/ (the
children get PYTHONPATH=src); nothing is installed or built.

Workloads (see perfbench/README.md for why each exists):

  survey-n8       weakbruhat --json survey --n 8 --workers 1 --out CSV
  survey-n8-pool  the same with --workers nproc
  queries         closed loop, one client, five homogeneous query kinds
  verify-all      the ten verify suites at pinned sizes

Every survey scan and verify pass runs in a fresh interpreter, because
the package's memo tables would make a second in-process run start
warm.  Untraced runs report end-to-end metrics; --trace 1 runs the same
work once untraced and once with layertrace installed, and reports the
per-layer metrics and the tracing overhead.  Every output is checked;
a wrong one counts as failed and makes the exit code 1.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
Full results and run metadata go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import queries
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170
SETUP_REPEATS = 11

SURVEY_N = 8
SURVEY_EXPECT = {
    # n: (CSV sha256, separable, rank-symmetric, symmetric-cyclotomic,
    #     symmetric-nondividing)
    8: ("9575599d8ae621b721d15c243bd1443dfdf368c1ba2c58878a0eea6d9a7f51ff",
        8558, 10728, 10051, 961),
    5: ("dd00fa487285ccacdf5f39254ca7943ab69c08b42cc8d256c9674a385a4981f2",
        90, 94, 94, 2),
}

# Suite sizes pinned to the package defaults when this benchmark was
# written, so that changing a default cannot change the workload.
VERIFY_SUITES = (
    ("main-theorem", 7), ("ff", 6), ("duality", 5), ("chains-words", 5),
    ("op-lemma", 3), ("des", 5), ("formula", 7), ("explicit-231", 8),
    ("bijection", 6), ("sym-unim", 7),
)
SMOKE_VERIFY_N = 3
# "Rank-symmetric implies a cyclotomic product" is false (first witness
# 245163); it must keep failing with exactly this many counterexamples.
KNOWN_FALSE = ("sym-unim", "rank-symmetric implies a cyclotomic product")
KNOWN_FALSE_COUNT = {7: 87, 3: 0}

# A block holds this many queries of each kind; throughput is the median
# over blocks, so one slow word moves one block, not the run.
QUERIES_PER_KIND = 4
SMOKE_QUERIES_PER_KIND = 1
QUERY_MIN_BLOCKS = 3
TRACE_QUERY_BLOCKS = 8

WORKLOADS = ("survey-n8", "survey-n8-pool", "queries", "verify-all")

# Gated metrics: every workload reports each of them.  norm_ops_per_s
# counts words for the surveys, queries for queries and suites for
# verify-all, per second of wall time scaled to nominal machine speed
# (see speed.py); the raw rates are reported beside it.
END_TO_END = (
    ("setup_s", "s"),
    ("norm_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

VERIFY_NAMES = tuple(name for name, _ in VERIFY_SUITES)


def _span(L, name, key):
    return L["spans"].get(name, {}).get(key, 0)


def _calls_self(span):
    return ((f"{span}.calls", "count", lambda L: _span(L, span, "calls")),
            (f"{span}.self_s", "s", lambda L: _span(L, span, "self_s")))


def _hit_ratio(L):
    # words whose predicates this process computed: none in a pool parent
    words = _span(L, "perm.Permutation", "calls") if _span(L, "survey.scan", "calls") else 0
    if not words:
        return 0.0
    return 1 - _span(L, "qpoly.is_cyclotomic_product", "calls") / words


def _us_per_element(L):
    elements = L["counters"].get("weak_order.interval.elements", 0)
    return 1e6 * _span(L, "weak_order.interval", "total_s") / elements if elements else 0.0


PER_LAYER = (
    *_calls_self("perm.Permutation"),
    *_calls_self("perm.leq_weak"),
    *_calls_self("separable.is_separable"),
    *_calls_self("separable.gf_below_recursive"),
    *_calls_self("separable.gf_above_recursive"),
    *_calls_self("poset.le_gf"),
    *_calls_self("poset.inversion_poset"),
    *_calls_self("poset.order_polynomial_values"),
    *_calls_self("qpoly.is_cyclotomic_product"),
    ("survey.pred_cache_hit_ratio", "ratio", _hit_ratio),
    *_calls_self("weak_order.interval"),
    ("weak_order.interval.elements", "count",
     lambda L: L["counters"].get("weak_order.interval.elements", 0)),
    ("weak_order.us_per_element", "us", _us_per_element),
    *_calls_self("bijection.check_bijection"),
    *_calls_self("bijection.build_pair_table"),
    ("bijection.phi.calls", "count", lambda L: _span(L, "bijection.phi", "calls")),
    *_calls_self("bijection.invert_phi"),
    ("survey.scan.self_s", "s", lambda L: _span(L, "survey.scan", "self_s")),
    *_calls_self("survey.format_row"),
    ("survey.fsync.calls", "count", lambda L: _span(L, "survey.fsync", "calls")),
    ("survey.fsync.s", "s", lambda L: _span(L, "survey.fsync", "total_s")),
    ("survey.csv_bytes", "bytes", lambda L: L["csv_bytes"]),
    ("survey.chunk_wait_s", "s", lambda L: _span(L, "survey.chunk_wait", "total_s")),
    *((f"verify.{name}.s", "s", (lambda s: lambda L: _span(L, s, "total_s"))(f"verify.{name}"))
      for name in VERIFY_NAMES),
    ("cli.main.self_s", "s", lambda L: _span(L, "cli.main", "self_s")),
)
TRACE_OVERHEAD = (
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Run:
    """One benchmark invocation: spawns children, checks their output,
    collects metrics."""

    def __init__(self, root: str, args, stem: str):
        self.root = root
        self.args = args
        self.smoke = args.smoke
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.detail: dict = {}
        self.serial = 0
        self.env = dict(os.environ)
        path = [os.path.join(root, "src")] + [p for p in [self.env.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(path)
        self.spans = os.path.join(OUT_DIR, f"spans-{stem}.tsv")
        self.tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)

    # -- plumbing ---------------------------------------------------------

    def _path(self, stem: str) -> str:
        self.serial += 1
        return os.path.join(self.tmp, f"{self.serial:03d}-{stem}")

    def child(self, job: dict) -> dict:
        result_path = self._path("result.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(job), result_path]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"child {job['kind']} exited {proc.returncode}:\n{proc.stderr}")
        with open(result_path) as fh:
            result = json.load(fh)
        os.remove(result_path)
        return result

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def setup_s(self) -> float:
        """Median seconds from starting a fresh interpreter until
        weakbruhat.cli is imported and the interpreter has exited, each
        start scaled by the speed measured just before and after it."""
        cmd = [sys.executable, "-c", "import weakbruhat.cli"]
        raw, norm = [], []
        for i in range(SETUP_REPEATS + 1):
            f0 = speed.burst()
            t0 = time.perf_counter()
            subprocess.run(cmd, cwd=self.root, env=self.env, check=True, timeout=60)
            dt = time.perf_counter() - t0
            f1 = speed.burst()
            if i:  # the first start may compile bytecode
                raw.append(dt)
                norm.append(dt * (f0 + f1) / 2)
        self.detail["setup_raw_s"] = raw
        self.detail["setup_norm_s"] = norm
        return statistics.median(norm)

    def repeat(self, once, seconds: float) -> list:
        """Call once() at least one time, and again while another call
        of the median length still fits in `seconds`."""
        t0 = time.perf_counter()
        out, lengths = [], []
        while True:
            s = time.perf_counter()
            out.append(once())
            lengths.append(time.perf_counter() - s)
            if time.perf_counter() - t0 + statistics.median(lengths) > seconds:
                return out

    # -- survey -----------------------------------------------------------

    def survey_scan(self, workers: int, trace: bool) -> dict:
        n = 5 if self.smoke else SURVEY_N
        out = self._path(f"s{n}.csv")
        job = {"kind": "survey", "trace": trace, "n": n, "workers": workers, "out": out,
               "spans": self.spans}
        res = self.child(job)
        sha, *counts = SURVEY_EXPECT[n]
        digest = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        self.detail["csv_sha_match"] = self.detail.get("csv_sha_match", True) and digest == sha
        ok = res["code"] == 0 and digest == sha
        if ok:
            rep = json.loads(res["stdout"])
            got = [rep["count_separable"], rep["count_rank_symmetric"],
                   rep["count_symmetric_cyclotomic"], rep["count_symmetric_nondividing"]]
            ok = got == counts and rep["total"] == math.factorial(n)
        self.record(ok, f"survey n={n} workers={workers}: exit {res['code']}, sha {digest}")
        for suffix in ("", ".ckpt", ".summary.json"):
            if os.path.exists(out + suffix):
                os.remove(out + suffix)
        res["n"] = n
        return res

    def survey(self, workers: int) -> None:
        if self.args.trace:
            self.traced(lambda t: self.survey_scan(workers, t))
            return
        scans = self.repeat(lambda: self.survey_scan(workers, False), self.args.seconds)
        words = math.factorial(scans[0]["n"])
        self.detail["workers"] = workers
        self.rates("words_per_s", words, scans)
        self.rss(scans)

    # -- verify -----------------------------------------------------------

    def verify_pass(self, trace: bool) -> dict:
        suites = [(s, min(n, SMOKE_VERIFY_N) if self.smoke else n) for s, n in VERIFY_SUITES]
        res = self.child({"kind": "verify", "trace": trace, "suites": suites,
                          "spans": self.spans})
        for entry in res["suites"]:
            self.record(*self.check_suite(entry))
        return res

    def check_suite(self, entry) -> tuple[bool, str]:
        name, n = entry["suite"], entry["n"]
        try:
            data = json.loads(entry["stdout"])
        except json.JSONDecodeError:
            return False, f"verify {name}: no JSON (exit {entry['code']})"
        wrong = []
        for c in data["checks"]:
            if (name, c["label"]) == KNOWN_FALSE:
                want = KNOWN_FALSE_COUNT[n]
                got = _counterexamples(c["detail"]) if not c["passed"] else 0
                if got != want:
                    wrong.append(f"{c['label']}: {got} counterexamples, expected {want}")
            elif not c["passed"]:
                wrong.append(f"{c['label']}: {c['detail']}")
        want_code = 0 if all(c["passed"] for c in data["checks"]) else 1
        if entry["code"] != want_code:
            wrong.append(f"exit {entry['code']}")
        return not wrong, f"verify {name} n={n}: " + "; ".join(wrong)

    def verify(self) -> None:
        if self.args.trace:
            self.traced(self.verify_pass)
            return
        passes = self.repeat(lambda: self.verify_pass(False), self.args.seconds)
        self.detail["suite_walls_s"] = {e["suite"]: e["wall_s"] for e in passes[0]["suites"]}
        self.metric("verify_s", statistics.median(r["wall_s"] for r in passes), "s")
        self.rates(None, len(VERIFY_SUITES), passes)
        self.rss(passes)

    # -- queries ----------------------------------------------------------

    def query_loop(self, trace: bool, seconds: float, min_blocks: int) -> dict:
        per_kind = SMOKE_QUERIES_PER_KIND if self.smoke else QUERIES_PER_KIND
        answers = self._path("answers.jsonl")
        res = self.child({"kind": "queries", "trace": trace, "seed": self.args.seed,
                          "per_kind": per_kind, "seconds": seconds, "min_blocks": min_blocks,
                          "spans": self.spans, "answers": answers})
        with open(answers) as fh:
            res["answers"] = [json.loads(line) for line in fh]
        for kind, argv, code, out, _ in res["answers"]:
            why = queries.check(kind, argv, code, out)
            self.record(why is None, f"{kind} {' '.join(argv)}: {why}")
        return res

    def queries(self) -> None:
        if self.args.trace:
            self.traced(lambda t: self.query_loop(t, 0, TRACE_QUERY_BLOCKS))
            return
        res = self.query_loop(False, self.args.seconds, QUERY_MIN_BLOCKS)
        answers = res["answers"]
        block = len(queries.KINDS) * (SMOKE_QUERIES_PER_KIND if self.smoke else QUERIES_PER_KIND)
        self.rates("queries_per_s", block, res["blocks"])
        by_kind: dict[str, list[float]] = {}
        for kind, _, _, _, dt in answers:
            by_kind.setdefault(kind, []).append(dt * 1000)
        self.detail["tails"] = {}
        for kind in queries.KINDS:
            ms = sorted(by_kind[kind])
            self.metric(f"{kind}_p50_ms", statistics.median(ms), "ms")
            if kind in ("interval", "analyze_sep", "invert"):
                tail = _tail(ms)
                if tail is not None:
                    pct, value = tail
                    self.metric(f"{kind}_tail_ms", value, "ms")
                    self.detail["tails"][kind] = {"percentile": pct, "samples": len(ms)}
        self.rss([res])

    # -- shared -----------------------------------------------------------

    def rates(self, raw_name: str | None, ops: int, units: list[dict]) -> None:
        """Raw and speed-normalised rates from units of `ops` operations,
        each a dict with its wall time and probe speed factor."""
        walls = [u["wall_s"] for u in units]
        speeds = [u["speed"] or 1.0 for u in units]
        self.detail["unit_walls_s"] = walls
        self.detail["unit_speeds"] = speeds
        if raw_name:
            self.metric(raw_name, ops / statistics.median(walls), "1/s")
        norm = statistics.median(w * f for w, f in zip(walls, speeds))
        self.metric("norm_ops_per_s", ops / norm, "1/s")

    def rss(self, results) -> None:
        kb = statistics.median(r["peak_rss_kb"] for r in results)
        self.metric("peak_rss_mb", kb / 1024, "MB")

    def traced(self, once) -> None:
        """The workload once untraced and once traced, each in a fresh
        interpreter; per-layer metrics come from the traced one, and the
        overhead compares the two wall times scaled to nominal speed."""
        plain = once(False)
        traced = once(True)
        layers = traced["layers"]
        for name, unit, get in PER_LAYER:
            self.metric(name, get(layers), unit)
        self.metric("trace.untraced_wall_s", plain["wall_s"], "s")
        self.metric("trace.traced_wall_s", traced["wall_s"], "s")
        self.metric("trace.overhead_ratio", _norm_wall(traced) / _norm_wall(plain), "ratio")
        self.detail["stored_spans"] = layers["stored_spans"]
        self.detail["dropped_spans"] = layers["dropped_spans"]


def _norm_wall(result: dict) -> float:
    """A job's wall time scaled to nominal speed (see speed.py)."""
    units = result.get("blocks", [result])
    return sum(u["wall_s"] * (u["speed"] or 1.0) for u in units)


def _counterexamples(detail: str) -> int:
    """Count from `counterexamples: w1 ... wk and m more`."""
    m = re.fullmatch(r"counterexamples: (.*?)(?: and (\d+) more)?", detail)
    if not m:
        return -1
    return len(m.group(1).split()) + int(m.group(2) or 0)


def _tail(sorted_ms: list[float]):
    """Highest of p99.9, p99, p95 and p90 (nearest rank) with at least
    ten samples beyond it, as (percentile, value); None when there are
    too few samples."""
    n = len(sorted_ms)
    for pct in (99.9, 99, 95, 90):
        rank = math.ceil(n * pct / 100)
        if n - rank >= 10:
            return pct, sorted_ms[rank - 1]
    return None


def _metadata(root: str, args) -> dict:
    def git_sha():
        # None outside a git work tree whose top is this checkout
        try:
            proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        lines = proc.stdout.split()
        if proc.returncode or len(lines) != 2:
            return None
        return lines[1] if os.path.realpath(lines[0]) == os.path.realpath(root) else None

    src = os.path.join(root, "src", "weakbruhat")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    with open(os.path.join(src, "survey.py")) as fh:
        start = re.search(r'get_context\("(\w+)"\)', fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "pool_start_method": start.group(1) if start else None,
        "loadavg_at_start": os.getloadavg(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (survey n=5, 15 queries, verify n<=3) for the tests")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "weakbruhat", "cli.py")):
        print("run from the root of a weakbruhat checkout (src/weakbruhat not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))  # the checks import weakbruhat
    meta = _metadata(root, args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    run = Run(root, args, stem)
    nproc = meta["nproc"]
    try:
        if not args.trace:
            run.metric("setup_s", run.setup_s(), "s")
        {
            "survey-n8": lambda: run.survey(1),
            "survey-n8-pool": lambda: run.survey(nproc),
            "queries": run.queries,
            "verify-all": run.verify,
        }[args.workload]()
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)

    run.metric("fail_ratio", run.failed / run.attempted, "ratio")
    meta["csv_sha_match"] = run.detail.pop("csv_sha_match", None)
    report = {
        "meta": meta,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
        "detail": run.detail,
    }
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {nproc}  python {meta['python']}")
    for k, (v, u) in run.metrics.items():
        extra = ""
        if k.endswith("_tail_ms"):
            t = run.detail["tails"][k[: -len("_tail_ms")]]
            extra = f"  (p{t['percentile']:g} of {t['samples']} samples)"
        shown = f"{v:14d}" if isinstance(v, int) else f"{v:14.6g}"
        print(f"  {k:34s} {shown} {u}{extra}")
    for p in run.problems:
        print(f"  FAILED: {p}")
    gated = [n for n, _ in END_TO_END] if not args.trace else [n for n, _, _ in PER_LAYER] + [
        n for n, _ in TRACE_OVERHEAD]
    final = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": run.metrics[k][0], "unit": run.metrics[k][1]} for k in gated},
    }
    print(json.dumps(final))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
