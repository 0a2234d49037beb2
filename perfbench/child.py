"""One measured job in a fresh interpreter, started by run.py with
PYTHONPATH=src from the root of the checkout.

    python3 perfbench/child.py JOB_JSON RESULT_PATH

JOB_JSON holds "kind" (survey, verify or queries), "trace" and the
kind's own fields.  The job calls weakbruhat.cli.main with the argument
vectors a user would type, captures what it prints, and writes timings,
outputs, peak RSS and (when traced) per-layer aggregates to RESULT_PATH
as JSON.  Correctness is judged by run.py, outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

from speed import SpeedProbe


def _call(main, argv, tracer):
    """Run one CLI command; (exit code, stdout, seconds)."""
    buf = io.StringIO()
    if tracer is not None:
        tracer.query_id += 1
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    dt = time.perf_counter() - t0
    return code, buf.getvalue(), dt


def run_survey(job, main, tracer, probe) -> dict:
    argv = ["--json", "survey", "--n", str(job["n"]), "--workers", str(job["workers"]),
            "--out", job["out"]]
    s0 = probe.snapshot()
    code, out, dt = _call(main, argv, tracer)
    return {"code": code, "stdout": out, "wall_s": dt,
            "speed": probe.factor(s0, probe.snapshot())}


def run_verify(job, main, tracer, probe) -> dict:
    suites = []
    total = 0.0
    s0 = probe.snapshot()
    for name, n in job["suites"]:
        code, out, dt = _call(main, ["--json", "verify", name, "--n", str(n)], tracer)
        total += dt
        suites.append({"suite": name, "n": n, "code": code, "stdout": out, "wall_s": dt})
    return {"suites": suites, "wall_s": total, "speed": probe.factor(s0, probe.snapshot())}


def run_queries(job, main, tracer, probe) -> dict:
    """Closed loop, one client: blocks of the seeded query stream are
    sent one query at a time until job["seconds"] have passed and at
    least job["min_blocks"] blocks are done.  Every answer is appended
    to job["answers"] (JSON lines) for run.py to check, so that keeping
    them does not grow this process."""
    from queries import query_blocks

    blocks: list[dict] = []
    t_end = time.perf_counter() + job["seconds"]
    with open(job["answers"], "w") as sink:
        for block in query_blocks(job["seed"], job["per_kind"]):
            s0 = probe.snapshot()
            b0 = time.perf_counter()
            for kind, argv in block:
                code, out, dt = _call(main, argv, tracer)
                sink.write(json.dumps([kind, argv, code, out, dt]) + "\n")
            blocks.append({"wall_s": time.perf_counter() - b0,
                           "speed": probe.factor(s0, probe.snapshot())})
            if len(blocks) >= job["min_blocks"] and time.perf_counter() >= t_end:
                break
    return {"blocks": blocks, "wall_s": sum(b["wall_s"] for b in blocks)}


JOBS = {"survey": run_survey, "verify": run_verify, "queries": run_queries}


def layer_report(tracer, out_path: str | None) -> dict:
    names = {}
    for i, name in enumerate(tracer.names):
        names[name] = {
            "calls": tracer.calls[i],
            "total_s": tracer.total[i],
            "self_s": tracer.self_time[i],
        }
    return {
        "spans": names,
        "counters": tracer.counters,
        "stored_spans": len(tracer.sp_name),
        "dropped_spans": tracer.dropped,
        "csv_bytes": os.path.getsize(out_path) if out_path and os.path.exists(out_path) else 0,
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    result_path = sys.argv[2]
    tracer = None
    from weakbruhat import cli

    entry = cli.main
    if job["trace"]:
        from layertrace import Tracer, install

        tracer = Tracer()
        install(tracer)
        entry = tracer.span("cli.main", cli.main)
    probe = SpeedProbe()
    probe.start()
    try:
        result = JOBS[job["kind"]](job, entry, tracer, probe)
    finally:
        probe.stop()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_kb"] = max(own, workers)
    if tracer is not None:
        result["layers"] = layer_report(tracer, job.get("out"))
        tracer.write_spans(job["spans"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
