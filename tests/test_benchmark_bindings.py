"""The benchmark's layer tracer wraps names bound in the library's
modules (perfbench/layertrace.py, BOUNDARIES).  Deleting an import that
the tracer wraps, or reaching a helper through a wrapped name (a
classmethod or isinstance on a name the tracer replaced by a plain
function), breaks only the traced benchmark runs.  So the tracer is
installed here, in a fresh interpreter, and commands that cross every
wrapped layer of the query workload run through it."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = (
    "interval 4132 --side above --gf",
    "bijection 4132",
    "bijection 4132 --invert 2314",
    "analyze 2413",
)

_SCRIPT = """
import contextlib, io, json, sys
import layertrace
from weakbruhat import cli

tracer = layertrace.Tracer()
layertrace.install(tracer)
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv.split())
    runs.append((code, out.getvalue()))
calls = dict(zip(tracer.names, tracer.calls))
print(json.dumps({"runs": runs, "calls": calls}))
"""


def _traced(commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(commands)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _rows(text):
    return dict(line.split(None, 1) for line in text.strip().splitlines())


def test_layer_tracer_installs():
    got = _traced([])
    assert got["runs"] == [] and not any(got["calls"].values())


def test_queries_run_through_the_traced_bindings():
    got = _traced(list(COMMANDS))
    assert [code for code, _ in got["runs"]] == [0, 0, 0, 0]
    interval_gf, check, invert, analyze = (out for _, out in got["runs"])
    assert interval_gf.strip() == "1 + q + q^2"
    assert _rows(check) == {
        "word": "4132",
        "separable": "true",
        "is_bijection": "true",
        "collisions": "0",
    }
    assert _rows(invert) == {"u": "1432", "v": "4312"}
    rows = _rows(analyze)
    assert rows["separable"] == "false"
    assert rows["gf_below"] == rows["gf_above"] == "1 + 2*q + q^2 + q^3"
    assert rows["product_is_qfactorial"] == "false"
    # the answers came through the wrappers, not around them
    calls = got["calls"]
    for name in (
        "weak_order.interval",
        "perm.leq_weak",
        "bijection.check_bijection",
        "bijection.build_pair_table",
        "bijection.invert_phi",
        "bijection.phi",
        "poset.le_gf",
    ):
        assert calls.get(name, 0) > 0, name
