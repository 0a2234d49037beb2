"""The benchmark's layer tracer wraps names bound in the library's
modules (perfbench/layertrace.py, BOUNDARIES).  Deleting an import that
the tracer wraps breaks only the traced benchmark runs, so installing
the tracer is checked here, in a fresh interpreter."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_layer_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import layertrace; layertrace.install(layertrace.Tracer())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
