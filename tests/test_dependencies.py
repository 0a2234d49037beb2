"""The package runs on the standard library alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weakbruhat

ROOT = Path(weakbruhat.__file__).resolve().parents[2]

# numpy is made unimportable before the package loads, so any import of
# it anywhere in the commands below fails the run
_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from weakbruhat.cli import main
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    print(json.dumps([code, buf.getvalue()]))
"""


def test_cli_runs_without_numpy():
    commands = [
        ["analyze", "4132"],
        ["interval", "4132", "--side", "above", "--gf"],
        ["survey", "--n", "4"],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (c1, analyze), (c2, above), (c3, survey) = map(json.loads, proc.stdout.splitlines())
    assert (c1, c2, c3) == (0, 0, 0)
    assert _rows(analyze)["gf_above"] == "1 + q + q^2"
    assert above == "1 + q + q^2\n"
    assert _rows(survey)["count_separable"] == "22"


def _rows(text: str) -> dict:
    return dict(line.split(None, 1) for line in text.splitlines())


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
