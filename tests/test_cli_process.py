"""The ``gmacwt`` process entry, ``cli.run()``: OpenBLAS held to one thread
unless the caller set ``OPENBLAS_NUM_THREADS``, with the same output either
way, while ``cli.main()`` leaves the environment alone."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import gmacwt.cli as cli

ROOT = Path(__file__).resolve().parents[1]
VAR = "OPENBLAS_NUM_THREADS"

CASE_A_DOC = {
    "standard": True,
    "users": [{"h": 0.4, "power_max": 10}, {"h": 1.4, "power_max": 10}],
}


def child_env(value):
    """The caller's environment with ``VAR`` set to ``value`` (unset for None)
    and no other variable that sets OpenBLAS's thread count."""
    env = {k: v for k, v in os.environ.items()
           if k not in (VAR, "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if value is not None:
        env[VAR] = value
    return env


def write_doc(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(CASE_A_DOC))
    return str(path)


@pytest.mark.parametrize("given,seen", [(None, "1"), ("2", "2")])
def test_run_holds_openblas_to_one_thread_unless_the_caller_chose(monkeypatch, given, seen):
    environ = {k: v for k, v in os.environ.items() if k != VAR}
    if given is not None:
        environ[VAR] = given
    monkeypatch.setattr(os, "environ", environ)  # the process's own stays as it is
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append(os.environ.get(VAR)) or 3)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 3
    assert calls == [seen]


_ENVIRON_PROBE = """
import contextlib, io, json, os, sys
before = dict(os.environ)
import gmacwt.cli
after_import = dict(os.environ)
with contextlib.redirect_stdout(io.StringIO()):
    code = gmacwt.cli.main(sys.argv[1:])
print(json.dumps([code, after_import == before, dict(os.environ) == before,
                  "numpy" in sys.modules]))
"""


def test_import_and_in_process_main_leave_the_environment_alone(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", _ENVIRON_PROBE, "region", write_doc(tmp_path)],
        capture_output=True, text=True, env=child_env(None), timeout=120, check=True)
    assert json.loads(proc.stdout) == [0, True, True, True]


_THREADS_PROBE = """
import atexit, os, runpy, sys

out = sys.argv.pop(1)

@atexit.register
def count_threads():
    with open(out, "w") as fh:
        fh.write(str(len(os.listdir("/proc/self/task"))))

runpy.run_module("gmacwt.cli", run_name="__main__")
"""


def _openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs two CPUs, or OpenBLAS starts no worker thread")
@pytest.mark.parametrize("given,threads", [(None, 1), ("2", 2)])
def test_the_process_runs_on_one_thread_unless_the_caller_chose(tmp_path, given, threads):
    """Counted at exit, after ``region`` has imported numpy: one thread,
    the interpreter's, unless the caller asked OpenBLAS for more."""
    if not _openblas():
        pytest.skip("numpy is not built on OpenBLAS")
    out = tmp_path / "threads"
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_PROBE, str(out), "region", write_doc(tmp_path)],
        capture_output=True, text=True, env=child_env(given), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["feasible"] is True
    assert int(out.read_text()) == threads


@pytest.mark.parametrize("argv", [
    ["region", "{doc}"],
    ["maxsum", "{doc}", "--verify"],
    ["jam", "{doc}", "--verify"],
    ["sweep", "{doc}", "--kind", "region", "--grid-steps", "6"],
    ["sweep", "{doc}", "--kind", "jam"],
])
def test_output_is_the_same_with_and_without_the_variable(tmp_path, argv):
    doc = write_doc(tmp_path)
    results = []
    for value in (None, "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "gmacwt.cli", *[a.format(doc=doc) for a in argv]],
            capture_output=True, env=child_env(value), timeout=120)
        results.append((proc.returncode, proc.stdout, proc.stderr))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][1]


def test_the_installed_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["gmacwt"]
    module, _, name = spec.partition(":")
    assert getattr(import_module(module), name) is cli.run
