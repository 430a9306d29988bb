"""The ``gmacwt`` process entry, ``cli.run()``: OpenBLAS held to one thread
unless the caller set ``OPENBLAS_NUM_THREADS``, with the same output either
way, while ``cli.main()`` leaves the environment alone; the process ends
without the interpreter's teardown, with the same output, exit handlers and
profiler report as one that tears down; a stdout that cannot be written
is a refusal; and an endless or oversized channel file, or a request that
runs out of memory, is one stderr line and exit 1, under an address-space
limit that the child sets on itself."""

import atexit
import errno
import json
import os
import socket
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import gmacwt.cli as cli
from gmacwt.channel import MAX_DOCUMENT_BYTES

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
    # run() ends the process: here its end raises, and pytest's exit handlers wait
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: None)
    monkeypatch.setattr(os, "_exit", sys.exit)
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


# -- the end of the process ------------------------------------------------------

K16_DOC = {
    "standard": True,
    "users": [{"h": 0.25 + 0.125 * k, "power_max": 1 + k} for k in range(16)],
}
BUFFERING = pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])


def process_env(unbuffered):
    env = child_env(None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


_TEARDOWN_PROBE = """
import atexit, sys

marker, calls = sys.argv.pop(1), sys.argv.pop(1)

class Marker:
    def __del__(self):
        with open(marker, "w") as fh:
            fh.write("torn down")

held = Marker()

@atexit.register
def count_call():
    with open(calls, "a") as fh:
        fh.write("call\\n")

import gmacwt.cli
gmacwt.cli.run()
"""


def test_the_process_ends_without_teardown_and_runs_its_exit_handlers_once(tmp_path):
    marker, calls = tmp_path / "marker", tmp_path / "calls"
    proc = subprocess.run(
        [sys.executable, "-c", _TEARDOWN_PROBE, str(marker), str(calls),
         "standardize", write_doc(tmp_path)],
        capture_output=True, text=True, env=child_env(None), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["users"][1]["h"] == 1.4
    assert not marker.exists()  # no module was freed, so no __del__ ran
    assert calls.read_text() == "call\n"


def test_a_profiled_process_reports_after_the_command(tmp_path):
    doc = write_doc(tmp_path)
    expected = subprocess.run(
        [sys.executable, "-m", "gmacwt.cli", "standardize", doc],
        capture_output=True, text=True, env=child_env(None), timeout=120, check=True).stdout
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "gmacwt.cli", "standardize", doc],
        capture_output=True, text=True, env=child_env(None), timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(expected)
    assert "function calls" in proc.stdout and "Ordered by" in proc.stdout


_TORN_DOWN = "import sys, gmacwt.cli; sys.exit(gmacwt.cli.main(sys.argv[1:]))"


@BUFFERING
@pytest.mark.parametrize("argv", [
    ["standardize", "{doc}"],
    ["feasible", "{doc}", "--power", "10,0"],
    ["region", "{doc}"],
    ["region", "{doc}", "--format", "csv"],
    ["region", "{k16}"],
    ["region", "{doc}", "--out", "{out}"],
    ["maxsum", "{doc}", "--verify"],
    ["jam", "{doc}", "--verify"],
    ["sweep", "{doc}", "--kind", "region"],
    ["sweep", "{doc}", "--kind", "jam"],
    ["feasible", "{doc}", "--power", "10,x"],
], ids=["standardize", "feasible", "region-json", "region-csv", "region-k16", "region-out",
        "maxsum-verify", "jam-verify", "sweep-region", "sweep-jam", "refusal"])
def test_the_process_writes_what_a_torn_down_process_writes(tmp_path, argv, unbuffered):
    doc = write_doc(tmp_path)
    k16 = tmp_path / "k16.json"
    k16.write_text(json.dumps(K16_DOC))
    results = []
    for name, entry in (("run", ["-m", "gmacwt.cli"]), ("main", ["-c", _TORN_DOWN])):
        out = tmp_path / f"{name}.out"
        args = [a.format(doc=doc, k16=k16, out=out) for a in argv]
        proc = subprocess.run([sys.executable, *entry, *args], capture_output=True,
                              env=process_env(unbuffered), timeout=120)
        written = out.read_bytes() if out.exists() else None
        results.append((proc.returncode, proc.stdout, proc.stderr, written))
    assert results[0] == results[1]
    code, stdout, _, written = results[0]
    refusal = argv[-1] == "10,x"
    assert code == (1 if refusal else 0)
    assert refusal or stdout or written


# -- a stdout that cannot be written ---------------------------------------------

def _refused(proc, code):
    assert proc.returncode == 1
    assert proc.stderr == f"error: stdout: cannot write ({os.strerror(code)})\n"


@BUFFERING
def test_a_closed_pipe_is_refused(tmp_path, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gmacwt.cli", "standardize", write_doc(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=process_env(unbuffered), timeout=120)
    finally:
        os.close(write_end)
    _refused(proc, errno.EPIPE)


@BUFFERING
def test_a_full_device_is_refused(tmp_path, unbuffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "gmacwt.cli", "standardize", write_doc(tmp_path)],
            stdout=full, stderr=subprocess.PIPE, text=True,
            env=process_env(unbuffered), timeout=120)
    _refused(proc, errno.ENOSPC)


_WITHOUT_FD_1 = """
import os, sys
os.close(1)
os.execv(sys.executable, [sys.executable, "-m", "gmacwt.cli", *sys.argv[1:]])
"""


@BUFFERING
def test_a_closed_stdout_is_refused(tmp_path, unbuffered):
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_FD_1, "standardize", write_doc(tmp_path)],
        stderr=subprocess.PIPE, text=True, env=process_env(unbuffered), timeout=120)
    _refused(proc, errno.EBADF)


# -- bounded memory --------------------------------------------------------------

#: The child's address-space limit: ample for a process without numpy, and
#: low enough that an unbounded read fails in a fraction of a second.
ADDRESS_SPACE = 256 << 20

_LIMITED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (%d, %d))
import gmacwt.cli
if sys.argv[1] == "--exhaust":  # a command whose request passes the limit
    del sys.argv[1]
    gmacwt.cli._cmd_standardize = lambda args, ch: bytearray(1 << 40)
gmacwt.cli.run()
""" % (ADDRESS_SPACE, ADDRESS_SPACE)


def _limited(*argv):
    return subprocess.run([sys.executable, "-c", _LIMITED, *argv], capture_output=True,
                          text=True, env=child_env(None), timeout=120)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_an_endless_channel_file_is_refused_after_the_byte_cap():
    proc = _limited("standardize", "/dev/zero")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: input: /dev/zero is longer than {MAX_DOCUMENT_BYTES} bytes\n"


def test_a_channel_file_one_byte_past_the_cap_is_refused(tmp_path):
    """A valid document padded with spaces: at the cap it is read, one byte
    past it it is refused unparsed."""
    path = tmp_path / "padded.json"
    text = json.dumps(CASE_A_DOC)
    path.write_text(text + " " * (MAX_DOCUMENT_BYTES - len(text)))
    proc = _limited("standardize", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["users"][1]["h"] == 1.4
    with open(path, "a") as fh:
        fh.write(" ")
    proc = _limited("standardize", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: input: {path} is longer than {MAX_DOCUMENT_BYTES} bytes\n"


def test_a_request_that_runs_out_of_memory_is_one_line(tmp_path):
    proc = _limited("--exhaust", "standardize", write_doc(tmp_path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "error: out of memory\n")


# -- bounded waiting -------------------------------------------------------------

@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("held_open", [False, True], ids=["no-writer", "held-open"])
def test_a_fifo_is_refused_without_waiting_for_a_writer(tmp_path, held_open):
    """A FIFO that no process has open, or one held open for writing that
    never sends a byte or closes: either would block an open or a read
    for good, and no byte cap bounds that wait."""
    fifo = tmp_path / "channel.json"
    os.mkfifo(fifo)
    fd = os.open(fifo, os.O_RDWR) if held_open else None
    try:
        proc = subprocess.run([sys.executable, "-m", "gmacwt.cli", "standardize", str(fifo)],
                              capture_output=True, text=True, env=child_env(None), timeout=30)
    finally:
        if fd is not None:
            os.close(fd)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: input: {fifo} is a pipe or socket, not a file\n"


def _socket_refusals(path):
    """The two one-line refusals of a socket: ``open`` fails on it where
    the system gives no descriptor for a socket path (Linux, ENXIO), and
    ``fstat`` names it where ``open`` succeeds."""
    return (f"error: input: {path} is a pipe or socket, not a file\n",
            f"error: input: cannot read {path}: [Errno {errno.ENXIO}] "
            f"{os.strerror(errno.ENXIO)}: '{path}'\n")


@pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="needs Unix sockets")
@pytest.mark.parametrize("kind", ["named", "stdin"])
def test_a_socket_is_refused_without_waiting(tmp_path, kind):
    """A Unix socket bound to the path, or a connected socket given as
    standard input and read as ``/dev/stdin`` with its peer held open and
    silent: one line and exit 1, not a read that waits for the peer."""
    a, b = socket.socketpair()
    server = None
    try:
        if kind == "named":
            path = str(tmp_path / "channel.json")
            server = socket.socket(socket.AF_UNIX)
            server.bind(path)
            stdin = subprocess.DEVNULL
        else:
            path, stdin = "/dev/stdin", b
        proc = subprocess.run([sys.executable, "-m", "gmacwt.cli", "standardize", path],
                              stdin=stdin, capture_output=True, text=True,
                              env=child_env(None), timeout=30)
    finally:
        for sock in (a, b, server):
            if sock is not None:
                sock.close()
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr in _socket_refusals(path)
