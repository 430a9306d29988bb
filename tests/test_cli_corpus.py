"""``scripts/cli_corpus.py``'s record file on a stand-in corpus of two
commands: ``--save`` stores the Python and numpy versions beside the
records, and ``--compare`` prints both sides' versions, warns when they
differ and never counts them as a command."""

import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_corpus.py"
spec = importlib.util.spec_from_file_location("cli_corpus", SCRIPT)
cli_corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_corpus)

RECORDS = {
    "jam docs/jam0.json": {"code": 0, "stdout_sha256": "ab", "stderr": ""},
    "": {"code": 1, "stdout_sha256": "cd", "stderr": "error: usage\n"},
}
WARNING = "warning: the environments differ"


@pytest.fixture
def corpus(monkeypatch):
    monkeypatch.setattr(cli_corpus, "records", lambda: dict(RECORDS))


def test_the_environment_is_this_interpreter_and_numpy():
    assert cli_corpus.environment() == {"python": platform.python_version(),
                                        "numpy": np.__version__}


def test_save_stores_the_versions_beside_the_records(corpus, tmp_path, capsys):
    path = tmp_path / "record.json"
    assert cli_corpus.main(["--save", str(path)]) == 0
    assert json.loads(path.read_text()) == {"environment": cli_corpus.environment(),
                                            "records": RECORDS}
    assert cli_corpus.main(["--compare", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"this:  Python {platform.python_version()}, numpy {np.__version__}" in out
    assert WARNING not in out
    assert "0 of 2 commands differ" in out


@pytest.mark.parametrize("saved", [
    {"environment": {"python": platform.python_version(), "numpy": "0.0.1"}, "records": RECORDS},
    RECORDS,  # saved before the versions were recorded
])
def test_compare_warns_when_the_environments_differ(corpus, tmp_path, capsys, saved):
    path = tmp_path / "record.json"
    path.write_text(json.dumps(saved))
    assert cli_corpus.main(["--compare", str(path)]) == 0
    out = capsys.readouterr().out
    other = "not recorded" if saved is RECORDS else f"Python {platform.python_version()}, numpy 0.0.1"
    assert f"other: {other}" in out
    assert WARNING in out
    assert "0 of 2 commands differ" in out


def test_compare_lists_a_command_that_differs(corpus, tmp_path, capsys):
    changed = {**RECORDS, "": {**RECORDS[""], "code": 2}}
    path = tmp_path / "record.json"
    path.write_text(json.dumps({"environment": cli_corpus.environment(), "records": changed}))
    assert cli_corpus.main(["--compare", str(path)]) == 1
    out = capsys.readouterr().out
    assert "differs: gmacwt \n" in out
    assert "1 of 2 commands differ" in out
