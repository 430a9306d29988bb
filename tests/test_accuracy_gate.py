"""``scripts/accuracy_gate.py`` in the tier-1 suite: its fixed corpus must
stay inside ``LIMITS``, the largest relative errors against 50-digit
mpmath recorded for each kind of secrecy rate."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "accuracy_gate.py"


def test_accuracy_gate_passes(capsys):
    spec = importlib.util.spec_from_file_location("accuracy_gate", SCRIPT)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    code = gate.main([])
    report = json.loads(capsys.readouterr().out)
    assert report["over_limit"] == []
    assert code == 0
