import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("fixed_outputs", TOOLS / "fixed_outputs.py")
fixed_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fixed_outputs)

SUMMARY = {"final_test_loss": 1.845299571386006, "mean_energy": 0.25, "rounds": 50}


def _out(root: Path, summary: dict) -> Path:
    """An OUT directory of one run invocation, as ``fixed_outputs.py OUT`` writes it."""
    run = root / "run"
    run.mkdir(parents=True)
    (run / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    files = {"summary.json": hashlib.sha256((run / "summary.json").read_bytes()).hexdigest()}
    manifest = {"config": {"rounds": 50, "seed": 0}, "files": files, "seed": 0}
    (run / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    files["manifest.json"] = hashlib.sha256((run / "manifest.json").read_bytes()).hexdigest()
    (root / "digests.json").write_text(json.dumps({"run": {"exit": 0, "files": files}}))
    return root


def test_compare_reports_a_moved_json_float(tmp_path, capsys):
    moved = {**SUMMARY, "final_test_loss": SUMMARY["final_test_loss"] * (1 + 1e-15)}
    parent, change = _out(tmp_path / "a", SUMMARY), _out(tmp_path / "b", moved)
    assert fixed_outputs.compare(parent, change) == 0
    out = capsys.readouterr().out
    assert "run: 2 of 2 files changed" in out
    assert "summary.json final_test_loss: largest relative change 1." in out
    assert "  changed " not in out


@pytest.mark.parametrize("summary, line", [
    ({**SUMMARY, "rounds": 51}, "changed summary.json rounds: 50 -> 51"),
    ({**SUMMARY, "rounds": 50.0}, "changed summary.json rounds: 50 -> 50.0"),
    ({**SUMMARY, "mean_energy": [0.25]}, "changed summary.json mean_energy: a different structure"),
    ({"rounds": 50}, "changed summary.json (root): a different structure"),
], ids=["int", "int-to-float", "float-to-list", "keys"])
def test_compare_fails_a_changed_json_value(tmp_path, capsys, summary, line):
    parent, change = _out(tmp_path / "a", SUMMARY), _out(tmp_path / "b", summary)
    assert fixed_outputs.compare(parent, change) == 1
    assert line in capsys.readouterr().out
