"""Self-test of the benchmark: short runs print every metric, corrupted outputs fail.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def short(workload: run.Workload) -> run.Workload:
    """The same workload with 3 rounds per run, so an operation takes about a second."""
    kept = tuple(o for o in workload.overrides if not o.startswith("rounds="))
    return replace(workload, overrides=kept + ("rounds=3",))


@pytest.fixture
def quick(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    monkeypatch.setattr(run, "MIN_OPERATIONS", 2)
    monkeypatch.setattr(run, "MIN_TRACED", 1)
    monkeypatch.setattr(run, "WORKLOADS", {n: short(w) for n, w in run.WORKLOADS.items()})
    return tmp_path


def bench(capsys, workload: str, trace: int = 0) -> tuple[list[str], dict]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_short_run_prints_every_metric_with_its_unit(quick, capsys, workload, trace):
    lines, result = bench(capsys, workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in lines), metric["name"]
    assert any(line.split()[:2] == ["failed_frac", "0"] for line in lines)
    record = json.loads((quick / f"{workload}-seed7-trace{trace}.json").read_text())
    assert {"cores", "python", "numpy", "scipy", "commit", "FMLSIM_THREADS"} <= set(
        record["environment"])
    assert record["sim"] and record["outputs_sha256"]


def test_counts_repeat_exactly(quick, capsys):
    _, first = bench(capsys, "sweep-small", trace=1)
    _, second = bench(capsys, "sweep-small", trace=1)
    for name in ("rng.stream.calls", "metacore.local_update.calls",
                 "ural.rb_matching.calls", "ural.ives.iterations"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0


def rewrite(out: Path, name: str, edit, update_manifest: bool) -> None:
    path = out / name
    path.write_text(edit(path.read_text()))
    if update_manifest:
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"][name] = checks.sha256(path.read_bytes())
        (out / "manifest.json").write_text(json.dumps(manifest))


def nan_loss(text: str) -> str:
    header, first, *rest = text.splitlines(keepends=True)
    fields = first.split(",")
    fields[2] = "nan"
    return "".join([header, ",".join(fields), *rest])


def other_loss(text: str) -> str:
    header, first, *rest = text.splitlines(keepends=True)
    fields = first.split(",")
    fields[2] = repr(float(fields[2]) + 1.0)
    return "".join([header, ",".join(fields), *rest])


def drop_selected(text: str) -> str:
    header, first, *rest = text.splitlines(keepends=True)
    fields = first.split(",")
    fields[7] = fields[7].split(";", 1)[1]
    return "".join([header, ",".join(fields), *rest])


CORRUPTIONS = {
    # a non-finite metric behind a consistent manifest
    "non-finite": ("metrics.csv", nan_loss, True, "not a finite number"),
    # a file that no longer matches its manifest hash
    "hash-mismatch": ("metrics.csv", other_loss, False, "sha256 does not match"),
    # a finite, consistent, but different result: only byte-identity catches it
    "not-deterministic": ("metrics.csv", other_loss, True, "differ from the first repeat"),
    "summary-schema": ("summary.json", lambda t: t.replace('"rounds"', '"laps"'), True,
                       "summary.json invalid"),
    "selection-size": ("metrics.csv", drop_selected, True, "selected 19 ids, n_k is 20"),
}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
def test_corrupted_output_counts_as_failed(quick, capsys, monkeypatch, corruption):
    name, edit, update_manifest, message = CORRUPTIONS[corruption]
    real_run = subprocess.run

    def corrupting_run(cmd, **kwargs):
        proc = real_run(cmd, **kwargs)
        out = Path(cmd[cmd.index("--out") + 1])
        if out.name == "op1":
            rewrite(out, name, edit, update_manifest)
        return proc

    monkeypatch.setattr(run.subprocess, "run", corrupting_run)
    lines, result = bench(capsys, "nufm-train")
    assert result["failed"] == 1 and not result["correct"]
    assert any(line.startswith("operation 1 failed:") and message in line for line in lines)


def test_nonzero_exit_counts_as_failed(quick, capsys, monkeypatch):
    broken = replace(run.WORKLOADS["nufm-train"], config="configs/missing.json")
    monkeypatch.setitem(run.WORKLOADS, "nufm-train", broken)
    code = run.main(["--workload", "nufm-train", "--seed", "7", "--seconds", "0"])
    out = capsys.readouterr().out
    assert code == 1 and "exit code 2" in out
