"""Output checks for one fmlsim CLI operation, and the simulated statistics it reports.

An operation fails if it exits non-zero or if any check here finds a
problem; the byte-identity of repeats is checked by the caller, which sees
every repeat.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path

import jsonschema

# columns of fmlsim's CSV outputs that hold text, not numbers
TEXT_COLUMNS = {"selected", "parameter", "seeds"}
# repr() of a numpy scalar under numpy >= 2, e.g. "np.float64(6.84)"
NUMPY_REPR = re.compile(r"np\.float\d+\((.*)\)")


def parse_number(text: str) -> tuple[float, bool]:
    """The number a CSV field holds, and whether it was written as a numpy repr.

    Raises ValueError if the field holds no number.
    """
    match = NUMPY_REPR.fullmatch(text)
    return float(match.group(1) if match else text), match is not None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_outputs(out: Path, expected: tuple[str, ...],
                  summary_schema: dict) -> tuple[list[str], list[str]]:
    """Problems found in one CLI output directory, and notes that do not fail it.

    An empty problem list means the directory passed.
    Checks that the manifest lists the expected files and that their sha256
    matches, that summary.json (if any) validates against ``summary_schema``,
    that every number in every output is finite, that each metrics CSV has
    one row per configured round, and that in nufm mode every round selects
    exactly ``n_k`` devices.  Numbers written as numpy reprs are finite
    numbers all the same; they are counted in the notes.
    """
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        files = manifest["files"]
        config = manifest["config"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"manifest.json unreadable: {exc!r}"], []
    problems = [f"{name}: not in manifest" for name in expected if name not in files]
    texts = {}
    numpy_reprs = 0
    for name, digest in sorted(files.items()):
        try:
            body = (out / name).read_bytes()
        except OSError:
            problems.append(f"{name}: listed in manifest but missing")
            continue
        if sha256(body) != digest:
            problems.append(f"{name}: sha256 does not match manifest")
        texts[name] = body.decode()

    if "summary.json" in texts:
        try:
            summary = json.loads(texts["summary.json"])
            jsonschema.validate(summary, summary_schema)
        except (ValueError, jsonschema.ValidationError) as exc:
            problems.append(f"summary.json invalid: {exc!s:.200}")
        else:
            problems += [f"summary.json: {key} is not finite" for key, v in summary.items()
                         if isinstance(v, float) and not math.isfinite(v)]

    for name, text in texts.items():
        if not name.endswith(".csv"):
            continue
        rows = read_csv(text)
        for row_no, row in enumerate(rows, start=1):
            for key, value in row.items():
                if key in TEXT_COLUMNS:
                    continue
                try:
                    number, as_repr = parse_number(value)
                except (TypeError, ValueError):
                    number, as_repr = math.nan, False
                numpy_reprs += as_repr
                finite = math.isfinite(number)
                if not finite:
                    problems.append(f"{name}:{row_no}: {key}={value!r} is not a finite number")
        if rows and "round" in rows[0]:
            if len(rows) != config["rounds"]:
                problems.append(f"{name}: {len(rows)} rounds, config says {config['rounds']}")
            if config["mode"] == "nufm":
                problems += [
                    f"{name}:{row_no}: selected {len(row['selected'].split(';'))} ids, "
                    f"n_k is {config['n_k']}"
                    for row_no, row in enumerate(rows, start=1)
                    if len(row["selected"].split(";")) != config["n_k"]
                ]
    notes = [f"{numpy_reprs} CSV numbers written as numpy reprs"] if numpy_reprs else []
    return problems, notes


def output_digests(out: Path) -> dict[str, str]:
    """The manifest's name -> sha256 map, the identity of an operation's outputs."""
    return json.loads((out / "manifest.json").read_text())["files"]


def sim_stats(out: Path) -> dict[str, float]:
    """Simulated statistics over every per-round CSV of an output directory.

    ``final_test_loss`` is averaged over runs (one per sweep cell), the
    objective over every round, and ives iterations are summed.
    """
    finals, objectives, iterations = [], [], 0
    for path in sorted(out.glob("*.csv")):
        rows = read_csv(path.read_text())
        if not rows or "round" not in rows[0]:
            continue
        finals.append(parse_number(rows[-1]["test_loss"])[0])
        objectives += [parse_number(r["objective"])[0] for r in rows]
        iterations += sum(int(r["ives_iterations"]) for r in rows)
    return {
        "sim.final_test_loss": sum(finals) / len(finals),
        "sim.mean_objective": sum(objectives) / len(objectives),
        "sim.ives_iterations": iterations,
    }
