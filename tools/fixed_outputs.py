"""Digest the outputs of fmlsim's fixed invocations, for byte-identity checks.

    python3 tools/fixed_outputs.py OUT
    python3 tools/fixed_outputs.py --compare PARENT_OUT CHANGE_OUT

The first form runs each fixed invocation through ``fmlsim.cli.main``
(importing fmlsim from the ``src/`` beside this script), writes its files
under ``OUT/<invocation>/`` and records the sha256 of every output file,
with the exit code, in ``OUT/digests.json``.  It also runs every ``fmlsim
oracle`` suite at its default seed, as the invocation ``oracle-<suite>``,
and records the lines the suite prints with its exit code.  Run it on two
checkouts and compare the two ``digests.json`` files (``cmp`` or
``diff``): a change that keeps every output byte-identical leaves them
equal.

The second form measures a change that does not.  For each invocation it
prints the changed files, the largest relative change in each numeric CSV
column and in each JSON float that moved (under its dotted key), and every
changed value in a text or integer CSV column (those in ``EXACT_COLUMNS``
and any that does not read as numbers), every other changed JSON value or
structure, or every changed line an oracle suite printed.  A manifest's
``files`` hashes move with any output and are not compared.  It exits 1 if
such a value or line, an exit code, or the set of files differs, else 0.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NUFM = str(ROOT / "configs" / "nufm.json")
WIRELESS = str(ROOT / "configs" / "wireless.json")
SWEEP_SMALL = ["--set", "population.family=logistic-regression", "--set", "hyper.mode=hessian-free",
               "--set", "batch_size=null", "--param", "eta1",
               "--values", "0.5,1.0,1.5,2.0,2.5", "--seeds", "1,2,3"]

# name -> CLI arguments before ``--out``
INVOCATIONS = {
    "nufm": ["run", "--config", NUFM],
    "nufm-uniform": ["run", "--config", NUFM, "--set", "selection=uniform"],
    # one-sample batches in 12 dimensions: every local step draws and subsamples
    "nufm-batch1": ["run", "--config", NUFM, "--set", "batch_size=1",
                    "--set", "population.d=12", "--set", "rounds=20"],
    # every device trains, so the test set is the training set
    "nufm-all-train": ["run", "--config", NUFM, "--set", "population.train_fraction=1",
                       "--set", "rounds=5"],
    # a seed above 2**32: every stream key starts with two 32-bit words
    "nufm-bigseed": ["run", "--config", NUFM, "--seed", "4294967301", "--set", "rounds=5"],
    # a drawn-batch run of 300 rounds, all of whose batch streams are seeded before round 0
    "nufm-past-block": ["run", "--config", NUFM, "--set", "rounds=300",
                        "--set", "population.n=20", "--set", "n_k=5"],
    # three local steps a round: every round draws from keys with step 0, 1 and 2
    "nufm-tau3": ["run", "--config", NUFM, "--set", "hyper.tau=3", "--set", "rounds=10"],
    # 40 weights and 13 training samples: the loss form of a split with fewer
    # samples than weights is rank-deficient and padded
    "nufm-wide": ["run", "--config", NUFM, "--set", "population.n=4", "--set", "n_k=2",
                  "--set", "population.d=40", "--set", "rounds=5"],
    # 400 weights against at most 28 samples a device: the loss form's rows come through
    # each device's Gram matrix, and beta is cut tenfold so that the run does not diverge
    "nufm-large-d": ["run", "--config", NUFM, "--set", "population.d=400", "--set", "rounds=3",
                     "--set", "hyper.beta=0.002"],
    **{f"wireless-{a}": ["run", "--config", WIRELESS, "--set", f"allocation={a}"]
       for a in ("ural", "greedy", "random", "nufm-greedy", "nufm-random")},
    "wireless-large": ["run", "--config", WIRELESS, "--set", "population.n=400",
                       "--set", "env.M=100", "--set", "rounds=3"],
    # every round's second matching is certified, on the largest priced arrays
    "wireless-scale-out": ["run", "--config", WIRELESS, "--set", "population.n=2000",
                           "--set", "env.M=200", "--set", "rounds=2"],
    # 20 training rows on 12 RBs: the matching changes nearly every round, so IVES
    # powers and prices anew where the other runs repeat the last round's step
    "wireless-contended": ["run", "--config", WIRELESS, "--set", "population.n=40",
                           "--set", "env.M=12", "--set", "rounds=100"],
    # f4's root too small for the rate formula: IVES's g2 is -inf and its delay inf
    "wireless-eta2-tiny": ["run", "--config", WIRELESS, "--set", "env.eta2=1e-32",
                           "--set", "rounds=2"],
    "sweep-small": ["sweep", "--config", WIRELESS, *SWEEP_SMALL],
    "sweep-eta1": ["sweep", "--config", WIRELESS, "--param", "eta1", "--values", "0.25,1,4",
                   "--seeds", ",".join(map(str, range(10)))],
    # cells of different alpha share no learner: the path where a sweep shares no round
    "sweep-alpha": ["sweep", "--config", WIRELESS, "--param", "alpha", "--values", "0.01,0.03",
                    "--seeds", "1,2", "--set", "rounds=5"],
    # cells of 3 and 7 rounds share one learner and its batch streams
    "nufm-rounds-sweep": ["sweep", "--config", NUFM, "--param", "rounds", "--values", "3,7",
                          "--seeds", "1,2"],
    # cells of 100 and 260 rounds share one learner, seeded for the longer cell's rounds
    "nufm-rounds-past-block": ["sweep", "--config", NUFM, "--param", "rounds",
                               "--values", "100,260", "--seeds", "1,2",
                               "--set", "population.n=20", "--set", "n_k=5",
                               "--set", "hyper.tau=2"],
    # a population field swept: one population per (value, seed), each its own group
    "nufm-n-sweep": ["sweep", "--config", NUFM, "--param", "n", "--values", "40,60",
                     "--seeds", "1,2", "--set", "rounds=5"],
    "dump-env-nufm": ["dump-env", "--config", NUFM],
    "dump-env-wireless": ["dump-env", "--config", WIRELESS],
}


def digest(out: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from fmlsim.cli import main
    from fmlsim.oracles import SUITES

    digests = {}
    for name, args in INVOCATIONS.items():
        target = out / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*args, "--out", str(target)])
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(target.iterdir())} if target.is_dir() else {}
        digests[name] = {"exit": code, "files": files}
    for suite in SUITES:
        with contextlib.redirect_stdout(printed := io.StringIO()):
            code = main(["oracle", suite])
        digests[f"oracle-{suite}"] = {"exit": code, "files": {},
                                      "lines": printed.getvalue().splitlines()}
    return digests


# CSV columns compared exactly: the selections, counts and sweep labels
EXACT_COLUMNS = {"round", "selected", "ives_iterations", "parameter", "value", "seeds"}


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_csv(old: Path, new: Path, moved: dict[str, float], changed: list[str]) -> None:
    """Fold one CSV pair into ``moved`` (column -> largest relative change) and ``changed``."""
    with old.open() as fa, new.open() as fb:
        a, b = list(csv.DictReader(fa)), list(csv.DictReader(fb))
    if len(a) != len(b) or (a and b and list(a[0]) != list(b[0])):
        changed.append(f"{old.name}: {len(a)} -> {len(b)} rows or a different header")
    for i, (ra, rb) in enumerate(zip(a, b)):
        for col, x in ra.items():
            y = rb.get(col)
            fx, fy = _number(x), _number(y or "")
            if col in EXACT_COLUMNS or fx is None or fy is None:
                if x != y:
                    changed.append(f"{old.name} row {i} {col}: {x!r} -> {y!r}")
            else:
                moved[col] = max(moved.get(col, 0.0), _relative(fx, fy))


def compare_json(old: Path, new: Path, moved: dict[str, float], changed: list[str]) -> None:
    """Fold one JSON pair into ``moved`` (file and dotted key of each float that moved ->
    its largest relative change) and ``changed``; a list's elements share its key."""
    a, b = json.loads(old.read_text()), json.loads(new.read_text())
    if old.name == "manifest.json":
        a.pop("files", None)
        b.pop("files", None)

    def walk(key: str, x, y) -> None:
        if type(x) is float and type(y) is float:
            if x != y:
                at = f"{old.name} {key}"
                moved[at] = max(moved.get(at, 0.0), _relative(x, y))
        elif isinstance(x, dict) and isinstance(y, dict) and x.keys() == y.keys():
            for k in x:
                walk(f"{key}.{k}" if key else k, x[k], y[k])
        elif isinstance(x, list) and isinstance(y, list) and len(x) == len(y):
            for u, v in zip(x, y):
                walk(f"{key}[]", u, v)
        elif x != y or type(x) is not type(y):
            nested = isinstance(x, (dict, list)) or isinstance(y, (dict, list))
            changed.append(f"{old.name} {key or '(root)'}: "
                           + ("a different structure" if nested else f"{x!r} -> {y!r}"))

    walk("", a, b)


def compare(parent: Path, change: Path) -> int:
    """Print how the change's outputs differ from the parent's; 1 if beyond numeric drift."""
    old = json.loads((parent / "digests.json").read_text())
    new = json.loads((change / "digests.json").read_text())
    status = 0
    for name in sorted(old.keys() | new.keys()):
        a = old.get(name, {"exit": None, "files": {}})
        b = new.get(name, {"exit": None, "files": {}})
        files = sorted(a["files"].keys() | b["files"].keys())
        diff = [f for f in files if a["files"].get(f) != b["files"].get(f)]
        head = f"{name}: {len(diff)} of {len(files)} files changed"
        if a["exit"] != b["exit"]:
            head += f", exit {a['exit']} -> {b['exit']}"
            status = 1
        print(head)
        changed = [f"line {x!r} -> {y!r}" for x, y in
                   itertools.zip_longest(a.get("lines", []), b.get("lines", [])) if x != y]
        moved: dict[str, float] = {}
        if diff:
            print("  files: " + " ".join(diff))
        for f in diff:
            if f not in a["files"] or f not in b["files"]:
                changed.append(f"{f}: only in {'change' if f in b['files'] else 'parent'}")
            elif f.endswith(".csv"):
                compare_csv(parent / name / f, change / name / f, moved, changed)
            elif f.endswith(".json"):
                compare_json(parent / name / f, change / name / f, moved, changed)
        for col, rel in moved.items():
            print(f"  {col}: largest relative change {rel:.3e}")
        for line in changed:
            print(f"  changed {line}")
        status = status or bool(changed)
    return status


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    digests = digest(out)
    (out / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(len(d['files']) for d in digests.values())} digests of "
          f"{len(digests)} invocations to {out / 'digests.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
