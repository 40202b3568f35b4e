"""Digest the outputs of fmlsim's fixed invocations, for byte-identity checks.

    python3 tools/fixed_outputs.py OUT

runs each fixed invocation through ``fmlsim.cli.main`` (importing fmlsim
from the ``src/`` beside this script), writes its files under
``OUT/<invocation>/`` and records the sha256 of every output file, with the
exit code, in ``OUT/digests.json``.  Run it on two checkouts and compare
the two ``digests.json`` files (``cmp`` or ``diff``): a change that keeps
every output byte-identical leaves them equal.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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
    **{f"wireless-{a}": ["run", "--config", WIRELESS, "--set", f"allocation={a}"]
       for a in ("ural", "greedy", "random", "nufm-greedy", "nufm-random")},
    "wireless-large": ["run", "--config", WIRELESS, "--set", "population.n=400",
                       "--set", "env.M=100", "--set", "rounds=3"],
    "sweep-small": ["sweep", "--config", WIRELESS, *SWEEP_SMALL],
    "sweep-eta1": ["sweep", "--config", WIRELESS, "--param", "eta1", "--values", "0.25,1,4",
                   "--seeds", ",".join(map(str, range(10)))],
    "dump-env-nufm": ["dump-env", "--config", NUFM],
    "dump-env-wireless": ["dump-env", "--config", WIRELESS],
}


def digest(out: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from fmlsim.cli import main

    digests = {}
    for name, args in INVOCATIONS.items():
        target = out / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*args, "--out", str(target)])
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(target.iterdir())} if target.is_dir() else {}
        digests[name] = {"exit": code, "files": files}
    return digests


def main(argv: list[str]) -> int:
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
