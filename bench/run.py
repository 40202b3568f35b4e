"""fmlsim benchmark: three CLI workloads, end-to-end timings and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each operation is one
``fmlsim.cli.main`` call in a fresh single-threaded interpreter
(``FMLSIM_THREADS`` unset), started one after another (a closed loop with
one client) until the next one would overrun ``--seconds``.  Every
operation's outputs are checked; the last line of standard output is the
JSON result.  See bench/README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from time import perf_counter

from checks import check_outputs, output_digests, sha256, sim_stats
from child import CALIBRATION
from spans import per_layer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SEED_SPACE = 1_000_000
MIN_OPERATIONS = 5          # per untraced run: the repeats each timing takes its best of
MIN_TRACED = 2              # traced and untraced operations each, in a traced run
# the calibration piece's best time on the reference host (2-vCPU Intel Xeon
# VM, Python 3.11.7, numpy 2.4.6) at its fast speed; timings are reported at
# this host speed
REFERENCE_CALIBRATION_S = 0.43e-3
PER_SEGMENT = ("segment_s", "segment_round", "calibration_s")
MEASURE_CAP_S = 120.0       # stop starting operations after this, whatever else holds
DEADLINE_S = 160.0          # an operation still running at this point is killed


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                        # fmlsim subcommand: run | sweep
    config: str
    overrides: tuple[str, ...]
    sweep_values: str = ""
    sweep_seeds: int = 0
    expected: tuple[str, ...] = ("metrics.csv", "summary.json")

    def cli_args(self, seed: int, out: str) -> list[str]:
        """The CLI arguments of this workload's operation for a benchmark seed."""
        pick = random.Random(f"{self.name}/{seed}")
        args = [self.command, "--config", self.config, "--out", out,
                "--seed", str(pick.randrange(SEED_SPACE))]
        for assignment in self.overrides:
            args += ["--set", assignment]
        if self.command == "sweep":
            seeds = pick.sample(range(SEED_SPACE), self.sweep_seeds)
            args += ["--param", "eta1", "--values", self.sweep_values,
                     "--seeds", ",".join(map(str, seeds))]
        return args


WORKLOADS = {w.name: w for w in (
    # the learning loop alone: local meta-updates, rng streams, loss evaluation
    Workload("nufm-train", "run", "configs/nufm.json", ("rounds=100",)),
    # many tiny cells: per-call overhead, logistic loss, hessian-free, full batches
    Workload("sweep-small", "sweep", "configs/wireless.json",
             ("population.family=logistic-regression", "hyper.mode=hessian-free",
              "batch_size=null"),
             sweep_values="0.5,1.0,1.5,2.0,2.5", sweep_seeds=3, expected=("sweep.csv",)),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "rounds_per_s": "1/s", "round_ms_p50": "ms",
    "round_ms_p90": "ms", "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


@dataclass
class Operation:
    index: int
    traced: bool
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    record: dict | None = None
    trace: dict | None = None
    digests: dict | None = None
    bytes_written: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_operation(workload: Workload, seed: int, index: int, traced: bool,
                  work: Path, summary_schema: dict, timeout: float) -> Operation:
    op = Operation(index, traced)
    out = work / f"op{index}"
    record_path = work / f"op{index}.record.json"
    trace_path = work / f"op{index}.trace.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
           "--record", str(record_path)]
    if traced:
        cmd += ["--trace", str(trace_path), "--operation", str(index)]
    cmd += ["--", *workload.cli_args(seed, str(out))]
    env = dict(os.environ)
    env.pop("FMLSIM_THREADS", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        op.problems.append(f"timed out after {timeout:.0f} s")
        return op
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        op.problems.append(f"exit code {proc.returncode}: {tail[0]}")
        return op
    op.record = json.loads(record_path.read_text())
    if traced:
        op.trace = json.loads(trace_path.read_text())
    problems, op.notes = check_outputs(out, workload.expected, summary_schema)
    op.problems += problems
    if not op.failed:
        op.digests = output_digests(out)
        op.bytes_written = sum(p.stat().st_size for p in out.iterdir())
    return op


def git_commit() -> str:
    """HEAD's commit, read from .git inside the checkout only; 'unknown' if there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def package_version(name: str) -> str:
    try:
        return version(name)
    except PackageNotFoundError:
        return "unknown"


def environment() -> dict:
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "commit": git_commit(),
        "FMLSIM_THREADS": "unset in every operation (caller had "
                          f"{os.environ.get('FMLSIM_THREADS', 'unset')})",
    }


def best_of_repeats(records: list[dict], key: str) -> list[float]:
    """Per index of ``key``'s list, the fastest of that piece's repeats across operations.

    Every operation of a run replays the same work, and the same clock reads
    cut its timeline into the same segments, so each segment index is one
    fixed piece of work timed once per operation; likewise each calibration
    piece.  Host speed on a small shared machine flips between phases within
    fractions of a second; the best repeat of each short piece is the one
    least slowed.
    """
    return [min(times) for times in zip(*(r[key] for r in records), strict=True)]


def calibration_s(records: list[dict]) -> float:
    """The run's host-speed reference: the mean best time of a calibration piece.

    Below the flips that best-of-repeats removes, the host's speed also moves
    by up to 2x from one minute to the next.  The calibration pieces, timed
    in the same processes and taken best-of-repeats like the segments, move
    with it.
    """
    return statistics.fmean(best_of_repeats(records, "calibration_s"))


def end_to_end(ops: list[Operation]) -> tuple[dict, dict, dict]:
    """End-to-end metrics from the best repeat of every segment, at the reference speed.

    Returns the metrics, their sample counts, and the same timings unscaled.
    """
    records = [op.record for op in ops if op.record is not None]
    segments = best_of_repeats(records, "segment_s")
    labels = records[0]["segment_round"]
    rounds = [0.0] * (max(labels) + 1)
    for seconds, label in zip(segments, labels):
        if label >= 0:
            rounds[label] += seconds
    setup = sum(segments[:labels.index(CALIBRATION)]) if rounds else sum(segments)
    deciles = statistics.quantiles(rounds, n=10, method="inclusive")
    raw = {
        "setup_s": setup,
        "run_s": sum(t for t, label in zip(segments, labels) if label != CALIBRATION),
        "rounds_per_s": len(rounds) / sum(rounds),
        "round_ms_p50": statistics.median(rounds) * 1e3,
        "round_ms_p90": deciles[8] * 1e3,
    }
    scale = REFERENCE_CALIBRATION_S / calibration_s(records)
    metrics = {name: value / scale if name == "rounds_per_s" else value * scale
               for name, value in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in records)
    beyond = sum(1 for t in rounds if t > deciles[8])
    best = (f"{len(segments)} segments, each the best of {len(records)} repeats, "
            f"host scale {scale:.3f}")
    samples = dict.fromkeys(metrics, best)
    samples["peak_rss_mb"] = f"median of {len(records)} operations"
    for name in ("rounds_per_s", "round_ms_p50"):
        samples[name] = f"{len(rounds)} rounds of " + best
    samples["round_ms_p90"] = samples["round_ms_p50"] + f", {beyond} beyond p90"
    return metrics, samples, raw


def layers(ops: list[Operation]) -> tuple[dict, dict]:
    """Per-layer metrics: medians over traced operations, plus the tracing overhead."""
    traced = [op for op in ops if op.traced and op.trace is not None]
    plain = [op.record["run_s"] for op in ops if not op.traced and op.record is not None]
    rows = []
    for op in traced:
        row = per_layer(op.trace)
        row["cli.import_s"] = op.record["import_s"]
        row["cli.bytes_written"] = op.bytes_written
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_frac"] = (
        min(op.record["run_s"] for op in traced) / min(plain) - 1.0
    )
    note = f"median of {len(traced)} traced operations; overhead best of {len(plain)} untraced"
    return metrics, {name: note for name in metrics}


def measure(workload: Workload, seed: int, seconds: int, trace: bool,
            work: Path, summary_schema: dict) -> list[Operation]:
    """Run operations one after another until the next one would overrun the run's time."""
    ops: list[Operation] = []
    reference: dict | None = None
    start = perf_counter()
    last = 0.0
    while True:
        elapsed = perf_counter() - start
        if trace:
            done = (sum(op.traced for op in ops) >= MIN_TRACED
                    and sum(not op.traced for op in ops) >= MIN_TRACED)
        else:
            done = len(ops) >= MIN_OPERATIONS
        if (elapsed + last > seconds and done) or elapsed >= MEASURE_CAP_S:
            return ops
        traced = trace and len(ops) % 2 == 1
        op = run_operation(workload, seed, len(ops), traced, work, summary_schema,
                           DEADLINE_S - elapsed)
        last = perf_counter() - start - elapsed
        if op.digests is not None:
            if reference is None:
                reference = op.digests
            elif op.digests != reference:
                changed = sorted(k for k in reference.keys() | op.digests.keys()
                                 if reference.get(k) != op.digests.get(k))
                op.problems.append(f"outputs differ from the first repeat: {changed[:3]}")
        ops.append(op)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fmlsim" / "cli.py").is_file():
        print(f"error: no fmlsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from fmlsim.cli import SUMMARY_SCHEMA

    workload = WORKLOADS[args.workload]
    work = RESULTS / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    ops = measure(workload, args.seed, args.seconds, bool(args.trace), work, SUMMARY_SCHEMA)

    failed = sum(op.failed for op in ops)
    for op in ops:
        for problem in op.problems:
            print(f"operation {op.index} failed: {problem}")
    for note in sorted({note for op in ops for note in op.notes}):
        print(f"note (not a failure): {note}")
    completed = {op.traced for op in ops if op.record is not None}
    if completed != ({True, False} if args.trace else {False}):
        print("error: no operation of each needed kind completed", file=sys.stderr)
        return 1
    unscaled: dict = {}
    if args.trace:
        metrics, samples = layers(ops)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, samples, unscaled = end_to_end(ops)
        units = END_TO_END_UNITS
    calibration_ms = calibration_s([op.record for op in ops if op.record is not None]) * 1e3
    passed = next((op for op in ops if op.digests is not None), None)
    sim = sim_stats(work / f"op{passed.index}") if passed else {}
    digests = passed.digests if passed else {}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"cli: fmlsim {' '.join(workload.cli_args(args.seed, '<out>'))}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]:6s} {samples[name]}")
    print(f"  {'failed_frac':32s} {failed / len(ops):14.6g} {'ratio':6s} "
          f"{failed} of {len(ops)} operations")
    for name, value in sim.items():
        print(f"  {name:32s} {value:14.6g} {'':6s} reported, not gated")
    outputs_sha256 = sha256(json.dumps(digests, sort_keys=True).encode())
    print(f"  metrics.csv sha256 {digests.get('metrics.csv', '-')}  "
          f"all outputs sha256 {outputs_sha256}")
    for name, value in unscaled.items():
        print(f"  {name + ' at this host speed':32s} {value:14.6g} {units[name]:6s} unscaled")
    print(f"  host calibration {calibration_ms:.4f} ms (reference "
          f"{REFERENCE_CALIBRATION_S * 1e3:.2f} ms)")

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cli_args": workload.cli_args(args.seed, "<out>"),
        "environment": environment(),
        "host_calibration_ms": calibration_ms,
        "unscaled": unscaled,
        "failed_frac": failed / len(ops),
        "samples": samples,
        "sim": sim,
        "metrics_csv_sha256": digests.get("metrics.csv"),
        "outputs_sha256": outputs_sha256,
        # per-segment lists stay in the work directory: they run to megabytes
        "operations": [{"index": op.index, "traced": op.traced, "problems": op.problems,
                        "notes": op.notes,
                        "record": op.record and {k: v for k, v in op.record.items()
                                                 if k not in PER_SEGMENT}}
                       for op in ops],
        "result": result,
    }
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
