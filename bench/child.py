"""Run one fmlsim CLI operation in this fresh interpreter and record its timings.

    python3 bench/child.py --src SRC --record FILE [--trace FILE --operation N] -- ARGS...

ARGS go unchanged to ``fmlsim.cli.main``.  The untraced run reads the clock
at three kinds of hook: the entry of ``harness._round_of_updates`` (the start
of every round), the return of ``run`` (the end of a run's last round), and
the entry and return of each module-boundary function in ``CUT_SITES``.  Those
reads cut the operation's timeline into short segments that the benchmark
compares across repeats.  Just before each round the child also times one
piece of a fixed calibration loop, from which the benchmark reads the host's
speed; that segment is labelled so that no timing includes it.  With
``--trace`` the span tracer of ``spans.py`` is installed as well.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import importlib.abc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from spans import LAYERS, Tracer

# the span sites called at most a few hundred times per round; draw_batch,
# meta_gradient and rng.stream run inside local_update, thousands of times
# per round, and cli.run / cli.sweep are covered by the round clock
CUT_SITES = tuple(
    (module, attr) for name, module, attr in LAYERS
    if name not in {"metacore.draw_batch", "metacore.meta_gradient", "rng.stream",
                    "cli.run", "cli.sweep"}
)


CALIBRATION = -2    # the label of a calibration segment; -1 is outside every round


def calibration_piece() -> float:
    """Seconds taken by a fixed mix of small numpy operations and Python arithmetic.

    Its shape follows fmlsim's own inner loops (5-element vectors, one
    interpreter step per numpy call), so host slowdowns stretch it as they
    stretch fmlsim.
    """
    import numpy as np

    start = perf_counter()
    x = np.arange(5.0)
    acc = 0.0
    for i in range(200):
        x = x * 0.5 + 1.0
        acc += float(x @ x) + (i * i) % 7
    return perf_counter() - start


def install_round_clock(marks: list, calibration: list) -> None:
    harness = importlib.import_module("fmlsim.harness")
    cli = importlib.import_module("fmlsim.cli")
    round_entry = harness._round_of_updates

    def timed_round(*args, **kwargs):
        marks.append(("calibration", perf_counter()))
        calibration.append(calibration_piece())
        marks.append(("round", perf_counter()))
        return round_entry(*args, **kwargs)

    harness._round_of_updates = timed_round
    # cli.run is bound by ``from .harness import run``; sweep calls
    # harness.run once per cell
    for module in (cli, harness):
        def timed_run(config, _run=module.run):
            try:
                return _run(config)
            finally:
                marks.append(("end", perf_counter()))

        module.run = timed_run


def install_cuts(marks: list) -> None:
    """Read the clock at the entry and return of every function in CUT_SITES."""
    def cut(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            marks.append(("cut", perf_counter()))
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(("cut", perf_counter()))

        return timed

    for module_name, attr in CUT_SITES:
        module = importlib.import_module(module_name)
        setattr(module, attr, cut(getattr(module, attr)))


class ImportClock(importlib.abc.MetaPathFinder):
    """Reads the clock as each module's import starts; finds nothing itself.

    ``import fmlsim.cli`` loads numpy, scipy and jsonschema, about half a
    second in one piece; this cuts it at every module.
    """

    def __init__(self, marks: list):
        self.marks = marks

    def find_spec(self, name, path, target=None):
        self.marks.append(("cut", perf_counter()))
        return None


def timeline(start: float, marks: list, done: float) -> tuple[list[float], list[int]]:
    """The segments between consecutive clock reads, and the round each falls in.

    Rounds are numbered from 0 across all of an operation's runs (sweep
    cells); a segment outside every round (set-up, gaps between cells,
    output writing) has round -1, and a calibration piece CALIBRATION.  A
    round runs from its entry to the next calibration piece or to the end of
    its run.
    """
    cuts = [start, *(t for _, t in marks), done]
    segments = [b - a for a, b in zip(cuts, cuts[1:])]
    labels, current, rounds = [-1], -1, 0
    for kind, _ in marks:
        if kind == "calibration":
            labels.append(CALIBRATION)
            continue
        if kind == "round":
            current, rounds = rounds, rounds + 1
        elif kind == "end":
            current = -1
        labels.append(current)
    return segments, labels


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--operation", type=int, default=0)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    sys.path.insert(0, args.src)

    marks: list = []
    calibration: list = []
    sys.meta_path.insert(0, ImportClock(marks))
    start = perf_counter()
    cli = importlib.import_module("fmlsim.cli")
    imported = perf_counter()
    install_round_clock(marks, calibration)
    install_cuts(marks)
    tracer = None
    if args.trace:
        tracer = Tracer(args.operation)
        tracer.install()
    code = cli.main(cli_args)
    done = perf_counter()

    segments, labels = timeline(start, marks, done)
    round_s = [0.0] * (max(labels) + 1)
    for seconds, label in zip(segments, labels):
        if label >= 0:
            round_s[label] += seconds
    first_round = next((t for kind, t in marks if kind == "calibration"), done)
    record = {
        "exit_code": code,
        "import_s": imported - start,
        "setup_s": first_round - start,
        "run_s": done - start - sum(calibration),
        "round_s": round_s,
        "segment_s": segments,
        "segment_round": labels,
        "calibration_s": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(args.record).write_text(json.dumps(record))
    if tracer is not None:
        Path(args.trace).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
