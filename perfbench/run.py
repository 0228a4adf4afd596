"""Benchmark entry point for corridor-forge.

    python3 perfbench/run.py --workload corridor_gen --seed 1 --seconds 32 --trace 0

Run from the repository root. It builds nothing: the program is imported
from ``src/``. Each workload runs in this one single-threaded process as a
closed loop with one client: the next operation starts when the previous
one has returned. Batches of operations on the pool entries picked by
``--seed`` repeat until ``--seconds`` have passed (at least one batch). Every
operation's output is checked against ``golden.json``; an operation fails if
it raises, exits non-zero or gives other content.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:

* ``cpu_s``: one batch's CPU time, as the sum over the batch's operations
  of each operation's mean CPU time in this run (operations stop at the
  deadline, so the last batch may be partial). Every operation runs on one
  thread and does no waiting beyond local file writes, so on an idle machine
  this is its wall time; unlike wall time it leaves out time spent waiting
  for a CPU, behind other processes or while the host runs other guests;
* ``setup_s``: importing the program, generating inputs and a warm-up batch
  at the smaller size, up to the first timed operation; the median of this
  process's set-up and two set-ups in fresh interpreters;
* ``peak_rss_mb``: peak resident set of this process.

``--trace 1`` reports the per-layer metrics instead. It alternates untraced
and traced batches for two thirds of the time (their difference is
``trace.overhead_s``), then runs traced batches at half of every n for the
rest, giving each scaled metric a log-log growth exponent ``<metric>.n_exp``
(log of full over half, divided by log 2). Spans are written to
``.perfbench/spans-<workload>-seed<seed>.json``.

Before the final JSON line it prints one ``metric <name> <value> <unit>``
line per metric, including ``fail_ratio`` (failed / attempted operations).
``attempted`` counts every operation the process ran, the warm-up included.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 2
WORKLOADS = ("corridor_gen", "pm_homology", "analyze_reports")

wl = None  # the workloads module; set_up imports it so set-up time covers the import


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="corridor-forge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only, print the set-up time and exit")
    return parser.parse_args(argv)


class Runner:
    """Runs operations, times them and checks their output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_op(self, op, tracer=None) -> tuple[float, float]:
        """Run and check one operation; its wall and CPU seconds."""
        self.attempted += 1
        error = None
        t0, c0 = perf_counter(), process_time()
        try:
            if tracer is None:
                result = op.call()
            else:
                with tracer.operation():
                    result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0, process_time() - c0
        if error is None:
            try:
                seen = op.observe(result)
            except Exception as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
            else:
                bad = wl.mismatches(seen, op.expected)
                if bad:
                    error = "golden mismatch: " + "; ".join(bad)
        if error is not None:
            self.failed += 1
            self.errors.append(f"{op.label}: {error}")
        return elapsed

    def run_batch(self, ops, tracer=None) -> dict[str, float]:
        """Wall seconds per operation label."""
        return {op.label: self.run_op(op, tracer)[0] for op in ops}


def set_up(workload: str, seed: int):
    """Import the program, generate inputs and warm up. Returns the
    runner, golden values, pool order and work directory."""
    global wl
    if not os.path.isfile(os.path.join(SRC, "corridor_forge", "__init__.py")):
        raise SystemExit(f"error: no corridor_forge sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import corridor_forge

    if not os.path.abspath(corridor_forge.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported corridor_forge from {corridor_forge.__file__}")
    import workloads as wl

    golden = wl.load_golden(os.path.join(HERE, "golden.json"))
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    order = wl.pool_order(workload, seed)
    runner = Runner()
    try:
        wl.prepare(workload, golden, order, "full", workdir)
        wl.prepare(workload, golden, order[:1], "half", workdir)
        runner.run_batch(wl.batch(workload, golden, order[0], "half", workdir))
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return runner, golden, order, workdir


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def timed_loop(runner, workload, golden, order, workdir, seconds):
    """Untraced operations until ``seconds`` have passed, after at least one
    whole batch; CPU seconds per label."""
    times = defaultdict(list)
    deadline = perf_counter() + seconds
    b = 0
    while b == 0 or perf_counter() < deadline:
        for op in wl.batch(workload, golden, order[b % len(order)], "full", workdir):
            if b and perf_counter() >= deadline:
                break
            times[op.label].append(runner.run_op(op)[1])
        b += 1
    return times


def end_to_end(runner, workload, golden, order, workdir, seconds, setup_s):
    times = timed_loop(runner, workload, golden, order, workdir, seconds)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "cpu_s": sum(statistics.mean(ts) for ts in times.values()),
        "setup_s": setup_s,
        "peak_rss_mb": peak,
    }


def growth_exponent(full: float, half: float) -> float:
    if full <= 0 or half <= 0:
        return 0.0
    return math.log(full / half) / math.log(2)


def per_layer(runner, workload, golden, order, workdir, seconds, seed):
    from tracer import SCALED, Tracer, batch_metrics

    wl.prepare(workload, golden, order[1:], "half", workdir)
    tracer = Tracer()
    untraced, traced, swept = [], [], []

    def traced_batch(indices, size):
        mark = tracer.mark()
        with tracer.installed():
            wall = sum(runner.run_batch(
                wl.batch(workload, golden, indices, size, workdir), tracer).values())
        return wall, batch_metrics(tracer.summary(mark))

    start = perf_counter()
    b = 0
    while b == 0 or perf_counter() < start + seconds * 2 / 3:
        indices = order[b % len(order)]
        untraced.append(sum(runner.run_batch(
            wl.batch(workload, golden, indices, "full", workdir)).values()))
        traced.append(traced_batch(indices, "full"))
        b += 1
    b = 0
    while b == 0 or perf_counter() < start + seconds:
        swept.append(traced_batch(order[b % len(order)], "half")[1])
        b += 1

    def medians(rows):
        return {key: statistics.median(r[key] for r in rows) for key in rows[0]}

    full = medians([m for _, m in traced])
    half = medians(swept)
    metrics = dict(full)
    for key in SCALED:
        metrics[f"{key}.n_exp"] = growth_exponent(full[key], half[key])
    metrics["trace.wall_s"] = statistics.median(w for w, _ in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    tracer.dump(os.path.join(WORK, f"spans-{workload}-seed{seed}.json"))
    return metrics


def emit(runner, metrics: dict, declared: list[dict]):
    """Print every declared metric by name and unit, then the result line."""
    out = {}
    for spec in declared:
        name, unit = spec["name"], spec["unit"]
        if name not in metrics:
            raise SystemExit(f"error: metric {name} was not measured")
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"metric {name} {metrics[name]!r} {unit}")
    print(f"metric fail_ratio {runner.failed / runner.attempted!r} ratio")
    for err in runner.errors[:10]:
        print(f"failure {err}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": out,
    }))


def main(argv=None) -> int:
    t_start = perf_counter()
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    runner, golden, order, workdir = set_up(args.workload, args.seed)
    try:
        setup_s = perf_counter() - t_start
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            metrics = per_layer(runner, args.workload, golden, order, workdir,
                                args.seconds, args.seed)
            declared = spec["per_layer"]
        else:
            setups = [setup_s] + [probe_setup(args.workload, args.seed)
                                  for _ in range(SETUP_PROBES)]
            metrics = end_to_end(runner, args.workload, golden, order, workdir,
                                 args.seconds, statistics.median(setups))
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(runner, metrics, declared)
    return 0


if __name__ == "__main__":
    sys.exit(main())
