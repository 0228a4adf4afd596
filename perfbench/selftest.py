"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It checks that
1. every metric declared in BENCHMARK.json is printed, by name and with its
   unit, for every workload with tracing off and on, and the result line has
   exactly the contract's keys;
2. traced and untraced batches give identical golden outputs, and the layer
   self times of a traced batch add up to its wall time;
3. an output that has been tampered with is counted as a failure.
It exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_printed_metrics(spec):
    for workload in bench.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace={trace} failed operations: {proc.stderr}")
            declared = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == declared, f"{workload} trace={trace} metrics differ from BENCHMARK.json")
            printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
            check(printed == {**declared, "fail_ratio": "ratio"},
                  f"{workload} trace={trace} printed metric lines differ")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  "non-numeric metric value")
            print(f"ok  metrics printed: {workload} trace={trace}")


@contextmanager
def patched(owner, attr, make):
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def bump(field):
    def make(fn):
        def tampered(*args, **kwargs):
            result = fn(*args, **kwargs)
            if isinstance(result, dict):
                result[field] += 1
            else:
                setattr(result, field, getattr(result, field) + 1)
            return result
        return tampered
    return make


def recorded(ops, log):
    """Wrap each operation's observer so that the content it checks is
    also appended to ``log``."""
    for op in ops:
        def observe(result, inner=op.observe, label=op.label):
            seen = inner(result)
            log.append((label, seen))
            return seen
        op.observe = observe
    return ops


def check_in_process():
    from tracer import LAYERS, Tracer, batch_metrics

    import corridor_forge
    from corridor_forge import cli, experiments

    tampers = {
        "corridor_gen": (cli, "run", bump("steps")),
        "pm_homology": (corridor_forge, "pm_run", bump("dual_diameter")),
        "analyze_reports": (experiments, "analyze_complex", bump("diameter")),
    }
    for workload in bench.WORKLOADS:
        runner, golden, order, workdir = bench.set_up(workload, seed=5)
        try:
            ops = lambda: bench.wl.batch(workload, golden, order[0], "full", workdir)  # noqa: E731
            plain, traced = [], []
            runner.run_batch(recorded(ops(), plain))
            tracer = Tracer()
            mark = tracer.mark()
            with tracer.installed():
                wall = sum(runner.run_batch(recorded(ops(), traced), tracer).values())
            check(runner.failed == 0, f"{workload}: {runner.errors}")
            check(plain and traced == plain, f"{workload}: traced outputs differ from untraced")
            m = batch_metrics(tracer.summary(mark))
            self_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS + ("bench",))
            check(abs(self_sum - wall) <= 0.01 * wall + 1e-3,
                  f"{workload}: layer self times {self_sum} vs traced wall {wall}")
            print(f"ok  traced == untraced outputs, self times cover wall: {workload}")

            owner, attr, make = tampers[workload]
            before = runner.failed
            with patched(owner, attr, make):
                runner.run_batch(ops())
            check(runner.failed > before, f"{workload}: tampered output was not caught")
            check(runner.failed / runner.attempted > 0, "fail_ratio did not rise")
            print(f"ok  tampered output raises fail_ratio: {workload}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_in_process()
    check_printed_metrics(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
