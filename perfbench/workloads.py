"""The three benchmark workloads: their inputs, operations and golden checks.

An operation is one call into the program's public entry points: the CLI
``main([...])`` called in-process, or ``pm_run`` / ``reduced_betti`` from
the package root. Each operation has a label (operations with the same label
are timed together), a call that is timed, and an observer that is not: it
turns the call's output into content (counts, flags and digests) that is
compared with the values in ``golden.json``. Content is compared, not report
bytes, so a report can gain or lose fields without tripping a check.

Every input comes from a pool of program seeds ``0 .. POOL - 1`` whose golden
values were recorded once (see ``record_golden.py``). The benchmark's
``--seed`` picks which pool entries a run uses and in what order (see
``pool_order``); the program sees only the generated inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import corridor_forge
from corridor_forge import cli, serialize
from corridor_forge.dual import caccetta_smyth_bound

POOL = 16  # program seeds with recorded golden values
PER_RUN = 6  # pool entries per operation in one run

# Operation sizes. "full" is the measured size; "half" halves every n and is
# the smaller size of the traced scaling sweep and the warm-up.
SIZES = {
    "corridor_gen": {
        "full": [(300, 2, 0), (60, 3, 25)],  # (n, d, --record-every)
        "half": [(150, 2, 0), (30, 3, 25)],
    },
    "pm_homology": {
        "full": [(100, 2), (44, 3)],
        "half": [(50, 2), (22, 3)],
    },
    "analyze_reports": {
        "full": [("corridor", 100, 2), ("corridor", 30, 3), ("pm", 60, 2)],
        "half": [("corridor", 50, 2), ("corridor", 15, 3), ("pm", 30, 2)],
    },
}


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    observe: Callable[[Any], dict]
    expected: dict


def facet_digest(facets) -> str:
    """Order-independent digest of a list of facets."""
    canon = sorted(tuple(sorted(f)) for f in facets)
    return hashlib.sha256(json.dumps(canon).encode()).hexdigest()[:16]


def mismatches(observed: dict, expected: dict) -> list[str]:
    return [
        f"{key}: got {observed.get(key)!r}, want {want!r}"
        for key, want in expected.items()
        if observed.get(key) != want
    ]


def load_golden(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def pool_order(workload: str, seed: int) -> list[tuple[int, ...]]:
    """The pool entries one run cycles through, fixed by the bench seed.
    Batch b runs the workload's j-th operation on entry ``order[b][j]``;
    each operation gets its own seeded sample of PER_RUN distinct entries."""
    rng = random.Random(seed)
    columns = [rng.sample(range(POOL), PER_RUN) for _ in SIZES[workload]["full"]]
    return list(zip(*columns))


def _exit_ok(code):
    if code != 0:
        raise RuntimeError(f"exit code {code}")


# -- corridor_gen ---------------------------------------------------------


def read_output(path: str, read):
    """Read an output file and delete it, so that a later operation that
    writes nothing cannot pass on a stale file."""
    try:
        with open(path, newline="") as fh:
            return read(fh)
    finally:
        os.remove(path)


def observe_generated(out: str, record_every: int) -> dict:
    obj = read_output(out, json.load)
    seen = {
        "steps": obj["steps"],
        "first_low_step": obj["first_low_step"],
        "facets": facet_digest(obj["image"]["facets"]),
    }
    if record_every:
        traj = os.path.splitext(out)[0] + ".trajectory.csv"
        seen["traj_rows"] = read_output(traj, lambda fh: sum(1 for _ in csv.reader(fh)) - 1)
    return seen


def corridor_gen_ops(golden, indices, size, workdir) -> list[Op]:
    ops = []
    for (n, d, every), index in zip(SIZES["corridor_gen"][size], indices):
        out = os.path.join(workdir, f"corridor_{n}x{d}.json")
        argv = ["generate-corridor", "--n", str(n), "--d", str(d),
                "--seed", str(index), "--out", out]
        if every:
            argv += ["--record-every", str(every)]

        def observe(code, out=out, every=every):
            _exit_ok(code)
            return observe_generated(out, every)

        ops.append(Op(
            label=f"generate-corridor {n}x{d}",
            call=lambda argv=argv: cli.main(argv),
            observe=observe,
            expected=golden["corridor"][f"{n}x{d}"][str(index)],
        ))
    return ops


# -- pm_homology ----------------------------------------------------------


def observe_pm(report, connectivity: int) -> dict:
    """Content of a pm run, with the diameter sandwich
    diameter_lower <= diameter <= Caccetta-Smyth bound, the bound taken at
    the dual's recorded vertex connectivity."""
    diam = report.dual_diameter
    nodes = len(report.image.facets)
    return {
        "steps": report.steps,
        "first_low_step": report.first_low_step,
        "facets": facet_digest(report.image.facets),
        "pseudomanifold": report.pseudomanifold,
        "diameter": diam,
        "sandwich": diam is not None
        and report.diameter_lower <= diam <= caccetta_smyth_bound(nodes, connectivity),
    }


def observe_betti(betti) -> dict:
    return {"betti": list(betti)}


PM_KEYS = ("steps", "first_low_step", "facets", "pseudomanifold", "diameter", "sandwich")


def pm_homology_ops(golden, indices, size, workdir) -> list[Op]:
    ops = []
    for (n, d), index in zip(SIZES["pm_homology"][size], indices):
        want = golden["pm"][f"{n}x{d}"][str(index)]
        runs = {}

        def run_pm(n=n, d=d, index=index, runs=runs):
            runs["report"] = corridor_forge.pm_run(
                corridor_forge.PmConfig(n=n, d=d, seed=index)
            )
            return runs["report"]

        def betti(d=d, runs=runs):
            image = runs.pop("report").image
            return [corridor_forge.reduced_betti(image, k) for k in range(d + 1)]

        ops.append(Op(
            label=f"pm_run {n}x{d}",
            call=run_pm,
            observe=lambda rep, k=want["connectivity"]: observe_pm(rep, k),
            expected={key: want[key] for key in PM_KEYS},
        ))
        ops.append(Op(
            label=f"reduced_betti {n}x{d}",
            call=betti,
            observe=observe_betti,
            expected={"betti": want["betti"]},
        ))
    return ops


# -- analyze_reports ------------------------------------------------------


def complex_path(workdir, kind, n, d, index) -> str:
    return os.path.join(workdir, f"in_{kind}_{n}x{d}_s{index}.json")


def make_image(kind, n, d, index):
    if kind == "corridor":
        return corridor_forge.run(corridor_forge.ProcessConfig(n=n, d=d, seed=index)).image
    return corridor_forge.pm_run(
        corridor_forge.PmConfig(n=n, d=d, seed=index, compute_diameter=False)
    ).image


def write_analyze_inputs(golden, order, size, workdir):
    """Write the complex files the analyze operations read, checking each
    image against its recorded digest."""
    for indices in order:
        for (kind, n, d), index in zip(SIZES["analyze_reports"][size], indices):
            image = make_image(kind, n, d, index)
            want = golden["analyze"][f"{kind} {n}x{d}"][str(index)]["facets"]
            if facet_digest(image.facets) != want:
                raise RuntimeError(f"input {kind} {n}x{d} seed {index} differs from golden")
            serialize.save_complex(image, complex_path(workdir, kind, n, d, index))


ANALYZE_KEYS = ("f_vector", "diameter", "connectivity", "pseudomanifold")


def observe_analysis(code, out) -> dict:
    _exit_ok(code)
    obj = read_output(out, json.load)
    return {key: obj[key] for key in ANALYZE_KEYS}


def analyze_reports_ops(golden, indices, size, workdir) -> list[Op]:
    ops = []
    out = os.path.join(workdir, "analysis.json")
    for (kind, n, d), index in zip(SIZES["analyze_reports"][size], indices):
        argv = ["analyze", complex_path(workdir, kind, n, d, index), "--out", out]
        want = golden["analyze"][f"{kind} {n}x{d}"][str(index)]
        ops.append(Op(
            label=f"analyze {kind} {n}x{d}",
            call=lambda argv=argv: cli.main(argv),
            observe=lambda code: observe_analysis(code, out),
            expected={key: want[key] for key in ANALYZE_KEYS},
        ))
    return ops


BATCH_OPS = {
    "corridor_gen": corridor_gen_ops,
    "pm_homology": pm_homology_ops,
    "analyze_reports": analyze_reports_ops,
}


def prepare(workload, golden, order, size, workdir):
    """Generate the inputs that batches on ``order`` read."""
    if workload == "analyze_reports":
        write_analyze_inputs(golden, order, size, workdir)


def batch(workload, golden, indices, size, workdir) -> list[Op]:
    """The operations of one batch, operation j on pool entry ``indices[j]``."""
    return BATCH_OPS[workload](golden, indices, size, workdir)
