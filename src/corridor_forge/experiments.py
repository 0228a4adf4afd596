"""Experiment orchestration: seed grids, summaries, oracles, bounds."""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .complexes import SimplicialComplex, f_vector, is_pseudomanifold
from .corridor import CORRIDOR, ProcessConfig, run
from .dual import (
    build_dual,
    diameter,
    is_connected,
    johnson_graph,
    longest_induced_path_bruteforce,
    vertex_connectivity,
)
from .errors import InvalidParams, RefusedSize, VerificationError
from .pm import PmConfig, hpm_upper, pm_run
from .serialize import report_json

THREADS_ENV = "CORRIDOR_FORGE_THREADS"

# mode -> (config class, runner). The runners look up `run` and `pm_run` in
# this module when called, so a wrapper set on either later (a profiler's, a
# test's) is the one that runs.
MODES = {
    "corridor": (ProcessConfig, lambda cfg: run(cfg)),
    "pm": (PmConfig, lambda cfg: pm_run(cfg)),
}


def max_workers() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise InvalidParams(
                f"{THREADS_ENV} must be an integer, got {raw!r}"
            ) from None
    return os.cpu_count() or 1


@dataclass
class ExperimentSpec:
    mode: str  # "corridor" | "pm"
    n_list: list[int]
    d_list: list[int]
    seeds: list[int]
    record_every: int = 0
    track_random: int = 10

    @classmethod
    def from_dict(cls, obj) -> "ExperimentSpec":
        if not isinstance(obj, dict):
            raise InvalidParams("experiment spec must be a JSON object")
        mode = obj.get("mode")
        if mode not in MODES:
            raise InvalidParams(f"unknown experiment mode {mode!r}")
        try:
            if "seeds" in obj:
                seeds = _int_list(obj, "seeds", "a seed")
            else:
                base = _int(obj.get("base_seed", 0), "base_seed")
                seeds = [base + k for k in range(_int(obj["runs"], "runs"))]
            spec = cls(
                mode=mode,
                n_list=_int_list(obj, "n", "an n"),
                d_list=_int_list(obj, "d", "a d"),
                seeds=seeds,
                record_every=_int(obj.get("record_every", 0), "record_every"),
                track_random=_int(obj.get("track_random", 10), "track_random"),
            )
        except KeyError as err:
            raise InvalidParams(f"experiment spec is missing {err}") from None
        if not seeds:
            raise InvalidParams("empty seed list")
        return spec


def _int(x, key: str) -> int:
    # a JSON integer: a bool is not one, nor is a float or a string
    if type(x) is not int:
        raise InvalidParams(f"experiment spec {key}: {x!r} is not an integer")
    return x


def _int_list(obj: dict, key: str, item: str) -> list[int]:
    """obj[key] as a non-empty list of distinct JSON integers."""
    xs = obj[key]
    if not isinstance(xs, list) or not xs:
        raise InvalidParams(f"experiment spec {key}: {xs!r} is not a non-empty list")
    xs = [_int(x, key) for x in xs]
    if len(set(xs)) < len(xs):
        raise InvalidParams(f"experiment spec {key}: {xs} repeats {item}")
    return xs


def _task(mode: str, cfg: ProcessConfig) -> tuple[ProcessConfig, int, str]:
    """(cfg, steps, report_json text) of one seeded run of a built config."""
    try:
        report = MODES[mode][1](cfg)
    except VerificationError as err:
        point = f"grid point n={cfg.n} d={cfg.d}: seed {cfg.seed}"
        raise VerificationError(f"verification failed in {point}: {err}") from err
    return cfg, report.steps, report_json(report)


def run_experiment(spec: ExperimentSpec, out_dir: str | Path) -> list[dict]:
    """Build and validate every grid config, then run them all, in a
    process pool of at most one worker per run, or in this process when one
    worker is allowed. Writes one canonical JSON report per run (the bytes
    of ``report_json``) as soon as the run ends, then a summary CSV in grid
    order. Any run failing its verification invariants aborts with the
    offending grid point and seed in the message."""
    config_cls, _ = MODES[spec.mode]
    points = [(n, d) for d in spec.d_list for n in spec.n_list]
    counts = {"record_every": spec.record_every, "track_random": spec.track_random}
    configs = [config_cls(n=n, d=d, seed=s, **counts) for n, d in points for s in spec.seeds]
    for cfg in configs:
        cfg.validate()
    workers = min(max_workers(), len(configs))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    steps: dict[tuple[int, int, int], int] = {}
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        task = partial(_task, spec.mode)
        jobs = [pool.submit(task, cfg) for cfg in configs] if pool else []
        try:
            results = (job.result() for job in as_completed(jobs)) if pool else map(task, configs)
            for cfg, k, text in results:
                (out / f"{spec.mode}_n{cfg.n}_d{cfg.d}_seed{cfg.seed}.json").write_text(text)
                steps[cfg.n, cfg.d, cfg.seed] = k
        finally:  # a failed run stops the grid: drop the jobs not yet started
            for job in jobs:
                job.cancel()
    summary: list[dict] = []
    for n, d in points:
        ks = [steps[n, d, seed] for seed in spec.seeds]
        exact = config_cls.spec.max_steps(n, d)
        mean = sum(ks) / len(ks)
        summary.append(
            {
                "mode": spec.mode,
                "n": n,
                "d": d,
                "seeds": len(spec.seeds),
                "steps_mean": mean,
                "steps_min": min(ks),
                "steps_max": max(ks),
                "first_order": config_cls.spec.first_order_steps(n, d),
                "exact_bound": exact,
                "ratio": mean / exact,
                "all_verified": True,
            }
        )
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(summary[0]))
        writer.writeheader()
        writer.writerows(summary)
    return summary


def analyze_complex(X: SimplicialComplex) -> dict:
    """Structural report on a JSON complex: dual-graph size, diameter,
    connectivity, f-vector and the pseudomanifold predicate."""
    d = X.dim
    g = build_dual(X, d)
    connected = is_connected(g)
    report = {
        "d": d,
        "n": X.n,
        "f_vector": f_vector(X),
        "nodes": g.num_nodes,
        "edges": g.num_edges,
        "strongly_connected": connected,
        "pseudomanifold": is_pseudomanifold(X, d),
        "diameter": diameter(g) if connected else None,
        "connectivity": vertex_connectivity(g) if g.num_nodes >= 2 else None,
    }
    return report


def johnson_oracle(n: int, d: int) -> int:
    """Exact longest induced path length in J(n, d+1) by brute force.

    This is the maximum corridor path length achievable on n vertices;
    guarded to C(n, d+1) <= 16 nodes.
    """
    if n < 1 or d < 0:
        raise InvalidParams(f"need n >= 1 and d >= 0, got n={n}, d={d}")
    if d + 1 > n:
        raise InvalidParams(f"need d + 1 <= n, got n={n}, d={d}")
    if math.comb(n, d + 1) > 16:
        raise RefusedSize(f"J({n},{d + 1}) has {math.comb(n, d + 1)} nodes")
    return longest_induced_path_bruteforce(johnson_graph(n, d + 1))


def bounds_table(n_list: list[int], d_list: list[int]) -> list[dict]:
    """Exact and first-order upper bounds for the two diameter maxima."""
    rows = []
    for d in d_list:
        for n in n_list:
            rows.append(
                {
                    "n": n,
                    "d": d,
                    "hs_exact": CORRIDOR.max_steps(n, d),
                    "hs_first_order": CORRIDOR.first_order_steps(n, d),
                    "hpm_exact": hpm_upper(n, d),
                    "hpm_first_order": 2
                    * n**d
                    / ((d + 1) * math.factorial(d + 1)),
                }
            )
    return rows
