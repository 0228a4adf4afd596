"""Experiment orchestration: seed grids, summaries, oracles, bounds."""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
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

CONFIGS = {"corridor": ProcessConfig, "pm": PmConfig}

SUMMARY_COLUMNS = [
    "mode",
    "n",
    "d",
    "seeds",
    "steps_mean",
    "steps_min",
    "steps_max",
    "first_order",
    "exact_bound",
    "ratio",
    "all_verified",
]


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
        if mode not in ("corridor", "pm"):
            raise InvalidParams(f"unknown experiment mode {mode!r}")
        try:
            if "seeds" in obj:
                seeds = _int_list(obj, "seeds")
            else:
                base = _int(obj.get("base_seed", 0), "base_seed")
                seeds = [base + k for k in range(_int(obj["runs"], "runs"))]
            spec = cls(
                mode=mode,
                n_list=_int_list(obj, "n"),
                d_list=_int_list(obj, "d"),
                seeds=seeds,
                record_every=_int(obj.get("record_every", 0), "record_every"),
                track_random=_int(obj.get("track_random", 10), "track_random"),
            )
        except KeyError as err:
            raise InvalidParams(f"experiment spec is missing {err}") from None
        if not seeds:
            raise InvalidParams("empty seed list")
        if len(set(seeds)) < len(seeds):
            raise InvalidParams(f"experiment spec seeds: {seeds} repeats a seed")
        return spec


def _int(x, key: str) -> int:
    # a JSON integer: a bool is not one, nor is a float or a string
    if type(x) is not int:
        raise InvalidParams(f"experiment spec {key}: {x!r} is not an integer")
    return x


def _int_list(obj: dict, key: str) -> list[int]:
    """obj[key] as a non-empty list of JSON integers."""
    xs = obj[key]
    if not isinstance(xs, list) or not xs:
        raise InvalidParams(f"experiment spec {key}: {xs!r} is not a non-empty list")
    return [_int(x, key) for x in xs]


def _task(args) -> tuple[int, str]:
    """(steps, report_json text) of one seeded run."""
    mode, n, d, seed, record_every, track_random = args
    cfg = CONFIGS[mode](
        n=n, d=d, seed=seed, record_every=record_every, track_random=track_random
    )
    try:
        report = pm_run(cfg) if mode == "pm" else run(cfg)
    except VerificationError as err:
        raise VerificationError(f"seed {seed}: {err}") from err
    return report.steps, report_json(report)


def first_order_steps(mode: str, n: int, d: int) -> float:
    return n**d / (CONFIGS[mode].spec.rate(d) * math.factorial(d))


def run_experiment(spec: ExperimentSpec, out_dir: str | Path) -> list[dict]:
    """Execute every grid point seed-parallel; write one canonical JSON
    report per run (the bytes of ``report_json``) and a summary CSV. Any
    run failing its verification invariants aborts with the offending
    seed in the message."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary: list[dict] = []
    workers = max_workers()
    for d in spec.d_list:
        for n in spec.n_list:
            jobs = [
                (spec.mode, n, d, seed, spec.record_every, spec.track_random)
                for seed in spec.seeds
            ]
            try:
                if workers > 1 and len(jobs) > 1:
                    with ProcessPoolExecutor(max_workers=workers) as pool:
                        results = list(pool.map(_task, jobs))
                else:
                    results = [_task(j) for j in jobs]
            except VerificationError as err:
                raise VerificationError(
                    f"verification failed in grid point n={n} d={d}: {err}"
                ) from err
            steps = [k for k, _ in results]
            for seed, (_, text) in zip(spec.seeds, results):
                (out / f"{spec.mode}_n{n}_d{d}_seed{seed}.json").write_text(text)
            exact = CONFIGS[spec.mode].spec.max_steps(n, d)
            mean = sum(steps) / len(steps)
            summary.append(
                {
                    "mode": spec.mode,
                    "n": n,
                    "d": d,
                    "seeds": len(spec.seeds),
                    "steps_mean": mean,
                    "steps_min": min(steps),
                    "steps_max": max(steps),
                    "first_order": first_order_steps(spec.mode, n, d),
                    "exact_bound": exact,
                    "ratio": mean / exact,
                    "all_verified": True,
                }
            )
    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
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
                    "hs_first_order": first_order_steps("corridor", n, d),
                    "hpm_exact": hpm_upper(n, d),
                    "hpm_first_order": 2
                    * n**d
                    / ((d + 1) * math.factorial(d + 1)),
                }
            )
    return rows
