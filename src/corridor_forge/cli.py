"""Command-line front door.

Subcommands: generate-corridor, generate-pm, analyze, homology, bounds,
johnson-oracle, experiment. Exit code 0 iff every verification passed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import experiments, serialize
from .errors import CorridorForgeError, InvalidParams
from .gf2 import betti_numbers


def _write_text(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_json(obj, out: str | None):
    _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", out)


def run(mode: str, cfg):
    """The report of one run of a built ``mode`` config."""
    # generate-* call it by this name, so perfbench/selftest.py can wrap it
    return experiments.MODES[mode][1](cfg)


def _cmd_generate(args) -> int:
    config_cls, _ = experiments.MODES[args.mode]
    cfg = config_cls(
        n=args.n,
        d=args.d,
        seed=args.seed,
        record_every=args.record_every,
        track_random=args.track_random,
    )
    traj = args.traj_out
    if traj and args.record_every <= 0:
        raise InvalidParams("--traj-out needs --record-every > 0")
    if args.out and args.record_every > 0:
        traj = traj or str(Path(args.out).with_suffix(".trajectory.csv"))
        if Path(traj).resolve() == Path(args.out).resolve():
            raise InvalidParams(f"--traj-out {traj} is also the --out report")
    for path in (args.out, traj):
        if path:
            _require_writable_parent(path)
    report = run(args.mode, cfg)
    _write_text(serialize.report_json(report), args.out)
    if traj:
        serialize.write_trajectory_csv(report.records, cfg, traj)
    return 0


def _require_writable_parent(path: str):
    """Fail before a long run, not after it, when path cannot be created."""
    parent = Path(path).parent
    if not (parent.is_dir() and os.access(parent, os.W_OK)):
        raise InvalidParams(f"cannot write {path}: {parent} is not a writable directory")


def _cmd_analyze(args) -> int:
    X = serialize.load_complex(args.input)
    _write_json(experiments.analyze_complex(X), args.out)
    return 0


def _cmd_homology(args) -> int:
    X = serialize.load_complex(args.input)
    _write_json({"betti": betti_numbers(X)}, args.out)
    return 0


def _cmd_bounds(args) -> int:
    rows = experiments.bounds_table(args.n, args.d)
    if args.format == "csv":
        sink = open(args.out, "w", newline="") if args.out else nullcontext(sys.stdout)
        with sink as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    else:
        _write_json(rows, args.out)
    return 0


def _cmd_johnson_oracle(args) -> int:
    value = experiments.johnson_oracle(args.n, args.d)
    _write_json({"n": args.n, "d": args.d, "longest_induced_path": value}, args.out)
    return 0


def _cmd_experiment(args) -> int:
    spec = experiments.ExperimentSpec.from_dict(serialize.read_json(args.spec))
    summary = experiments.run_experiment(spec, args.out_dir)
    _write_json(summary, None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corridor-forge",
        description="High-diameter simplicial complexes via randomized "
        "corridor mapping, with structural verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for mode in experiments.MODES:
        p = sub.add_parser(f"generate-{mode}", help=f"run the {mode} process")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--record-every", type=int, default=0)
        p.add_argument("--track-random", type=int, default=10)
        p.add_argument("--out", default=None)
        p.add_argument("--traj-out", default=None)
        p.set_defaults(func=_cmd_generate, mode=mode)

    p = sub.add_parser("analyze", help="diameter/connectivity/f-vector report")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("homology", help="reduced GF(2) Betti numbers")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("bounds", help="exact and first-order diameter bounds")
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--d", type=int, nargs="+", required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("johnson-oracle", help="brute-force longest induced path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_johnson_oracle)

    p = sub.add_parser("experiment", help="grid-file driven experiment run")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CorridorForgeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
