"""Record the golden values the benchmark checks every operation against.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/record_golden.py

It runs every pool seed at both sizes through the same operations and
observers as the benchmark and writes ``perfbench/golden.json``. The
pseudomanifold entries also store the dual's vertex connectivity, which the
diameter-sandwich check needs and the timed operations do not compute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import corridor_forge  # noqa: E402
from corridor_forge import cli, serialize  # noqa: E402
from corridor_forge.dual import build_dual, vertex_connectivity  # noqa: E402

import workloads as wl  # noqa: E402


def record_index(index: int) -> dict:
    out = {"corridor": {}, "pm": {}, "analyze": {}}
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        for size in ("full", "half"):
            for n, d, every in wl.SIZES["corridor_gen"][size]:
                path = os.path.join(work, "gen.json")
                argv = ["generate-corridor", "--n", str(n), "--d", str(d),
                        "--seed", str(index), "--out", path]
                if every:
                    argv += ["--record-every", str(every)]
                if cli.main(argv) != 0:
                    raise RuntimeError(f"generate-corridor {n}x{d} seed {index} failed")
                out["corridor"][f"{n}x{d}"] = wl.observe_generated(path, every)
            for n, d in wl.SIZES["pm_homology"][size]:
                report = corridor_forge.pm_run(corridor_forge.PmConfig(n=n, d=d, seed=index))
                kappa = vertex_connectivity(build_dual(report.image, d))
                entry = wl.observe_pm(report, kappa)
                entry["connectivity"] = kappa
                entry["betti"] = [
                    corridor_forge.reduced_betti(report.image, k) for k in range(d + 1)
                ]
                out["pm"][f"{n}x{d}"] = entry
            for kind, n, d in wl.SIZES["analyze_reports"][size]:
                image = wl.make_image(kind, n, d, index)
                path = wl.complex_path(work, kind, n, d, index)
                serialize.save_complex(image, path)
                result = os.path.join(work, "analysis.json")
                code = cli.main(["analyze", path, "--out", result])
                entry = wl.observe_analysis(code, result)
                entry["facets"] = wl.facet_digest(image.facets)
                out["analyze"][f"{kind} {n}x{d}"] = entry
    finally:
        shutil.rmtree(work)
    return out


def main():
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    golden = {"pool": wl.POOL, "corridor": {}, "pm": {}, "analyze": {}}
    for index in range(wl.POOL):
        for section, entries in record_index(index).items():
            for key, value in entries.items():
                golden[section].setdefault(key, {})[str(index)] = value
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
