"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with plain pytest; the summary lines print through the capture so the
log shows every criterion verdict.
"""

import time
from contextlib import contextmanager

from corridor_forge.complexes import boundary_corridor, f_vector, k_faces
from corridor_forge.corridor import CORRIDOR, ProcessConfig, run
from corridor_forge.dual import (
    build_dual,
    caccetta_smyth_bound,
    diameter,
    is_induced_path,
    vertex_connectivity,
)
from corridor_forge.experiments import johnson_oracle
from corridor_forge.gf2 import reduced_betti
from corridor_forge.pm import PmConfig, pm_diameter_lower, pm_run
from corridor_forge.serialize import report_json
from util import (
    boundary_squares_to_zero,
    corridor_face_count,
    random_small_complex,
    straight_corridor,
    tightness_example,
)
import random

# frozen regression values
GOLDEN_MEAN_STEPS_D2_N100 = 1936.9  # seeds 0..19
GOLDEN_J53_INDUCED_PATH = 3


@contextmanager
def verdict(capsys, num, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {label}: PASS")


def test_01_face_count_oracle(capsys):
    with verdict(capsys, 1, "face-count oracle"):
        for D in range(1, 5):
            for N in range(D + 1, 13):
                X = straight_corridor(D, N)
                for k in range(1, D + 1):
                    assert corridor_face_count(D, N, k) == len(k_faces(X, D - k))
                assert corridor_face_count(D, N, D + 1) == 1  # the empty face


def test_02_corridor_structural_validity(capsys):
    with verdict(capsys, 2, "corridor structural validity"):
        for d in (2, 3):
            for n in (30, 60):
                for seed in range(10):
                    report = run(ProcessConfig(n=n, d=d, seed=seed))
                    dual = build_dual(report.image, d)
                    assert is_induced_path(dual)
                    assert dual.num_nodes == report.steps + 1
                    assert report.steps <= CORRIDOR.max_steps(n, d)


def test_03_corridor_length_statistics(capsys):
    with verdict(capsys, 3, "corridor length statistics"):
        steps = [run(ProcessConfig(n=100, d=2, seed=s)).steps for s in range(20)]
        mean = sum(steps) / len(steps)
        assert mean >= 0.18 * 100**2
        assert abs(mean - GOLDEN_MEAN_STEPS_D2_N100) <= 0.02 * GOLDEN_MEAN_STEPS_D2_N100


def test_04_trajectory_concentration(capsys):
    with verdict(capsys, 4, "trajectory concentration"):
        n = 200
        deviations = {}  # step -> list over seeds
        for seed in range(10):
            cfg = ProcessConfig(
                n=n,
                d=2,
                seed=seed,
                record_every=50,
                track_random=0,
                track_link=False,
                track=(("edge", ((1,), (2,))),),
            )
            report = run(cfg)
            for rec in report.records:
                e = rec.entries["edge"]
                # exact bookkeeping identity at every recorded step
                assert e.y + 2 + sum(e.w) == n
                pred = n * rec.p**2
                if pred >= 50:
                    deviations.setdefault(rec.step, []).append(
                        abs(e.y - pred) / pred
                    )
        for step, devs in deviations.items():
            assert sum(devs) / len(devs) <= 0.35, f"step {step}"


def test_05_pseudomanifold_validity(capsys):
    with verdict(capsys, 5, "pseudomanifold validity"):
        for seed in range(10):
            report = pm_run(PmConfig(n=60, d=2, seed=seed))
            assert report.pseudomanifold
            fv = f_vector(report.image)
            assert 2 * fv[1] == 3 * fv[2]
            dual = build_dual(report.image, 2)
            assert vertex_connectivity(dual) == 3
            lower = pm_diameter_lower(report.mapped_vertices, 2)
            upper = caccetta_smyth_bound(fv[2], 3)
            assert lower <= report.dual_diameter <= upper


def test_06_sphere_golden_values(capsys):
    with verdict(capsys, 6, "boundary-corridor golden values"):
        X = boundary_corridor(2, 6)
        assert len(X.facets) == 8
        assert len(k_faces(X, 1)) == 12
        g = build_dual(X, 2)
        assert diameter(g) == 3
        assert vertex_connectivity(g) == 3
        assert reduced_betti(X, 2) == 1
        assert reduced_betti(X, 1) == 0


def test_07_homology_lemma_fuzz(capsys):
    with verdict(capsys, 7, "few-facet homology fuzz"):
        rng = random.Random(2024)
        for d in (2, 3, 4):
            for _ in range(500):
                X = random_small_complex(rng, d)
                assert reduced_betti(X, d - 1) == 0
                assert boundary_squares_to_zero(X)
        for d in (2, 3):
            assert reduced_betti(tightness_example(d), d - 1) >= 1


def test_08_johnson_oracle_consistency(capsys):
    with verdict(capsys, 8, "Johnson oracle consistency"):
        assert johnson_oracle(4, 2) == 1
        assert johnson_oracle(5, 2) == GOLDEN_J53_INDUCED_PATH
        for seed in range(50):
            report = run(ProcessConfig(n=5, d=2, seed=seed, allow_small_n=True))
            assert report.steps <= GOLDEN_J53_INDUCED_PATH


def test_09_determinism(capsys):
    with verdict(capsys, 9, "replay determinism"):
        cfg = ProcessConfig(n=60, d=2, seed=17, record_every=100)
        assert report_json(run(cfg)) == report_json(run(cfg))
        pcfg = PmConfig(n=60, d=2, seed=17, record_every=100)
        assert report_json(pm_run(pcfg)) == report_json(pm_run(pcfg))


def test_10_performance_envelope(capsys):
    with verdict(capsys, 10, "performance envelope"):
        start = time.perf_counter()
        report = run(ProcessConfig(n=200, d=2, seed=0))
        elapsed = time.perf_counter() - start
        assert report.steps > 5000
        assert elapsed < 10.0, f"run took {elapsed:.2f}s"
