"""Byte-stability guard: seeded outputs hash to digests recorded once.

The replay tests compare two runs inside one process; these compare the
bytes against values frozen from an earlier build, so a refactor that
changes a float's operand order, a record's timing or a serialized key
fails here.
"""

import hashlib

import pytest

from corridor_forge.corridor import ProcessConfig, run
from corridor_forge.experiments import ExperimentSpec, run_experiment
from corridor_forge.pm import PmConfig, pm_run
from corridor_forge.serialize import report_json, write_trajectory_csv


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (config, run function, trajectory CSV period, report digest, CSV digest)
RUNS = [
    (
        ProcessConfig(n=40, d=2, seed=7, record_every=10),
        run,
        7,
        "a3f560a7d684e6dfd6d9733ff73769efc82ad08d7af6d226f79f18b86e33da44",
        "138c6feafed4965b99c15f9cbb5d449fb5eff3d321a080cd279f794842eb7238",
    ),
    (
        ProcessConfig(n=20, d=3, seed=7, record_every=10),
        run,
        10,
        "113ab8a36e4a2c66c34ebe17ff9b01d251054ffd3eadfa5b2ddd2126d7000d70",
        "47d0f3a8c576197cf9eae1bf266d9fcefd23873aff32fe7323fe9faba0151ed6",
    ),
    (
        PmConfig(n=40, d=2, seed=7, record_every=10),
        pm_run,
        10,
        "351b03cd6f25260b597cee767cc2c8c087f65a9cb34e9ccbc7fa1d76fcb16d5d",
        "194caf8281724393803f3b32ec9844c51b79efc7039705bf5c10c4482e637ab5",
    ),
    (
        PmConfig(n=16, d=3, seed=7, record_every=10, allow_small_n=True),
        pm_run,
        13,
        "9e02ee60634f3ee02ed6c775d4d67f48365c87dea5393574c29a0fe952f8c71d",
        "143c41696ebf113472bf51b4495ad594d7ce2475903b46d52ad22ce62dffee49",
    ),
]


@pytest.mark.parametrize(
    "cfg, fn, period, report_digest, csv_digest",
    RUNS,
    ids=lambda v: f"{type(v).__name__}({v.n},{v.d})" if hasattr(v, "n") else "",
)
def test_report_and_trajectory_bytes(tmp_path, cfg, fn, period, report_digest, csv_digest):
    report = fn(cfg)
    assert sha256(report_json(report).encode()) == report_digest
    path = tmp_path / "traj.csv"
    assert cfg.spec.period(cfg.d) == period
    write_trajectory_csv(report.records, cfg, str(path))
    assert sha256(path.read_bytes()) == csv_digest


@pytest.mark.parametrize(
    "mode, digest",
    [
        ("corridor", "4b5c391534e8aec86e4d431f5a041912c390a8e40f9d5e1cbacbd9325b559478"),
        ("pm", "763b3abf24a10cdb6ef3b723ab8281a833459cbaf5886aeb93ea3fda1093d2ac"),
    ],
    ids=["corridor", "pm"],
)
def test_experiment_summary_bytes(tmp_path, monkeypatch, mode, digest):
    monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "1")
    spec = ExperimentSpec.from_dict(
        {"mode": mode, "n": [20], "d": [2], "seeds": [1, 2], "record_every": 5}
    )
    run_experiment(spec, tmp_path)
    assert sha256((tmp_path / "summary.csv").read_bytes()) == digest
