import csv
import gc
import json
import shlex
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from corridor_forge import cli, corridor, experiments
from corridor_forge.cli import main
from corridor_forge.complexes import boundary_corridor, complex_from_facets
from corridor_forge.errors import VerificationError
from corridor_forge.experiments import ExperimentSpec, run_experiment
from corridor_forge.serialize import complex_from_dict, save_complex


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def _count_pools(monkeypatch) -> list[int]:
    """The worker count of every process pool run_experiment starts."""
    started = []

    class Pool(experiments.ProcessPoolExecutor):
        def __init__(self, workers):
            started.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", Pool)
    return started


class TestGenerate:
    def test_corridor_with_trajectory(self, tmp_path):
        out = tmp_path / "run.json"
        code = main(
            [
                "generate-corridor",
                "--n", "40", "--d", "2", "--seed", "1",
                "--record-every", "25",
                "--out", str(out),
            ]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["mode"] == "corridor"
        traj = tmp_path / "run.trajectory.csv"
        assert traj.exists()
        with open(traj, newline="") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "step" and "W_6" in header

    def test_pm(self, tmp_path):
        out = tmp_path / "pm.json"
        code = main(
            ["generate-pm", "--n", "40", "--d", "2", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["mode"] == "pm"
        assert obj["pseudomanifold"] is True

    def test_generate_runs_through_cli_run(self, tmp_path, monkeypatch):
        """perfbench/selftest.py wraps cli.run to tamper with generate output."""
        def bumped(mode, cfg):
            report = real(mode, cfg)
            report.steps += 1
            return report

        real = cli.run
        monkeypatch.setattr(cli, "run", bumped)
        for mode in experiments.MODES:
            out = tmp_path / f"{mode}.json"
            assert main([f"generate-{mode}", "--n", "20", "--d", "2", "--seed", "1", "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["steps"] == real(mode, experiments.MODES[mode][0](n=20, d=2, seed=1)).steps + 1

    @pytest.mark.parametrize("command", ["generate-corridor", "generate-pm"])
    def test_negative_counts_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "run.json"
        code, captured = _run(
            capsys,
            [
                command,
                "--n", "40", "--d", "2", "--seed", "0",
                "--record-every", "-5", "--track-random", "-3",
                "--out", str(out),
            ],
        )
        assert code == 1
        assert captured.err.startswith("error:")
        assert not out.exists()

    def test_invalid_params_exit_code(self, capsys):
        code, captured = _run(
            capsys, ["generate-corridor", "--n", "5", "--d", "2", "--seed", "0"]
        )
        assert code == 1
        assert "error:" in captured.err


class TestAnalyzeHomology:
    def test_analyze(self, tmp_path, capsys):
        path = tmp_path / "sphere.json"
        save_complex(boundary_corridor(2, 6), str(path))
        code, captured = _run(capsys, ["analyze", str(path)])
        assert code == 0
        obj = json.loads(captured.out)
        assert obj["diameter"] == 3
        assert obj["connectivity"] == 3
        assert obj["pseudomanifold"] is True
        assert obj["f_vector"] == [6, 12, 8]

    @pytest.mark.parametrize("facets,want", [
        # two disjoint triangles: a disconnected dual, kappa = 0
        ([[1, 2, 3], [4, 5, 6]], (False, None, 0)),
        # one facet: a single node, connected, with no kappa
        ([[1, 2, 3]], (True, 0, None)),
    ])
    def test_analyze_connectivity_extremes(self, tmp_path, capsys, facets, want):
        path = tmp_path / "complex.json"
        save_complex(complex_from_facets(facets), str(path))
        code, captured = _run(capsys, ["analyze", str(path)])
        assert code == 0
        obj = json.loads(captured.out)
        assert (obj["strongly_connected"], obj["diameter"], obj["connectivity"]) == want

    def test_analyze_non_pure_complex(self, tmp_path, capsys):
        # an edge and a triangle: the dual on the triangle alone is one node,
        # but strong connectivity is defined for pure complexes only
        path = tmp_path / "complex.json"
        save_complex(complex_from_facets([[1, 1000000], [2, 3, 4]]), str(path))
        code, captured = _run(capsys, ["analyze", str(path)])
        assert code == 0
        obj = json.loads(captured.out)
        assert (obj["strongly_connected"], obj["diameter"], obj["connectivity"]) == (None, None, None)
        assert obj["pseudomanifold"] is False

    def test_homology(self, tmp_path, capsys):
        path = tmp_path / "sphere.json"
        save_complex(boundary_corridor(2, 6), str(path))
        code, captured = _run(capsys, ["homology", str(path)])
        assert code == 0
        assert json.loads(captured.out)["betti"] == [0, 0, 1]

    @pytest.mark.parametrize("command", ["analyze", "homology"])
    @pytest.mark.parametrize("process", ["generate-corridor", "generate-pm"])
    def test_run_report_input(self, tmp_path, capsys, command, process):
        report, image = tmp_path / "run.json", tmp_path / "image.json"
        assert main([process, "--n", "20", "--d", "2", "--seed", "1", "--out", str(report)]) == 0
        save_complex(complex_from_dict(json.loads(report.read_text())["image"]), str(image))
        from_report = _run(capsys, [command, str(report)])
        from_image = _run(capsys, [command, str(image)])
        assert from_report == from_image
        assert from_report[0] == 0 and from_report[1].out


class TestBoundsOracle:
    def test_bounds_json(self, capsys):
        code, captured = _run(capsys, ["bounds", "--n", "10", "20", "--d", "2"])
        assert code == 0
        rows = json.loads(captured.out)
        assert len(rows) == 2
        assert rows[0]["hs_exact"] == 21.0

    def test_bounds_csv_out_closes_file(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code, _ = _run(
                capsys,
                ["bounds", "--n", "10", "--d", "2", "--format", "csv", "--out", str(out)],
            )
            gc.collect()
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert out.read_text().startswith("n,d,hs_exact")

    def test_bounds_csv(self, capsys):
        code, captured = _run(
            capsys, ["bounds", "--n", "10", "--d", "2", "--format", "csv"]
        )
        assert code == 0
        assert captured.out.splitlines()[0].startswith("n,d,hs_exact")

    def test_johnson_oracle(self, capsys):
        code, captured = _run(capsys, ["johnson-oracle", "--n", "5", "--d", "2"])
        assert code == 0
        assert json.loads(captured.out)["longest_induced_path"] == 3

    def test_johnson_oracle_refused(self, capsys):
        code, captured = _run(capsys, ["johnson-oracle", "--n", "8", "--d", "2"])
        assert code == 1


class TestExperiment:
    def test_tiny_grid(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "1")
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"mode": "corridor", "n": [30], "d": [2], "seeds": [1, 2]})
        )
        out_dir = tmp_path / "runs"
        code, captured = _run(
            capsys, ["experiment", "--spec", str(spec), "--out-dir", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "corridor_n30_d2_seed1.json").exists()
        assert (out_dir / "corridor_n30_d2_seed2.json").exists()
        with open(out_dir / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["ratio"]) <= 1.0

    def test_reports_are_canonical_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "1")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "corridor", "n": [20], "d": [2], "seeds": [1]}))
        out_dir, single = tmp_path / "runs", tmp_path / "run.json"
        assert main(["experiment", "--spec", str(spec), "--out-dir", str(out_dir)]) == 0
        argv = ["generate-corridor", "--n", "20", "--d", "2", "--seed", "1"]
        assert main(argv + ["--out", str(single)]) == 0
        assert (out_dir / "corridor_n20_d2_seed1.json").read_bytes() == single.read_bytes()

    @pytest.mark.parametrize("mode", ["corridor", "pm"])
    def test_base_seed_and_runs_name_the_seeds(self, tmp_path, monkeypatch, mode):
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "1")
        grid = {"mode": mode, "n": [20], "d": [2]}
        outputs = []
        for k, seeds in enumerate([{"base_seed": 3, "runs": 2}, {"seeds": [3, 4]}]):
            spec, out_dir = tmp_path / f"spec{k}.json", tmp_path / f"runs{k}"
            spec.write_text(json.dumps({**grid, **seeds}))
            assert main(["experiment", "--spec", str(spec), "--out-dir", str(out_dir)]) == 0
            outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert sorted(outputs[0]) == [
            f"{mode}_n20_d2_seed3.json", f"{mode}_n20_d2_seed4.json", "summary.csv"
        ]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("mode", ["corridor", "pm"])
    def test_pool_writes_the_serial_bytes(self, tmp_path, monkeypatch, mode):
        started = _count_pools(monkeypatch)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": mode, "n": [24, 20], "d": [2], "seeds": [1, 2]}))
        outputs = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("CORRIDOR_FORGE_THREADS", threads)
            out_dir = tmp_path / f"runs{threads}"
            assert main(["experiment", "--spec", str(spec), "--out-dir", str(out_dir)]) == 0
            outputs[threads] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert started == [2]
        assert len(outputs["1"]) == 5 and "summary.csv" in outputs["1"]
        assert outputs["2"] == outputs["1"]

    def test_report_written_when_its_run_ends(self, tmp_path, monkeypatch):
        """A later grid point's report is on disk while an earlier, slower
        run is still going (threads stand in for the pool's processes)."""
        def slow_head(cfg):
            deadline = time.monotonic() + 10
            while cfg.n == 24 and not tail.exists():
                assert time.monotonic() < deadline, "the n=20 report waited for the n=24 run"
                time.sleep(0.01)
            return real(cfg)

        real, tail = experiments.run, tmp_path / "corridor_n20_d2_seed1.json"
        monkeypatch.setattr(experiments, "run", slow_head)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "2")
        spec = ExperimentSpec.from_dict({"mode": "corridor", "n": [24, 20], "d": [2], "seeds": [1]})
        assert [row["n"] for row in run_experiment(spec, tmp_path)] == [24, 20]

    def test_failed_run_cancels_the_jobs_not_started(self, tmp_path, monkeypatch):
        def first_fails(cfg):
            ran.append(cfg.n)
            if cfg.n == 20:
                raise VerificationError("forced failure")
            time.sleep(0.5)

        ran = []
        monkeypatch.setattr(experiments, "run", first_fails)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", lambda workers: ThreadPoolExecutor(1))
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "2")
        spec = ExperimentSpec.from_dict({"mode": "corridor", "n": [20, 24, 28], "d": [2], "seeds": [1]})
        with pytest.raises(VerificationError, match="n=20 d=2: seed 1"):
            run_experiment(spec, tmp_path)
        assert 28 not in ran

    def test_pool_capped_at_job_count(self, tmp_path, monkeypatch):
        started = _count_pools(monkeypatch)
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "64")
        spec = ExperimentSpec.from_dict({"mode": "pm", "n": [20], "d": [2], "seeds": [1, 2]})
        run_experiment(spec, tmp_path)
        assert started == [2]

    def test_one_job_starts_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "2")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"mode": "corridor", "n": [20], "d": [2], "seeds": [1]}))
        out_dir = tmp_path / "runs"
        assert main(["experiment", "--spec", str(spec), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "corridor_n20_d2_seed1.json").exists()


class TestFrontDoor:
    """Bad input prints one error line and exits 1, never a traceback."""

    def _experiment(self, tmp_path, capsys, spec_text):
        spec = tmp_path / "spec.json"
        spec.write_text(spec_text)
        return _run(
            capsys,
            ["experiment", "--spec", str(spec), "--out-dir", str(tmp_path / "runs")],
        )

    @pytest.mark.parametrize(
        "spec, missing",
        [
            ({"mode": "corridor", "d": [2], "seeds": [1]}, "'n'"),
            ({"mode": "pm", "n": [30], "seeds": [1]}, "'d'"),
            ({"mode": "corridor", "n": [30], "d": [2]}, "'runs'"),
        ],
    )
    def test_spec_missing_key(self, tmp_path, capsys, spec, missing):
        code, captured = self._experiment(tmp_path, capsys, json.dumps(spec))
        assert code == 1
        assert captured.err.startswith("error:") and missing in captured.err

    def test_spec_missing_file(self, tmp_path, capsys):
        code, captured = _run(
            capsys,
            ["experiment", "--spec", str(tmp_path / "missing.json"),
             "--out-dir", str(tmp_path / "runs")],
        )
        assert code == 1
        assert captured.err.startswith("error: cannot read") and "missing.json" in captured.err

    @pytest.mark.parametrize("command", ["analyze", "homology"])
    @pytest.mark.parametrize(
        "content, message",
        [
            ("not json at all", "not valid JSON"),
            ('{"n": 5, "facets": [[1, 2, 3]]}', "'d' is a required property"),
            (  # a run report without its image
                '{"mode": "corridor", "config": {}, "steps": 2, "termination": "exhausted"}',
                "not a run report: 'image' is a required property",
            ),
            ("", "cannot read"),  # no file at the path
            ('{"n": 3.0, "d": 2, "facets": [[1.0, 2, 3]]}', "n: 3.0 is not of type 'integer'"),
            (
                '{"n": 5, "d": 2, "facets": [[1, 1, 2], [2, 3, 4]]}',
                "input.json is not a complex object: repeated vertex in [1, 1, 2]",
            ),
        ],
        ids=[
            "not-json", "missing-d", "run-report", "missing-path", "integral-float",
            "repeated-vertex",
        ],
    )
    def test_bad_complex_file(self, tmp_path, capsys, command, content, message):
        path = tmp_path / "input.json"
        if content:
            path.write_text(content)
        code, captured = _run(capsys, [command, str(path)])
        assert code == 1
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_bounds_dimension_below_one(self, capsys, d):
        code, captured = _run(capsys, ["bounds", "--n", "10", "--d", d])
        assert code == 1
        assert captured.err.startswith("error:") and f"d={d}" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("n, d", [("5", "-2"), ("-1", "2"), ("2", "3")])
    def test_johnson_oracle_negative(self, capsys, n, d):
        code, captured = _run(capsys, ["johnson-oracle", "--n", n, "--d", d])
        assert code == 1
        assert captured.err.startswith("error:") and f"n={n}, d={d}" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            "generate-corridor --n 20 --d 2 --seed 1 --out {missing}/run.json",
            "generate-corridor --n 20 --d 2 --seed 1 --record-every 5 --traj-out {missing}/t.csv",
            "analyze {sphere} --out {missing}/a.json",
            "bounds --n 10 --d 2 --format csv --out {missing}/b.csv",
            "experiment --spec {spec} --out-dir {sphere}/runs",
        ],
        ids=["out", "traj-out", "analyze-out", "bounds-csv-out", "out-dir-under-file"],
    )
    def test_unwritable_output_path(self, tmp_path, capsys, argv):
        sphere, spec = tmp_path / "sphere.json", tmp_path / "spec.json"
        save_complex(boundary_corridor(2, 6), str(sphere))
        spec.write_text(json.dumps({"mode": "corridor", "n": [20], "d": [2], "seeds": [1]}))
        paths = {"missing": tmp_path / "missing", "sphere": sphere, "spec": spec}
        code, captured = _run(capsys, [arg.format(**paths) for arg in argv.split()])
        assert code == 1
        assert captured.err.startswith("error:") and str(tmp_path) in captured.err
        assert captured.err.count("\n") == 1

    def test_traj_out_same_as_out_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "run.json"
        code, captured = _run(
            capsys,
            [
                "generate-corridor", "--n", "20", "--d", "2", "--seed", "1",
                "--record-every", "5", "--out", "run.json", "--traj-out", str(out),
            ],
        )
        assert code == 1
        assert captured.err.startswith("error: --traj-out") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_traj_out_without_record_every_rejected(self, tmp_path, capsys):
        traj = tmp_path / "t.csv"
        code, captured = _run(
            capsys,
            ["generate-corridor", "--n", "20", "--d", "2", "--seed", "1", "--traj-out", str(traj)],
        )
        assert code == 1
        assert captured.err.startswith("error: --traj-out needs --record-every")
        assert captured.out == "" and not traj.exists()

    @pytest.mark.parametrize("command", ["generate-corridor", "generate-pm"])
    @pytest.mark.parametrize("flag", ["--out", "--traj-out"])
    def test_unwritable_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch, command, flag):
        def never(cfg):
            raise AssertionError("the process ran")

        monkeypatch.setattr(experiments, "run", never)
        monkeypatch.setattr(experiments, "pm_run", never)
        path = tmp_path / "missing" / "x"
        code, captured = _run(
            capsys,
            [command, "--n", "20", "--d", "2", "--seed", "1", "--record-every", "5", flag, str(path)],
        )
        assert code == 1
        assert captured.err.startswith(f"error: cannot write {path}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n": "60"}, "n: '60' is not a non-empty list"),
            ({"seeds": 1}, "seeds: 1 is not a non-empty list"),
            ({"n": [30.9]}, "n: 30.9 is not an integer"),
            ({"d": [True]}, "d: True is not an integer"),
            ({"record_every": 2.0}, "record_every: 2.0 is not an integer"),
            ({"n": []}, "n: [] is not a non-empty list"),
            ({"d": []}, "d: [] is not a non-empty list"),
            ({"seeds": [1, 1]}, "seeds: [1, 1] repeats a seed"),
            ({"n": [30, 30]}, "n: [30, 30] repeats an n"),
            ({"d": [2, 2]}, "d: [2, 2] repeats a d"),
            ({"recrod_every": 5}, "has unknown key 'recrod_every'"),
            ({"steps": 9, "Mode": "pm"}, "has unknown key 'Mode'"),
            ({"runs": "x", "base_seed": None}, "takes seeds or base_seed + runs, not both"),
            ({"base_seed": 0}, "takes seeds or base_seed + runs, not both"),
            ({"runs": 2}, "takes seeds or base_seed + runs, not both"),
        ],
        ids=[
            "n-string", "seeds-scalar", "n-float", "d-bool", "record-every-float",
            "n-empty", "d-empty", "seeds-repeated", "n-repeated", "d-repeated",
            "unknown-key", "unknown-keys", "seeds-with-bad-runs", "seeds-with-base-seed",
            "seeds-with-runs",
        ],
    )
    def test_spec_bad_value(self, tmp_path, capsys, fields, message):
        spec = {"mode": "corridor", "n": [30], "d": [2], "seeds": [1], **fields}
        code, captured = self._experiment(tmp_path, capsys, json.dumps(spec))
        assert code == 1
        assert captured.err == f"error: experiment spec {message}\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bad_grid_point_fails_before_any_run(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", threads)
        calls = []
        monkeypatch.setattr(experiments, "run", calls.append)
        spec = {"mode": "corridor", "n": [300, 5], "d": [2], "seeds": [1, 2]}
        code, captured = self._experiment(tmp_path, capsys, json.dumps(spec))
        assert code == 1
        assert captured.err == "error: need n >= 10, got n=5\n"
        assert calls == []
        assert not (tmp_path / "runs").exists()

    def test_spec_not_json(self, tmp_path, capsys):
        code, captured = self._experiment(tmp_path, capsys, "{mode: corridor")
        assert code == 1
        assert captured.err.startswith("error:") and "not valid JSON" in captured.err

    def test_spec_negative_count(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "1")
        spec = {"mode": "corridor", "n": [30], "d": [2], "seeds": [1], "record_every": -1}
        code, captured = self._experiment(tmp_path, capsys, json.dumps(spec))
        assert code == 1
        assert captured.err.startswith("error:") and ">= 0" in captured.err

    def test_threads_not_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "abc")
        spec = {"mode": "corridor", "n": [30], "d": [2], "seeds": [1, 2]}
        code, captured = self._experiment(tmp_path, capsys, json.dumps(spec))
        assert code == 1
        assert captured.err.startswith("error:") and "CORRIDOR_FORGE_THREADS" in captured.err

    def test_verification_error_names_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "1")

        def fail(*args):
            raise VerificationError("forced failure")

        monkeypatch.setattr(corridor, "verify_run", fail)
        spec = {"mode": "corridor", "n": [30], "d": [2], "seeds": [4]}
        code, captured = self._experiment(tmp_path, capsys, json.dumps(spec))
        assert code == 1
        assert "n=30 d=2" in captured.err
        assert "seed 4" in captured.err and "forced failure" in captured.err


def _readme_commands() -> list[str]:
    """The `corridor-forge ...` lines of README's CLI block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("corridor-forge ")]


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("command", README_COMMANDS, ids=[c.split()[1] for c in README_COMMANDS])
def test_readme_cli_command_parses(command):
    argv = shlex.split(command, comments=True)
    cli.build_parser().parse_args(argv[1:])


def test_readme_lists_every_command():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    listed = {c.split()[1] for c in README_COMMANDS}
    assert listed == set(sub.choices)
