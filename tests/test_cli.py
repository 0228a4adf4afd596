import csv
import gc
import json
import warnings

import pytest

from corridor_forge import cli, corridor
from corridor_forge.cli import main
from corridor_forge.complexes import boundary_corridor
from corridor_forge.errors import VerificationError
from corridor_forge.serialize import complex_from_dict, save_complex


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


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
        ],
        ids=["not-json", "missing-d", "run-report", "missing-path", "integral-float"],
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

    @pytest.mark.parametrize("command", ["generate-corridor", "generate-pm"])
    @pytest.mark.parametrize("flag", ["--out", "--traj-out"])
    def test_unwritable_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch, command, flag):
        def never(cfg):
            raise AssertionError("the process ran")

        monkeypatch.setattr(cli, "run", never)
        monkeypatch.setattr(cli, "pm_run", never)
        path = tmp_path / "missing" / "x"
        code, captured = _run(
            capsys,
            [command, "--n", "20", "--d", "2", "--seed", "1", "--record-every", "5", flag, str(path)],
        )
        assert code == 1
        assert captured.err.startswith(f"error: cannot write {path}")
        assert captured.err.count("\n") == 1

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
