import csv
import dataclasses
import json

import jsonschema
import pytest

from corridor_forge.complexes import SimplicialComplex, boundary_corridor, straight_corridor
from corridor_forge.corridor import ProcessConfig, run
from corridor_forge.errors import InvalidParams
from corridor_forge.pm import PmConfig, pm_run
from corridor_forge.serialize import (
    complex_from_dict,
    complex_to_dict,
    csv_columns,
    load_complex,
    report_json,
    report_to_dict,
    save_complex,
    write_trajectory_csv,
)


class TestComplexRoundTrip:
    def test_round_trip(self):
        for X in [straight_corridor(2, 8), boundary_corridor(3, 9)]:
            assert complex_from_dict(complex_to_dict(X)) == X

    def test_file_round_trip(self, tmp_path):
        X = boundary_corridor(2, 7)
        path = tmp_path / "x.json"
        save_complex(X, str(path))
        assert load_complex(str(path)) == X

    def test_schema_rejects_missing_field(self):
        with pytest.raises(jsonschema.ValidationError):
            complex_from_dict({"n": 5, "facets": [[1, 2, 3]]})

    def test_schema_rejects_bad_vertex(self):
        with pytest.raises(jsonschema.ValidationError):
            complex_from_dict({"n": 5, "d": 2, "facets": [[0, 1, 2]]})

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParams):
            complex_from_dict({"n": 5, "d": 3, "facets": [[1, 2, 3]]})


class TestReportJson:
    def test_corridor_replay_byte_identical(self):
        cfg = ProcessConfig(n=40, d=2, seed=3, record_every=25)
        assert report_json(run(cfg)) == report_json(run(cfg))

    def test_pm_replay_byte_identical(self):
        cfg = PmConfig(n=40, d=2, seed=3, compute_diameter=False)
        assert report_json(pm_run(cfg)) == report_json(pm_run(cfg))

    def test_parses_and_has_mode(self):
        obj = json.loads(report_json(run(ProcessConfig(n=30, d=2, seed=1))))
        assert obj["mode"] == "corridor"
        assert obj["steps"] == len(obj["image"]["facets"]) - 1

    def test_nonfinite_band_is_null(self):
        # the rigorous band overflows to inf late in the run
        cfg = ProcessConfig(n=30, d=2, seed=1, record_every=20)
        obj = json.loads(report_json(run(cfg)))
        last = obj["trajectory"][-1]
        for entry in last["entries"].values():
            assert entry["band"] is None or entry["band"] > 0


class TestValidation:
    """Each report is validated once, as a whole, against REPORT_SCHEMA."""

    @pytest.mark.parametrize("serializer", [report_json, report_to_dict])
    def test_one_validation_per_report(self, monkeypatch, serializer):
        calls = []
        real = jsonschema.validate

        def counting(instance, schema, *args, **kwargs):
            calls.append(schema)
            return real(instance, schema, *args, **kwargs)

        monkeypatch.setattr(jsonschema, "validate", counting)
        serializer(run(ProcessConfig(n=30, d=2, seed=1)))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "facets", [{(0, 1, 2), (1, 2, 3)}, {(1, 2, 3), ()}], ids=["vertex-0", "empty-facet"]
    )
    def test_bad_image_rejected(self, tmp_path, facets):
        bad = SimplicialComplex(n=5, facets=frozenset(facets))
        report = dataclasses.replace(run(ProcessConfig(n=30, d=2, seed=1)), image=bad)
        with pytest.raises(jsonschema.ValidationError):
            report_json(report)
        with pytest.raises(jsonschema.ValidationError):
            report_to_dict(report)
        with pytest.raises(jsonschema.ValidationError):
            save_complex(bad, str(tmp_path / "bad.json"))


class TestTrajectoryCsv:
    def test_columns(self):
        cols = csv_columns(7)
        assert cols[:8] == ["step", "t", "p", "A_id", "size_A", "Y_obs", "Y_pred", "band"]
        assert cols[8:15] == [f"W_{j}" for j in range(7)]
        assert cols[15:] == [f"Z_{j}" for j in range(7)]

    def test_row_counts(self, tmp_path):
        cfg = ProcessConfig(n=40, d=2, seed=3, record_every=25, track_random=2)
        report = run(cfg)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(report.records, cfg, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert header == csv_columns(7)
        # one terminal row plus one row per tracked complex, per record
        per_record = 1 + len(report.records[0].entries)
        assert len(body) == per_record * len(report.records)
        terminal = [r for r in body if r[3] == "terminal"]
        assert len(terminal) == len(report.records)
        assert all(r[8] == "" for r in terminal)  # W columns empty

    def test_pm_terminal_row_follows_the_window_faces(self, tmp_path):
        # the candidate count is blocked by the window's C(w, d-1) = 3
        # faces, so it follows n p^3, not n p^d
        cfg = PmConfig(
            n=200, d=2, seed=1, record_every=1000, track_random=0,
            track_link=False, compute_diameter=False,
        )
        report = pm_run(cfg)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(report.records, cfg, str(path))
        with open(path, newline="") as fh:
            terminal = {int(r[0]): r for r in csv.reader(fh) if r[3] == "terminal"}
        assert {r[4] for r in terminal.values()} == {"3"}
        row = terminal[2000]
        assert int(row[5]) == 65
        assert float(row[6]) == pytest.approx(200 * float(row[2]) ** 3)
        assert float(row[6]) == pytest.approx(68.6, abs=0.05)
