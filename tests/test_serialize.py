import csv
import dataclasses
import json
import math

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor_forge import serialize
from corridor_forge.complexes import SimplicialComplex, boundary_corridor
from corridor_forge.corridor import ProcessConfig, TrajectoryEntry, TrajectoryRecord, run
from corridor_forge.errors import InvalidParams
from corridor_forge.pm import PmConfig, pm_run
from corridor_forge.serialize import (
    COMPLEX_SCHEMA,
    REPORT_SCHEMA,
    check_complex,
    check_report,
    complex_from_dict,
    complex_to_dict,
    csv_columns,
    load_complex,
    report_json,
    save_complex,
    write_trajectory_csv,
)
from util import (
    oracle_check_complex,
    oracle_report_json,
    oracle_write_trajectory_csv,
    report_to_dict,
    straight_corridor,
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
        with pytest.raises(InvalidParams, match="'d' is a required property"):
            complex_from_dict({"n": 5, "facets": [[1, 2, 3]]})

    def test_schema_rejects_bad_vertex(self):
        with pytest.raises(InvalidParams, match=r"facets\[0\]\[0\]: 0 is less than the minimum of 1"):
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

    def test_bare_pm_run_is_labelled_pm(self):
        obj = json.loads(report_json(run(PmConfig(n=40, d=2, seed=1))))
        assert obj["mode"] == "pm"
        assert set(obj) == {
            "config", "steps", "first_low_step", "first_band_exit",
            "termination", "image", "trajectory", "mode",
        }

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
        real = serialize.check_report

        def counting(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(serialize, "check_report", counting)
        serializer(run(ProcessConfig(n=30, d=2, seed=1)))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "facets", [{(0, 1, 2), (1, 2, 3)}, {(1, 2, 3), ()}], ids=["vertex-0", "empty-facet"]
    )
    def test_bad_image_rejected(self, tmp_path, facets):
        bad = SimplicialComplex(n=5, facets=frozenset(facets))
        report = dataclasses.replace(run(ProcessConfig(n=30, d=2, seed=1)), image=bad)
        with pytest.raises(InvalidParams):
            report_json(report)
        with pytest.raises(InvalidParams):
            report_to_dict(report)
        with pytest.raises(InvalidParams):
            save_complex(bad, str(tmp_path / "bad.json"))


# jsonschema with "integer" meaning a Python int, so that neither a bool nor
# an integral float such as 3.0 counts as one
OracleValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: type(x) is int
    ),
)

# values that break some constraint wherever they land, and some that
# happen to satisfy one
ODD_VALUES = st.one_of(
    st.integers(-2, 1),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 3.0, 2.5]),
    st.none(),
    st.text(max_size=2),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def _spots(obj):
    """Every (container, key) position inside obj."""
    spots, stack = [], [obj]
    while stack:
        c = stack.pop()
        for key in list(c.keys() if isinstance(c, dict) else range(len(c))):
            spots.append((c, key))
            if isinstance(c[key], (dict, list)):
                stack.append(c[key])
    return spots


@st.composite
def damaged(draw, obj):
    """obj with up to two positions replaced, deleted or added to, or
    (rarely) obj replaced as a whole."""
    for _ in range(draw(st.integers(0, 2))):
        spots = _spots(obj)
        if not spots:
            break
        container, key = draw(st.sampled_from(spots))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            container[key] = draw(ODD_VALUES)
        elif action == "delete":
            del container[key]
        elif isinstance(container, dict):
            container[draw(st.sampled_from(["x", "mode", "image", "N"]))] = draw(ODD_VALUES)
        else:
            container.append(draw(ODD_VALUES))
    return draw(st.one_of(st.just(obj), ODD_VALUES)) if draw(st.integers(0, 19)) == 0 else obj


def valid_complexes():
    return st.fixed_dictionaries(
        {
            "n": st.integers(1, 12),
            "d": st.integers(0, 4),
            "facets": st.lists(
                st.lists(st.integers(1, 12), min_size=1, max_size=4), min_size=1, max_size=4
            ),
        }
    )


def valid_reports():
    return st.fixed_dictionaries(
        {
            "mode": st.sampled_from(["corridor", "pm"]),
            "config": st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
            "steps": st.integers(0, 50),
            "termination": st.text(max_size=3),
            "image": valid_complexes(),
        },
        optional={"trajectory": st.lists(st.integers(), max_size=2)},
    )


def _accepts(check, obj) -> bool:
    try:
        check(obj)
    except InvalidParams:
        return False
    return True


class TestCheckAgainstJsonschema:
    """The hand-written checks accept exactly what jsonschema accepts."""

    @settings(max_examples=500, deadline=None)
    @given(valid_complexes().flatmap(damaged))
    def test_check_complex(self, obj):
        assert _accepts(check_complex, obj) == OracleValidator(COMPLEX_SCHEMA).is_valid(obj)

    @settings(max_examples=500, deadline=None)
    @given(valid_reports().flatmap(damaged))
    def test_check_report(self, obj):
        assert _accepts(check_report, obj) == OracleValidator(REPORT_SCHEMA).is_valid(obj)

    def test_integral_float_rejected(self):
        obj = {"n": 3.0, "d": 2, "facets": [[1.0, 2, 3]]}
        assert jsonschema.Draft202012Validator(COMPLEX_SCHEMA).is_valid(obj)
        with pytest.raises(InvalidParams, match="n: 3.0 is not of type 'integer'"):
            check_complex(obj)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(InvalidParams, match=r"facets\[0\]\[1\]: True is not of type"):
            check_complex({"n": 3, "d": 1, "facets": [[1, True]]})

    def test_report_image_location(self):
        obj = json.loads(report_json(run(ProcessConfig(n=30, d=2, seed=1))))
        obj["image"]["facets"][3][0] = 0
        with pytest.raises(InvalidParams, match=r"^image\.facets\[3\]\[0\]: 0 is less than"):
            check_report(obj)


def _message(check, obj, at):
    try:
        check(obj, at)
    except InvalidParams as err:
        return str(err)
    return None


# what a complex's facets or vertices get replaced by: a 0, a bool, a
# float, an empty facet and non-lists
MUTANTS = st.sampled_from([0, -1, True, False, 1.0, 2.5, [], [0], "x", None, (1, 2), {"a": 1}])


class TestCheckComplexPasses:
    """check_complex's C-level passes and the walk give the same verdict,
    message and location as the walk alone."""

    @settings(max_examples=400, deadline=None)
    @given(
        obj=valid_complexes(),
        edits=st.lists(
            st.tuples(st.integers(0, 99), st.integers(0, 99), st.booleans(), MUTANTS),
            max_size=3,
        ),
        at=st.sampled_from(["", "image"]),
    )
    def test_messages_match_the_walk(self, obj, edits, at):
        facets = obj["facets"]
        for i, j, whole, value in edits:
            i %= len(facets)
            if whole or not isinstance(facets[i], list) or not facets[i]:
                facets[i] = value
            else:
                facets[i][j % len(facets[i])] = value
        assert _message(check_complex, obj, at) == _message(oracle_check_complex, obj, at)

    def test_a_valid_report_image_passes(self):
        obj = json.loads(report_json(run(ProcessConfig(n=30, d=2, seed=1))))
        assert _message(check_complex, obj["image"], "image") is None


class TestFloatTexts:
    """The writers' memo formats each distinct float once per write."""

    def test_zeros_keep_their_sign(self):
        text = serialize._Texts(json.dumps)
        assert [text[x] for x in (0.0, -0.0, 0.0)] == ["0.0", "-0.0", "0.0"]
        text = serialize._Texts(repr)
        assert [text[x] for x in (-0.0, 0.0, -0.0)] == ["-0.0", "0.0", "-0.0"]
        assert not text

    def test_nonfinite_as_json_and_csv_write_them(self):
        values = (math.nan, math.inf, -math.inf, math.nan)
        assert [serialize._Texts(json.dumps)[x] for x in values] == [
            "NaN", "Infinity", "-Infinity", "NaN"]
        assert [serialize._Texts(repr)[x] for x in values] == ["nan", "inf", "-inf", "nan"]

    def test_formats_each_value_once(self):
        calls = []
        text = serialize._Texts(lambda x: calls.append(x) or repr(x))
        assert [text[x] for x in (0.5, 1e-7, 0.5, 0.0, 0.5, 0.0)] == [
            "0.5", "1e-07", "0.5", "0.0", "0.5", "0.0"]
        assert calls == [0.5, 1e-7, 0.0, 0.0]

    def test_odd_values_across_records_match_the_oracles(self, tmp_path):
        # a value repeated across records, signed zeros, a non-finite
        # prediction and a band that is finite in one record only
        def entry(pred, band, z):
            return TrajectoryEntry(size=2, y=3, w=(1, 0, 2), pred=pred, band=band, z=z)

        records = [
            TrajectoryRecord(step=0, t=0.0, p=1.0, terminal_y=9, entries={
                "b": entry(0.5, 2.0, (0.0, -0.0, 0.5)), "a": entry(-0.0, math.inf, (1.0,) * 3)}),
            TrajectoryRecord(step=5, t=-0.0, p=0.5, terminal_y=4, entries={
                "b": entry(math.nan, 0.5, (-0.0, 0.0, math.inf)), "a": entry(math.inf, 0.5, (0.5,) * 3)}),
        ]
        cfg = ProcessConfig(n=30, d=2, seed=1)
        report = dataclasses.replace(run(cfg), records=records)
        assert report_json(report) == oracle_report_json(report)
        assert '"t":-0.0' in report_json(report) and '"pred":NaN' in report_json(report)
        write_trajectory_csv(records, cfg, str(tmp_path / "a.csv"))
        oracle_write_trajectory_csv(records, cfg, str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


NAMES = st.one_of(
    st.sampled_from(['"trajectory":[]', 'say "hi"', "back\\slash", "ünïcødé ✓", "a,b", "l\nm", ""]),
    st.text(max_size=6),
).filter(lambda name: name != "link" and not name.startswith("rand"))


class TestWritersMatchOracles:
    @settings(max_examples=30, deadline=None)
    @given(
        config_cls=st.sampled_from([ProcessConfig, PmConfig]),
        d=st.sampled_from([2, 3]),
        extra_n=st.integers(0, 12),
        seed=st.integers(0, 2**16),
        record_every=st.sampled_from([1, 3, 7]),
        name=NAMES,
    )
    def test_bytes_match(self, tmp_path_factory, config_cls, d, extra_n, seed, record_every, name):
        w = config_cls.spec.width(d)
        n = 2 * w + extra_n
        cfg = config_cls(n=n, d=d, seed=seed, record_every=record_every, track_random=2,
                         track=((name, (tuple(range(1, d)),)),), allow_small_n=True)
        report = (pm_run if config_cls is PmConfig else run)(cfg)
        assert report_json(report) == oracle_report_json(report)
        tmp = tmp_path_factory.mktemp("traj")
        write_trajectory_csv(report.records, cfg, str(tmp / "a.csv"))
        oracle_write_trajectory_csv(report.records, cfg, str(tmp / "b.csv"))
        assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()


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
