"""JSON and CSV interchange formats.

The JSON complex object {"n": ..., "d": ..., "facets": [[...], ...]} with
sorted facets and sorted vertices is the interchange unit for every CLI
command. COMPLEX_SCHEMA and REPORT_SCHEMA document the complex and run
report formats; check_complex and check_report enforce exactly their
constraints in linear time, on both read and write, once per object (a run
report's image is checked as part of the report). Trajectory CSVs have
fixed, documented columns (see CSV_COLUMNS).
"""

from __future__ import annotations

import csv
import json
import math
from functools import partial
from itertools import chain

from .complexes import SimplicialComplex, complex_from_facets
from .corridor import ProcessConfig, RunReport, TrajectoryRecord
from .errors import DegenerateFace, InvalidParams
from .pm import PmConfig, PmRunReport
from .trajectory import predicted_y

COMPLEX_SCHEMA = {
    "type": "object",
    "required": ["n", "d", "facets"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "d": {"type": "integer", "minimum": 0},
        "facets": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "integer", "minimum": 1},
            },
        },
    },
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "type": "object",
    "required": ["mode", "config", "steps", "termination", "image"],
    "properties": {
        "mode": {"enum": ["corridor", "pm"]},
        "config": {"type": "object"},
        "steps": {"type": "integer", "minimum": 0},
        "termination": {"type": "string"},
        "image": COMPLEX_SCHEMA,
    },
}


def _fail(at: str, message: str):
    raise InvalidParams(f"{at}: {message}" if at else message)


def _check_int(x, at: str, minimum: int):
    # a JSON integer: a bool is not one, nor is an integral float
    if type(x) is not int:
        _fail(at, f"{x!r} is not of type 'integer'")
    if x < minimum:
        _fail(at, f"{x} is less than the minimum of {minimum}")


def _check_object(obj, at: str, required: list[str]):
    if not isinstance(obj, dict):
        _fail(at, f"{obj!r} is not of type 'object'")
    for key in required:
        if key not in obj:
            _fail(at, f"{key!r} is a required property")


def _check_array(x, at: str):
    if not isinstance(x, list):
        _fail(at, f"{x!r} is not of type 'array'")
    if not x:
        _fail(at, "[] should be non-empty")


def check_complex(obj, at: str = "") -> None:
    """Enforce COMPLEX_SCHEMA on obj in linear time. A failure raises
    InvalidParams naming the failing location below `at`, e.g.
    "facets[3][0]: 0 is less than the minimum of 1"."""
    _check_object(obj, at, COMPLEX_SCHEMA["required"])
    extra = sorted(obj.keys() - COMPLEX_SCHEMA["properties"].keys(), key=repr)
    if extra:
        _fail(at, f"Additional properties are not allowed: {', '.join(map(repr, extra))}")
    prefix = f"{at}." if at else ""
    _check_int(obj["n"], prefix + "n", 1)
    _check_int(obj["d"], prefix + "d", 0)
    facets = obj["facets"]
    _check_array(facets, prefix + "facets")
    # C-level passes over the common valid case: every facet a non-empty
    # list and every vertex an int (not a bool), the least at least 1; on
    # any failure the walk finds and names the first bad place
    vertices = chain.from_iterable
    if (
        {*map(type, facets)} == {list}
        and all(facets)
        and {*map(type, vertices(facets))} == {int}
        and min(vertices(facets)) >= 1
    ):
        return
    for i, facet in enumerate(facets):
        _check_array(facet, f"{prefix}facets[{i}]")
        for j, v in enumerate(facet):
            if type(v) is not int or v < 1:
                _check_int(v, f"{prefix}facets[{i}][{j}]", 1)


def check_report(obj) -> None:
    """Enforce REPORT_SCHEMA on obj in linear time, ending with its image;
    failures are reported as by check_complex."""
    _check_object(obj, "", REPORT_SCHEMA["required"])
    modes = REPORT_SCHEMA["properties"]["mode"]["enum"]
    if obj["mode"] not in modes:
        _fail("mode", f"{obj['mode']!r} is not one of {modes}")
    if not isinstance(obj["config"], dict):
        _fail("config", f"{obj['config']!r} is not of type 'object'")
    _check_int(obj["steps"], "steps", 0)
    if not isinstance(obj["termination"], str):
        _fail("termination", f"{obj['termination']!r} is not of type 'string'")
    check_complex(obj["image"], "image")


def _complex_obj(X: SimplicialComplex) -> dict:
    return {
        "n": X.n,
        "d": X.dim,
        "facets": [list(f) for f in sorted(X.facets)],
    }


def complex_to_dict(X: SimplicialComplex) -> dict:
    obj = _complex_obj(X)
    check_complex(obj)
    return obj


def complex_from_dict(obj: dict) -> SimplicialComplex:
    check_complex(obj)
    return _complex_from_checked(obj)


def _complex_from_checked(obj: dict) -> SimplicialComplex:
    X = complex_from_facets(obj["facets"], n=obj["n"])
    if X.dim != obj["d"]:
        raise InvalidParams(
            f"declared dimension {obj['d']} but facets have dimension {X.dim}"
        )
    return X


def save_complex(X: SimplicialComplex, path: str):
    with open(path, "w") as fh:
        json.dump(complex_to_dict(X), fh, sort_keys=True)
        fh.write("\n")


def read_json(path: str):
    """Parse a JSON file; a missing, unreadable or malformed file raises
    InvalidParams."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise InvalidParams(f"cannot read {path}: {err.strerror}") from None
    except ValueError as err:  # JSONDecodeError or UnicodeDecodeError
        raise InvalidParams(f"{path} is not valid JSON: {err}") from None


def load_complex(path: str) -> SimplicialComplex:
    """The complex in a complex file, or the image of the run report in a
    report file (an object with a "mode" key)."""
    obj = read_json(path)
    is_report = isinstance(obj, dict) and "mode" in obj
    try:
        if is_report:
            check_report(obj)
            return _complex_from_checked(obj["image"])
        return complex_from_dict(obj)
    except (InvalidParams, DegenerateFace) as err:
        kind = "a run report" if is_report else "a complex object"
        raise InvalidParams(f"{path} is not {kind}: {err}") from None


class _Texts(dict):
    """One write's memo of value -> text: each distinct value is formatted
    once, by ``fmt``. Zeros are not kept, as 0.0 == -0.0 while their texts
    differ."""

    __slots__ = ("fmt",)

    def __init__(self, fmt):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, x):
        text = self.fmt(x)
        if x:
            self[x] = text
        return text


def _trajectory_json(records: list[TrajectoryRecord]) -> str:
    """The records as json.dumps writes them with sorted keys and no
    spaces, each float and tracked-complex name formatted once. A record's
    band and Z values are null once the band is not finite."""
    text = _Texts(json.dumps).__getitem__
    out = []
    for rec in records:
        entries = []
        for name, e in sorted(rec.entries.items()):
            band = z = "null"
            if math.isfinite(e.band):
                band, z = text(e.band), f"[{','.join(map(text, e.z))}]"
            entries.append(
                f'{text(name)}:{{"band":{band},"pred":{text(e.pred)},"size":{e.size},'
                f'"w":[{",".join(map(str, e.w))}],"y":{e.y},"z":{z}}}'
            )
        out.append(
            f'{{"entries":{{{",".join(entries)}}},"p":{text(rec.p)},"step":{rec.step},'
            f'"t":{text(rec.t)},"terminal_y":{rec.terminal_y}}}'
        )
    return f"[{','.join(out)}]"


def _config_to_dict(cfg: ProcessConfig) -> dict:
    out = {
        "n": cfg.n,
        "d": cfg.d,
        "seed": cfg.seed,
        "record_every": cfg.record_every,
        "track_random": cfg.track_random,
        "track_link": cfg.track_link,
    }
    if cfg.track:
        out["track"] = [
            {"name": name, "faces": [list(f) for f in faces]}
            for name, faces in cfg.track
        ]
    return out


def _report_fields(report: RunReport) -> dict:
    """Every field of the report but its trajectory, checked once against
    REPORT_SCHEMA (which leaves the trajectory unchecked). The mode is the
    process of the report's config; the pm fields come with pm_run's
    report."""
    obj = {
        "config": _config_to_dict(report.config),
        "steps": report.steps,
        "first_low_step": report.first_low_step,
        "first_band_exit": report.first_band_exit,
        "termination": "exhausted",  # every run ends when no vertex is eligible
        "image": _complex_obj(report.image),
    }
    if isinstance(report.config, PmConfig):
        obj["mode"] = "pm"
        if isinstance(report, PmRunReport):  # pm_run's analysis
            obj.update(
                mapped_vertices=report.mapped_vertices,
                pseudomanifold=report.pseudomanifold,
                diameter=report.dual_diameter,
                diameter_lower=report.diameter_lower,
            )
    else:
        obj.update(
            mode="corridor",
            path_length=report.steps,
            volume_bound=report.config.spec.max_steps(report.config.n, report.config.d),
        )
    check_report(obj)
    return obj


def report_json(report: RunReport) -> str:
    """Canonical, byte-stable JSON serialization of a run report: sorted
    keys and no spaces. json.dumps writes every field but the trajectory,
    which is spliced in at its sorted place."""
    obj = _report_fields(report)
    after = {key: obj.pop(key) for key in sorted(obj) if key > "trajectory"}
    dump = partial(json.dumps, sort_keys=True, separators=(",", ":"))
    head = dump(obj)[:-1] + ',"trajectory":' + _trajectory_json(report.records)
    return head + ("," + dump(after)[1:] if after else "}") + "\n"


def csv_columns(period: int) -> list[str]:
    cols = ["step", "t", "p", "A_id", "size_A", "Y_obs", "Y_pred", "band"]
    cols += [f"W_{j}" for j in range(period)]
    cols += [f"Z_{j}" for j in range(period)]
    return cols


def write_trajectory_csv(records: list[TrajectoryRecord], config: ProcessConfig, path: str):
    """One row per (recorded step, tracked complex), plus a row for the
    terminal statistic, the candidate count (A_id 'terminal', W/Z columns
    empty). Its size_A is the C(w, d-1) window faces that block each
    candidate, so its Y_pred is n p^C(w, d-1). Band and Z columns are empty
    once the band is not finite. Each float is formatted once per write, as
    the csv module formats it, and t and p once per record."""
    n, d, spec = config.n, config.d, config.spec
    period, size_term = spec.period(d), spec.rate(d)
    text = _Texts(repr).__getitem__
    no_w_z, no_z = [""] * (2 * period), [""] * period
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_columns(period))
        for rec in records:
            head = [rec.step, repr(rec.t), repr(rec.p)]
            pred_term = text(predicted_y(n, rec.p, size_term))
            writer.writerow([*head, "terminal", size_term, rec.terminal_y, pred_term, "", *no_w_z])
            for name, e in sorted(rec.entries.items()):
                band, z = "", no_z
                if math.isfinite(e.band):
                    band, z = text(e.band), map(text, e.z)
                writer.writerow([*head, name, e.size, e.y, text(e.pred), band, *e.w, *z])
