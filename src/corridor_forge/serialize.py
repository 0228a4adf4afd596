"""JSON and CSV interchange formats.

The JSON complex object {"n": ..., "d": ..., "facets": [[...], ...]} with
sorted facets and sorted vertices is the interchange unit for every CLI
command. COMPLEX_SCHEMA and REPORT_SCHEMA document the complex and run
report formats; check_complex and check_report enforce exactly their
constraints in one pass, on both read and write, once per object (a run
report's image is checked as part of the report). Trajectory CSVs have
fixed, documented columns (see CSV_COLUMNS).
"""

from __future__ import annotations

import csv
import json
import math

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
    """Enforce COMPLEX_SCHEMA on obj in one pass. A failure raises
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
    for i, facet in enumerate(facets):
        _check_array(facet, f"{prefix}facets[{i}]")
        for j, v in enumerate(facet):
            if type(v) is not int or v < 1:
                _check_int(v, f"{prefix}facets[{i}][{j}]", 1)


def check_report(obj) -> None:
    """Enforce REPORT_SCHEMA on obj in one pass, ending with its image;
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


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _record_to_dict(rec: TrajectoryRecord) -> dict:
    entries = {}
    for name, e in sorted(rec.entries.items()):
        band = _finite_or_none(e.band)
        entries[name] = {
            "size": e.size,
            "y": e.y,
            "w": list(e.w),
            "pred": e.pred,
            "band": band,
            "z": None if band is None else list(e.z),
        }
    return {
        "step": rec.step,
        "t": rec.t,
        "p": rec.p,
        "terminal_y": rec.terminal_y,
        "entries": entries,
    }


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


def report_to_dict(report: RunReport) -> dict:
    """The report as a JSON-ready dict, checked once against
    REPORT_SCHEMA; keys are sorted when written. The mode is the process
    of the report's config; the pm fields come with pm_run's report."""
    obj = {
        "config": _config_to_dict(report.config),
        "steps": report.steps,
        "first_low_step": report.first_low_step,
        "first_band_exit": report.first_band_exit,
        "termination": "exhausted",  # every run ends when no vertex is eligible
        "image": _complex_obj(report.image),
        "trajectory": [_record_to_dict(r) for r in report.records],
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
    """Canonical, byte-stable JSON serialization of a run report."""
    return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":")) + "\n"


def csv_columns(period: int) -> list[str]:
    cols = ["step", "t", "p", "A_id", "size_A", "Y_obs", "Y_pred", "band"]
    cols += [f"W_{j}" for j in range(period)]
    cols += [f"Z_{j}" for j in range(period)]
    return cols


def write_trajectory_csv(records: list[TrajectoryRecord], config: ProcessConfig, path: str):
    """One row per (recorded step, tracked complex), plus a row for the
    terminal statistic, the candidate count (A_id 'terminal', W/Z columns
    empty). Its size_A is the C(w, d-1) window faces that block each
    candidate, so its Y_pred is n p^C(w, d-1)."""
    n, d, spec = config.n, config.d, config.spec
    period, size_term = spec.period(d), spec.rate(d)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(csv_columns(period))
        for rec in records:
            pred_term = predicted_y(n, rec.p, size_term)
            writer.writerow(
                [rec.step, rec.t, rec.p, "terminal", size_term, rec.terminal_y, pred_term, ""]
                + [""] * (2 * period)
            )
            for name, e in sorted(rec.entries.items()):
                band = _finite_or_none(e.band)
                z = list(e.z) if band is not None else [""] * period
                writer.writerow(
                    [
                        rec.step,
                        rec.t,
                        rec.p,
                        name,
                        e.size,
                        e.y,
                        e.pred,
                        band if band is not None else "",
                    ]
                    + list(e.w)
                    + z
                )
