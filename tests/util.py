"""Shared helpers for the test suite."""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from operator import xor

from corridor_forge.complexes import (
    Face,
    SimplicialComplex,
    complex_from_facets,
    k_faces,
    make_face,
)
from corridor_forge.dual import build_dual, is_connected
from corridor_forge.errors import EmptyDual, InvalidParams, VerificationError
from corridor_forge.gf2 import Gf2Matrix, boundary_matrix, reduced_betti
from corridor_forge.serialize import (
    COMPLEX_SCHEMA,
    _check_array,
    _check_int,
    _check_object,
    _fail,
    _report_fields,
    csv_columns,
)
from corridor_forge.trajectory import predicted_y


def straight_corridor(d: int, N: int) -> SimplicialComplex:
    """The d-dimensional straight corridor on [N].

    Facets are the N - d windows of d + 1 consecutive integers, listed
    explicitly: the oracle for complexes.window_faces.
    """
    if d < 1:
        raise InvalidParams("dimension must be at least 1")
    if N < d + 1:
        raise InvalidParams(f"need N >= d + 1, got N={N}, d={d}")
    facets = [tuple(range(k, k + d + 1)) for k in range(1, N - d + 1)]
    return SimplicialComplex(n=N, facets=frozenset(facets))


def corridor_face_count(D: int, N: int, k: int) -> int:
    """Number of codimension-k faces of SC_D(N), in closed form."""
    if N < D + 1:
        raise InvalidParams(f"need N >= D + 1, got N={N}, D={D}")
    if not 1 <= k <= D + 1:
        raise InvalidParams(f"codimension k={k} out of range 1..{D + 1}")
    return comb(D, D - k + 1) + (N - D) * comb(D, k)


def is_strongly_connected(X: SimplicialComplex, d: int) -> bool:
    """Whether the dual graph on the d-faces of X is connected."""
    try:
        return is_connected(build_dual(X, d))
    except EmptyDual:
        return False


@dataclass(frozen=True)
class LemmaCheck:
    applicable: bool
    holds: bool


def check_small_facet_lemma(X: SimplicialComplex, d: int) -> LemmaCheck:
    """Few-facet homology vanishing: a complex of dimension at most d with
    at most d facets has trivial reduced homology in dimension d - 1.

    Returns holds=True vacuously (applicable=False) when the hypothesis
    fails.
    """
    if X.dim > d or len(X.facets) > d:
        return LemmaCheck(applicable=False, holds=True)
    return LemmaCheck(applicable=True, holds=reduced_betti(X, d - 1) == 0)


def tightness_example(d: int) -> SimplicialComplex:
    """A complex with d + 1 facets and nonzero reduced homology in
    dimension d - 1: each (d-1)-face of the central simplex boundary on
    [d+1] is coned to its own fresh apex."""
    if d < 2:
        raise InvalidParams("need d >= 2")
    center = tuple(range(1, d + 2))
    facets = []
    for apex, base in enumerate(combinations(center, d), start=d + 2):
        facets.append(tuple(sorted(base + (apex,))))
    return SimplicialComplex(n=2 * d + 2, facets=frozenset(facets))


def boundary_of_indicator(
    X: SimplicialComplex, d: int, selected
) -> frozenset[Face]:
    """GF(2) boundary of the indicator chain of a set of d-faces: the
    (d-1)-faces hit an odd number of times."""
    all_d = k_faces(X, d)
    chain: set[Face] = set()
    for f in selected:
        face = tuple(sorted(f))
        if face not in all_d:
            raise InvalidParams(f"{face} is not a {d}-face of the complex")
        for sub in combinations(face, d):
            chain.symmetric_difference_update({sub})
    return frozenset(chain)


def boundary_complex_of_simplex(f) -> SimplicialComplex:
    """The boundary of the simplex on f (at least 2 vertices): all subsets
    of one fewer vertex."""
    face = make_face(f)
    return SimplicialComplex(
        n=max(face), facets=frozenset(combinations(face, len(face) - 1))
    )


def matmul_gf2(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """Product a @ b over GF(2): row i of the product is the XOR of the
    rows of b picked by the set bits of row i of a."""
    assert a.cols == b.rows
    picked = ((b.bits[j] for j in range(b.rows) if row >> j & 1) for row in a.bits)
    return Gf2Matrix(rows=a.rows, cols=b.cols, bits=[reduce(xor, p, 0) for p in picked])


def oracle_rank(m: Gf2Matrix) -> int:
    """The former rank: Gaussian elimination that clears the pivot bit
    from every remaining row."""
    work = [b for b in m.bits if b]
    rank = 0
    while work:
        pivot_row = work.pop()
        pivot_bit = pivot_row & -pivot_row
        rank += 1
        work = [(r ^ pivot_row) if (r & pivot_bit) else r for r in work]
        work = [r for r in work if r]
    return rank


def oracle_betti(X: SimplicialComplex, k: int) -> int:
    """The reduced Betti number at k from its definition, f_k - rank d_k -
    rank d_{k+1}, with fresh face lists and matrices and the elimination
    oracle: the per-k path gf2 used before its per-complex record. Past
    dim X every term is 0."""
    return (
        len(k_faces(X, k))
        - oracle_rank(boundary_matrix(X, k))
        - oracle_rank(boundary_matrix(X, k + 1))
    )


def boundary_squares_to_zero(X: SimplicialComplex) -> bool:
    """Whether d_{k-1} @ d_k = 0 over GF(2) for k = 1..dim X."""
    return all(
        not any(matmul_gf2(boundary_matrix(X, k - 1), boundary_matrix(X, k)).bits)
        for k in range(1, X.dim + 1)
    )


def oracle_maximal_facets(faces) -> frozenset[tuple[int, ...]]:
    """The canonical faces not contained in another one, by testing every
    pair: the O(F^2) oracle for complex_from_facets."""
    canon = {make_face(f) for f in faces}
    return frozenset(
        f for f in canon if not any(f != g and set(f) <= set(g) for g in canon)
    )


def oracle_window_faces(M: int, w: int, d: int) -> set[tuple[int, ...]]:
    """The d-faces of SC_w(M) lying in exactly one window, found by
    counting every (d+1)-subset of every window: the oracle for
    complexes.window_faces."""
    mult: Counter[tuple[int, ...]] = Counter()
    for facet in straight_corridor(w, M).facets:
        mult.update(combinations(facet, d + 1))
    return {f for f, c in mult.items() if c == 1}


def random_small_complex(rng: random.Random, d: int, max_vertices: int = 12) -> SimplicialComplex:
    """A random complex with at most d facets of dimension at most d on
    at most max_vertices vertices (the few-facet lemma's hypothesis)."""
    num_facets = rng.randint(1, d)
    facets = []
    for _ in range(num_facets):
        size = rng.randint(1, d + 1)
        facets.append(rng.sample(range(1, max_vertices + 1), size))
    return complex_from_facets(facets)


def closure_rounds(state) -> dict[tuple[int, ...], int]:
    """The closed (d-1)-faces of a process state, rebuilt from the mapped
    vertices alone, each with the round that closed it: every d-subset of
    the w+1 start vertices at round 0, then tau + {phi[m]} at round m - w
    for each (d-1)-subset tau of the w vertices before each later phi[m]."""
    d = state.config.d
    w = state.config.spec.width(d)
    phi = state.phi
    rounds = {tuple(sorted(f)): 0 for f in combinations(phi[: w + 1], d)}
    for m in range(w + 1, len(phi)):
        for tau in combinations(phi[m - w : m], d - 1):
            rounds[tuple(sorted(tau + (phi[m],)))] = m - w
    return rounds


def closed_faces(state) -> set[tuple[int, ...]]:
    """The closed (d-1)-faces of a process state, from the mapped vertices
    alone."""
    return set(closure_rounds(state))


def close_face(masks: dict[tuple[int, ...], int], face: tuple[int, ...]):
    """Enter the sorted face into a closure index keyed by (d-2)-face
    tuples, one face at a time: for each vertex v of the face, set bit v in
    the mask of face - {v}. A face that is already closed raises
    VerificationError. The oracle for the engine's one OR per key."""
    for i, v in enumerate(face):
        tau = face[:i] + face[i + 1 :]
        mask = masks.get(tau, 0)
        if mask >> v & 1:
            raise VerificationError(f"face {face} closed twice")
        masks[tau] = mask | (1 << v)


def set_bits(bits: int) -> list[int]:
    """The set bits of ``bits``, smallest first: the vertices of a bitmask."""
    return [v for v in range(bits.bit_length()) if bits >> v & 1]


def oracle_snapshot(state) -> dict[str, tuple[int, tuple[int, ...]]]:
    """Name -> (Y_A, W_{A,j} tuple) for each tracked complex of a state,
    from the mapped vertices alone: a vertex v outside A leaves Y_A at the
    smallest round of a closed face tau + {v} with tau in A, and counts in
    W at that round modulo the period."""
    n, d = state.config.n, state.config.d
    period = state.config.spec.period(d)
    rounds = closure_rounds(state)
    snapshot = {}
    for tc in state.tracker.tracked:
        faces, vertices = set(tc.faces), tc.vertices
        left: dict[int, int] = {}  # vertex -> round it left Y_A
        for face, r in rounds.items():
            for v in face:
                if v not in vertices and tuple(u for u in face if u != v) in faces:
                    left[v] = min(r, left.get(v, r))
        w = [0] * period
        for r in left.values():
            w[r % period] += 1
        y = sum(1 for v in range(1, n + 1) if v not in vertices and v not in left)
        snapshot[tc.name] = (y, tuple(w))
    return snapshot


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def record_to_dict(rec) -> dict:
    """A trajectory record as a JSON-ready dict, band and Z null once the
    band is not finite."""
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


def report_to_dict(report) -> dict:
    """The whole report as one JSON-ready dict, checked once."""
    return {**_report_fields(report), "trajectory": [record_to_dict(r) for r in report.records]}


def oracle_report_json(report) -> str:
    """The report through one json.dumps of report_to_dict: the byte
    oracle for serialize.report_json."""
    return json.dumps(report_to_dict(report), sort_keys=True, separators=(",", ":")) + "\n"


def oracle_write_trajectory_csv(records, config, path: str):
    """Every row through csv.writer with its floats as floats: the byte
    oracle for serialize.write_trajectory_csv."""
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
                    [rec.step, rec.t, rec.p, name, e.size, e.y, e.pred,
                     band if band is not None else ""]
                    + list(e.w)
                    + z
                )


def oracle_check_complex(obj, at: str = "") -> None:
    """check_complex as one walk over every facet and vertex, with no
    C-level pass: the oracle of its messages and locations."""
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
            _check_int(v, f"{prefix}facets[{i}][{j}]", 1)
