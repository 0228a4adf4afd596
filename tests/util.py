"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations
from operator import xor

from corridor_forge.complexes import SimplicialComplex, complex_from_facets, make_face
from corridor_forge.gf2 import Gf2Matrix, boundary_matrix


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
