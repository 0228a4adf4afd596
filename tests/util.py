"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

from corridor_forge.complexes import SimplicialComplex, complex_from_facets


def random_small_complex(rng: random.Random, d: int, max_vertices: int = 12) -> SimplicialComplex:
    """A random complex with at most d facets of dimension at most d on
    at most max_vertices vertices (the few-facet lemma's hypothesis)."""
    num_facets = rng.randint(1, d)
    facets = []
    for _ in range(num_facets):
        size = rng.randint(1, d + 1)
        facets.append(rng.sample(range(1, max_vertices + 1), size))
    return complex_from_facets(facets)


def closed_faces(state) -> set[tuple[int, ...]]:
    """The closed (d-1)-faces of a process state, rebuilt from the mapped
    vertices alone: every d-subset of the w+1 start vertices, then
    tau + {phi_k} for each (d-1)-subset tau of the w vertices before each
    later phi_k."""
    d = state.config.d
    w = state.config.spec.width(d)
    phi = state.phi
    faces = {tuple(sorted(f)) for f in combinations(phi[: w + 1], d)}
    for k in range(w + 1, len(phi)):
        for tau in combinations(phi[k - w : k], d - 1):
            faces.add(tuple(sorted(tau + (phi[k],))))
    return faces
