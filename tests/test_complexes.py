import random
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor_forge import complexes
from corridor_forge.complexes import (
    SimplicialComplex,
    boundary_corridor,
    complex_from_facets,
    f_vector,
    is_pseudomanifold,
    k_faces,
    make_face,
    ridge_holders,
)
from corridor_forge.corridor import ProcessConfig, run
from corridor_forge.errors import DegenerateFace, InvalidParams
from corridor_forge.experiments import analyze_complex
from corridor_forge.gf2 import betti_numbers
from corridor_forge.pm import PmConfig, pm_run
from util import (
    boundary_complex_of_simplex,
    corridor_face_count,
    oracle_maximal_facets,
    random_small_complex,
    straight_corridor,
)


class TestMakeFace:
    def test_canonicalization(self):
        assert make_face([3, 1, 2]) == (1, 2, 3)

    def test_single_vertex(self):
        assert make_face([5]) == (5,)

    def test_duplicate_rejected(self):
        with pytest.raises(DegenerateFace):
            make_face([1, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(InvalidParams):
            make_face([])

    def test_idempotent_on_canonical(self):
        assert make_face(make_face([4, 2, 9])) == (2, 4, 9)


class TestStraightCorridor:
    def test_d2_n5(self):
        sc = straight_corridor(2, 5)
        assert sc.facets == frozenset({(1, 2, 3), (2, 3, 4), (3, 4, 5)})

    def test_d1_is_path(self):
        assert straight_corridor(1, 3).facets == frozenset({(1, 2), (2, 3)})

    def test_single_simplex(self):
        assert straight_corridor(3, 4).facets == frozenset({(1, 2, 3, 4)})

    def test_guard(self):
        with pytest.raises(InvalidParams):
            straight_corridor(3, 3)

    def test_facet_count(self):
        for d in range(1, 5):
            for n in range(d + 1, 13):
                assert len(straight_corridor(d, n).facets) == n - d


class TestBoundaryCorridor:
    def test_d2_n6_facets(self):
        b = boundary_corridor(2, 6)
        expected = {
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 5),
            (2, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6),
        }
        assert b.facets == frozenset(expected)

    def test_simplex_boundary(self):
        b = boundary_corridor(2, 4)
        assert b.facets == frozenset(
            {(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)}
        )

    def test_guard(self):
        with pytest.raises(InvalidParams):
            boundary_corridor(2, 3)

    def test_pseudomanifold_and_degree_sum(self):
        for d in range(1, 4):
            for n in range(d + 2, 13):
                b = boundary_corridor(d, n)
                assert b.is_pure(d)
                assert is_pseudomanifold(b, d)
                fv = f_vector(b)
                assert 2 * fv[d - 1] == (d + 1) * fv[d]


class TestKFaces:
    def test_corridor_edges(self):
        assert len(k_faces(straight_corridor(2, 5), 1)) == 7

    def test_vertices_of_triangle(self):
        X = complex_from_facets([[1, 2, 3]])
        assert k_faces(X, 0) == {(1,), (2,), (3,)}

    def test_boundary_corridor_edges(self):
        assert len(k_faces(boundary_corridor(2, 6), 1)) == 12

    def test_empty_above_dim(self):
        assert k_faces(straight_corridor(2, 5), 3) == set()


class TestCorridorFaceCount:
    def test_paper_value(self):
        assert corridor_face_count(2, 5, 1) == 7

    def test_single_simplex_binomial(self):
        from math import comb

        for d in range(1, 5):
            for k in range(1, d + 2):
                assert corridor_face_count(d, d + 1, k) == comb(d + 1, k)

    def test_d3_n10_k2(self):
        assert corridor_face_count(3, 10, 2) == 24
        assert len(k_faces(straight_corridor(3, 10), 1)) == 24

    def test_matches_enumeration(self):
        # exhaustive oracle, small grid (full grid in the acceptance suite)
        for D in (2, 3):
            for N in range(D + 1, 9):
                X = straight_corridor(D, N)
                for k in range(1, D + 1):
                    assert corridor_face_count(D, N, k) == len(k_faces(X, D - k))
                # codimension D+1 is the empty face
                assert corridor_face_count(D, N, D + 1) == 1

    def test_out_of_range_k(self):
        with pytest.raises(InvalidParams):
            corridor_face_count(2, 5, 4)


class TestRidgeHolders:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=5), max_size=12),
           st.integers(0, 5))
    def test_matches_incidence(self, vertex_sets, d):
        # faces of mixed sizes, repeats allowed: each d-subset of a face
        # maps to the positions of every face that contains it, in order
        faces = [tuple(sorted(s)) for s in vertex_sets]
        ridges = {r for f in faces for r in combinations(f, d)}
        want = {r: [i for i, f in enumerate(faces) if set(r) <= set(f)] for r in ridges}
        assert ridge_holders(faces, d) == want


class TestIsPseudomanifold:
    def test_boundary_corridor(self):
        assert is_pseudomanifold(boundary_corridor(3, 6), 3)

    def test_corridor_has_boundary(self):
        assert not is_pseudomanifold(straight_corridor(2, 5), 2)

    def test_simplex_boundary(self):
        assert is_pseudomanifold(boundary_complex_of_simplex([1, 2, 3, 4]), 2)

    def test_non_pure(self):
        X = complex_from_facets([[1, 2, 3], [4, 5]])
        assert not is_pseudomanifold(X, 2)


class TestSkeletons:
    def test_boundary_of_edge(self):
        b = boundary_complex_of_simplex([1, 2])
        assert b.facets == frozenset({(1,), (2,)})

    def test_boundary_of_triangle(self):
        b = boundary_complex_of_simplex([1, 2, 3])
        assert b.facets == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_boundary_of_tetrahedron(self):
        assert len(boundary_complex_of_simplex([2, 4, 6, 8]).facets) == 4


class TestComplexFromFacets:
    def test_dominated_facets_dropped(self):
        X = complex_from_facets([[1, 2], [1, 2, 3]])
        assert X.facets == frozenset({(1, 2, 3)})

    def test_vertex_bound_enforced(self):
        with pytest.raises(InvalidParams):
            complex_from_facets([[1, 5]], n=4)


@st.composite
def candidate_facets(draw, same_size=False):
    """Candidate facets over [9] in shuffled order, with repeats in
    permuted vertex order and, unless same_size, proper subsets of the
    drawn faces."""
    if same_size:
        size = st.just(draw(st.integers(1, 4)))
    else:
        size = st.integers(1, 5)
    face = size.flatmap(lambda k: st.lists(st.integers(1, 9), min_size=k, max_size=k, unique=True))
    base = draw(st.lists(face, min_size=1, max_size=12))
    faces = list(base)
    if not same_size:
        for f in draw(st.lists(st.sampled_from(base), max_size=6)):
            faces.append(draw(st.permutations(f))[: draw(st.integers(1, len(f)))])
    for f in draw(st.lists(st.sampled_from(base), max_size=6)):
        faces.append(draw(st.permutations(f)))
    return draw(st.permutations(faces))


class TestDominationOracle:
    """The indexed domination test keeps exactly the faces the all-pairs
    scan keeps."""

    @settings(max_examples=300, deadline=None)
    @given(candidate_facets())
    def test_mixed_sizes_match_oracle(self, faces):
        assert complex_from_facets(faces).facets == oracle_maximal_facets(faces)

    @settings(max_examples=100, deadline=None)
    @given(candidate_facets(same_size=True))
    def test_same_size_matches_oracle(self, faces):
        assert complex_from_facets(faces).facets == oracle_maximal_facets(faces)


@cache
def run_image(kind, n, d):
    config = PmConfig(n=n, d=d, seed=1) if kind == "pm" else ProcessConfig(n=n, d=d, seed=1)
    return (pm_run if kind == "pm" else run)(config).image


def oracle_pseudomanifold(X, d):
    """Pure at d, and each (d-1)-subset of a d-face lies in exactly two
    facets, counted against every facet."""
    top = [f for f in X.facets if len(f) == d + 1]
    ridges = {r for f in top for r in combinations(f, d)}
    return len(top) == len(X.facets) and all(
        sum(set(r) <= set(f) for f in X.facets) == 2 for r in ridges
    )


@st.composite
def indexed_complexes(draw):
    """A fresh complex: random, pure or not, of dimension 0 to 3, or a twin
    of a corridor or pm image at (30, 2) or (20, 3)."""
    image = st.sampled_from([(k, n, d) for k in ("corridor", "pm") for n, d in ((30, 2), (20, 3))])
    X = draw(st.one_of(
        st.builds(random_small_complex, st.integers(0, 2**32).map(random.Random),
                  st.integers(1, 3), st.integers(4, 9)),
        candidate_facets(same_size=True).map(complex_from_facets),
        image.map(lambda key: run_image(*key)),
    ))
    return SimplicialComplex(n=X.n, facets=X.facets)


class TestFaceIndex:
    @settings(max_examples=200, deadline=None)
    @given(indexed_complexes())
    def test_readers_match_listing(self, X):
        assert f_vector(X) == [len(k_faces(X, k)) for k in range(X.dim + 1)]
        for d in range(X.dim + 1):
            assert is_pseudomanifold(X, d) == oracle_pseudomanifold(X, d)

    def test_built_once_per_instance(self, monkeypatch):
        X = run_image("pm", 30, 2)
        X = SimplicialComplex(n=X.n, facets=X.facets)
        calls = []
        real = complexes.ridge_holders
        monkeypatch.setattr(complexes, "ridge_holders", lambda f, d: calls.append(d) or real(f, d))
        report, betti = analyze_complex(X), betti_numbers(X)
        assert calls == [2]
        # a twin with the same facets builds its own
        twin = SimplicialComplex(n=X.n, facets=X.facets)
        assert (analyze_complex(twin), betti_numbers(twin)) == (report, betti)
        assert calls == [2, 2]
