import random
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor_forge import gf2
from corridor_forge.complexes import (
    SimplicialComplex,
    boundary_corridor,
    complex_from_facets,
    f_vector,
    k_faces,
)
from corridor_forge.corridor import ProcessConfig, run
from corridor_forge.errors import InvalidFace, InvalidParams
from corridor_forge.gf2 import (
    Gf2Matrix,
    betti_numbers,
    boundary_matrix,
    boundary_of_indicator,
    check_small_facet_lemma,
    rank_gf2,
    reduced_betti,
    tightness_example,
)
from corridor_forge.pm import PmConfig, pm_run
from util import (
    boundary_complex_of_simplex,
    boundary_squares_to_zero,
    matmul_gf2,
    oracle_betti,
    oracle_rank,
    random_small_complex,
)


@st.composite
def bit_matrices(draw):
    """Random rows mixed with zero rows, dense rows and duplicates."""
    cols = draw(st.integers(0, 80))
    full = (1 << cols) - 1
    word = st.integers(0, full)
    row = st.one_of(
        st.just(0),
        word,
        st.tuples(word, word).map(lambda ab: full & ~(ab[0] & ab[1])),
    )
    rows = draw(st.lists(row, max_size=40))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    rows = draw(st.permutations(rows))
    return Gf2Matrix(rows=len(rows), cols=cols, bits=rows)


@st.composite
def graphic_matrices(draw):
    """Rows of weight 0, 1 and 2 (the union-find path): zero rows,
    one-bit rows and duplicates."""
    cols = draw(st.integers(1, 80))
    bit = st.integers(0, cols - 1).map(lambda j: 1 << j)
    row = st.one_of(
        st.just(0),
        bit,
        st.tuples(bit, bit).map(lambda ab: ab[0] | ab[1]),
    )
    rows = draw(st.lists(row, max_size=60))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    rows = draw(st.permutations(rows))
    return Gf2Matrix(rows=len(rows), cols=cols, bits=rows)


@st.composite
def random_complexes(draw):
    facet = st.sets(st.integers(1, 9), min_size=1, max_size=5)
    facets = draw(st.lists(facet, min_size=1, max_size=12))
    return complex_from_facets([sorted(f) for f in facets])


class TestRank:
    @settings(max_examples=300, deadline=None)
    @given(bit_matrices())
    def test_matches_elimination_oracle(self, m):
        got = rank_gf2(m)
        assert got == oracle_rank(m)
        assert got <= min(m.rows, m.cols)

    @settings(max_examples=100, deadline=None)
    @given(random_complexes())
    def test_boundary_matrices_match_oracle(self, X):
        for k in range(X.dim + 2):
            m = boundary_matrix(X, k)
            assert rank_gf2(m) == oracle_rank(m)

    @pytest.mark.parametrize("d,N", [(2, 30), (3, 20), (4, 14)])
    def test_boundary_corridor_matrices_match_oracle(self, d, N):
        X = boundary_corridor(d, N)
        for k in range(d + 2):
            m = boundary_matrix(X, k)
            assert rank_gf2(m) == oracle_rank(m)

    @settings(max_examples=300, deadline=None)
    @given(graphic_matrices())
    def test_graphic_matches_elimination_oracle(self, m):
        got = rank_gf2(m)
        assert got == oracle_rank(m)
        assert got <= min(m.rows, m.cols)

    def test_path_choice(self, monkeypatch):
        calls = []
        forest = gf2._forest_rank
        monkeypatch.setattr(gf2, "_forest_rank", lambda bits: calls.append(bits) or forest(bits))
        assert rank_gf2(Gf2Matrix(rows=3, cols=4, bits=[0b11, 0b110, 0b1])) == 3
        assert len(calls) == 1
        assert rank_gf2(Gf2Matrix(rows=3, cols=4, bits=[0b11, 0b1110, 0b1])) == 3
        assert len(calls) == 1

    def test_graphic_bits_beyond_cols(self):
        # Gf2Matrix does not keep bits below cols; the ground node must
        # not collide with a column
        assert rank_gf2(Gf2Matrix(rows=2, cols=1, bits=[1 << 5, 1])) == 2
        assert rank_gf2(Gf2Matrix(rows=3, cols=1, bits=[1 << 5, 1, 1 | 1 << 5])) == 2

    @pytest.mark.parametrize("d,n", [(2, 30), (3, 20)])
    def test_top_boundary_of_images(self, d, n):
        # corridor images have ridges of one facet (edges to the ground
        # node); pm images are pseudomanifolds (every ridge in two facets)
        for X, weights in [(run(ProcessConfig(n=n, d=d, seed=1)).image, {1, 2}),
                           (pm_run(PmConfig(n=n, d=d, seed=1)).image, {2})]:
            m = boundary_matrix(X, d)
            assert {row.bit_count() for row in m.bits} == weights
            assert rank_gf2(m) == oracle_rank(m)

    def test_identity(self):
        m = Gf2Matrix(rows=4, cols=4, bits=[1, 2, 4, 8])
        assert rank_gf2(m) == 4

    def test_zero(self):
        assert rank_gf2(Gf2Matrix(rows=3, cols=5, bits=[0, 0, 0])) == 0

    def test_triangle_boundary(self):
        circle = boundary_complex_of_simplex([1, 2, 3])
        assert rank_gf2(boundary_matrix(circle, 1)) == 2


class TestBoundaryMatrix:
    def test_triangle_d1_shape(self):
        X = complex_from_facets([[1, 2, 3]])
        m = boundary_matrix(X, 1)
        assert (m.rows, m.cols) == (3, 3)
        # each edge column hits exactly two vertex rows
        for j in range(3):
            assert sum((row >> j) & 1 for row in m.bits) == 2

    def test_filled_triangle_d2(self):
        X = complex_from_facets([[1, 2, 3]])
        m = boundary_matrix(X, 2)
        assert (m.rows, m.cols) == (3, 1)
        assert m.bits == [1, 1, 1]

    def test_boundary_corridor_composition(self):
        X = boundary_corridor(2, 6)
        d2 = boundary_matrix(X, 2)
        assert (d2.rows, d2.cols) == (12, 8)
        d1 = boundary_matrix(X, 1)
        assert all(b == 0 for b in matmul_gf2(d1, d2).bits)

    def test_chain_complex_composition(self):
        for X in [boundary_corridor(3, 8), tightness_example(3)]:
            assert boundary_squares_to_zero(X)


class TestReducedBetti:
    def test_circle(self):
        assert reduced_betti(boundary_complex_of_simplex([1, 2, 3]), 1) == 1

    def test_two_triangles_sharing_vertex(self):
        assert reduced_betti(complex_from_facets([[1, 2, 3], [3, 4, 5]]), 1) == 0

    def test_sphere(self):
        X = boundary_corridor(2, 6)
        assert reduced_betti(X, 2) == 1
        assert reduced_betti(X, 1) == 0
        assert reduced_betti(X, 0) == 0

    def test_single_simplex_acyclic(self):
        X = complex_from_facets([[1, 2, 3, 4]])
        assert all(reduced_betti(X, k) == 0 for k in range(4))

    def test_euler_characteristic(self):
        rng = random.Random(7)
        complexes = [
            boundary_corridor(2, 6),
            tightness_example(2),
            complex_from_facets([[1, 2, 3], [3, 4, 5]]),
        ] + [random_small_complex(rng, 3) for _ in range(25)]
        for X in complexes:
            fv = f_vector(X)
            chi = sum((-1) ** k * c for k, c in enumerate(fv))
            betti = [oracle_betti(X, k) for k in range(len(fv))]
            assert sum((-1) ** k * b for k, b in enumerate(betti)) == chi - 1
            assert [reduced_betti(X, k) for k in range(len(fv))] == betti

    def test_k_out_of_range(self):
        X = boundary_corridor(2, 6)
        with pytest.raises(InvalidParams):
            reduced_betti(X, -1)
        assert reduced_betti(X, 3) == 0
        assert reduced_betti(X, 7) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.integers(6, 12), st.integers(0, 2**32))
    def test_betti_numbers_match_per_k(self, d, max_vertices, seed):
        X = random_small_complex(random.Random(seed), d, max_vertices)
        want = [oracle_betti(X, k) for k in range(X.dim + 1)]
        assert betti_numbers(X) == want
        assert [reduced_betti(X, k) for k in range(X.dim + 1)] == want

    def test_betti_numbers_nonzero(self):
        for X, want in [
            (boundary_corridor(2, 6), [0, 0, 1]),
            (boundary_corridor(3, 9), [0, 0, 0, 1]),
            (tightness_example(2), [0, 1, 0]),
            (boundary_complex_of_simplex([1, 2, 3]), [0, 1]),
            (complex_from_facets([[1, 2], [3, 4, 5]]), [1, 0, 0]),
        ]:
            assert want == [oracle_betti(X, k) for k in range(X.dim + 1)]
            assert betti_numbers(X) == want


IMAGES = [("corridor", 30, 2), ("pm", 30, 2), ("corridor", 20, 3), ("pm", 20, 3)]


@cache
def image_oracle(kind, n, d):
    """An image's vertex count, facets and oracle Betti numbers for
    k = 0..d+2, computed once per image."""
    if kind == "corridor":
        X = run(ProcessConfig(n=n, d=d, seed=1)).image
    else:
        X = pm_run(PmConfig(n=n, d=d, seed=1)).image
    return X.n, X.facets, [oracle_betti(X, k) for k in range(d + 3)]


@st.composite
def complexes_with_oracle(draw):
    """A complex without a homology record yet, and its oracle Betti
    numbers for k = 0..dim+2."""
    image = draw(st.one_of(st.none(), st.sampled_from(IMAGES)))
    if image is None:
        rng = random.Random(draw(st.integers(0, 2**32)))
        X = random_small_complex(rng, draw(st.integers(1, 5)), draw(st.integers(6, 12)))
        return X, [oracle_betti(X, k) for k in range(X.dim + 3)]
    n, facets, want = image_oracle(*image)
    return SimplicialComplex(n=n, facets=facets), want


class TestHomologyRecord:
    @settings(max_examples=100, deadline=None)
    @given(complexes_with_oracle(), st.randoms(use_true_random=False))
    def test_any_order_matches_oracle(self, case, rng):
        X, want = case
        ks = list(range(len(want)))  # two past dim X
        rng.shuffle(ks)
        assert {k: reduced_betti(X, k) for k in ks} == dict(enumerate(want))
        assert betti_numbers(X) == want[: X.dim + 1]

    def test_builds_each_boundary_once(self, monkeypatch):
        image = pm_run(PmConfig(n=30, d=3, seed=1)).image
        built, listed = [], []
        boundary, faces = gf2._boundary, gf2.k_faces
        monkeypatch.setattr(gf2, "_boundary", lambda *a: built.append(a[2]) or boundary(*a))
        # gf2 calls complexes.k_faces through its own module binding
        monkeypatch.setattr(gf2, "k_faces", lambda X, k: listed.append(k) or faces(X, k))
        per_k = [reduced_betti(image, k) for k in range(image.dim + 2)]
        assert betti_numbers(image) == per_k[:-1]
        assert sorted(built) == sorted(listed) == list(range(image.dim + 1))
        # the record belongs to the instance, not to its facets
        twin = SimplicialComplex(n=image.n, facets=image.facets)
        assert betti_numbers(twin) == per_k[:-1]
        assert sorted(built) == sorted(listed) == sorted(2 * list(range(image.dim + 1)))

    def test_list_facets(self):
        # an unhashable complex still gets its record
        facets = list(combinations(range(1, 5), 3))
        X = SimplicialComplex(n=4, facets=facets)
        assert [reduced_betti(X, k) for k in range(4)] == [0, 0, 1, 0]
        assert betti_numbers(X) == [0, 0, 1]
        assert betti_numbers(SimplicialComplex(n=4, facets=facets)) == [0, 0, 1]


class TestSmallFacetLemma:
    def test_single_simplex(self):
        res = check_small_facet_lemma(complex_from_facets([[1, 2, 3]]), 3)
        assert res.applicable and res.holds

    def test_two_facets_d2(self):
        res = check_small_facet_lemma(complex_from_facets([[1, 2, 3], [3, 4, 5]]), 2)
        assert res.applicable and res.holds

    def test_not_applicable(self):
        res = check_small_facet_lemma(tightness_example(2), 2)
        assert not res.applicable and res.holds

    def test_fuzz(self):
        rng = random.Random(42)
        for d in (2, 3, 4):
            for _ in range(60):
                res = check_small_facet_lemma(random_small_complex(rng, d), d)
                assert res.holds


class TestTightnessExample:
    def test_d2_facets(self):
        X = tightness_example(2)
        assert X.facets == frozenset({(1, 2, 4), (1, 3, 5), (2, 3, 6)})

    def test_homology_nonvanishing(self):
        for d in (2, 3):
            X = tightness_example(d)
            assert len(X.facets) == d + 1
            assert reduced_betti(X, d - 1) >= 1


class TestBoundaryOfIndicator:
    def test_pseudomanifold_is_cycle(self):
        X = boundary_corridor(2, 8)
        assert boundary_of_indicator(X, 2, X.facets) == frozenset()

    def test_single_triangle(self):
        X = complex_from_facets([[1, 2, 3], [2, 3, 4]])
        chain = boundary_of_indicator(X, 2, [(1, 2, 3)])
        assert chain == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_unknown_face(self):
        X = complex_from_facets([[1, 2, 3]])
        with pytest.raises(InvalidFace):
            boundary_of_indicator(X, 2, [(4, 5, 6)])

    def test_component_chain_supported_in_removed_set(self):
        # removing facets from a pseudomanifold leaves a chain whose
        # boundary is supported inside the removed facets
        X = boundary_corridor(2, 8)
        facets = sorted(X.facets)
        removed = {facets[0], facets[5]}
        rest = set(X.facets) - removed
        chain = boundary_of_indicator(X, 2, rest)
        removed_edges = set()
        for f in removed:
            removed_edges.update(k_faces(complex_from_facets([f]), 1))
        assert chain <= removed_edges
