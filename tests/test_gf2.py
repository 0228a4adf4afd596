import random
import tracemalloc
from collections import Counter
from functools import cache
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corridor_forge import complexes, gf2
from corridor_forge.complexes import (
    SimplicialComplex,
    boundary_corridor,
    complex_from_facets,
    f_vector,
    k_faces,
)
from corridor_forge.corridor import ProcessConfig, run
from corridor_forge.errors import InvalidParams
from corridor_forge.gf2 import (
    Gf2Matrix,
    betti_numbers,
    boundary_matrix,
    rank_gf2,
    reduced_betti,
)
from corridor_forge.pm import PmConfig, pm_run
from util import (
    boundary_complex_of_simplex,
    boundary_of_indicator,
    boundary_squares_to_zero,
    check_small_facet_lemma,
    matmul_gf2,
    oracle_betti,
    oracle_rank,
    random_small_complex,
    tightness_example,
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
    """Rows of weight 0, 1 and 2, the shape of a graph's incidence
    matrix: zero rows, one-bit rows and duplicates."""
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
def dense_complexes(draw, min_dim=1):
    """Many facets: a random subset of the k-faces of the simplex on [m]
    plus a few lower faces, so that ridges lie in three or more facets (∂_k
    is not graphic) and some complexes are not pure."""
    k = draw(st.integers(min_dim, 4))
    m = draw(st.integers(k + 2, 8))
    faces = list(combinations(range(1, m + 1), k + 1))
    keep = draw(st.lists(st.booleans(), min_size=len(faces), max_size=len(faces)))
    top = [f for f, kept in zip(faces, keep) if kept] or faces[:1]
    # two vertices past m keep some lower faces out of every k-face
    lower = draw(st.lists(st.sets(st.integers(1, m + 2), min_size=1, max_size=k), max_size=3))
    return complex_from_facets(top + [sorted(f) for f in lower])


@st.composite
def graphic_complexes(draw):
    """Complexes whose top boundary is graphic: d-faces of the simplex on
    [m] taken in a random order, each kept only if none of its ridges
    already lies in two kept ones, plus a few lower faces."""
    m = draw(st.integers(4, 8))
    d = draw(st.integers(2, min(4, m - 2)))
    holders = Counter()
    top = []
    for f in draw(st.permutations(list(combinations(range(1, m + 1), d + 1)))):
        ridges = list(combinations(f, d))
        if all(holders[r] < 2 for r in ridges) and draw(st.booleans()):
            holders.update(ridges)
            top.append(f)
    lower = draw(st.lists(st.sets(st.integers(1, m + 2), min_size=1, max_size=d), max_size=3))
    return complex_from_facets((top or [tuple(range(1, d + 2))]) + [sorted(f) for f in lower])


def forest_keys(edges) -> set:
    """The keys of a spanning forest's edges, by networkx, of the
    multigraph with edges (a, b, key): a d-face may meet the ground node
    by several ridges."""
    G = nx.MultiGraph()
    G.add_edges_from(edges)
    return {key for _, _, key in nx.minimum_spanning_edges(G, keys=True, data=False)}


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

    def test_graphic_bits_beyond_cols(self):
        # Gf2Matrix does not keep bits below cols; a bit past cols still
        # counts as a column of its own
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


# boundary_corridor(4, 9) has ∂_2 with all its columns and ∂_3 with all
# its rows; boundary_corridor(5, 10) has ∂_3 whole
IMAGES = [("corridor", 30, 2), ("pm", 30, 2), ("corridor", 20, 3), ("pm", 20, 3),
          ("boundary", 9, 4), ("boundary", 10, 5)]


@cache
def image_oracle(kind, n, d):
    """An image's vertex count, facets and oracle Betti numbers for
    k = 0..d+2, computed once per image."""
    if kind == "corridor":
        X = run(ProcessConfig(n=n, d=d, seed=1)).image
    elif kind == "pm":
        X = pm_run(PmConfig(n=n, d=d, seed=1)).image
    else:
        X = boundary_corridor(d, n)
    return X.n, X.facets, [oracle_betti(X, k) for k in range(d + 3)]


@st.composite
def images(draw):
    n, facets, _ = image_oracle(*draw(st.sampled_from(IMAGES)))
    return SimplicialComplex(n=n, facets=facets)


@st.composite
def complexes_with_oracle(draw):
    """A complex without a homology record yet, and its oracle Betti
    numbers for k = 0..dim+2."""
    image = draw(st.one_of(st.none(), st.sampled_from(IMAGES)))
    if image is not None:
        n, facets, want = image_oracle(*image)
        return SimplicialComplex(n=n, facets=facets), want
    X = draw(st.one_of(
        st.builds(random_small_complex, st.integers(0, 2**32).map(random.Random),
                  st.integers(1, 5), st.integers(6, 12)),
        dense_complexes(),
    ))
    return X, [oracle_betti(X, k) for k in range(X.dim + 3)]


class TestHomologyRecord:
    @settings(max_examples=200, deadline=None)
    @given(complexes_with_oracle(), st.randoms(use_true_random=False))
    def test_any_order_matches_oracle(self, case, rng):
        X, want = case
        ks = list(range(len(want)))  # two past dim X
        rng.shuffle(ks)
        assert {k: reduced_betti(X, k) for k in ks} == dict(enumerate(want))
        assert betti_numbers(X) == want[: X.dim + 1]

    def test_builds_each_boundary_once(self, monkeypatch):
        image = pm_run(PmConfig(n=30, d=3, seed=1)).image
        forests, built, listed, enumerated = [], [], [], Counter()
        forest, rank, faces = gf2._spanning_forest, gf2.rank_gf2, gf2.k_faces
        monkeypatch.setattr(
            gf2, "_spanning_forest", lambda nodes, edges: forests.append(nodes) or forest(nodes, edges)
        )
        monkeypatch.setattr(gf2, "rank_gf2", lambda m: built.append((m.rows, m.cols)) or rank(m))
        # gf2 calls complexes.k_faces through its own module binding
        monkeypatch.setattr(gf2, "k_faces", lambda X, k: listed.append(k) or faces(X, k))
        def counted(subsets):
            return lambda f, k: enumerated.update([(len(f), k)]) or subsets(f, k)

        # the ridge pass (complexes.ridge_holders) and k_faces enumerate in
        # complexes, the bit rows in gf2
        for module in (gf2, complexes):
            monkeypatch.setattr(module, "combinations", counted(module.combinations))
        per_k = [reduced_betti(image, k) for k in range(image.dim + 2)]
        assert betti_numbers(image) == per_k[:-1]
        (f0, f1, f2, f3), ranks = gf2._homology(image)
        # ∂_3 and ∂_1 by union-find, ∂_1 over the vertices; each
        # tetrahedron's triangles and edges enumerated once (the ridge map,
        # the one listing of the edges); ∂_2 built once, on the cotree edges
        # and the triangles outside the forest of ∂_3
        once = {"forests": [f3 + 1, f0], "built": [(f1 - ranks[1], f2 - ranks[3])], "listed": [1],
                "enumerated": {(4, 3): f3, (4, 2): f3, (3, 2): f2 - ranks[3]}}
        logs = {"forests": forests, "built": built, "listed": listed, "enumerated": enumerated}
        assert logs == once
        # the record belongs to the instance, not to its facets
        for log in logs.values():
            log.clear()
        twin = SimplicialComplex(n=image.n, facets=image.facets)
        assert betti_numbers(twin) == per_k[:-1]
        assert logs == once

    @pytest.mark.parametrize("X,forests,built", [
        # ∂_2 graphic: nothing is left for rank_gf2
        (boundary_corridor(2, 8), 2, 0),
        # an edge in three triangles: ∂_2 on the cotree rows
        (complex_from_facets([[1, 2, 3], [1, 2, 4], [1, 2, 5]]), 1, 1),
        # a triangle in three tetrahedra: ∂_2 on the cotree rows, ∂_3 whole
        (complex_from_facets([[1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 3, 6]]), 1, 2),
        # ∂_2 on the cotree rows, ∂_3 on the columns outside the forest
        (boundary_corridor(4, 9), 2, 2),
        # and ∂_3 whole in between
        (boundary_corridor(5, 10), 2, 3),
    ])
    def test_path_choice(self, monkeypatch, X, forests, built):
        calls = Counter()
        forest, rank = gf2._spanning_forest, gf2.rank_gf2
        monkeypatch.setattr(
            gf2, "_spanning_forest", lambda *a: calls.update(["forest"]) or forest(*a)
        )
        monkeypatch.setattr(gf2, "rank_gf2", lambda m: calls.update(["rank"]) or rank(m))
        assert betti_numbers(X) == [oracle_betti(X, k) for k in range(X.dim + 1)]
        assert (calls["forest"], calls["rank"]) == (forests, built)

    def test_memory_follows_the_complex_not_the_vertex_ids(self):
        # the union-find of ∂_1 runs over the vertices' ranks: a vertex id
        # of 10**6 costs no list of 10**6 entries
        X = complex_from_facets([[1, 10**6], [2, 3, 4]])
        tracemalloc.start()
        try:
            betti = betti_numbers(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert betti == [1, 0, 0] == [oracle_betti(X, k) for k in range(3)]
        assert peak < 2**20

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
        with pytest.raises(InvalidParams):
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


class TestRestriction:
    """The cuts _counts_and_ranks makes keep the rank of the boundary:
    the rows of cotree edges of ∂_2, and the columns of ∂_{d-1} outside a
    spanning forest of a graphic ∂_d. The forests come from networkx."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(dense_complexes(min_dim=2), images()))
    def test_cotree_rows_of_d2(self, X):
        edges = sorted(k_faces(X, 1))
        tree = forest_keys((a, b, i) for i, (a, b) in enumerate(edges))
        full = boundary_matrix(X, 2)  # rows in the order of edges
        cut = Gf2Matrix(rows=len(edges) - len(tree), cols=full.cols,
                        bits=[row for i, row in enumerate(full.bits) if i not in tree])
        cotree = [e for i, e in enumerate(edges) if i not in tree]
        want = oracle_rank(full)
        assert oracle_rank(cut) == want
        assert rank_gf2(gf2._boundary_rows(k_faces(X, 2), cotree, 2)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(graphic_complexes(), images()))
    def test_non_forest_columns_of_top_minus_one(self, X):
        d = X.dim
        holders = {}
        for f in k_faces(X, d):
            for r in combinations(f, d):
                holders.setdefault(r, []).append(f)
        assume(all(len(h) <= 2 for h in holders.values()))
        forest = forest_keys((h[0], h[-1] if len(h) == 2 else "ground", r) for r, h in holders.items())
        ridges = sorted(k_faces(X, d - 1))  # columns of ∂_{d-1}
        kept = [r for r in ridges if r not in forest]
        mask = sum(1 << j for j, r in enumerate(ridges) if r not in forest)
        full = boundary_matrix(X, d - 1)
        cut = Gf2Matrix(rows=full.rows, cols=full.cols, bits=[row & mask for row in full.bits])
        want = oracle_rank(full)
        assert oracle_rank(cut) == want
        assert rank_gf2(gf2._boundary_rows(kept, k_faces(X, d - 2), d - 1)) == want
        if d == 3:
            # both cuts at once, as ∂_2 is ranked at d = 3
            edges = sorted(k_faces(X, 1))
            tree = forest_keys((a, b, i) for i, (a, b) in enumerate(edges))
            cotree = [e for i, e in enumerate(edges) if i not in tree]
            assert rank_gf2(gf2._boundary_rows(kept, cotree, 2)) == want
