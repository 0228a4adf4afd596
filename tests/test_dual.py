from fractions import Fraction
from itertools import combinations
from math import ceil, comb

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.connectivity import local_node_connectivity
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow as scipy_maximum_flow

from corridor_forge import dual
from corridor_forge.complexes import (
    boundary_corridor,
    boundary_corridor_diameter,
    complex_from_facets,
)
from corridor_forge.dual import (
    DualGraph,
    _bfs_distances,
    build_dual,
    caccetta_smyth_bound,
    diameter,
    is_induced_path,
    johnson_graph,
    longest_induced_path_bruteforce,
    vertex_connectivity,
)
from corridor_forge.errors import (
    EmptyDual,
    InvalidParams,
    NotStronglyConnected,
    RefusedSize,
)
from corridor_forge.pm import PmConfig, pm_diameter_lower, pm_run
from util import boundary_complex_of_simplex, is_strongly_connected, straight_corridor


def path_graph(k):
    return DualGraph(
        nodes=[(i,) for i in range(k)],
        adj=[
            [j for j in (i - 1, i + 1) if 0 <= j < k]
            for i in range(k)
        ],
    )


def cycle_graph(k):
    return DualGraph(
        nodes=[(i,) for i in range(k)],
        adj=[[(i - 1) % k, (i + 1) % k] for i in range(k)],
    )


def oracle_diameter(g):
    """The former diameter: BFS from every node."""
    best = 0
    for s in range(g.num_nodes):
        dist = _bfs_distances(g, s)
        if min(dist) < 0:
            raise NotStronglyConnected("dual graph is disconnected")
        best = max(best, max(dist))
    return best


def _split_flow_network(g):
    """Node-splitting network: node i becomes arc 2i -> 2i+1 of capacity 1;
    each undirected edge {u, v} becomes arcs u_out -> v_in and v_out -> u_in."""
    rows, cols, caps = [], [], []
    for i in range(g.num_nodes):
        rows.append(2 * i)
        cols.append(2 * i + 1)
        caps.append(1)
        for j in g.adj[i]:
            rows.append(2 * i + 1)
            cols.append(2 * j)
            caps.append(1)
    m = 2 * g.num_nodes
    return csr_matrix(
        (np.asarray(caps, dtype=np.int32), (rows, cols)), shape=(m, m)
    )


def per_pair_connectivity(g):
    """The former vertex_connectivity: one max-flow from a minimum-degree
    node s to each non-neighbor, and one between each non-adjacent pair of
    s's neighbors (a minimum separator containing s separates two of
    them). Connected, non-complete graphs of minimum degree >= 2 only."""
    net = _split_flow_network(g)
    s = min(range(g.num_nodes), key=lambda i: len(g.adj[i]))
    neighbors = set(g.adj[s])
    pairs = [(s, t) for t in range(g.num_nodes) if t != s and t not in neighbors]
    pairs += [(u, w) for u, w in combinations(sorted(neighbors), 2) if w not in g.adj[u]]
    return min(scipy_maximum_flow(net, 2 * u + 1, 2 * w).flow_value for u, w in pairs)


def oracle_connectivity(g):
    """Menger by brute force: the minimum max-flow over every non-adjacent
    pair of the unit-node-capacity split network; num_nodes - 1 when
    every pair is adjacent."""
    nv = g.num_nodes
    net = _split_flow_network(g)
    best = nv - 1
    for s in range(nv):
        for t in range(s + 1, nv):
            if t not in g.adj[s]:
                best = min(best, scipy_maximum_flow(net, 2 * s + 1, 2 * t).flow_value)
    return best


def graph_from_edges(k, edges):
    adj = [set() for _ in range(k)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return DualGraph(nodes=[(i,) for i in range(k)], adj=[sorted(a) for a in adj])


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.num_nodes))
    h.add_edges_from((i, j) for i, a in enumerate(g.adj) for j in a if i < j)
    return h


@st.composite
def trees_with_extra_edges(draw, max_nodes=24):
    k = draw(st.integers(1, max_nodes))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
    node = st.integers(0, k - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=k))
    label = draw(st.permutations(range(k)))
    return graph_from_edges(k, [(label[u], label[v]) for u, v in edges])


@st.composite
def random_complex_duals(draw):
    """Duals of random pure complexes; often disconnected."""
    d = draw(st.integers(1, 3))
    facet = st.sets(st.integers(1, d + 5), min_size=d + 1, max_size=d + 1)
    facets = draw(st.lists(facet, min_size=1, max_size=14))
    return build_dual(complex_from_facets([sorted(f) for f in facets]), d)


@st.composite
def planted_separators(draw):
    """Cliques A and B (at least 2 nodes each) joined through a set S of
    1 to 3 nodes, each adjacent to all of A and B, with random edges inside
    S: kappa = |S| < delta, so the test must descend from k = delta."""
    sep = draw(st.integers(1, 3))
    a, b = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    side_a, side_b = range(a), range(a, a + b)
    middle = range(a + b, a + b + sep)
    edges = list(combinations(side_a, 2)) + list(combinations(side_b, 2))
    edges += [(x, y) for x in middle for y in (*side_a, *side_b)]
    node = st.sampled_from(middle)
    edges += draw(st.lists(st.tuples(node, node), max_size=3))
    k = a + b + sep
    label = draw(st.permutations(range(k)))
    return sep, graph_from_edges(k, [(label[u], label[v]) for u, v in edges])


@st.composite
def random_regular(draw, max_nodes):
    r = draw(st.sampled_from([3, 4]))
    k = draw(st.integers(r + 2, max_nodes).filter(lambda k: r * k % 2 == 0))
    h = nx.random_regular_graph(r, k, seed=draw(st.integers(0, 2**16)))
    return graph_from_edges(k, h.edges())


def graphs(max_nodes):
    return st.one_of(
        st.integers(1, max_nodes).map(path_graph),
        st.integers(3, max_nodes).map(cycle_graph),
        trees_with_extra_edges(max_nodes),
        random_complex_duals(),
        random_regular(max_nodes),
    )


class TestBuildDual:
    def test_corridor_is_path(self):
        g = build_dual(straight_corridor(2, 5), 2)
        assert g.num_nodes == 3 and g.num_edges == 2
        assert is_induced_path(g)

    def test_boundary_corridor_cubic(self):
        g = build_dual(boundary_corridor(2, 6), 2)
        assert g.num_nodes == 8
        assert all(deg == 3 for deg in g.degrees())

    def test_single_simplex(self):
        g = build_dual(complex_from_facets([[1, 2, 3]]), 2)
        assert g.num_nodes == 1 and g.num_edges == 0

    def test_no_faces(self):
        with pytest.raises(EmptyDual):
            build_dual(complex_from_facets([[1, 2]]), 2)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=5), min_size=1, max_size=10))
    def test_matches_shared_vertex_oracle(self, facets):
        # facet sizes mix, so for d < dim some d-faces come from larger facets
        X = complex_from_facets([sorted(f) for f in facets])
        for d in range(X.dim + 1):
            nodes = sorted({s for f in X.facets for s in combinations(f, d + 1)})
            g = build_dual(X, d)
            assert g.nodes == nodes
            for i, a in enumerate(nodes):
                assert g.adj[i] == [
                    j for j, b in enumerate(nodes) if j != i and len(set(a) & set(b)) == d
                ]


class TestDiameter:
    def test_corridor_duals(self):
        for d in (1, 2, 3):
            for n in range(d + 2, 10):
                g = build_dual(straight_corridor(d, n), d)
                assert diameter(g) == n - d - 1

    def test_boundary_corridor(self):
        assert diameter(build_dual(boundary_corridor(2, 6), 2)) == 3

    def test_single_node(self):
        assert diameter(build_dual(complex_from_facets([[1, 2, 3]]), 2)) == 0

    def test_disconnected(self):
        with pytest.raises(NotStronglyConnected):
            diameter(build_dual(complex_from_facets([[1, 2, 3], [4, 5, 6]]), 2))

    def test_disconnected_node_zero_in_either_part(self):
        # node 0 isolated, then node 0 inside the larger part
        for edges in ([(1, 2), (2, 3)], [(0, 1), (1, 2)]):
            with pytest.raises(NotStronglyConnected):
                diameter(graph_from_edges(4, edges))

    def test_level_pair_beyond_double_sweep(self):
        # the double sweep finds 3; the pair at distance 4 sits on level 2
        # of the middle node's BFS, so stopping at lb >= 2i - 1 misses it
        adj = [[4, 7, 8], [3, 4], [6, 7], [1, 8, 9], [0, 1, 6, 8], [8],
               [2, 4, 7], [0, 2, 6, 9], [0, 3, 4, 5], [3, 7]]
        g = DualGraph(nodes=[(i,) for i in range(10)], adj=adj)
        assert diameter(g) == oracle_diameter(g) == 4

    def test_empty_graph(self):
        assert diameter(DualGraph(nodes=[], adj=[])) == 0

    @settings(max_examples=300, deadline=None)
    @given(graphs(40))
    def test_matches_all_pairs_oracle_and_networkx(self, g):
        h = to_networkx(g)
        if not nx.is_connected(h):
            with pytest.raises(NotStronglyConnected):
                diameter(g)
            with pytest.raises(NotStronglyConnected):
                oracle_diameter(g)
            return
        got = diameter(g)
        assert got == oracle_diameter(g)
        assert got == nx.diameter(h)


class TestBfsBudget:
    """A few BFS runs certify the diameter of a long, thin dual; the
    all-pairs method would take one per node."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("N", [60, 61, 63])
    @pytest.mark.parametrize("kind", ["straight", "boundary"])
    def test_corridor_duals(self, monkeypatch, kind, N, d):
        if kind == "straight":
            g = build_dual(straight_corridor(d, N), d)
            # the dual is a path on the N - d windows
            want = N - d - 1
        else:
            g = build_dual(boundary_corridor(d, N), d)
            want = boundary_corridor_diameter(d, N)
            assert want >= pm_diameter_lower(N, d)
        assert oracle_diameter(g) == want
        calls = []

        def counting_bfs(graph, source):
            calls.append(source)
            return _bfs_distances(graph, source)

        monkeypatch.setattr(dual, "_bfs_distances", counting_bfs)
        assert diameter(g) == want
        assert len(calls) <= 16

    @pytest.mark.parametrize("d", [2, 3])
    def test_path_needs_only_the_double_sweep(self, monkeypatch, d):
        # the sweep already reaches nv - 1, the most a path on nv nodes has
        g = build_dual(straight_corridor(d, 60), d)
        calls = []
        monkeypatch.setattr(
            dual, "_bfs_distances", lambda graph, s: calls.append(s) or _bfs_distances(graph, s)
        )
        assert diameter(g) == g.num_nodes - 1 == oracle_diameter(g)
        assert len(calls) == 2


class TestBoundaryCorridorDiameter:
    """Each step of the proof in boundary_corridor_diameter's docstring."""

    @staticmethod
    def window_and_missing(facet, d, N):
        """(a, x): the one window W_a = {a, ..., a+d+1} holding the facet,
        and the vertex of W_a it misses."""
        m = N - d - 1
        (a,) = [a for a in range(1, m + 1) if a <= facet[0] and facet[-1] <= a + d + 1]
        (x,) = set(range(a, a + d + 2)) - set(facet)
        return a, x

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_formula_sandwich_and_potential(self, d):
        for N in range(d + 2, 61):
            m = N - d - 1
            g = build_dual(boundary_corridor(d, N), d)
            want = boundary_corridor_diameter(d, N)
            assert g.num_nodes == d * m + 2
            assert set(g.degrees()) == {d + 1}
            assert diameter(g) == want == caccetta_smyth_bound(g.num_nodes, d + 1)
            if N <= 30:
                assert oracle_diameter(g) == want
            ax = [self.window_and_missing(f, d, N) for f in g.nodes]
            phi = [a - Fraction(x, d + 1) for a, x in ax]
            for u, nbrs in enumerate(g.adj):
                for v in nbrs:
                    (a, x), (b, y) = sorted((ax[u], ax[v]))
                    # one window, (a, x)-(a+1, x) or (a, a+1)-(a+2, a+d+2)
                    assert b == a or (b, y) == (a + 1, x) or (x, b, y) == (a + 1, a + 2, a + d + 2)
                    assert abs(phi[u] - phi[v]) <= 1
            gap = phi[ax.index((m, m))] - phi[ax.index((1, d + 2))]
            assert gap == Fraction(d * m + 1, d + 1)
            assert ceil(gap) == want

    def test_guard(self):
        with pytest.raises(InvalidParams):
            boundary_corridor_diameter(2, 3)
        with pytest.raises(InvalidParams):
            boundary_corridor_diameter(0, 5)


class TestConnectivityPredicates:
    def test_corridor_connected(self):
        assert is_strongly_connected(straight_corridor(2, 5), 2)

    def test_disjoint_triangles(self):
        assert not is_strongly_connected(
            complex_from_facets([[1, 2, 3], [4, 5, 6]]), 2
        )

    def test_boundary_corridor(self):
        assert is_strongly_connected(boundary_corridor(2, 6), 2)


class TestIsInducedPath:
    def test_path(self):
        assert is_induced_path(path_graph(5))

    def test_cycle(self):
        assert not is_induced_path(cycle_graph(4))

    def test_single_node(self):
        assert is_induced_path(path_graph(1))

    def test_two_nodes(self):
        assert is_induced_path(path_graph(2))


def fan_oracle(g, source, sinks):
    """Paths from source to distinct sinks, disjoint but for source: the
    local node connectivity from source to a new node joined to every
    sink."""
    h = to_networkx(g)
    h.add_edges_from((-1, t) for t in sinks)
    return local_node_connectivity(h, source, -1)


@st.composite
def fan_instances(draw):
    g = draw(st.one_of(random_regular(30), trees_with_extra_edges(30)).filter(
        lambda g: g.num_nodes >= 2))
    source = draw(st.integers(0, g.num_nodes - 1))
    others = [v for v in range(g.num_nodes) if v != source]
    return g, source, draw(st.sets(st.sampled_from(others), min_size=1))


# a fan of 3 the count finds only by re-routing back along an existing
# path through a node, which then leaves it
REROUTED_FAN = (
    graph_from_edges(14, [
        (0, 6), (0, 8), (0, 13), (1, 10), (1, 11), (1, 12), (2, 3), (2, 9),
        (2, 12), (3, 4), (3, 11), (4, 6), (4, 7), (5, 6), (5, 7), (5, 8),
        (7, 10), (8, 10), (9, 12), (9, 13), (11, 13),
    ]),
    10,
    {2, 3, 13},
)


class TestMaximumFlow:
    @settings(max_examples=300, deadline=None)
    @given(fan_instances())
    @example(REROUTED_FAN)
    def test_matches_local_connectivity(self, instance):
        g, source, sinks = instance
        want = fan_oracle(g, source, sinks)
        assert dual.maximum_flow(g.adj, source, sinks, g.num_nodes) == want
        for limit in range(want + 1):
            assert dual.maximum_flow(g.adj, source, sinks, limit) == limit


class TestVertexConnectivity:
    def test_complete_graph(self):
        g = build_dual(boundary_complex_of_simplex([1, 2, 3, 4]), 2)
        assert vertex_connectivity(g) == 3

    def test_path(self):
        assert vertex_connectivity(path_graph(3)) == 1

    def test_boundary_corridor(self):
        g = build_dual(boundary_corridor(2, 6), 2)
        assert vertex_connectivity(g) == 3

    def test_cycle(self):
        assert vertex_connectivity(cycle_graph(6)) == 2

    def test_disconnected(self):
        g = build_dual(complex_from_facets([[1, 2, 3], [4, 5, 6]]), 2)
        assert vertex_connectivity(g) == 0

    def test_3d_pseudomanifold(self):
        g = build_dual(boundary_corridor(3, 9), 3)
        assert vertex_connectivity(g) == 4

    def test_path_needs_no_flow(self, monkeypatch):
        flows = []
        monkeypatch.setattr(dual, "maximum_flow", lambda *a: flows.append(a))
        for d in (2, 3, 4):
            g = build_dual(straight_corridor(d, 60), d)
            assert vertex_connectivity(g) == 1
        assert flows == []

    @settings(max_examples=150, deadline=None)
    @given(graphs(16).filter(lambda g: g.num_nodes >= 2))
    def test_matches_flow_oracle_and_networkx(self, g):
        got = vertex_connectivity(g)
        assert got == nx.node_connectivity(to_networkx(g))
        assert got == oracle_connectivity(g)

    @settings(max_examples=150, deadline=None)
    @given(planted_separators())
    def test_descends_to_a_planted_separator(self, planted):
        sep, g = planted
        got = vertex_connectivity(g)
        assert got == sep < min(g.degrees())
        assert got == nx.node_connectivity(to_networkx(g))
        assert got == oracle_connectivity(g)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_boundary_corridor_is_d_plus_1_connected(self, d):
        for N in range(d + 2, 41):
            g = build_dual(boundary_corridor(d, N), d)
            assert vertex_connectivity(g) == d + 1
            if N <= 12:
                assert nx.node_connectivity(to_networkx(g)) == d + 1
            if N in (20, 40):
                assert per_pair_connectivity(g) == d + 1

    def test_pm_dual_takes_one_pass(self, monkeypatch):
        # one pass of Even's test at k = delta = kappa: a fan per node after
        # the first k, and at most C(k, 2) pair counts
        g = build_dual(pm_run(PmConfig(n=60, d=2, seed=1, compute_diameter=False)).image, 2)
        real = dual.maximum_flow
        calls = []

        def counting_flow(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(dual, "maximum_flow", counting_flow)
        kappa = vertex_connectivity(g)
        assert kappa == 3 == per_pair_connectivity(g)
        assert len(calls) <= g.num_nodes + comb(kappa, 2)

    def test_diameter_within_caccetta_smyth(self):
        for d, n in [(2, 6), (2, 10), (3, 8)]:
            g = build_dual(boundary_corridor(d, n), d)
            k = vertex_connectivity(g)
            assert diameter(g) <= caccetta_smyth_bound(g.num_nodes, k)


class TestCaccettaSmyth:
    def test_values(self):
        assert caccetta_smyth_bound(8, 3) == 3
        assert caccetta_smyth_bound(2, 1) == 1
        assert caccetta_smyth_bound(10, 3) == 3

    def test_guard(self):
        with pytest.raises(InvalidParams):
            caccetta_smyth_bound(1, 1)


class TestJohnsonGraph:
    def test_j43_complete(self):
        g = johnson_graph(4, 3)
        assert g.num_nodes == 4
        assert all(deg == 3 for deg in g.degrees())

    def test_j53_regular(self):
        g = johnson_graph(5, 3)
        assert g.num_nodes == 10
        assert all(deg == 6 for deg in g.degrees())

    def test_jn1_complete(self):
        g = johnson_graph(6, 1)
        assert all(deg == 5 for deg in g.degrees())

    def test_degree_formula(self):
        for n, d in [(6, 2), (7, 2), (6, 3)]:
            g = johnson_graph(n, d + 1)
            assert all(deg == (d + 1) * (n - d - 1) for deg in g.degrees())


class TestLongestInducedPath:
    def test_complete_graph(self):
        assert longest_induced_path_bruteforce(johnson_graph(4, 3)) == 1

    def test_path(self):
        assert longest_induced_path_bruteforce(path_graph(5)) == 4

    def test_cycle(self):
        assert longest_induced_path_bruteforce(cycle_graph(6)) == 4

    def test_j53_golden(self):
        # frozen brute-force value of H_s(5, 2)
        assert longest_induced_path_bruteforce(johnson_graph(5, 3)) == 3

    def test_size_guard(self):
        with pytest.raises(RefusedSize):
            longest_induced_path_bruteforce(johnson_graph(6, 3))
