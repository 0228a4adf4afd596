"""Dual graphs of pure complexes: diameter, connectivity, induced paths.

The dual graph has one node per d-face, with an edge whenever two d-faces
share a (d-1)-face. Built by hashing each (d-1)-subface to its incident
d-faces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .complexes import Face, SimplicialComplex, k_faces
from .errors import EmptyDual, InvalidParams, NotStronglyConnected, RefusedSize


@dataclass
class DualGraph:
    nodes: list[Face]
    adj: list[list[int]]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]


def build_dual(X: SimplicialComplex, d: int) -> DualGraph:
    """Dual graph on the d-faces of X, in sorted face order."""
    faces = sorted(k_faces(X, d))
    if not faces:
        raise EmptyDual(f"complex has no {d}-faces")
    index: dict[Face, list[int]] = {}
    for i, f in enumerate(faces):
        for sub in combinations(f, d):
            index.setdefault(sub, []).append(i)
    adj: list[set[int]] = [set() for _ in faces]
    for bucket in index.values():
        for i, j in combinations(bucket, 2):
            adj[i].add(j)
            adj[j].add(i)
    return DualGraph(nodes=faces, adj=[sorted(a) for a in adj])


def johnson_graph(n: int, k: int) -> DualGraph:
    """The Johnson graph J(n, k): k-subsets of [n], adjacent when they
    intersect in k - 1 elements; the dual on the (k-1)-faces of the
    complex of all k-subsets."""
    if not 1 <= k <= n:
        raise InvalidParams(f"need 1 <= k <= n, got n={n}, k={k}")
    X = SimplicialComplex(n=n, facets=frozenset(combinations(range(1, n + 1), k)))
    return build_dual(X, k - 1)


def _bfs_distances(g: DualGraph, source: int) -> list[int]:
    dist = [-1] * g.num_nodes
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in g.adj[u]:
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(v)
    return dist


def is_connected(g: DualGraph) -> bool:
    return g.num_nodes <= 1 or all(x >= 0 for x in _bfs_distances(g, 0))


def is_strongly_connected(X: SimplicialComplex, d: int) -> bool:
    """Whether the dual graph on the d-faces of X is connected."""
    try:
        return is_connected(build_dual(X, d))
    except EmptyDual:
        return False


def diameter(g: DualGraph) -> int:
    """Exact graph diameter by iFUB (Crescenzi, Grossi, Habib, Lanzi,
    Marino, TCS 2013).

    A double sweep from the node a farthest from node 0 gives the lower
    bound lb = ecc(a) and a far node b; a BFS from a middle node u of the
    a-b path sorts the nodes by level. Walking the nodes from the top level
    down, every pair not yet covered has both ends on level <= i and so
    lies within distance 2i: the walk stops once lb >= 2i and otherwise
    raises lb to the eccentricity of the next node. Long, thin duals need a
    handful of BFS runs.
    """
    nv = g.num_nodes
    if nv <= 1:
        return 0
    dist0 = _bfs_distances(g, 0)
    if min(dist0) < 0:
        raise NotStronglyConnected("dual graph is disconnected")
    a = max(range(nv), key=dist0.__getitem__)
    dist_a = _bfs_distances(g, a)
    b = max(range(nv), key=dist_a.__getitem__)
    lb = dist_a[b]
    u = b
    while dist_a[u] > lb // 2:
        u = next(x for x in g.adj[u] if dist_a[x] == dist_a[u] - 1)
    dist_u = _bfs_distances(g, u)
    for x in sorted(range(nv), key=dist_u.__getitem__, reverse=True):
        if lb >= 2 * dist_u[x]:
            break
        lb = max(lb, max(_bfs_distances(g, x)))
    return lb


def is_induced_path(g: DualGraph) -> bool:
    """True iff g is a path: connected, two endpoints of degree 1 and all
    interior nodes of degree 2 (a single node counts as a trivial path).

    Since g carries all adjacencies among its faces, a path here is an
    induced path of the ambient Johnson graph.
    """
    if g.num_nodes <= 1:
        return True
    if not is_connected(g):
        return False
    degs = sorted(g.degrees())
    return degs[:2] == [1, 1] and all(x == 2 for x in degs[2:])


def caccetta_smyth_bound(num_nodes: int, K: int) -> int:
    """Diameter upper bound (num_nodes - 2) // K + 1 for a K-connected
    graph."""
    if K < 1 or num_nodes < 2:
        raise InvalidParams("need K >= 1 and at least 2 nodes")
    return (num_nodes - 2) // K + 1


def _split_flow_network(g: DualGraph) -> csr_matrix:
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


def vertex_connectivity(g: DualGraph) -> int:
    """Vertex connectivity via unit-node-capacity max-flow (Menger).

    Minimum over non-adjacent pairs of max-flow in the split network;
    a fixed minimum-degree endpoint s limits the pairs examined to
    (s, non-neighbor) plus non-adjacent pairs inside N(s). Complete
    graphs return num_nodes - 1, a disconnected graph returns 0, and a
    connected graph with a node of degree 1 returns 1 without a flow.
    """
    nv = g.num_nodes
    if nv < 2:
        raise InvalidParams("connectivity needs at least 2 nodes")
    if not is_connected(g):
        return 0
    if all(len(a) == nv - 1 for a in g.adj):
        return nv - 1
    s = min(range(nv), key=lambda i: len(g.adj[i]))
    if len(g.adj[s]) == 1:
        # kappa <= min degree, and a connected graph has kappa >= 1;
        # every corridor dual (an induced path) ends here without a flow
        return 1
    net = _split_flow_network(g)
    neighbors = set(g.adj[s])
    best = nv - 1
    for t in range(nv):
        if t != s and t not in neighbors:
            flow = maximum_flow(net, 2 * s + 1, 2 * t).flow_value
            best = min(best, flow)
    # A minimum separator containing s is caught by a pair of its
    # non-adjacent neighbors.
    for u, w in combinations(sorted(neighbors), 2):
        if w not in g.adj[u]:
            flow = maximum_flow(net, 2 * u + 1, 2 * w).flow_value
            best = min(best, flow)
    return int(best)


def longest_induced_path_bruteforce(g: DualGraph, node_limit: int = 16) -> int:
    """Exact longest induced path (edge count) by exhaustive DFS.

    The search carries a forbidden set (neighbors of interior path nodes),
    so every extension keeps the path induced. Guarded by node_limit.
    """
    nv = g.num_nodes
    if nv > node_limit:
        raise RefusedSize(f"{nv} nodes exceeds limit {node_limit}")
    if nv == 0:
        return 0
    adjsets = [set(a) for a in g.adj]
    best = 0

    def extend(last: int, on_path: set[int], banned: set[int], length: int):
        nonlocal best
        best = max(best, length)
        for w in g.adj[last]:
            if w in on_path or w in banned:
                continue
            # last becomes interior: its other neighbors are now forbidden
            extend(
                w,
                on_path | {w},
                banned | (adjsets[last] - {w}),
                length + 1,
            )

    for v in range(nv):
        extend(v, {v}, set(), 0)
    return best
