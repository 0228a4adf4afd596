"""Dual graphs of pure complexes: diameter, connectivity, induced paths.

The dual graph has one node per d-face, with an edge whenever two d-faces
share a (d-1)-face (a ridge): it joins the holders of each ridge in the
complex's face index (``complexes.face_index``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Container
from dataclasses import dataclass
from itertools import chain, combinations

from .complexes import Face, SimplicialComplex, face_index
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
    """Dual graph on the d-faces of X, in sorted face order, read off the
    face index. Two d-faces share at most one ridge, so no pair is joined
    twice."""
    index = face_index(X, d)
    if not index.faces:
        raise EmptyDual(f"complex has no {d}-faces")
    adj: list[list[int]] = [[] for _ in index.faces]
    for bucket in index.holders.values():
        for i, j in combinations(bucket, 2):
            adj[i].append(j)
            adj[j].append(i)
    for a in adj:
        a.sort()
    return DualGraph(nodes=index.faces, adj=adj)


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


def diameter(g: DualGraph) -> int:
    """Exact graph diameter by iFUB (Crescenzi, Grossi, Habib, Lanzi,
    Marino, TCS 2013).

    A double sweep from the node a farthest from node 0 gives the lower
    bound lb = ecc(a) and a far node b; a BFS from a middle node u of the
    a-b path sorts the nodes by level. Walking the nodes from the top level
    down, every pair not yet covered has both ends on level <= i and so
    lies within distance 2i: the walk stops once lb >= 2i and otherwise
    raises lb to the eccentricity of the next node. Long, thin duals need a
    handful of BFS runs, and a path needs only the double sweep: lb = nv - 1
    is the longest a shortest path on nv nodes can be.
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
    if lb == nv - 1:
        return lb  # no path on nv nodes is longer: every induced path ends here
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


def maximum_flow(
    adj: list[list[int]], source: int, sinks: Container[int], limit: int
) -> int:
    """Number of paths from source to distinct members of sinks, disjoint
    but for source, counted up to limit.

    Unit-capacity augmenting paths in the split-node residual graph: state
    2v is v's entry and 2v + 1 its exit, and pred[v] is the node whose path
    enters v. Each BFS starts at the source's exit and stops at the first
    free sink it reaches, so on a graph where sinks lie close by it stays
    local. A sink ends its path: the search never leaves through one.

    The source's edges into sinks are paths of their own, so they are taken
    first, up to limit, and the searches augment from that flow.
    """
    direct = [w for w in adj[source] if w in sinks][:limit]
    pred = dict.fromkeys(direct, source)
    start = 2 * source + 1
    for flow in range(len(direct), limit):
        parent = {start: start}
        queue = deque([start])
        end = None
        while queue and end is None:
            state = queue.popleft()
            v = state >> 1
            if state & 1:
                # v's exit: along any edge, or back to v's entry if a path uses v
                nexts = [2 * w for w in adj[v] if w != source]
                if v in pred:
                    nexts.append(2 * v)
            elif v in pred:
                nexts = [2 * pred[v] + 1]  # v is taken: back along the path into v
            else:
                nexts = [state + 1]
            for nxt in nexts:
                if nxt not in parent:
                    parent[nxt] = state
                    if not nxt & 1 and nxt >> 1 in sinks and nxt >> 1 not in pred:
                        end = nxt
                        break
                    queue.append(nxt)
        if end is None:
            return flow
        state = end
        while state != start:
            prev = parent[state]
            u, v = prev >> 1, state >> 1
            if u != v:
                if prev & 1:
                    pred[v] = u  # the path now enters v from u
                else:
                    del pred[u]  # cancelled: the path into u came back out
            state = prev
    return limit


def vertex_connectivity(g: DualGraph) -> int:
    """Exact vertex connectivity κ by Even's test with a descending k.

    Even's theorem (S. Even, "An algorithm for determining whether the
    connectivity of a graph is at least k", SIAM J. Comput. 1975), with the
    pair reduction of Esfahanian and Hakimi (Networks 1984): for nodes
    v_0, ..., v_{n-1} in any order and k < n, the graph is k-connected iff
    every non-adjacent pair among v_0..v_{k-1} is joined by k internally
    disjoint paths, and every later v_t has a fan of k paths, disjoint but
    for v_t, to distinct nodes of {v_0, ..., v_{t-1}}. (If a set S of fewer
    than k nodes separates, let v_i be the first node outside S and v_j the
    first outside S and v_i's component: for j < k the pair (v_i, v_j) has
    at most |S| paths, and for j >= k the fan of v_j has at most |S|.)

    The nodes are taken in BFS level order, so every fan has sinks close
    by and each count (`maximum_flow`) stays local. A pair (u, v) counts
    paths from u to v's neighbors, which extend to internally disjoint
    u-v paths; a fan counts paths from v_t to the nodes before it.

    The test starts at k = δ, since κ <= δ. A count f below k is exact
    and bounds κ: a pair count is the pair's local connectivity, and a
    fan's minimum cut S (|S| = f) separates v_t from the earlier nodes
    outside S, of which there are at least t - f >= k - f > 0. So k = f
    and the test runs again; the first k that passes is κ. When κ = δ
    this is one pass: n - k fans and at most C(k, 2) pair counts.

    Complete graphs return num_nodes - 1, a disconnected graph returns 0,
    and a connected graph with a node of degree 1 returns 1 without a
    count.
    """
    nv = g.num_nodes
    if nv < 2:
        raise InvalidParams("connectivity needs at least 2 nodes")
    dist = _bfs_distances(g, 0)
    if min(dist) < 0:
        return 0
    if all(len(a) == nv - 1 for a in g.adj):
        return nv - 1
    k = min(len(a) for a in g.adj)
    if k == 1:
        # kappa <= min degree, and a connected graph has kappa >= 1;
        # every corridor dual (an induced path) ends here without a count
        return 1
    order = sorted(range(nv), key=dist.__getitem__)
    rank = {v: i for i, v in enumerate(order)}
    adj = [[rank[w] for w in g.adj[v]] for v in order]
    while True:
        pairs = ((u, set(adj[v])) for v in range(k) for u in range(v) if u not in adj[v])
        fans = ((t, range(t)) for t in range(k, nv))
        counts = (maximum_flow(adj, s, sinks, k) for s, sinks in chain(pairs, fans))
        short = next((f for f in counts if f < k), None)
        if short is None:
            return k
        k = short


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
