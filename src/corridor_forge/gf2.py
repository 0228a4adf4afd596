"""GF(2) boundary matrices and reduced Betti numbers.

A ``Gf2Matrix`` holds one Python int bitmask per row, built by
``_boundary_rows`` alone; ``rank_gf2`` eliminates by word-level XOR.
Homology ranks ∂_1, always graphic (the 1-skeleton), and the top boundary
∂_d of every pseudomanifold and corridor image, whose ridges lie in one
or two facets (the ridge map of ``complexes.face_index``), by union-find
over index pairs, with no bit rows. Their spanning forests cut the
boundaries in between down to cotree rows (∂_2) and non-forest columns
(∂_{d-1}) before those are built as bit rows for rank_gf2; at d = 2
nothing is left in between. Homology is reduced: dimension 0 is
augmented by the empty face, so a single simplex has all reduced Betti
numbers zero. Each complex computes its face counts and boundary ranks
once; every Betti number is read from that record.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import Face, SimplicialComplex, face_index, k_faces
from .errors import InvalidParams


@dataclass
class Gf2Matrix:
    rows: int
    cols: int
    bits: list[int]  # one bitmask per row, column j is bit j

    def __post_init__(self):
        assert len(self.bits) == self.rows


def rank_gf2(m: Gf2Matrix) -> int:
    """Rank over GF(2): each row is reduced against a table of pivot rows
    keyed by their lowest set bit until the row vanishes or opens a new
    pivot. XOR with the pivot sharing the row's lowest bit clears that bit
    and touches only higher ones, so the pivots stay independent."""
    pivots: dict[int, int] = {}
    for row in m.bits:
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    return len(pivots)


def _spanning_forest(nodes: int, edges) -> list[bool]:
    """For each edge (a, b) of a graph on nodes 0..nodes-1, in order,
    whether it joins two trees of the spanning forest grown so far
    (union-find with path halving). The edges that do form a spanning
    forest, and their count is the GF(2) rank of the incidence matrix."""
    parent = list(range(nodes))
    joins = []
    for a, b in edges:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        joins.append(a != b)
        parent[a] = b
    return joins


def _boundary_rows(columns, rows, k: int) -> Gf2Matrix:
    """∂_k cut down to the given k-faces (columns) and (k-1)-faces (rows):
    one bitmask per row, over the columns' indices."""
    index = {f: i for i, f in enumerate(rows)}
    bits = [0] * len(rows)
    for j, f in enumerate(columns):
        for sub in combinations(f, k):
            i = index.get(sub)
            if i is not None:
                bits[i] |= 1 << j
    return Gf2Matrix(rows=len(rows), cols=len(columns), bits=bits)


def boundary_matrix(X: SimplicialComplex, k: int) -> Gf2Matrix:
    """The k-th boundary matrix: column per k-face, row per (k-1)-face,
    both in sorted order.

    At k = 0 this is the augmentation map to the empty face (a single
    all-ones row over the vertices).
    """
    return _boundary_rows(sorted(k_faces(X, k)), sorted(k_faces(X, k - 1)) if k else [()], k)


def _counts_and_ranks(X: SimplicialComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Face counts f_0..f_d and ranks of ∂_0..∂_{d+1} of X, d = dim X.

    ∂_d: the face index (complexes.face_index) maps each (d-1)-face
    (ridge) to the d-faces that hold it. If none has three, ∂_d is the
    incidence matrix of a graph on the d-faces and a ground node (a ridge
    in two d-faces joins them, a ridge in one joins it to the ground),
    ranked by a spanning forest. ∂_1 always is one: the 1-skeleton, over the vertices.

    The boundaries in between go to rank_gf2 cut down, each cut keeping the
    rank. ∂_2 keeps only the rows of cotree edges, those outside the
    1-skeleton's spanning forest: a tree edge splits its tree into sides S
    and S', and as ∂_1∂_2 = 0 the rows of the edges between S and S', the
    tree edge and cotree edges, sum to zero. ∂_{d-1} keeps only the columns
    of ridges outside the forest of ∂_d: for a forest ridge, ∂_d of the
    d-faces on the side of its cut away from the ground is that ridge plus
    ridges outside the forest, and ∂_{d-1}∂_d = 0. ∂_k for 3 <= k <= d-2
    is ranked whole, and so is ∂_d (on the cotree rows at d = 2) when a
    ridge lies in three d-faces."""
    d = X.dim
    vertices = set().union(*X.facets)
    ranks = [1] + [0] * (d + 1)  # ∂_0, the augmentation, has rank 1
    if d == 0:
        return (len(vertices),), tuple(ranks)
    index = face_index(X, d)
    top = index.faces
    faces = {d: top, d - 1: [f for f in X.facets if len(f) == d]}  # the ridges in no d-face
    columns: dict[int, list[Face]] = {}  # ∂_k's columns where a forest cuts them
    graphic = d == 1  # then ∂_d is ∂_1
    if d >= 2:
        holders = index.holders
        graphic = all(len(h) <= 2 for h in holders.values())
        if graphic:
            ground = len(top)
            forest = _spanning_forest(
                ground + 1, [(h[0], h[1] if len(h) == 2 else ground) for h in holders.values()]
            )
            ranks[d] = sum(forest)
            columns[d - 1] = faces[d - 1] + [r for r, tree in zip(holders, forest) if not tree]
        faces[d - 1] += holders
        for k in range(1, d - 1):
            faces[k] = k_faces(X, k)
    edges = faces[1]
    # union-find over vertex ranks, so memory follows the complex, not the ids
    rank_of = {v: i for i, v in enumerate(vertices)}
    joins = _spanning_forest(len(vertices), [(rank_of[a], rank_of[b]) for a, b in edges])
    ranks[1] = sum(joins)
    cotree = [e for e, tree in zip(edges, joins) if not tree]
    for k in range(2, d if graphic else d + 1):
        rows = cotree if k == 2 else faces[k - 1]
        ranks[k] = rank_gf2(_boundary_rows(columns.get(k, faces[k]), rows, k))
    return (len(vertices), *(len(faces[k]) for k in range(1, d + 1))), tuple(ranks)


def _homology(X: SimplicialComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Face counts f_0..f_dim and ranks of ∂_0..∂_{dim+1} (the last is 0:
    no (dim+1)-faces), computed once per complex by _counts_and_ranks.
    The record is kept in the instance's __dict__, as
    functools.cached_property keeps its values, so it lives and dies with
    X and no two complexes share one."""
    record = vars(X).get("_gf2_homology")
    if record is None:
        record = vars(X)["_gf2_homology"] = _counts_and_ranks(X)
    return record


def reduced_betti(X: SimplicialComplex, k: int) -> int:
    """dim ker d_k - rank d_{k+1} over GF(2), with augmentation at k = 0;
    0 past dim X. The first call on X ranks every boundary (see
    _homology); later calls for any k only read the record."""
    if k < 0:
        raise InvalidParams("k must be nonnegative")
    betti = betti_numbers(X)
    return betti[k] if k < len(betti) else 0


def betti_numbers(X: SimplicialComplex) -> list[int]:
    """Every reduced Betti number, k = 0..dim, from the same record as
    reduced_betti: each face set is listed and each boundary matrix built
    and ranked once per complex, whichever entry point asks first."""
    counts, ranks = _homology(X)
    return [counts[k] - ranks[k] - ranks[k + 1] for k in range(len(counts))]
