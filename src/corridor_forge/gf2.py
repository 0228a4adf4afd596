"""GF(2) boundary matrices and reduced Betti numbers.

Matrices are stored as one Python int bitmask per row; elimination is
word-level XOR. A matrix whose rows have at most two set bits each is the
incidence matrix of a graph and is ranked by union-find instead: the top
boundary of every pseudomanifold and corridor image is one, since each of
their (d-1)-faces lies in one or two facets. Homology is reduced:
dimension 0 is augmented by the empty face, so a single simplex has all
reduced Betti numbers zero. Each complex computes its face counts and
boundary ranks once; every Betti number is read from that record.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import Face, SimplicialComplex, k_faces
from .errors import InvalidFace, InvalidParams


@dataclass
class Gf2Matrix:
    rows: int
    cols: int
    bits: list[int]  # one bitmask per row, column j is bit j

    def __post_init__(self):
        assert len(self.bits) == self.rows


def rank_gf2(m: Gf2Matrix) -> int:
    """Rank over GF(2).

    When every row has at most two set bits the matrix is the incidence
    matrix of a graph: columns are nodes, a two-bit row is an edge and a
    one-bit row an edge to an extra ground node. Its rank is then the edge
    count of a spanning forest, found by union-find in near-linear time.
    The top boundary ∂_d of a pseudomanifold (each (d-1)-face in exactly
    two facets) and of a corridor image (in one or two) is such a matrix.

    Any other matrix is reduced row by row against a table of pivot rows
    keyed by their lowest set bit until the row vanishes or opens a new
    pivot. XOR with the pivot sharing the row's lowest bit clears that bit
    and touches only higher ones, so the pivots stay independent."""
    if all(row.bit_count() <= 2 for row in m.bits):
        return _forest_rank(m.bits)
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


def _forest_rank(bits: list[int]) -> int:
    """Spanning-forest edge count of the graph whose edges are the rows,
    each of at most two set bits. The ground node sits above the highest
    set bit, not at ``cols``: nothing keeps the bits below ``cols``."""
    ground = max(map(int.bit_length, bits), default=0)
    parent = list(range(ground + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    rank = 0
    for row in bits:
        if not row:
            continue
        low = row & -row
        high = row ^ low
        a = find(low.bit_length() - 1)
        b = find(high.bit_length() - 1 if high else ground)
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def _boundary(faces_k: list[Face], faces_low: list[Face], k: int) -> Gf2Matrix:
    """Boundary matrix from sorted face lists: column per k-face, row per
    (k-1)-face; faces_low = [()] gives the augmentation row at k = 0."""
    row_of = {f: i for i, f in enumerate(faces_low)}
    bits = [0] * len(faces_low)
    for j, f in enumerate(faces_k):
        for sub in combinations(f, k):
            bits[row_of[sub]] |= 1 << j
    return Gf2Matrix(rows=len(faces_low), cols=len(faces_k), bits=bits)


def boundary_matrix(X: SimplicialComplex, k: int) -> Gf2Matrix:
    """The k-th boundary matrix: column per k-face, row per (k-1)-face.

    At k = 0 this is the augmentation map to the empty face (a single
    all-ones row over the vertices).
    """
    faces_low = sorted(k_faces(X, k - 1)) if k else [()]
    return _boundary(sorted(k_faces(X, k)), faces_low, k)


def _homology(X: SimplicialComplex) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Face counts f_0..f_dim and ranks of ∂_0..∂_{dim+1} (the last is 0:
    no (dim+1)-faces), listing each face set and building and ranking each
    boundary matrix once. The record is kept in the instance's __dict__,
    as functools.cached_property keeps its values, so it lives and dies
    with X and no two complexes share one."""
    record = vars(X).get("_gf2_homology")
    if record is None:
        faces = [[()]] + [sorted(k_faces(X, k)) for k in range(X.dim + 1)]
        ranks = [rank_gf2(_boundary(faces[k + 1], faces[k], k)) for k in range(X.dim + 1)]
        record = vars(X)["_gf2_homology"] = (tuple(map(len, faces[1:])), (*ranks, 0))
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
            raise InvalidFace(f"{face} is not a {d}-face of the complex")
        for sub in combinations(face, d):
            chain.symmetric_difference_update({sub})
    return frozenset(chain)
