"""Faces, simplicial complexes, corridor windows and boundary corridors.

Vertex ids are 1-based positive integers. A face is a strictly increasing
tuple of vertex ids; a complex stores its maximal faces (facets) only and
generates lower-dimensional faces on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from operator import countOf

from .errors import DegenerateFace, InvalidParams

Face = tuple[int, ...]


def make_face(vertices) -> Face:
    """Canonicalize a vertex list into a sorted face tuple.

    Raises DegenerateFace on repeated vertices and InvalidParams on an
    empty list or non-positive ids.
    """
    vs = tuple(sorted(vertices))
    if not vs:
        raise InvalidParams("a face needs at least one vertex")
    if vs[0] < 1:
        raise InvalidParams(f"vertex ids must be positive, got {vs[0]}")
    if len(set(vs)) < len(vs):
        raise DegenerateFace(f"repeated vertex in {vertices}")
    return vs


@dataclass(frozen=True)
class SimplicialComplex:
    """A complex given by its facets over the vertex set [n]."""

    n: int
    facets: frozenset[Face]

    @property
    def dim(self) -> int:
        return max(map(len, self.facets)) - 1

    def is_pure(self, d: int) -> bool:
        return all(len(f) == d + 1 for f in self.facets)


def complex_from_facets(faces, n: int | None = None) -> SimplicialComplex:
    """Build a complex from candidate facets, dropping dominated ones.

    Two distinct faces of one size never contain each other, so same-size
    input is kept whole. Otherwise each face is tested only against the
    larger faces through its rarest vertex.
    """
    canon = {make_face(f) for f in faces}
    if not canon:
        raise InvalidParams("a complex needs at least one facet")
    if len({len(f) for f in canon}) == 1:
        maximal = canon
    else:
        holders: dict[int, list[frozenset[int]]] = {}
        for f in canon:
            g = frozenset(f)
            for v in f:
                holders.setdefault(v, []).append(g)
        maximal = {
            f
            for f in canon
            if not any(
                len(g) > len(f) and g.issuperset(f)
                for g in holders[min(f, key=lambda v: len(holders[v]))]
            )
        }
    top = max(v for f in maximal for v in f)
    if n is None:
        n = top
    elif top > n:
        raise InvalidParams(f"vertex {top} exceeds bound n={n}")
    return SimplicialComplex(n=n, facets=frozenset(maximal))


def k_faces(X: SimplicialComplex, k: int) -> set[Face]:
    """All k-dimensional faces of X (deduplicated subsets of facets). A
    k-dimensional facet is its own tuple, not a copy."""
    if k < 0:
        raise InvalidParams("k must be nonnegative")
    out: set[Face] = set()
    for facet in X.facets:
        if len(facet) == k + 1:
            out.add(facet)
        elif len(facet) > k + 1:
            out.update(combinations(facet, k + 1))
    return out


def f_vector(X: SimplicialComplex) -> list[int]:
    """Face counts by dimension, entry k = number of k-faces. The top two
    come from the face index: the d-faces, and the ridges plus the
    (d-1)-dimensional facets, which lie in no d-face. Only the faces
    below are listed."""
    d = X.dim
    if d == 0:
        return [len(X.facets)]  # every facet is a vertex
    index = face_index(X, d)
    ridges = len(index.holders) + countOf(map(len, X.facets), d)
    return [len(k_faces(X, k)) for k in range(d - 1)] + [ridges, len(index.faces)]


def pack(face, n: int) -> int:
    """The sorted face as one int: its vertices as big-endian digits in base
    n+1, so a (d-2)-face at d = 2 packs to its vertex, and faces of one
    size order as their packs."""
    key = 0
    for v in face:
        key = key * (n + 1) + v
    return key


def unpack(key: int, n: int, size: int) -> Face:
    """The sorted face of ``size`` vertices that ``pack`` gave ``key``."""
    digits = []
    for _ in range(size):
        key, v = divmod(key, n + 1)
        digits.append(v)
    return tuple(reversed(digits))


def window_faces(seq, w: int, d: int):
    """Yield, sorted, the d-faces of SC_w laid along seq (windows: runs of w+1
    entries) in exactly one window: a subset of a window is also in the next
    (previous) one unless it holds the window's first (last) entry.

    The windows fall in three groups, the first, the middle ones and the
    last, and within a group each pattern of positions keeps the same
    entries in every window. So a pattern's faces are one zip over the
    runs seq[a0+i : a1+i] for i in the pattern, read through islice: a
    sliced copy of seq per position raised a run's peak RSS by ~0.4 MB."""
    last = len(seq) - w - 1
    groups = [(0, 1)] if last == 0 else [(0, 1), (1, last), (last, last + 1)]
    for a0, a1 in groups:
        lo = 1 if a0 < last else 0
        hi = w if a0 > 0 else w + 1
        for mid in combinations(range(lo, hi), d + 1 - lo - (w + 1 - hi)):
            pattern = (*range(lo), *mid, *range(hi, w + 1))
            columns = [islice(seq, a0 + i, a1 + i) for i in pattern]
            yield from map(tuple, map(sorted, zip(*columns)))


def boundary_corridor(d: int, N: int) -> SimplicialComplex:
    """The boundary of the (d+1)-dimensional straight corridor on [N]: the
    d-faces of SC_{d+1}(N) in exactly one (d+1)-facet; a d-sphere."""
    if N < d + 2:
        raise InvalidParams(f"need N >= d + 2, got N={N}, d={d}")
    return SimplicialComplex(n=N, facets=frozenset(window_faces(range(1, N + 1), d + 1, d)))


def boundary_corridor_diameter(d: int, N: int) -> int:
    """Dual diameter floor(dN/(d+1)) - d + 1 of boundary_corridor(d, N).

    Each facet is W_a minus one vertex x, for the one window W_a = {a, ...,
    a+d+1} (1 <= a <= m = N-d-1) that holds it: x = a only in the last
    window and x = a+d+1 only in the first, as W_a minus a lies in W_{a+1}
    and W_a minus a+d+1 in W_{a-1}. So there are dm + 2 facets.

    Lower bound. Windows three or more apart share fewer than d vertices.
    W_a and W_{a+1} share d+1, so facets (a, x) and (a+1, y) are adjacent
    iff y = x. W_a and W_{a+2} share d, so (a, x) and (a+2, y) are adjacent
    iff both hold all d, which leaves x = a+1 and y = a+d+2. Along each dual
    edge, then, Phi = a - x/(d+1) changes by at most 1. The facets (1, d+2)
    and (m, m) differ in Phi by (dm+1)/(d+1), so they lie at least
    ceil((dm+1)/(d+1)) apart, which is the formula as dm = dN - d(d+1).

    Upper bound. SC_{d+1}(N) is a stacked ball: each window is glued to the
    previous one along a boundary d-face. So its boundary is the boundary
    of a stacked (d+1)-polytope, and the dual graph is the graph of the
    polar, a simple (d+1)-polytope: (d+1)-connected by Balinski (1961).
    Each facet has d+1 neighbors, so kappa = d+1, and the Caccetta-Smyth
    bound caccetta_smyth_bound(dm+2, d+1) = floor(dm/(d+1)) + 1 equals
    ceil((dm+1)/(d+1)).
    """
    if d < 1 or N < d + 2:
        raise InvalidParams(f"need N >= d + 2 and d >= 1, got N={N}, d={d}")
    return d * N // (d + 1) - d + 1


def ridge_holders(faces, d: int) -> dict[Face, list[int]]:
    """Map each (d-1)-face of the given faces to the positions, in faces,
    of the faces that hold it, in order. On d-faces these are the ridges:
    the dual graph joins the holders of each ridge, a pseudomanifold has
    exactly two per ridge, and homology reads a graphic top boundary off
    them."""
    holders: dict[Face, list[int]] = {}
    for i, f in enumerate(faces):
        for r in combinations(f, d):
            holders.setdefault(r, []).append(i)
    return holders


@dataclass(frozen=True)
class FaceIndex:
    """The d-faces of a complex in sorted order, and the ridge map over
    their positions (``ridge_holders``)."""

    faces: list[Face]
    holders: dict[Face, list[int]]


def face_index(X: SimplicialComplex, d: int) -> FaceIndex:
    """The face index of X at d, built on first use. The dual graph, the
    pseudomanifold check, the f-vector and homology all read it, so the
    d-faces and their ridges are listed once per complex. It is kept in the
    instance's __dict__, as functools.cached_property keeps its values, so
    it lives and dies with X and no two complexes share one."""
    indexes = vars(X).setdefault("_face_index", {})
    index = indexes.get(d)
    if index is None:
        faces = sorted(k_faces(X, d))
        index = indexes[d] = FaceIndex(faces=faces, holders=ridge_holders(faces, d))
    return index


def is_pseudomanifold(X: SimplicialComplex, d: int) -> bool:
    """True iff X is pure d-dimensional and every (d-1)-face lies in
    exactly two d-faces."""
    return X.is_pure(d) and all(len(h) == 2 for h in face_index(X, d).holders.values())
