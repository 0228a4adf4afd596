"""Dynamic-concentration bookkeeping shared by both mapping processes.

A tracked subcomplex A is a set of (d-2)-faces. The tracker reads
Y_A = { v outside A : no closed face is tau + {v} for tau in A } from the
run's closure index and counts the removals W_{A,j}: a closure that first
takes a vertex out of Y_A counts at its round j modulo the subsequence
period 3w+1 for a window of w vertices (3d+1 for the corridor process,
3d+4 for the pseudomanifold process), the start's closures at round 0.
So Y_A = n - v_A - sum_j W_{A,j} at every step, and checking that identity
checks the counters against the closure index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import Face, make_face
from .errors import InvalidTrackedComplex, OutOfRegime


@dataclass(frozen=True)
class TrackedComplex:
    """A (d-2)-dimensional subcomplex, given by its (d-2)-faces."""

    name: str
    faces: tuple[Face, ...]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for f in self.faces for v in f)

    @property
    def v_count(self) -> int:
        return len(self.vertices)

    @property
    def size(self) -> int:
        return len(self.faces)


def tracked_complex(name: str, faces, d: int, max_v: int, max_size: int) -> TrackedComplex:
    """Validate membership in the tracked family and canonicalize."""
    canon = tuple(sorted(make_face(f) for f in faces))
    if any(len(f) != d - 1 for f in canon):
        raise InvalidTrackedComplex(
            f"{name}: tracked faces must have {d - 1} vertices"
        )
    if len(set(canon)) < len(canon):
        raise InvalidTrackedComplex(f"{name}: a tracked face is repeated")
    tc = TrackedComplex(name=name, faces=canon)
    if tc.v_count > max_v or tc.size > max_size:
        raise InvalidTrackedComplex(
            f"{name}: v_A={tc.v_count} (max {max_v}), |A|={tc.size} (max {max_size})"
        )
    return tc


class TrajectoryTracker:
    """W_{A,j} counters for a fixed tracked family of distinctly named
    complexes on [n]; Y_A is read from ``masks``, the run's closure index."""

    def __init__(self, n: int, period: int, tracked: list[TrackedComplex], masks):
        self.n = n
        self.period = period
        self.tracked = list(tracked)
        self.masks = masks
        self.w = {tc.name: [0] * period for tc in self.tracked}
        if len(self.w) < len(self.tracked):
            names = [tc.name for tc in self.tracked]
            twice = sorted({x for x in names if names.count(x) > 1})
            raise InvalidTrackedComplex(f"tracked complex names used twice: {twice}")
        self.v_bits = {tc.name: sum(1 << v for v in tc.vertices) for tc in self.tracked}
        outside = [name for name, bits in self.v_bits.items() if bits >> n + 1]
        if outside:
            raise InvalidTrackedComplex(f"{outside}: tracked vertices must lie in [1, {n}]")
        # (d-2)-face -> the tracked complexes that contain it
        self.index: dict[Face, list[TrackedComplex]] = {}
        for tc in self.tracked:
            for f in tc.faces:
                self.index.setdefault(f, []).append(tc)

    def _out(self, tc: TrackedComplex) -> int:
        """Bitmask of the vertices of [n] outside Y_A: those of A and each
        v with tau + {v} closed for some tau in A."""
        out = self.v_bits[tc.name]
        for tau in tc.faces:
            out |= self.masks.get(tau, 0)
        return out

    def note_closure(self, face: Face, round_no: int):
        """Count the removals from Y_A that closing the sorted (d-1)-face
        makes at the given round; call it before the face is closed."""
        for sub in combinations(face, len(face) - 1):
            hits = self.index.get(sub)
            if not hits:
                continue
            v = sum(face) - sum(sub)
            for tc in hits:
                if not self._out(tc) >> v & 1:
                    self.w[tc.name][round_no % self.period] += 1

    def identity_holds(self, tc: TrackedComplex) -> bool:
        """Y_A = n - v_A - sum_j W_{A,j}, with Y_A from the closure index."""
        return self._out(tc).bit_count() == tc.v_count + sum(self.w[tc.name])

    def snapshot(self) -> dict[str, tuple[int, tuple[int, ...]]]:
        """Name -> (Y_A, W_{A,j} tuple) for every tracked complex."""
        return {
            tc.name: (self.n - self._out(tc).bit_count(), tuple(self.w[tc.name]))
            for tc in self.tracked
        }


def predicted_y(n: int, p: float, size_a: int) -> float:
    """Trajectory value n * p^|A| for the surviving-vertex count."""
    if p < 0:
        raise OutOfRegime(f"p={p} is negative")
    return n * p**size_a


def band_halfwidth(n: int, e_value: float) -> float:
    """Half-width n^{3/4} e(t) / 2 of the concentration interval."""
    return n**0.75 * e_value / 2


def z_statistic(
    w_value: int, n: int, p: float, size_a: int, e_value: float, period: int
) -> float:
    """Centered supermartingale statistic: W minus trajectory minus
    half-band, all scaled by the subsequence period."""
    traj = n * (1 - p**size_a)
    return w_value - (traj + band_halfwidth(n, e_value)) / period
