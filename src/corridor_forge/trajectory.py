"""Dynamic-concentration bookkeeping shared by both mapping processes.

A tracked subcomplex A is a set of (d-2)-faces. The tracker maintains
Y_A = { v outside A : no closed face is tau + {v} for tau in A } and the
removal counters W_{A,j}, where j is the step number modulo the
subsequence period 3w+1 for a window of w vertices (3d+1 for the corridor
process, 3d+4 for the pseudomanifold process). The identity

    Y_A = n - v_A - sum_j W_{A,j}

holds exactly at every step because the initial closures are processed as
round-0 removals.
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
    tc = TrackedComplex(name=name, faces=canon)
    if tc.v_count > max_v or tc.size > max_size:
        raise InvalidTrackedComplex(
            f"{name}: v_A={tc.v_count} (max {max_v}), |A|={tc.size} (max {max_size})"
        )
    return tc


def face_boundary(face) -> list[Face]:
    """The codimension-1 subfaces of a face."""
    f = make_face(face)
    return [s for s in combinations(f, len(f) - 1)]


@dataclass
class TrackerSnapshot:
    step: int
    y: dict[str, int]
    w: dict[str, tuple[int, ...]]


class TrajectoryTracker:
    """Incremental Y_A / W_{A,j} maintenance for a fixed tracked family."""

    def __init__(self, n: int, period: int, tracked: list[TrackedComplex]):
        self.n = n
        self.period = period
        self.tracked = list(tracked)
        self.y_sets: dict[str, set[int]] = {}
        self.w: dict[str, list[int]] = {}
        # (d-2)-face -> list of (tracked name, face) entries sharing it
        self.index: dict[Face, list[str]] = {}
        for tc in self.tracked:
            self.y_sets[tc.name] = set(range(1, n + 1)) - tc.vertices
            self.w[tc.name] = [0] * period
            for f in tc.faces:
                self.index.setdefault(f, []).append(tc.name)

    def note_closure(self, face: Face, round_no: int):
        """Process one newly closed (d-1)-face at the given round number."""
        j = round_no % self.period
        for sub in combinations(face, len(face) - 1):
            names = self.index.get(sub)
            if not names:
                continue
            (v,) = set(face) - set(sub)
            for name in names:
                ys = self.y_sets[name]
                if v in ys:
                    ys.remove(v)
                    self.w[name][j] += 1

    def identity_holds(self, tc: TrackedComplex) -> bool:
        return (
            len(self.y_sets[tc.name]) + tc.v_count + sum(self.w[tc.name])
            == self.n
        )

    def snapshot(self, step: int) -> TrackerSnapshot:
        """The current Y_A and W_{A,j} of every tracked complex."""
        return TrackerSnapshot(
            step=step,
            y={tc.name: len(self.y_sets[tc.name]) for tc in self.tracked},
            w={tc.name: tuple(self.w[tc.name]) for tc in self.tracked},
        )


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
