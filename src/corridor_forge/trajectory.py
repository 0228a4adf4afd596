"""Dynamic-concentration bookkeeping shared by both mapping processes.

A tracked subcomplex A is a set of (d-2)-faces. The tracker reads
Y_A = { v outside A : no closed face is tau + {v} for tau in A } from the
run's closure index and counts the removals W_{A,j}: a closure that first
takes a vertex out of Y_A counts at its round j modulo the subsequence
period 3w+1 for a window of w vertices (3d+1 for the corridor process,
3d+4 for the pseudomanifold process), the start's closures at round 0.
The engine notes each OR into the closure index, and the tracker counts
the new bits against a running out-mask of its own per complex. So
Y_A = n - v_A - sum_j W_{A,j} at every step, and checking that identity
checks the counters against the closure index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .complexes import Face, make_face, pack
from .errors import InvalidTrackedComplex, OutOfRegime


@dataclass(frozen=True)
class TrackedComplex:
    """A (d-2)-dimensional subcomplex, given by its (d-2)-faces."""

    name: str
    faces: tuple[Face, ...]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for f in self.faces for v in f)

    @cached_property
    def vertex_bits(self) -> int:
        return sum(1 << v for v in self.vertices)

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
    complexes on [n], counted from the start of a run; Y_A is read from the
    closure index passed in, keyed by packed (d-2)-face."""

    def __init__(self, n: int, period: int, tracked: list[TrackedComplex]):
        self.n = n
        self.period = period
        self.tracked = list(tracked)
        self.w = {tc.name: [0] * period for tc in self.tracked}
        if len(self.w) < len(self.tracked):
            names = [tc.name for tc in self.tracked]
            twice = sorted({x for x in names if names.count(x) > 1})
            raise InvalidTrackedComplex(f"tracked complex names used twice: {twice}")
        # the running out-mask of each complex, kept by note_closure: A's
        # vertices before any face is closed
        self.out = {tc.name: tc.vertex_bits for tc in self.tracked}
        outside = [name for name, bits in self.out.items() if bits >> n + 1]
        if outside:
            raise InvalidTrackedComplex(f"{outside}: tracked vertices must lie in [1, {n}]")
        self.keys = {tc.name: [pack(f, n) for f in tc.faces] for tc in self.tracked}
        # packed (d-2)-face -> the names of the tracked complexes that hold it
        self.index: dict[int, list[str]] = {}
        for name, keys in self.keys.items():
            for key in keys:
                self.index.setdefault(key, []).append(name)

    def _out(self, tc: TrackedComplex, masks: dict[int, int]) -> int:
        """Bitmask of the vertices of [n] outside Y_A, from the closure
        index: those of A and each v with tau + {v} closed for some tau in A."""
        out = tc.vertex_bits
        for key in self.keys[tc.name]:
            out |= masks.get(key, 0)
        return out

    def note_closure(self, key: int, bits: int, round_no: int):
        """Count the removals from Y_A that setting ``bits`` in the mask of
        the packed (d-2)-face ``key`` makes at the given round: the bits
        not yet in each holding complex's out-mask."""
        names = self.index.get(key)
        if not names:
            return
        j = round_no % self.period
        for name in names:
            out = self.out[name]
            self.w[name][j] += (bits & ~out).bit_count()
            self.out[name] = out | bits

    def identity_holds(self, tc: TrackedComplex, masks: dict[int, int]) -> bool:
        """Y_A = n - v_A - sum_j W_{A,j}, with Y_A from the closure index
        ``masks``."""
        return self._out(tc, masks).bit_count() == tc.v_count + sum(self.w[tc.name])

    def snapshot(self, masks: dict[int, int]) -> dict[str, tuple[int, tuple[int, ...]]]:
        """Name -> (Y_A, W_{A,j} tuple) for every tracked complex, Y_A from
        the closure index ``masks``."""
        return {
            tc.name: (self.n - self._out(tc, masks).bit_count(), tuple(self.w[tc.name]))
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


def band_interval(n: int, p: float, size_a: int, band: float, period: int) -> tuple[float, float]:
    """The interval I_A(t) of each W_{A,j}: trajectory minus and plus the
    half-band ``band``, both scaled by the subsequence period."""
    center = n * (1 - p**size_a)
    return (center - band) / period, (center + band) / period


def z_statistic(
    w: tuple[int, ...], n: int, p: float, size_a: int, band: float, period: int
) -> tuple[float, ...]:
    """Centered supermartingale statistic of each W_{A,j}: W minus the top
    of its interval I_A(t)."""
    hi = band_interval(n, p, size_a, band, period)[1]
    return tuple(wj - hi for wj in w)
