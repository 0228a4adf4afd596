"""The randomized mapping engine and the corridor process built on it.

Both processes of the package map a straight corridor into the complete
d-complex on [n] one vertex at a time. The engine keeps a sliding window
of the last w mapped vertices and chooses the next vertex uniformly among
those that close no already-closed (d-1)-face with the window and were
not among the previous 2w images. A ProcessSpec fixes w; everything else
follows from it:

- the start is w+1 vertices, closing their C(w+1, d) (d-1)-faces
- each step closes C(w, d-1) faces, so the surviving-face density is
  p = 1 - C(w, d-1) d! i / n^d, and a run makes at most
  (C(n, d) - C(w+1, d)) / C(w, d-1) steps (the volume bound)
- the tracker period is 3w+1 and the link-shaped tracked complex has 2w
  vertices and w+1 windows of width w
- first_low_step is the first step with at most 2w available vertices
- n must be at least 4w+2 (w+2 with allow_small_n)
- the image is the d-faces of SC_w laid along phi in exactly one window;
  verify_run proves it faithful by counting its faces in closed form

run(config) is the one pipeline of both processes: simulate, assemble,
build the report, verify. The corridor process has w = d and the
structure SC_d(M), so the image's dual graph is an induced path in the
Johnson graph J(n, d+1). The pseudomanifold process (w = d+1) lives in
pm.py, which adds its analysis to run's report.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, ClassVar

from .closure import closed_twice
from .complexes import Face, SimplicialComplex, k_faces, pack, window_faces
from .errors import InvalidParams, OutOfRegime, VerificationError
from .trajectory import (
    TrackedComplex,
    TrajectoryTracker,
    band_halfwidth,
    band_interval,
    predicted_y,
    tracked_complex,
    z_statistic,
)

# Tracking draws from a salted RNG stream so the mapped vertex sequence
# for a given seed is identical with and without trajectory recording.
TRACKER_SEED_SALT = 0x7A11_0C0D


@dataclass(frozen=True)
class ProcessSpec:
    """What sets a mapping process apart: its window width w = d + extra,
    the exponent of its error function e(d, p) and its cap on the size |A|
    of a tracked complex. Everything else, the image's face counts included,
    follows from w."""

    extra: int
    exponent: Callable[[int, float], float]
    size_cap: Callable[[int], int]

    def width(self, d: int) -> int:
        return d + self.extra

    def period(self, d: int) -> int:
        """Subsequence period 3w+1 of the W_{A,j} counters."""
        return 3 * self.width(d) + 1

    def rate(self, d: int) -> int:
        """Faces closed per step: C(w, d-1), times d! in the time scaling."""
        return math.comb(self.width(d), d - 1)

    def max_steps(self, n: int, d: int) -> float:
        """Volume bound (C(n,d) - C(w+1,d)) / C(w,d-1) on the number of
        steps: the start and every step close new (d-1)-faces of [n]."""
        if d < 1 or n <= d:
            raise InvalidParams(f"need n > d >= 1, got n={n}, d={d}")
        return (math.comb(n, d) - self.closed_faces(d, 0)) / self.rate(d)

    def first_order_steps(self, n: int, d: int) -> float:
        """max_steps to first order in n: n^d / (C(w,d-1) d!), the step at
        which p reaches 0; n^d / (d d!) for the corridor."""
        return n**d / (self.rate(d) * math.factorial(d))

    def closed_faces(self, d: int, steps: int) -> int:
        """(d-1)-faces closed after ``steps`` steps: C(w+1, d) at the start,
        then C(w, d-1) per step. A faithful image has exactly these."""
        return math.comb(self.width(d) + 1, d) + self.rate(d) * steps

    def facet_count(self, d: int, steps: int) -> int:
        """d-faces of a faithful image after ``steps`` steps (W = steps+1 windows).
        For W >= 2 each end window keeps the C(w, d) faces holding its outer end
        and each inner one the C(w-1, d-1) holding both ends: 2 C(w, d) + (W-2)
        C(w-1, d-1) = C(w+1, d+1) + C(w-1, d-1) steps (also right at W = 1), as
        2 C(w, d) - C(w-1, d-1) = C(w+1, d+1), which holds only for w <= d+1."""
        w = self.width(d)
        return math.comb(w + 1, d + 1) + math.comb(w - 1, d - 1) * steps

    def p(self, n: int, d: int, i: int) -> float:
        """Surviving-face density 1 - rate*d!*t at scaled time t = i / n^d."""
        return 1.0 - self.rate(d) * math.factorial(d) * i / n**d

    def error_function(self, d: int, p: float) -> float:
        """e(t) = exp(exponent(d, p)), grown fast enough to keep the centered
        statistics one-sided; inf on overflow."""
        if p <= 0:
            raise OutOfRegime(f"p={p} <= 0")
        exponent = self.exponent(d, p)
        try:
            return math.exp(exponent)
        except OverflowError:
            return math.inf


# The corridor process: window width d, e(t) = exp{(10d+11) p^{-d^2}}, |A| <= d^2.
CORRIDOR = ProcessSpec(
    extra=0,
    exponent=lambda d, p: (10 * d + 11) * p ** (-d * d),
    size_cap=lambda d: d * d,
)


def i_end(n: int, d: int, eps: float) -> int | None:
    """Step count (1/(d*d!) - (log n)^{-eps}) n^d from the headline bound.

    Returns None (asymptotic-only) when the formula is nonpositive at
    this n; requires n > d >= 1 and 0 < eps < 1/d^2 strictly.
    """
    if d < 1 or n <= d:
        raise InvalidParams(f"need n > d >= 1, got n={n}, d={d}")
    if not 0 < eps < 1.0 / (d * d):
        raise InvalidParams(f"need 0 < eps < 1/d^2, got {eps}")
    value = (1.0 / (d * math.factorial(d)) - math.log(n) ** (-eps)) * n**d
    if value <= 0:
        return None
    return math.floor(value)


@dataclass
class ProcessConfig:
    n: int
    d: int
    seed: int
    record_every: int = 0  # 0 disables trajectory recording
    track_random: int = 10
    track_link: bool = True
    track: tuple[tuple[str, tuple[Face, ...]], ...] = ()
    allow_small_n: bool = False
    spec: ClassVar[ProcessSpec] = CORRIDOR

    def validate(self):
        if self.d < 2:
            raise InvalidParams("process requires d >= 2")
        if self.record_every < 0 or self.track_random < 0:
            raise InvalidParams(
                f"record_every and track_random must be >= 0, got "
                f"{self.record_every} and {self.track_random}"
            )
        w = self.spec.width(self.d)
        floor = w + 2 if self.allow_small_n else 4 * w + 2
        if self.n < floor:
            raise InvalidParams(f"need n >= {floor}, got n={self.n}")
        if self.record_every and self.track_link and self.n < 2 * w:
            raise InvalidParams(
                f"tracking the link needs 2w = {2 * w} vertices, got n={self.n}"
            )


@dataclass(slots=True)
class ProcessState:
    config: ProcessConfig
    phi: list[int]
    masks: dict[int, int]  # the closure index, keyed by packed (d-2)-face
    step: int
    rng: random.Random
    tracker: TrajectoryTracker | None = None
    first_low_step: int | None = None
    # the scan of this state, set by the engine loop: |X_k| and the bitmask
    # of the choices for the next vertex (None before the first scan)
    available: int = 0
    choices: int | None = None


@dataclass
class TrajectoryEntry:
    size: int
    y: int
    w: tuple[int, ...]
    pred: float
    band: float  # inf once e(t) overflows
    z: tuple[float, ...]


@dataclass
class TrajectoryRecord:
    step: int
    t: float
    p: float
    terminal_y: int
    entries: dict[str, TrajectoryEntry]


@dataclass
class RunReport:
    config: ProcessConfig
    steps: int
    first_low_step: int | None
    image: SimplicialComplex
    records: list[TrajectoryRecord]
    first_band_exit: int | None


def default_tracked_family(config: ProcessConfig) -> list[TrackedComplex]:
    """Boundaries of track_random uniformly random (d-1)-faces plus, when
    track_link is set, one link-shaped complex: the (d-2)-faces of the
    w+1 windows of width w on 2w random vertices. Sampled from a salted
    stream so the run itself is unchanged by tracking."""
    n, d = config.n, config.d
    w = config.spec.width(d)
    max_v, max_size = 2 * w, config.spec.size_cap(d)
    rng = random.Random(config.seed ^ TRACKER_SEED_SALT)
    tracked = []
    for name, faces in config.track:
        tracked.append(tracked_complex(name, faces, d, max_v, max_size))
    for idx in range(config.track_random):
        boundary = combinations(rng.sample(range(1, n + 1), d), d - 1)
        tracked.append(tracked_complex(f"rand{idx}", boundary, d, max_v, max_size))
    if config.track_link:
        vertices = rng.sample(range(1, n + 1), 2 * w)
        windows = (vertices[a : a + w] for a in range(w + 1))
        faces = {
            tuple(sorted(sub)) for win in windows for sub in combinations(win, d - 1)
        }
        tracked.append(tracked_complex("link", faces, d, max_v, max_size))
    return tracked


def init(config: ProcessConfig) -> ProcessState:
    """Choose the w+1 starting vertices uniformly, close their C(w+1, d)
    (d-1)-faces at round 0 and scan the start. Each d-subset of the start
    is a (d-2)-face tau of it plus one more start vertex, so tau's mask is
    the start's bits minus its own."""
    config.validate()
    n, d = config.n, config.d
    w = config.spec.width(d)
    rng = random.Random(config.seed)
    start = rng.sample(range(1, n + 1), w + 1)
    state = ProcessState(config=config, phi=list(start), masks={}, step=0, rng=rng)
    tracker = None
    if config.record_every > 0:
        tracker = state.tracker = TrajectoryTracker(
            n, config.spec.period(d), default_tracked_family(config)
        )
    start_bits = sum(1 << v for v in start)
    for tau in combinations(sorted(start), d - 1):
        key, bits = pack(tau, n), start_bits - sum(1 << v for v in tau)
        state.masks[key] = bits
        if tracker is not None:
            tracker.note_closure(key, bits, 0)
    _advance(state, 0)
    return state


@cache
def _positions(w: int, d: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The positions, in a sorted window of w vertices, of its (d-2)-faces
    tau; then, for each rank r of a new vertex v among them, the positions,
    in the window with v inserted at r, of the (d-2)-faces rho + {v} for
    rho in C(window, d-2): the (d-1)-subsets holding r. Tuples, as every
    run of these (w, d) shares them."""
    cones = tuple(
        tuple(c for c in combinations(range(w + 1), d - 1) if r in c) for r in range(w + 1)
    )
    return tuple(combinations(range(w), d - 1)), cones


def _advance(state: ProcessState, limit: int | None) -> int:
    """The engine loop: make up to ``limit`` steps (None: until no vertex is
    eligible) and return how many it made. It keeps the state in locals
    and writes it back when it returns, always at a scanned state.

    Each iteration first scans the state, unless its scan is current: it
    packs the window's taus, ORs their masks into the blocked vertices and
    takes |X_k| and the choices as two popcounts. X_k is the vertices
    outside the window that close no closed face with it (each d-subset of
    the window is closed, so the window blocks itself); the choices also
    exclude the previous 2w images. Then it draws v, the k-th smallest
    choice, and closes tau + {v} for each tau with one OR per closure-index
    key: each tau gets bit v, and rho + {v}, for each rho in C(window,
    d-2), the window's bits minus rho's. A new bit that is already set is
    a face closed twice and raises VerificationError. The tracker hears of
    the keys it tracks. The window then takes v in and lets its oldest
    vertex go.

    The state holds only the run and its scan: on entry the loop rebuilds
    the sorted window phi[-w:], the bits of the previous 2w images
    phi[-2w:] and the packed taus from phi, and a state whose ``choices``
    is None is scanned first."""
    cfg = state.config
    n, d = cfg.n, cfg.d
    base = n + 1
    everything = (1 << base) - 2  # the bits of [n]
    masks, phi, tracker = state.masks, state.phi, state.tracker
    tracked = () if tracker is None else tracker.index
    randrange = state.rng.randrange
    w = cfg.spec.width(d)
    tau_positions, cone_positions = _positions(w, d)
    window = sorted(phi[-w:])
    window_bits = sum(1 << u for u in window)
    recent = sum(1 << u for u in phi[-2 * w :])
    back = 2 * w + 1  # phi[-back] leaves the previous 2w images
    taus = [pack([window[p] for p in positions], n) for positions in tau_positions]
    i, first_low = state.step, state.first_low_step
    available, bits = state.available, state.choices
    made = 0
    while True:
        if bits is None:
            blocked, taus = 0, []
            for positions in tau_positions:
                # complexes.pack inlined: a call per key costs a fifth of simulate
                key = 0
                for p in positions:
                    key = key * base + window[p]
                taus.append(key)
                blocked |= masks.get(key, 0)
            avail = everything & ~blocked
            available, bits = avail.bit_count(), avail & ~recent
            if first_low is None and available <= 2 * w:
                first_low = i
        if made == limit or not bits:
            break
        # the k-th smallest choice: fewer than k+1 set bits below lo, at
        # least k+1 below hi
        size = bits.bit_count()
        above = size - randrange(size)
        lo, hi = 0, bits.bit_length()
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if (bits >> mid).bit_count() >= above:
                lo = mid
            else:
                hi = mid
        v, bit = lo, 1 << lo
        i += 1
        for key in taus:
            mask = masks.get(key, 0)
            if mask & bit:
                closed_twice(key, bit, n, d)
            masks[key] = mask | bit
            if key in tracked:
                tracker.note_closure(key, bit, i)
        r = bisect_left(window, v)
        window.insert(r, v)
        window_bits |= bit
        for positions in cone_positions[r]:
            key, face_bits = 0, window_bits
            for p in positions:
                u = window[p]
                key = key * base + u
                face_bits ^= 1 << u
            mask = masks.get(key, 0)
            if mask & face_bits:
                closed_twice(key, mask & face_bits, n, d)
            masks[key] = mask | face_bits
            if key in tracked:
                tracker.note_closure(key, face_bits, i)
        oldest = phi[-w]
        window.remove(oldest)
        window_bits ^= 1 << oldest
        phi.append(v)
        recent |= bit
        if len(phi) >= back:
            recent ^= 1 << phi[-back]
        bits = None
        made += 1
    state.step, state.first_low_step = i, first_low
    state.available, state.choices = available, bits
    return made


def step(state: ProcessState) -> bool:
    """Advance one step and scan the new state; False when no vertex is
    eligible."""
    return _advance(state, 1) == 1


def _record(state: ProcessState) -> TrajectoryRecord:
    """The tracked statistics at this step, with the state's |X_k| as the
    terminal count. p > 0 here: within the volume bound,
    p >= 1 - d! C(n, d) / n^d."""
    cfg = state.config
    spec, n, d = cfg.spec, cfg.n, cfg.d
    i = state.step
    t = i / n**d
    p = spec.p(n, d, i)
    period = spec.period(d)
    e_val = spec.error_function(d, p)
    band = band_halfwidth(n, e_val)
    entries: dict[str, TrajectoryEntry] = {}
    snap = state.tracker.snapshot(state.masks)
    for tc in state.tracker.tracked:
        y, w = snap[tc.name]
        entries[tc.name] = TrajectoryEntry(
            size=tc.size, y=y, w=w, pred=predicted_y(n, p, tc.size), band=band,
            z=z_statistic(w, n, p, tc.size, band, period),
        )
    return TrajectoryRecord(step=i, t=t, p=p, terminal_y=state.available, entries=entries)


def simulate(config: ProcessConfig) -> tuple[ProcessState, list[TrajectoryRecord]]:
    """Run the process of ``config.spec`` to exhaustion, scanning once per
    state, in runs of record_every steps: the tracked statistics are
    recorded at the start of each run."""
    state = init(config)
    records: list[TrajectoryRecord] = []
    stride = config.record_every
    if not stride:
        _advance(state, None)
        return state, records
    while True:
        records.append(_record(state))
        if _advance(state, stride) < stride:
            return state, records


def verify_process(state: ProcessState):
    """Recheck what every exhausted run guarantees: the step count is
    within the volume bound, the closure index holds each closed face once
    per vertex (so no face was closed twice: a repeat sets no new bit), and
    each tracked complex's W_{A,j} sum to n - v_A - Y_A, Y_A read from it."""
    cfg = state.config
    d, spec = cfg.d, cfg.spec
    if state.step > spec.max_steps(cfg.n, d):
        raise VerificationError("volume bound violated")
    if sum(m.bit_count() for m in state.masks.values()) != d * spec.closed_faces(d, state.step):
        raise VerificationError("closure index out of step with the closed faces")
    if state.tracker is not None:
        for tc in state.tracker.tracked:
            if not state.tracker.identity_holds(tc, state.masks):
                raise VerificationError(f"Y/W identity broken for {tc.name}")


def assemble(state: ProcessState) -> SimplicialComplex:
    """The image: the structure mapped through position k -> phi_k."""
    d = state.config.d
    faces = frozenset(window_faces(state.phi, state.config.spec.width(d), d))
    return SimplicialComplex(n=state.config.n, facets=faces)


def run(config: ProcessConfig) -> RunReport:
    """The pipeline of both processes, the one of ``config.spec``: run it
    to exhaustion, assemble the image, build the report, verify it."""
    state, records = simulate(config)
    report = RunReport(
        config=config,
        steps=state.step,
        first_low_step=state.first_low_step,
        image=assemble(state),
        records=records,
        first_band_exit=first_band_exit(records, config.n),
    )
    verify_run(report, state)
    return report


def first_band_exit(records: list[TrajectoryRecord], n: int) -> int | None:
    """First recorded step where some W_{A,j} leaves its interval I_A(t).

    Usually None at desk scale: the rigorous band exceeds n there.
    """
    for rec in records:
        for entry in rec.entries.values():
            lo, hi = band_interval(n, rec.p, entry.size, entry.band, len(entry.w))
            if any(not lo <= wj <= hi for wj in entry.w):
                return rec.step
    return None


def verify_run(report: RunReport, state: ProcessState):
    """Recheck a run of either process: verify_process, then that phi is
    injective on the structure's d- and (d-1)-faces, counting the image's
    against facet_count and closed_faces (two d-faces share at most one
    (d-1)-face, so the image's dual graph is then the structure's)."""
    d, spec = report.config.d, report.config.spec
    verify_process(state)
    if len(report.image.facets) != spec.facet_count(d, state.step):
        raise VerificationError("image not injective on d-faces")
    if len(k_faces(report.image, d - 1)) != spec.closed_faces(d, state.step):
        raise VerificationError("image not injective on (d-1)-faces")
