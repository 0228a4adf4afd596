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
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, ClassVar

from .closure import BitChoices, closed_twice, scan_available
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
    # bitmask of the previous 2w images, phi[-2w:], kept by step
    recent: int = 0
    # positions of the window's (d-2)-faces in the sorted window, and
    # _cone_positions(w, d), fixed for the run by init
    tau_positions: list[tuple[int, ...]] = field(default_factory=list)
    cone_positions: list[list[tuple[int, ...]]] = field(default_factory=list)
    # the scan of this state, set by _scan: |X_k|, the choices for the
    # next vertex, the sorted window and its (d-2)-faces tau, packed
    available: int = 0
    choices: BitChoices = BitChoices(0)
    window: list[int] = field(default_factory=list)
    taus: list[int] = field(default_factory=list)


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
    (d-1)-faces at round 0 (each start vertex against the ones before it)
    and scan the start."""
    config.validate()
    n, d = config.n, config.d
    w = config.spec.width(d)
    rng = random.Random(config.seed)
    start = rng.sample(range(1, n + 1), w + 1)
    state = ProcessState(
        config=config, phi=list(start), masks={}, step=0, rng=rng,
        recent=sum(1 << v for v in start),
        tau_positions=list(combinations(range(w), d - 1)),
        cone_positions=_cone_positions(w, d),
    )
    if config.record_every > 0:
        state.tracker = TrajectoryTracker(
            n, config.spec.period(d), default_tracked_family(config), state.masks
        )
    for k, v in enumerate(start):
        window = sorted(start[:k])
        taus = [pack(tau, n) for tau in combinations(window, d - 1)]
        _close(state, v, window, taus, _cone_positions(k, d), 0)
    _scan(state)
    return state


def _cone_positions(k: int, d: int) -> list[list[tuple[int, ...]]]:
    """For each rank r of a new vertex v among k sorted window vertices, the
    positions, in the window with v inserted at r, of the (d-2)-faces
    rho + {v} for rho in C(window, d-2): the (d-1)-subsets holding r."""
    return [
        [c for c in combinations(range(k + 1), d - 1) if r in c] for r in range(k + 1)
    ]


def _close(state: ProcessState, v: int, window: list[int], taus: list[int],
           cone_positions: list[list[tuple[int, ...]]], round_no: int):
    """Close tau + {v} for each tau in C(window, d-1) with one OR per
    closure-index key, noting each key's new bits to the tracker. ``window``
    is sorted, ``taus`` are its (d-2)-faces packed, and ``cone_positions``
    is _cone_positions(len(window), d). Each tau gets bit v, and rho + {v},
    for each rho in C(window, d-2), gets the window's bits minus rho's. A
    new bit that is already set is a face closed twice and raises
    VerificationError."""
    n, d = state.config.n, state.config.d
    base = n + 1
    masks, tracker = state.masks, state.tracker
    bit = 1 << v
    for key in taus:
        mask = masks.get(key, 0)
        if mask & bit:
            closed_twice(key, bit, n, d)
        masks[key] = mask | bit
        if tracker is not None:
            tracker.note_closure(key, bit, round_no)
    r = bisect_left(window, v)
    merged = [*window[:r], v, *window[r:]]
    merged_bits = 0
    for u in merged:
        merged_bits |= 1 << u
    for positions in cone_positions[r]:
        # pack rho + {v} (complexes.pack inlined, as in _scan); its bits are
        # the merged ones minus its own
        key, bits = 0, merged_bits
        for i in positions:
            u = merged[i]
            key = key * base + u
            bits ^= 1 << u
        mask = masks.get(key, 0)
        if mask & bits:
            closed_twice(key, mask & bits, n, d)
        masks[key] = mask | bits
        if tracker is not None:
            tracker.note_closure(key, bits, round_no)


def _scan(state: ProcessState):
    """Scan the state once, from the closure index: the window's taus,
    |X_k| and the choices. X_k is the set of vertices outside the window
    that close no already-closed face; the choices further exclude the
    images of the previous 2w mapped vertices."""
    cfg = state.config
    base = cfg.n + 1
    window = sorted(state.phi[-cfg.spec.width(cfg.d) :])
    # complexes.pack inlined: a call per key costs a fifth of simulate
    taus = []
    for positions in state.tau_positions:
        key = 0
        for i in positions:
            key = key * base + window[i]
        taus.append(key)
    state.window, state.taus = window, taus
    state.available, state.choices = scan_available(
        n=cfg.n, masks=state.masks, keys=taus, recent=state.recent
    )
    if state.first_low_step is None and state.available <= 2 * len(window):
        state.first_low_step = state.step


def step(state: ProcessState) -> bool:
    """Advance one step: draw v from the state's choices, close tau + {v}
    for the state's C(w, d-1) taus, then scan the new state. Returns False
    when there is no choice."""
    choices = state.choices
    size = len(choices)
    if not size:
        return False
    v = choices[state.rng.randrange(size)]
    window, phi = state.window, state.phi
    _close(state, v, window, state.taus, state.cone_positions, state.step + 1)
    phi.append(v)
    recent = state.recent | 1 << v
    back = 2 * len(window) + 1
    if len(phi) >= back:
        recent ^= 1 << phi[-back]  # it leaves the previous 2w images
    state.recent = recent
    state.step += 1
    _scan(state)
    return True


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
    snap = state.tracker.snapshot()
    for tc in state.tracker.tracked:
        y, w = snap[tc.name]
        entries[tc.name] = TrajectoryEntry(
            size=tc.size, y=y, w=w, pred=predicted_y(n, p, tc.size), band=band,
            z=z_statistic(w, n, p, tc.size, band, period),
        )
    return TrajectoryRecord(step=i, t=t, p=p, terminal_y=state.available, entries=entries)


def simulate(config: ProcessConfig) -> tuple[ProcessState, list[TrajectoryRecord]]:
    """Run the process of ``config.spec`` to exhaustion, scanning once per
    state; every record_every steps, record the tracked statistics."""
    state = init(config)
    records: list[TrajectoryRecord] = []
    stride = config.record_every
    while True:
        if stride > 0 and state.step % stride == 0:
            records.append(_record(state))
        if not step(state):
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
            if not state.tracker.identity_holds(tc):
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
