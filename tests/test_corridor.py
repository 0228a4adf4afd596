import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor_forge import corridor
from corridor_forge.complexes import (
    SimplicialComplex,
    is_pseudomanifold,
    k_faces,
    window_faces,
)
from corridor_forge.corridor import (
    CORRIDOR,
    ProcessConfig,
    ProcessSpec,
    ProcessState,
    RunReport,
    TrajectoryEntry,
    TrajectoryRecord,
    assemble,
    default_tracked_family,
    first_band_exit,
    i_end,
    init,
    run,
    simulate,
    step,
    verify_run,
)
from corridor_forge.dual import build_dual, is_induced_path
from corridor_forge.errors import (
    InvalidParams,
    InvalidTrackedComplex,
    OutOfRegime,
    VerificationError,
)
from corridor_forge.pm import PM, PmConfig, pm_run
from corridor_forge.serialize import report_json
from corridor_forge.trajectory import (
    TrajectoryTracker,
    band_halfwidth,
    band_interval,
    predicted_y,
    z_statistic,
)
from util import (
    closed_faces,
    oracle_snapshot,
    oracle_window_faces,
    set_bits,
    straight_corridor,
)


class TestInit:
    def test_contracts(self):
        state = init(ProcessConfig(n=30, d=2, seed=1))
        assert len(state.phi) == 3
        assert len(closed_faces(state)) == 3
        assert state.step == 0
        assert state.tracker is None

    def test_small_n_guard(self):
        with pytest.raises(InvalidParams):
            init(ProcessConfig(n=5, d=2, seed=0))

    def test_small_n_opt_in(self):
        state = init(ProcessConfig(n=5, d=2, seed=0, allow_small_n=True))
        assert len(state.phi) == 3

    def test_d1_rejected(self):
        with pytest.raises(InvalidParams):
            init(ProcessConfig(n=30, d=1, seed=0))

    @pytest.mark.parametrize("config_cls", [ProcessConfig, PmConfig])
    @pytest.mark.parametrize("field", ["record_every", "track_random"])
    def test_negative_counts_rejected(self, config_cls, field):
        with pytest.raises(InvalidParams, match=">= 0"):
            init(config_cls(n=40, d=2, seed=0, **{field: -1}))

    @pytest.mark.parametrize("config_cls, d", [(ProcessConfig, 3), (PmConfig, 2)])
    def test_link_needs_2w_vertices(self, config_cls, d):
        cfg = dict(n=5, d=d, seed=0, record_every=1, allow_small_n=True)
        with pytest.raises(InvalidParams, match=r"2w = 6 vertices, got n=5"):
            init(config_cls(**cfg))
        assert init(config_cls(**cfg, track_link=False)).tracker is not None

    def test_tracker_created_with_recording(self):
        state = init(ProcessConfig(n=30, d=2, seed=1, record_every=5))
        assert state.tracker is not None
        assert state.tracker.period == 7


class TestStep:
    def test_candidates_at_step_zero(self):
        state = init(ProcessConfig(n=30, d=2, seed=3))
        cand = set_bits(state.choices)
        assert len(cand) == 30 - 3
        assert not set(cand) & set(state.phi)

    def test_step_growth(self):
        state = init(ProcessConfig(n=30, d=2, seed=3))
        before = len(closed_faces(state))
        assert step(state)
        assert len(closed_faces(state)) == before + 2
        assert len(state.phi) == 4
        assert state.step == 1

    def test_determinism(self):
        cfg = ProcessConfig(n=40, d=2, seed=11)
        a = init(cfg)
        b = init(cfg)
        for _ in range(20):
            assert step(a) == step(b)
        assert a.phi == b.phi

    @pytest.mark.parametrize(
        "process, cfg",
        [
            (run, ProcessConfig(n=40, d=2, seed=2, record_every=25)),
            (run, ProcessConfig(n=20, d=3, seed=4, record_every=10)),
            (pm_run, PmConfig(n=40, d=2, seed=5, record_every=10)),
        ],
    )
    def test_one_scan_per_state(self, monkeypatch, process, cfg):
        # in the engine loop, a scan reads the masks of the window's
        # C(w, d-1) taus and writes none, and a step reads and writes each
        # key it closes once. So the loop's reads less its writes are
        # C(w, d-1) per scan: steps + 1 states, each scanned once, make
        # (steps + 1) C(w, d-1), and a rescan adds more
        loop = corridor._advance.__code__
        counts = {"reads": 0, "writes": 0}

        class CountingMasks(dict):
            def get(self, key, default=None):
                if sys._getframe(1).f_code is loop:
                    counts["reads"] += 1
                return super().get(key, default)

            def __setitem__(self, key, value):
                if sys._getframe(1).f_code is loop:
                    counts["writes"] += 1
                super().__setitem__(key, value)

        real_state = corridor.ProcessState

        def counting_state(**kwargs):
            return real_state(**{**kwargs, "masks": CountingMasks()})

        monkeypatch.setattr(corridor, "ProcessState", counting_state)
        report = process(cfg)
        scan = math.comb(cfg.spec.width(cfg.d), cfg.d - 1)
        assert counts["writes"] > 0
        assert counts["reads"] - counts["writes"] == (report.steps + 1) * scan

    def test_recording_does_not_change_run(self):
        plain = run(ProcessConfig(n=40, d=2, seed=5))
        tracked = run(ProcessConfig(n=40, d=2, seed=5, record_every=25))
        assert plain.image.facets == tracked.image.facets
        assert plain.steps == tracked.steps


class TestFormulas:
    def test_p_and_prediction_at_start(self):
        assert CORRIDOR.p(100, 2, 0) == 1.0
        assert predicted_y(100, CORRIDOR.p(100, 2, 0), 3) == 100.0

    def test_prediction_midway(self):
        # p = 1 - 2*2*1250/10000 = 0.5, n p^2 = 25
        assert predicted_y(100, CORRIDOR.p(100, 2, 1250), 2) == pytest.approx(25.0)

    def test_prediction_at_p_zero(self):
        assert predicted_y(100, CORRIDOR.p(100, 2, 2500), 2) == pytest.approx(0.0)

    def test_prediction_out_of_regime(self):
        with pytest.raises(OutOfRegime):
            predicted_y(100, CORRIDOR.p(100, 2, 3000), 2)

    def test_error_function_at_one(self):
        assert CORRIDOR.error_function(2, 1.0) == pytest.approx(math.exp(31))

    def test_error_band_value_and_growth(self):
        def band(t):
            return band_halfwidth(200, CORRIDOR.error_function(2, CORRIDOR.p(200, 2, t * 200**2)))

        assert band(0.0) == pytest.approx(200**0.75 * math.exp(31) / 2)
        assert band(0.1) > band(0.0)
        # the rigorous band is vacuous at desk scale
        assert band(0.0) > 200

    def test_error_band_out_of_regime(self):
        with pytest.raises(OutOfRegime):
            band_halfwidth(200, CORRIDOR.error_function(2, CORRIDOR.p(200, 2, 0.25 * 200**2)))

    def test_i_end_asymptotic_only(self):
        assert i_end(1000, 2, 0.2) is None

    def test_i_end_positive_at_astronomical_n(self):
        value = i_end(10**150, 2, 0.24)
        assert value is not None and value > 0

    def test_i_end_eps_guard(self):
        with pytest.raises(InvalidParams):
            i_end(1000, 2, 0.25)
        with pytest.raises(InvalidParams):
            i_end(1000, 2, 0.0)

    @pytest.mark.parametrize("n, d", [(1, 2), (2, 2), (0, 2), (5, 0), (5, -1)])
    def test_i_end_needs_n_above_d_at_least_one(self, n, d):
        with pytest.raises(InvalidParams, match="n > d >= 1"):
            i_end(n, d, 0.1)

    def test_volume_bound(self):
        assert CORRIDOR.max_steps(10, 2) == pytest.approx((45 - 3) / 2)


class TestTrackedFamily:
    def test_default_family_names(self):
        cfg = ProcessConfig(n=40, d=2, seed=0, record_every=1, track_random=3)
        fam = default_tracked_family(cfg)
        names = [tc.name for tc in fam]
        assert names == ["rand0", "rand1", "rand2", "link"]

    def test_link_shape(self):
        cfg = ProcessConfig(n=40, d=3, seed=0, record_every=1, track_random=0)
        (link,) = default_tracked_family(cfg)
        assert link.v_count == 6  # 2d vertices
        assert link.size <= 9  # |A| <= d^2

    def test_custom_entry_validated(self):
        cfg = ProcessConfig(
            n=40,
            d=2,
            seed=0,
            track=(("bad", ((1, 2, 3),)),),  # wrong face dimension
        )
        with pytest.raises(InvalidTrackedComplex):
            default_tracked_family(cfg)

    @pytest.mark.parametrize("name", ["link", "rand0"])
    def test_duplicate_name_rejected(self, name):
        cfg = ProcessConfig(
            n=40, d=2, seed=1, record_every=10, track=((name, ((1,), (2,))),)
        )
        with pytest.raises(InvalidTrackedComplex, match=f"used twice: \\['{name}'\\]"):
            run(cfg)

    @pytest.mark.parametrize(
        "faces, message",
        [
            (((1,), (1,), (2,)), "e: a tracked face is repeated"),
            (((39,), (41,)), r"\['e'\]: tracked vertices must lie in \[1, 40\]"),
        ],
    )
    def test_bad_custom_entry_rejected(self, faces, message):
        cfg = ProcessConfig(n=40, d=2, seed=1, record_every=10, track=(("e", faces),))
        with pytest.raises(InvalidTrackedComplex, match=message):
            run(cfg)


@settings(max_examples=40, deadline=None)
@given(
    config_cls=st.sampled_from([ProcessConfig, PmConfig]),
    d=st.sampled_from([2, 3]),
    extra_n=st.integers(0, 20),
    seed=st.integers(0, 2**32 - 1),
    prefix=st.integers(0, 60),
)
def test_tracker_matches_oracle(config_cls, d, extra_n, seed, prefix):
    """Y_A and W_{A,j} equal their from-phi oracle at every state."""
    w = config_cls.spec.width(d)
    state = init(
        config_cls(n=2 * w + extra_n, d=d, seed=seed, record_every=1, allow_small_n=True)
    )
    assert state.tracker.snapshot(state.masks) == oracle_snapshot(state)
    for _ in range(prefix):
        if not step(state):
            break
        assert state.tracker.snapshot(state.masks) == oracle_snapshot(state)


@settings(max_examples=40, deadline=None)
@given(
    config_cls=st.sampled_from([ProcessConfig, PmConfig]),
    d=st.sampled_from([2, 3, 4]),
    extra_n=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    prefix=st.integers(0, 60),
)
def test_rebuilt_state_resumes_the_run(config_cls, d, extra_n, seed, prefix):
    """The state is the run and its scan, with no cache of the engine loop:
    one built by hand from the run alone, unscanned, runs on as the
    original does."""
    w = config_cls.spec.width(d)
    state = init(config_cls(n=w + 2 + extra_n, d=d, seed=seed, allow_small_n=True))
    for _ in range(prefix):
        if not step(state):
            break
    rng = random.Random()
    rng.setstate(state.rng.getstate())
    rebuilt = ProcessState(
        config=state.config, phi=list(state.phi), masks=dict(state.masks),
        step=state.step, rng=rng, first_low_step=state.first_low_step, choices=None,
    )
    corridor._advance(state, None)
    corridor._advance(rebuilt, None)
    assert rebuilt.phi == state.phi
    assert rebuilt.masks == state.masks
    assert rebuilt.first_low_step == state.first_low_step


class TestTrackerIdentity:
    def test_identity_every_step(self):
        state = init(ProcessConfig(n=40, d=2, seed=7, record_every=1))
        tracker = state.tracker
        for _ in range(60):
            if not step(state):
                break
            for tc in tracker.tracked:
                assert tracker.identity_holds(tc, state.masks)

    def test_skipped_subface_breaks_identity(self, monkeypatch):
        """A note_closure that misses every closure into one key of a
        tracked complex, the first it sees, miscounts W; the verifier must
        see it in the closure index."""
        note_closure = TrajectoryTracker.note_closure
        skipped = {}

        def skip_one_key(self, key, bits, round_no):
            if key in self.index and skipped.setdefault("key", key) == key:
                return
            note_closure(self, key, bits, round_no)

        monkeypatch.setattr(TrajectoryTracker, "note_closure", skip_one_key)
        with pytest.raises(VerificationError, match="Y/W identity broken"):
            run(ProcessConfig(n=40, d=2, seed=0, record_every=10))


class TestRun:
    def test_report_invariants(self):
        report = run(ProcessConfig(n=40, d=2, seed=2))
        serialized = json.loads(report_json(report))
        assert len(report.image.facets) == report.steps + 1
        assert serialized["path_length"] == report.steps
        assert report.steps <= CORRIDOR.max_steps(40, 2)
        assert is_induced_path(build_dual(report.image, 2))
        assert serialized["termination"] == "exhausted"
        assert report.first_low_step is not None

    def test_d3_run(self):
        report = run(ProcessConfig(n=20, d=3, seed=4))
        assert is_induced_path(build_dual(report.image, 3))
        assert report.steps <= CORRIDOR.max_steps(20, 3)

    def test_volume_bound_checked(self, monkeypatch):
        monkeypatch.setattr(ProcessSpec, "max_steps", lambda self, n, d: 0)
        with pytest.raises(VerificationError, match="volume bound"):
            run(ProcessConfig(n=40, d=2, seed=2))

    def test_small_n_run(self):
        report = run(ProcessConfig(n=5, d=2, seed=0, allow_small_n=True))
        assert report.steps >= 0
        assert len(report.image.facets) == report.steps + 1

    def test_records_stride(self):
        report = run(ProcessConfig(n=40, d=2, seed=2, record_every=25))
        steps = [rec.step for rec in report.records]
        assert steps[0] == 0
        assert all(s % 25 == 0 for s in steps)

    def test_band_never_exited_at_desk_scale(self):
        report = run(ProcessConfig(n=40, d=2, seed=2, record_every=10))
        assert report.first_band_exit is None

    def test_band_exit_is_the_first_record_outside(self):
        # n = 100, p = 1/2, |A| = 1, band 4, period 2: I_A = [23, 27]
        def record(step, w):
            entry = TrajectoryEntry(size=1, y=0, w=w, pred=50.0, band=4.0,
                                    z=z_statistic(w, 100, 0.5, 1, 4.0, 2))
            return TrajectoryRecord(step=step, t=0.0, p=0.5, terminal_y=0, entries={"A": entry})

        inside, below, above = record(10, (23, 27)), record(20, (22, 25)), record(30, (24, 28))
        assert band_interval(100, 0.5, 1, 4.0, 2) == (23.0, 27.0)
        assert first_band_exit([inside], 100) is None
        assert first_band_exit([inside, below, above], 100) == 20
        assert first_band_exit([inside, above], 100) == 30
        # z is W minus the top of the interval
        assert inside.entries["A"].z == (-4.0, 0.0) and above.entries["A"].z == (-3.0, 1.0)


class TestVerifier:
    """verify_run on hand-built d = 2 corridor and pm states, with
    verify_process patched out so only the injectivity counts can reject
    them."""

    def _verify(self, monkeypatch, phi, config_cls=ProcessConfig):
        monkeypatch.setattr(corridor, "verify_process", lambda state: None)
        cfg = config_cls(n=max(phi), d=2, seed=0, allow_small_n=True)
        steps = len(phi) - cfg.spec.width(2) - 1
        state = ProcessState(config=cfg, phi=phi, masks={}, step=steps, rng=random.Random(0))
        image = assemble(state)
        report = RunReport(
            config=cfg,
            steps=steps,
            first_low_step=None,
            image=image,
            records=[],
            first_band_exit=None,
        )
        return image, lambda: verify_run(report, state)

    def test_structure_is_the_straight_corridor(self):
        for d in (2, 3):
            assert set(window_faces(range(1, 10), d, d)) == straight_corridor(d, 9).facets

    def test_injective_path_passes(self, monkeypatch):
        image, verify = self._verify(monkeypatch, [1, 2, 3, 4, 5, 6, 7])
        verify()
        assert is_induced_path(build_dual(image, 2))

    def test_repeated_ridge_rejected(self, monkeypatch):
        # windows 123, 234, 345, 145, 125: five distinct facets, but the
        # ridges 12 (positions 1,2) and 12 (positions 6,7) coincide, so the
        # image has 10 ridges against the structure's 11
        image, verify = self._verify(monkeypatch, [1, 2, 3, 4, 5, 1, 2])
        with pytest.raises(VerificationError, match=r"not injective on \(d-1\)-faces"):
            verify()
        assert not is_induced_path(build_dual(image, 2))

    def test_repeated_facet_rejected(self, monkeypatch):
        _, verify = self._verify(monkeypatch, [1, 2, 3, 4, 1, 2, 3])
        with pytest.raises(VerificationError, match="not injective on d-faces"):
            verify()

    def test_pm_injective_boundary_passes(self, monkeypatch):
        image, verify = self._verify(monkeypatch, [1, 2, 3, 4, 5, 6, 7, 8], PmConfig)
        verify()
        assert is_pseudomanifold(image, 2)

    def test_pm_repeated_facet_rejected(self, monkeypatch):
        # windows 1234 and 2341: the first keeps 123, 124, 134 (holding its
        # first entry 1), the last 123, 124, 134 (holding its last entry 1)
        _, verify = self._verify(monkeypatch, [1, 2, 3, 4, 1], PmConfig)
        with pytest.raises(VerificationError, match="not injective on d-faces"):
            verify()

    def test_pm_repeated_ridge_rejected(self, monkeypatch):
        # ten distinct facets, but the edges at positions (1, 4) and (4, 7)
        # both map to 14, so the image has 14 ridges against 15
        image, verify = self._verify(monkeypatch, [1, 2, 3, 4, 5, 6, 1], PmConfig)
        with pytest.raises(VerificationError, match=r"not injective on \(d-1\)-faces"):
            verify()
        assert not is_pseudomanifold(image, 2)


class TestWindowFaces:
    """window_faces and the closed-form face counts against the oracle that
    counts every subset of every window."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("spec", [CORRIDOR, PM], ids=["corridor", "pm"])
    def test_matches_oracle(self, spec, d):
        w = spec.width(d)
        for M in range(w + 1, 61):
            faces = list(window_faces(range(1, M + 1), w, d))
            oracle = oracle_window_faces(M, w, d)
            assert len(faces) == len(set(faces)) and set(faces) == oracle
            steps = M - w - 1
            assert spec.facet_count(d, steps) == len(oracle)
            structure = SimplicialComplex(n=M, facets=frozenset(oracle))
            assert spec.closed_faces(d, steps) == len(k_faces(structure, d - 1))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("config_cls", [ProcessConfig, PmConfig])
    @pytest.mark.parametrize("n, d", [(30, 2), (20, 3)])
    def test_image_is_the_mapped_structure(self, n, d, config_cls, seed):
        state, _ = simulate(config_cls(n=n, d=d, seed=seed))
        phi = state.phi
        structure = oracle_window_faces(len(phi), config_cls.spec.width(d), d)
        mapped = {tuple(sorted(phi[k - 1] for k in f)) for f in structure}
        assert assemble(state).facets == mapped
