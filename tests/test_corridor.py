import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor_forge import corridor
from corridor_forge.complexes import straight_corridor
from corridor_forge.corridor import (
    CORRIDOR,
    ProcessConfig,
    ProcessSpec,
    ProcessState,
    RunReport,
    assemble,
    candidates,
    default_tracked_family,
    error_function,
    i_end,
    init,
    run,
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
from corridor_forge.pm import PmConfig, pm_run
from corridor_forge.serialize import report_json
from corridor_forge.trajectory import TrajectoryTracker
from util import closed_faces, oracle_snapshot


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
        cand = candidates(state)
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
        calls = []
        real = corridor.scan_available

        def counting(**kwargs):
            calls.append(kwargs["n"])
            return real(**kwargs)

        monkeypatch.setattr(corridor, "scan_available", counting)
        report = process(cfg)
        assert len(calls) == report.steps + 1

    def test_recording_does_not_change_run(self):
        plain = run(ProcessConfig(n=40, d=2, seed=5))
        tracked = run(ProcessConfig(n=40, d=2, seed=5, record_every=25))
        assert plain.image.facets == tracked.image.facets
        assert plain.steps == tracked.steps


class TestFormulas:
    def test_p_and_prediction_at_start(self):
        assert CORRIDOR.p(100, 2, 0) == 1.0
        assert CORRIDOR.predicted_Y(100, 2, 0, 3) == 100.0

    def test_prediction_midway(self):
        # p = 1 - 2*2*1250/10000 = 0.5, n p^2 = 25
        assert CORRIDOR.predicted_Y(100, 2, 1250, 2) == pytest.approx(25.0)

    def test_prediction_at_p_zero(self):
        assert CORRIDOR.predicted_Y(100, 2, 2500, 2) == pytest.approx(0.0)

    def test_prediction_out_of_regime(self):
        with pytest.raises(OutOfRegime):
            CORRIDOR.predicted_Y(100, 2, 3000, 2)

    def test_error_function_at_one(self):
        assert error_function(2, 1.0) == pytest.approx(math.exp(31))

    def test_error_band_value_and_growth(self):
        assert CORRIDOR.error_band(200, 2, 0.0) == pytest.approx(
            200**0.75 * math.exp(31) / 2
        )
        assert CORRIDOR.error_band(200, 2, 0.1) > CORRIDOR.error_band(200, 2, 0.0)
        # the rigorous band is vacuous at desk scale
        assert CORRIDOR.error_band(200, 2, 0.0) > 200

    def test_error_band_out_of_regime(self):
        with pytest.raises(OutOfRegime):
            CORRIDOR.error_band(200, 2, 0.25)

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
    assert state.tracker.snapshot() == oracle_snapshot(state)
    for _ in range(prefix):
        if not step(state):
            break
        assert state.tracker.snapshot() == oracle_snapshot(state)


class TestTrackerIdentity:
    def test_identity_every_step(self):
        state = init(ProcessConfig(n=40, d=2, seed=7, record_every=1))
        tracker = state.tracker
        for _ in range(60):
            if not step(state):
                break
            for tc in tracker.tracked:
                assert tracker.identity_holds(tc)

    def test_skipped_subface_breaks_identity(self, monkeypatch):
        """A note_closure that misses the subface without the face's first
        vertex miscounts W; the verifier must see it in the closure index."""
        note_closure = TrajectoryTracker.note_closure

        def skip_one_subface(self, face, round_no):
            hidden = self.index.pop(face[1:], None)
            note_closure(self, face, round_no)
            if hidden is not None:
                self.index[face[1:]] = hidden

        monkeypatch.setattr(TrajectoryTracker, "note_closure", skip_one_subface)
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


class TestVerifier:
    """verify_run on hand-built corridor states, with verify_process
    patched out so only the injectivity counts can reject them."""

    def _verify(self, monkeypatch, phi):
        monkeypatch.setattr(corridor, "verify_process", lambda state: None)
        cfg = ProcessConfig(n=max(phi), d=2, seed=0, allow_small_n=True)
        state = ProcessState(
            config=cfg, phi=phi, masks={}, step=len(phi) - 3, rng=random.Random(0)
        )
        image, structural = assemble(state)
        report = RunReport(
            config=cfg,
            steps=state.step,
            first_low_step=None,
            image=image,
            records=[],
            first_band_exit=None,
        )
        return image, lambda: verify_run(report, state, structural)

    def test_structure_is_the_straight_corridor(self):
        assert CORRIDOR.structure(2, 9) == straight_corridor(2, 9)
        assert CORRIDOR.structure(3, 9) == straight_corridor(3, 9)

    def test_injective_path_passes(self, monkeypatch):
        image, verify = self._verify(monkeypatch, [1, 2, 3, 4, 5, 6, 7])
        assert verify() == 11  # (d-1)-faces of SC_2(7)
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
