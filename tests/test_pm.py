import math

import pytest

from corridor_forge import complexes, corridor, dual, pm
from corridor_forge.complexes import (
    boundary_corridor,
    boundary_corridor_diameter,
    f_vector,
    is_pseudomanifold,
)
from corridor_forge.corridor import (
    CORRIDOR,
    ProcessSpec,
    default_tracked_family,
    init,
    step,
)
from corridor_forge.dual import build_dual, caccetta_smyth_bound, diameter
from corridor_forge.errors import InvalidParams, OutOfRegime, VerificationError
from corridor_forge.experiments import ExperimentSpec, run_experiment
from corridor_forge.pm import (
    PM,
    PmConfig,
    hpm_upper,
    pm_diameter_lower,
    pm_run,
)
from corridor_forge.trajectory import band_halfwidth, predicted_y
from util import closed_faces, oracle_window_faces, set_bits


class TestInit:
    def test_contracts(self):
        state = init(PmConfig(n=40, d=2, seed=1))
        assert len(state.phi) == 4
        assert len(closed_faces(state)) == 6  # C(4, 2)
        assert state.step == 0

    def test_small_n_guard(self):
        with pytest.raises(InvalidParams):
            init(PmConfig(n=10, d=2, seed=0))

    def test_small_n_opt_in(self):
        state = init(PmConfig(n=10, d=2, seed=0, allow_small_n=True))
        assert len(state.phi) == 4

    def test_tracker_period(self):
        state = init(PmConfig(n=40, d=2, seed=1, record_every=5))
        assert state.tracker.period == 10


class TestStep:
    def test_candidates_exclude_window(self):
        state = init(PmConfig(n=40, d=2, seed=3))
        cand = set_bits(state.choices)
        assert len(cand) == 40 - 4
        assert not set(cand) & set(state.phi)

    def test_closures_per_step(self):
        state = init(PmConfig(n=40, d=2, seed=3))
        before = len(closed_faces(state))
        assert step(state)
        assert len(closed_faces(state)) == before + PM.rate(2)

    def test_determinism(self):
        a = init(PmConfig(n=40, d=2, seed=9))
        b = init(PmConfig(n=40, d=2, seed=9))
        for _ in range(20):
            assert step(a) == step(b)
        assert a.phi == b.phi


class TestFormulas:
    def test_rate(self):
        assert PM.rate(2) == 3
        assert PM.rate(3) == 6

    def test_p_and_prediction(self):
        assert PM.p(100, 2, 0) == 1.0
        assert predicted_y(100, PM.p(100, 2, 0), 3) == 100.0
        # p = 1 - 6 * 1250 / 10000 = 0.25
        assert predicted_y(100, PM.p(100, 2, 1250), 1) == pytest.approx(25.0)

    def test_prediction_out_of_regime(self):
        with pytest.raises(OutOfRegime):
            predicted_y(100, PM.p(100, 2, 2000), 2)

    def test_error_function_at_one(self):
        assert PM.error_function(2, 1.0) == pytest.approx(math.exp(32))

    def test_error_band_monotone_and_vacuous(self):
        def band(t):
            return band_halfwidth(60, PM.error_function(2, PM.p(60, 2, t * 60**2)))

        assert band(0.0) == pytest.approx(60**0.75 * math.exp(32) / 2)
        assert band(0.05) > band(0.0)
        assert band(0.0) > 60

    def test_diameter_lower(self):
        assert pm_diameter_lower(6, 2) == pytest.approx(1.0)
        assert pm_diameter_lower(4, 2) == pytest.approx(-1 / 3)
        assert pm_diameter_lower(30, 2) == pytest.approx(17.0)
        with pytest.raises(InvalidParams):
            pm_diameter_lower(3, 2)

    def test_structural_diameter_meets_lower(self):
        g = build_dual(boundary_corridor(2, 30), 2)
        assert diameter(g) >= pm_diameter_lower(30, 2)

    def test_upper_bounds(self):
        assert CORRIDOR.max_steps(10, 2) == pytest.approx(21.0)
        assert hpm_upper(10, 2) == pytest.approx(11.0)
        with pytest.raises(InvalidParams):
            CORRIDOR.max_steps(2, 2)

    @pytest.mark.parametrize("spec", [CORRIDOR, PM])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_p_positive_within_the_volume_bound(self, spec, d):
        # d! C(n, d) < n^d, so no recorded step reaches p <= 0
        w = spec.width(d)
        for n in range(w + 2, w + 200):
            assert spec.p(n, d, spec.max_steps(n, d)) > 0

    def test_max_steps_counts_the_start_faces(self):
        # C(20,2) faces, C(4,2) closed by the start, 3 per step
        assert PM.max_steps(20, 2) == (190 - 6) / 3
        with pytest.raises(InvalidParams):
            PM.max_steps(2, 2)

    @pytest.mark.parametrize("spec", [CORRIDOR, PM])
    @pytest.mark.parametrize("d", [2, 3])
    def test_first_order_steps_is_where_p_reaches_zero(self, spec, d):
        first_order = spec.first_order_steps(100, d)
        assert spec.p(100, d, first_order) == pytest.approx(0, abs=1e-12)
        assert first_order > spec.max_steps(100, d)

    def test_summary_exact_bound_is_max_steps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CORRIDOR_FORGE_THREADS", "1")
        spec = ExperimentSpec.from_dict({"mode": "pm", "n": [20], "d": [2], "seeds": [1]})
        (row,) = run_experiment(spec, tmp_path)
        assert row["exact_bound"] == (190 - 6) / 3


class TestTrackedFamily:
    def test_link_shape(self):
        cfg = PmConfig(n=40, d=2, seed=0, track_random=0)
        (link,) = default_tracked_family(cfg)
        assert link.v_count == 6  # 2(d+1) vertices
        assert link.size <= 2 + 4 * math.comb(2, 2) + 10


class TestRun:
    def test_d2_report(self):
        report = pm_run(PmConfig(n=60, d=2, seed=0))
        assert report.pseudomanifold
        assert report.mapped_vertices == report.steps + 4
        fv = f_vector(report.image)
        assert 2 * fv[1] == 3 * fv[2]
        assert report.dual_diameter >= report.diameter_lower
        assert report.dual_diameter <= caccetta_smyth_bound(fv[2], 3)

    def test_d3_report(self):
        report = pm_run(PmConfig(n=20, d=3, seed=1))
        assert report.pseudomanifold
        fv = f_vector(report.image)
        assert 2 * fv[2] == 4 * fv[3]
        assert report.dual_diameter >= report.diameter_lower

    def test_check_leaves_no_face_index_on_the_image(self, monkeypatch):
        # the pseudomanifold check indexes a twin, so no ridge map stays
        # beside the report: the image's own first check builds one
        calls = []
        real = complexes.ridge_holders
        monkeypatch.setattr(complexes, "ridge_holders", lambda f, d: calls.append(d) or real(f, d))
        report = pm_run(PmConfig(n=40, d=2, seed=2))
        assert calls == [2]
        assert is_pseudomanifold(report.image, 2)
        assert calls == [2, 2]

    def test_recording_does_not_change_run(self):
        plain = pm_run(PmConfig(n=40, d=2, seed=5, compute_diameter=False))
        tracked = pm_run(
            PmConfig(n=40, d=2, seed=5, record_every=25, compute_diameter=False)
        )
        assert plain.image.facets == tracked.image.facets
        assert plain.steps == tracked.steps

    def test_identity_in_records(self):
        report = pm_run(
            PmConfig(n=40, d=2, seed=5, record_every=25, compute_diameter=False)
        )
        for rec in report.records:
            for entry in rec.entries.values():
                # v_A recoverable: n - y - sum(w)
                assert 0 <= 40 - entry.y - sum(entry.w) <= 6
        assert report.first_band_exit is None


class TestMetamorphic:
    """The verifier proves the image injective on d- and (d-1)-faces, so
    its dual is isomorphic to the dual of the boundary corridor it maps."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n, d", [(40, 2), (60, 2), (20, 3)])
    def test_dual_diameter_matches_the_structure(self, n, d, seed):
        report = pm_run(PmConfig(n=n, d=d, seed=seed, allow_small_n=True))
        structural = boundary_corridor(d, report.mapped_vertices)
        assert structural.facets == oracle_window_faces(report.mapped_vertices, d + 1, d)
        assert report.dual_diameter == diameter(build_dual(structural, d))
        assert diameter(build_dual(report.image, d)) == report.dual_diameter


class TestSandwich:
    def test_diameter_below_lower_bound_rejected(self, monkeypatch):
        monkeypatch.setattr(pm, "pm_diameter_lower", lambda N, d: 1e9)
        with pytest.raises(VerificationError, match="below the lower bound"):
            pm_run(PmConfig(n=40, d=2, seed=1))

    def test_engine_checks_run_before_the_diameter(self, monkeypatch):
        def fail(state):
            raise VerificationError("forced failure")

        def never(graph):
            raise AssertionError("diameter computed on an unverified image")

        monkeypatch.setattr(corridor, "verify_process", fail)
        monkeypatch.setattr(pm, "boundary_corridor_diameter", never)
        with pytest.raises(VerificationError, match="forced failure"):
            pm_run(PmConfig(n=40, d=2, seed=1))

    def test_diameter_above_caccetta_smyth_rejected(self, monkeypatch):
        monkeypatch.setattr(pm, "caccetta_smyth_bound", lambda num_nodes, K: 0)
        with pytest.raises(VerificationError, match="above the Caccetta-Smyth bound"):
            pm_run(PmConfig(n=40, d=2, seed=1))

    def test_upper_bound_taken_at_kappa_d_plus_one(self, monkeypatch):
        seen = []

        def bound(num_nodes, K):
            seen.append((num_nodes, K))
            return caccetta_smyth_bound(num_nodes, K)

        monkeypatch.setattr(pm, "caccetta_smyth_bound", bound)
        report = pm_run(PmConfig(n=30, d=3, seed=2))
        assert seen == [(len(report.image.facets), 4)]
        # the sandwich is tight at the top
        assert report.dual_diameter == caccetta_smyth_bound(*seen[0])

    def test_no_graph_is_built(self, monkeypatch):
        def never(*args):
            raise AssertionError("pm_run built or searched a dual graph")

        monkeypatch.setattr(dual, "build_dual", never)
        monkeypatch.setattr(dual, "diameter", never)
        report = pm_run(PmConfig(n=60, d=2, seed=1))
        assert report.dual_diameter == boundary_corridor_diameter(2, report.mapped_vertices)

    def test_volume_bound_checked(self, monkeypatch):
        monkeypatch.setattr(ProcessSpec, "max_steps", lambda self, n, d: 0)
        with pytest.raises(VerificationError, match="volume bound"):
            pm_run(PmConfig(n=40, d=2, seed=1, compute_diameter=False))

    def test_no_check_without_diameter(self, monkeypatch):
        monkeypatch.setattr(pm, "pm_diameter_lower", lambda N, d: 1e9)
        report = pm_run(PmConfig(n=40, d=2, seed=1, compute_diameter=False))
        assert report.dual_diameter is None
