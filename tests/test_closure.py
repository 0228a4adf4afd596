"""The closure index and its scan against the per-face paths they replaced.

``oracle_scan`` is the former candidate scan: one pass over [n] that looks
up every face tau + {v} in the closed faces, rebuilt from the mapped
vertices without the index (``util.closed_faces``). ``util.close_face`` is
the former per-face closing, the oracle for the engine's one OR per key.
"""

import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corridor_forge import corridor
from corridor_forge.closure import scan_available
from corridor_forge.complexes import pack
from corridor_forge.corridor import ProcessConfig, init, simulate, step, verify_process
from corridor_forge.errors import VerificationError
from corridor_forge.pm import PmConfig
from util import close_face, closed_faces, set_bits


def oracle_scan(state):
    cfg = state.config
    n, w = cfg.n, cfg.spec.width(cfg.d)
    window = set(state.phi[-w:])
    taus = list(combinations(sorted(window), cfg.d - 1))
    recent = set(state.phi[-2 * w :])
    closed = closed_faces(state)
    count, choice = 0, []
    for v in range(1, n + 1):
        if v in window:
            continue
        if all(tuple(sorted(tau + (v,))) not in closed for tau in taus):
            count += 1
            if v not in recent:
                choice.append(v)
    return taus, count, choice


def assert_scan_matches(state):
    # the engine loop's scan, and the reference scan on tau and the recent
    # images rebuilt from phi, are both the oracle's
    n, w = state.config.n, state.config.spec.width(state.config.d)
    taus, want_count, want = oracle_scan(state)
    keys = [pack(tau, n) for tau in taus]
    recent = sum(1 << v for v in state.phi[-2 * w :])
    assert scan_available(n=n, masks=state.masks, keys=keys, recent=recent) == (want_count, want)
    assert state.available == want_count
    assert set_bits(state.choices) == want


@settings(max_examples=60, deadline=None)
@given(
    config_cls=st.sampled_from([ProcessConfig, PmConfig]),
    d=st.sampled_from([2, 3, 4]),
    extra_n=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    prefix=st.integers(0, 150),
)
def test_scan_matches_linear_oracle(config_cls, d, extra_n, seed, prefix):
    w = config_cls.spec.width(d)
    state = init(config_cls(n=w + 2 + extra_n, d=d, seed=seed, allow_small_n=True))
    assert_scan_matches(state)
    for _ in range(prefix):
        if not step(state):
            break
        assert_scan_matches(state)


@settings(max_examples=40, deadline=None)
@given(
    config_cls=st.sampled_from([ProcessConfig, PmConfig]),
    d=st.sampled_from([2, 3, 4]),
    extra_n=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    record_every=st.sampled_from([0, 1, 3, 7]),
)
def test_simulate_matches_single_steps(config_cls, d, extra_n, seed, record_every):
    # simulate runs the engine loop record_every steps at a time (to the
    # end at 0) and writes the state back at each run's end; one step at a
    # time, every state is written back, so both must give the same run
    w = config_cls.spec.width(d)
    n = w + 2 + extra_n
    config = config_cls(n=n, d=d, seed=seed, record_every=record_every,
                        track_link=n >= 2 * w, allow_small_n=True)
    state, records = simulate(config)
    single, single_records, first_low = init(config), [], None
    while True:
        assert_scan_matches(single)
        if first_low is None and single.available <= 2 * w:
            first_low = single.step
        assert single.first_low_step == first_low
        if record_every and single.step % record_every == 0:
            single_records.append(corridor._record(single))
        if not step(single):
            break
    assert single.phi == state.phi
    assert single.masks == state.masks
    assert single.first_low_step == state.first_low_step
    assert single_records == records
    assert single.available == state.available
    assert single.choices == state.choices == 0
    if record_every:
        assert single.tracker.w == state.tracker.w


def oracle_masks(state) -> dict[int, int]:
    """The closure index rebuilt face by face from the mapped vertices,
    re-keyed by pack."""
    masks: dict[tuple[int, ...], int] = {}
    for face in sorted(closed_faces(state)):
        close_face(masks, face)
    return {pack(tau, state.config.n): mask for tau, mask in masks.items()}


@settings(max_examples=60, deadline=None)
@given(
    config_cls=st.sampled_from([ProcessConfig, PmConfig]),
    d=st.sampled_from([2, 3, 4]),
    extra_n=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    prefix=st.integers(0, 150),
)
def test_masks_match_per_face_oracle(config_cls, d, extra_n, seed, prefix):
    w = config_cls.spec.width(d)
    state = init(config_cls(n=w + 2 + extra_n, d=d, seed=seed, allow_small_n=True))
    assert state.masks == oracle_masks(state)
    for _ in range(prefix):
        if not step(state):
            break
        assert state.masks == oracle_masks(state)


@pytest.mark.parametrize("config", [ProcessConfig(n=30, d=3, seed=2), PmConfig(n=40, d=2, seed=2)])
def test_verify_process_catches_broken_index(config):
    state, _ = simulate(config)
    verify_process(state)
    tau, mask = next(iter(state.masks.items()))
    state.masks[tau] = mask & (mask - 1)  # forget one closed face
    with pytest.raises(VerificationError, match="closure index"):
        verify_process(state)


@pytest.mark.parametrize("config", [ProcessConfig(n=30, d=3, seed=2), PmConfig(n=40, d=2, seed=2)])
def test_step_rejects_a_closed_face(config):
    # phi[0] is outside the window, and with it every face it would close
    # is a d-subset of the start, already closed; the first is named
    state = init(config)
    v = state.phi[0]
    w = config.spec.width(config.d)
    first_tau = sorted(state.phi[-w:])[: config.d - 1]
    face = tuple(sorted([*first_tau, v]))
    state.choices = 1 << v
    with pytest.raises(VerificationError, match=re.escape(f"face {face} closed twice")):
        step(state)


def test_verify_process_catches_a_repeat_past_close_face(monkeypatch):
    # without the per-key overlap check the repeat ORs in no new bit, so
    # the popcount sum of the index falls short
    monkeypatch.setattr(corridor, "closed_twice", lambda *args: None)
    state = init(ProcessConfig(n=30, d=2, seed=2))
    state.choices = 1 << state.phi[0]
    assert step(state)
    with pytest.raises(VerificationError, match="closure index"):
        verify_process(state)


def test_repeated_face_raises_under_python_O():
    # the engine checks each key's overlap with an if, not an assert, so -O
    # keeps the check;
    # the script's own assert shows that -O is on
    script = (
        "assert False, 'asserts are on'\n"
        "from corridor_forge.corridor import ProcessConfig, init, step\n"
        "state = init(ProcessConfig(n=30, d=2, seed=2))\n"
        "state.choices = 1 << state.phi[0]\n"
        "step(state)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stderr.splitlines()[-1].startswith("corridor_forge.errors.VerificationError: face")
    assert out.stderr.splitlines()[-1].endswith("closed twice")
