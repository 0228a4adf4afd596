"""The benchmark's tracer looks its targets up by attribute, so a renamed
or deleted function breaks only the traced run. This test resolves every
target the tracer wraps."""

import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from corridor_forge.closure import scan_available
from corridor_forge.complexes import pack
from corridor_forge.corridor import ProcessConfig, init

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


@pytest.mark.parametrize(
    "name, owner, attr", [t[:3] for t in tracer.TARGETS], ids=[t[0] for t in tracer.TARGETS]
)
def test_target_resolves_to_a_callable(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr}"


def test_candidate_counter_reads_the_scan():
    # the counter hook reads the choices of scan_available's result: the
    # scan of a real start must add their number, n - w - 1
    state = init(ProcessConfig(n=30, d=2, seed=3))
    keys = [pack(tau, 30) for tau in combinations(sorted(state.phi[-2:]), 1)]
    recent = sum(1 << v for v in state.phi)
    result = scan_available(n=30, masks=state.masks, keys=keys, recent=recent)
    counters = Counter({"closure.candidates": 5})
    tracer._count_candidates(counters, (), {}, result)
    assert counters["closure.candidates"] == 5 + len(result[1]) == 5 + 27
