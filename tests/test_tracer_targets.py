"""The benchmark's tracer looks its targets up by attribute, so a renamed
or deleted function breaks only the traced run. This test resolves every
target the tracer wraps."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


@pytest.mark.parametrize(
    "name, owner, attr", [t[:3] for t in tracer.TARGETS], ids=[t[0] for t in tracer.TARGETS]
)
def test_target_resolves_to_a_callable(name, owner, attr):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner!r} has no {attr}"
