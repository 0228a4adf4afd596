"""Closed-face bookkeeping shared by the two mapping processes.

The closure index is the one record of the closed (d-1)-faces. It maps
each (d-2)-face tau, packed to an int by ``complexes.pack``, to a Python-int
bitmask with bit v set when tau + {v} is closed, so the candidate scan is a
few big-int operations instead of a pass over [n]. A step enters its new
faces with one OR per key, and a new bit already set means a face closed
twice. The engine loop (``corridor._advance``) does both inline;
``scan_available`` is the reference scan, with no caller in the program,
that the tests check the loop's scan against.
"""

from __future__ import annotations

from collections.abc import Iterable

from .complexes import unpack
from .errors import VerificationError


def closed_twice(key: int, overlap: int, n: int, d: int):
    """Raise VerificationError naming the face closed twice: the packed
    (d-2)-face ``key`` plus the lowest set bit of ``overlap``, the bits that
    were already set in its mask."""
    v = (overlap & -overlap).bit_length() - 1
    face = tuple(sorted((*unpack(key, n, d - 1), v)))
    raise VerificationError(f"face {face} closed twice")


def scan_available(
    *, n: int, masks: dict[int, int], keys: Iterable[int], recent: int
) -> tuple[int, list[int]]:
    """(count of vertices in [n] that close no closed face with any tau,
    those vertices additionally outside the bitmask ``recent`` as a sorted
    list of choices): the reference scan of one state. The engine loop
    inlines it, so nothing in the program calls it.

    ``keys`` are the packed (d-2)-faces tau of the window. The count
    excludes the window without a mask of its own: the start closes every
    d-subset of its w+1 vertices and each step every new one containing the
    new vertex, so each d-subset of the window is closed and blocks its
    vertices. ``recent`` contains the window."""
    blocked = 0
    for key in keys:
        blocked |= masks.get(key, 0)
    avail = ((1 << (n + 1)) - 2) & ~blocked
    choices = avail & ~recent
    return avail.bit_count(), [v for v in range(n + 1) if choices >> v & 1]
