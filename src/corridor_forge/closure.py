"""Closed-face bookkeeping shared by the two mapping processes.

The closure index is the one record of the closed (d-1)-faces. It maps
each (d-2)-face tau, packed to an int by ``complexes.pack``, to a Python-int
bitmask with bit v set when tau + {v} is closed, so the candidate scan is a
few big-int operations instead of a pass over [n]. A step enters its new
faces with one OR per key, and a new bit already set means a face closed
twice.
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


class BitChoices:
    """The set bits of an int as a read-only sorted sequence: ``len`` is
    the popcount and ``[k]`` the k-th smallest set bit, found by bisecting
    on the popcounts of its right shifts without building the list."""

    __slots__ = ("bits", "size")

    def __init__(self, bits: int):
        self.bits = bits
        self.size = bits.bit_count()

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> int:
        if not 0 <= k < self.size:
            raise IndexError("choice index out of range")
        bits = self.bits
        # invariant: fewer than k+1 set bits below lo, at least k+1 below hi,
        # that is at least size-k at or above lo and fewer at or above hi
        above = self.size - k
        lo, hi = 0, bits.bit_length()
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if (bits >> mid).bit_count() >= above:
                lo = mid
            else:
                hi = mid
        return lo


def scan_available(
    *, n: int, masks: dict[int, int], keys: Iterable[int], recent: int
) -> tuple[int, BitChoices]:
    """(count of vertices in [n] that close no closed face with any tau,
    those vertices additionally outside the bitmask ``recent`` as sorted
    choices): the scan of one state, for callers outside the engine loop,
    which inlines it.

    ``keys`` are the packed (d-2)-faces tau of the window. The count
    excludes the window without a mask of its own: the start closes every
    d-subset of its w+1 vertices and each step every new one containing the
    new vertex, so each d-subset of the window is closed and blocks its
    vertices. ``recent`` contains the window."""
    blocked = 0
    for key in keys:
        blocked |= masks.get(key, 0)
    avail = ((1 << (n + 1)) - 2) & ~blocked
    return avail.bit_count(), BitChoices(avail & ~recent)
