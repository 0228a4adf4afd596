"""Closed-face bookkeeping shared by the two mapping processes.

The closure index is the one record of the closed (d-1)-faces. It maps
each (d-2)-face tau, as a sorted tuple, to a Python-int bitmask with bit v
set when tau + {v} is closed, so the candidate scan is a few big-int
operations instead of a pass over [n].
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import VerificationError


def close_face(masks: dict[tuple[int, ...], int], face: tuple[int, ...]):
    """Enter the sorted face into the closure index: for each vertex v of
    the face, set bit v in the mask of the (d-2)-face face - {v}. A face
    that is already closed raises VerificationError."""
    for i, v in enumerate(face):
        tau = face[:i] + face[i + 1 :]
        mask = masks.get(tau, 0)
        if mask >> v & 1:
            raise VerificationError(f"face {face} closed twice")
        masks[tau] = mask | (1 << v)


class BitChoices:
    """The set bits of an int as a read-only sorted sequence: ``len`` is
    the popcount and ``[k]`` the k-th smallest set bit, found by bisecting
    on prefix popcounts without building the list."""

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
        # invariant: fewer than k+1 set bits below lo, at least k+1 below hi
        lo, hi = 0, bits.bit_length()
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if (bits & ((1 << mid) - 1)).bit_count() <= k:
                lo = mid
            else:
                hi = mid
        return lo


def scan_available(
    *,
    n: int,
    masks: dict[tuple[int, ...], int],
    taus: Iterable[tuple[int, ...]],
    recent: Iterable[int],
) -> tuple[int, BitChoices]:
    """(count of vertices in [n] that close no closed face with any tau,
    those vertices additionally outside ``recent`` as sorted choices).

    ``taus`` are the (d-2)-faces of the window. The count excludes the
    window without a mask of its own: the start closes every d-subset of
    its w+1 vertices and each step every new one containing the new
    vertex, so each d-subset of the window is closed and blocks its
    vertices. ``recent`` contains the window."""
    blocked = 0
    for tau in taus:
        blocked |= masks.get(tau, 0)
    avail = ((1 << (n + 1)) - 2) & ~blocked
    recent_bits = 0
    for v in recent:
        recent_bits |= 1 << v
    return avail.bit_count(), BitChoices(avail & ~recent_bits)
