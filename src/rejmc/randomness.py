"""Deterministic, seedable uniform random number generation.

The generator is splitmix64: a 64-bit counter advanced by a fixed odd
increment, pushed through a finalizing mixer. It is fully specified by five
integer constants, so identical seeds give bit-identical sequences on any
platform. Streams are single-owner; parallel work derives one independent
substream per chunk index instead of sharing a stream across threads, so a
run's whole random state is its 64-bit seed (capture_seed) plus the index
of each chunk or replication.
"""
from __future__ import annotations

import threading

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
# uniform01_block keeps the top 53 bits, so 1.0 is never produced
_UNIT_53 = 2.0 ** -53
# next_u64_block mixes words in pieces of _PIECE: _STEPS[j] is (j+1) steps
# of the counter, and each thread has one piece of scratch words
_PIECE = 1 << 16
_STEPS = np.arange(1, _PIECE + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
_MULT_1 = np.uint64(_MIX_MULT_1)
_MULT_2 = np.uint64(_MIX_MULT_2)
_scratch = threading.local()


def mix64(z: int) -> int:
    """Bijective finalizing scramble of a 64-bit word (shifts 30/27/31)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MIX_MULT_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_MULT_2) & MASK64
    return (z ^ (z >> 31)) & MASK64


class RandomStream:
    """splitmix64 stream: the only mutation is advancing ``state``."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = int(seed) & MASK64

    def next_u64_block(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Next ``count`` outputs as a uint64 array, written to ``out`` if given.

        Output i is mix64 of state + (i+1)*increment, then the state
        advances by count steps.
        Words are mixed in pieces of at most 2^16, through one scratch
        buffer per thread, so the temporaries stay small whatever ``count``.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        if out is None:
            out = np.empty(count, dtype=np.uint64)
        elif out.shape != (count,):
            raise ValueError(f"out must have shape ({count},), got {out.shape}")
        scratch = getattr(_scratch, "words", None)
        if scratch is None:
            scratch = _scratch.words = np.empty(_PIECE, dtype=np.uint64)
        for k in range(0, count, _PIECE):
            z = out[k : k + _PIECE]
            t = scratch[: len(z)]
            np.add(_STEPS[: len(z)], np.uint64((self.state + k * GOLDEN_GAMMA) & MASK64), out=z)
            # mix64, in place
            z ^= np.right_shift(z, 30, out=t)
            z *= _MULT_1
            z ^= np.right_shift(z, 27, out=t)
            z *= _MULT_2
            z ^= np.right_shift(z, 31, out=t)
        self.state = (self.state + count * GOLDEN_GAMMA) & MASK64
        return out

    def uniform01_block(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """Next ``count`` draws in [0, 1) as float64, written to ``out`` if
        given: the top 53 bits of each word scaled by 2^-53. The words are
        generated in place and converted in place."""
        if out is None:
            out = np.empty(count)
        words = out.view(np.uint64)
        self.next_u64_block(count, words)
        words >>= 11
        # each word is now below 2^53, so it reads the same as int64, whose
        # cast to float64 is cheaper than uint64's, and the cast is exact
        np.copyto(out, words.view(np.int64), casting="unsafe")
        out *= _UNIT_53
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(state=0x{self.state:016X})"


def capture_seed(seed: int) -> int:
    """The run seed of an integer seed: ``seed & MASK64``."""
    return int(seed) & MASK64


def substream(seed: int, chunk: int) -> RandomStream:
    """Independent-behaving stream for worker ``chunk``.

    Pure function of (seed, chunk): the substream state is
    mix64(seed XOR increment*(chunk+1)), so merging chunk outputs in chunk
    order is invariant to execution interleaving.
    """
    if chunk < 0:
        raise ValueError("chunk index must be nonnegative")
    salt = (GOLDEN_GAMMA * (chunk + 1)) & MASK64
    return RandomStream(mix64((int(seed) & MASK64) ^ salt))


def uniform_box_block(stream: RandomStream, box, count: int) -> np.ndarray:
    """``count`` points uniform on ``box`` as a (count, dims) matrix.

    Consumes count*dims draws, point by point and in dimension order within
    a point: coordinate i is lower_i + u*(upper_i - lower_i). The matrix is
    column-major (see scale_to_box): it is filled one column at a time, and
    evaluation reads each variable's column contiguously.
    """
    d = box.dims
    u = stream.uniform01_block(count * d).reshape(count, d)
    return scale_to_box(u, box.lower, box.widths)


def scale_to_box(
    u: np.ndarray, lower: np.ndarray, widths: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``lower + u[:, :d] * widths`` for d = len(widths), bit for bit.

    ``lower`` is a (d,) corner or one (n, d) corner per row. The result,
    ``out`` if given, is a column-major (n, d) array, filled one column at
    a time: the broadcast runs a length-d inner loop per row, several times
    slower for small d, and an expression reads each variable's column
    contiguously. Row selections such as ``pts[rows]`` come back
    C-contiguous.
    """
    d = len(widths)
    pts = np.empty((d, u.shape[0])).T if out is None else out
    for i in range(d):
        # the same IEEE multiply and add as the broadcast, so equal bits
        np.multiply(u[:, i], widths[i], out=pts[:, i])
        pts[:, i] += lower[..., i]
    return pts
