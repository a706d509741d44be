"""Deterministic, seedable uniform random number generation.

The generator is splitmix64: a 64-bit counter advanced by a fixed odd
increment, pushed through a finalizing mixer. It is fully specified by five
integer constants, so identical seeds give bit-identical sequences on any
platform. Streams are single-owner; parallel work derives one independent
substream per chunk index instead of sharing a stream across threads.
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
# uniform01 keeps the top 53 bits, so 1.0 is never produced
_UNIT_53 = 2.0 ** -53


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

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN_GAMMA) & MASK64
        return mix64(self.state)

    def next_u64_block(self, count: int) -> np.ndarray:
        """Next ``count`` outputs as a uint64 array.

        Equivalent to ``count`` calls of next_u64: output i mixes
        state + (i+1)*increment, then the state advances by count steps.
        """
        if count < 0:
            raise ValueError("count must be nonnegative")
        with np.errstate(over="ignore"):
            z = np.uint64(self.state) + np.arange(1, count + 1, dtype=np.uint64) * np.uint64(
                GOLDEN_GAMMA
            )
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_MULT_1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_MULT_2)
            z = z ^ (z >> np.uint64(31))
        self.state = (self.state + count * GOLDEN_GAMMA) & MASK64
        return z

    def uniform01(self) -> float:
        """One draw in [0, 1): top 53 bits scaled by 2^-53."""
        return (self.next_u64() >> 11) * _UNIT_53

    def uniform01_block(self, count: int) -> np.ndarray:
        return (self.next_u64_block(count) >> np.uint64(11)).astype(np.float64) * _UNIT_53

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStream(state=0x{self.state:016X})"


def capture_seed(stream_or_seed: RandomStream | int) -> int:
    """The run seed of a stream or integer seed.

    An int gives ``seed & MASK64``. A stream gives its current state and is
    advanced one step, so consecutive runs on one stream differ.
    """
    if isinstance(stream_or_seed, RandomStream):
        seed = stream_or_seed.state
        stream_or_seed.next_u64()
        return seed
    return int(stream_or_seed) & MASK64


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


def uniform_box(stream: RandomStream, box) -> np.ndarray:
    """One point uniform on ``box``; consumes exactly box.dims draws, in
    dimension order. Coordinate i is lower_i + u*(upper_i - lower_i)."""
    u = stream.uniform01_block(box.dims)
    return box.lower + u * box.widths


def uniform_box_block(stream: RandomStream, box, count: int) -> np.ndarray:
    """``count`` points uniform on ``box`` as a (count, dims) matrix.

    Consumes count*dims draws in the same order as repeated uniform_box.
    The matrix is column-major (see scale_to_box): it is filled one column
    at a time, and evaluation reads each variable's column contiguously.
    """
    d = box.dims
    u = stream.uniform01_block(count * d).reshape(count, d)
    return scale_to_box(u, box.lower, box.widths)


def scale_to_box(u: np.ndarray, lower: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """``lower + u[:, :d] * widths`` for d = len(widths), bit for bit.

    ``lower`` is a (d,) corner or one (n, d) corner per row. The result is a
    column-major (n, d) array, filled one column at a time: the broadcast
    runs a length-d inner loop per row, several times slower for small d,
    and an expression reads each variable's column contiguously. Row
    selections such as ``pts[rows]`` come back C-contiguous.
    """
    d = len(widths)
    pts = np.empty((d, u.shape[0])).T
    for i in range(d):
        # the same IEEE multiply and add as the broadcast, so equal bits
        np.multiply(u[:, i], widths[i], out=pts[:, i])
        pts[:, i] += lower[..., i]
    return pts
