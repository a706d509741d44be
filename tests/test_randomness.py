import numpy as np
import pytest

from rejmc import Box
from rejmc.randomness import GOLDEN_GAMMA, MASK64, RandomStream, mix64, substream, uniform_box_block
from conftest import next_u64, uniform01


def reference_mix(z):
    """Plain-integer oracle for the finalizing mixer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def reference_sequence(seed, count):
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + GOLDEN_GAMMA) & MASK64
        out.append(reference_mix(state))
    return out


def test_seed_zero_reference_output():
    # first outputs for seed 0, cross-checked against the hand computation
    assert reference_sequence(0, 3) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    assert RandomStream(0).next_u64_block(3).tolist() == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 0xDEADBEEF])
def test_streams_deterministic(seed):
    first = RandomStream(seed)
    second = RandomStream(seed)
    a = first.next_u64_block(3).tolist()
    b = second.next_u64_block(3).tolist()
    assert a == b
    assert a == reference_sequence(seed, 3)


def test_nearby_seeds_differ():
    assert next_u64(RandomStream(1)) != next_u64(RandomStream(2))


@pytest.mark.parametrize("seed,count", [(0, 1), (7, 17), (123456789, 1000)])
def test_block_matches_scalar_draws(seed, count):
    scalar = RandomStream(seed)
    block = RandomStream(seed)
    expected = [next_u64(scalar) for _ in range(count)]
    got = block.next_u64_block(count)
    assert [int(v) for v in got] == expected
    assert block.state == scalar.state


def test_uniform01_mapping_extremes():
    # top-53-bit construction: 0 maps to 0.0, the max word to (2^53-1)/2^53
    assert (0 >> 11) * 2.0**-53 == 0.0
    assert ((2**64 - 1) >> 11) * 2.0**-53 == 0.9999999999999999
    assert ((2**64 - 1) >> 11) * 2.0**-53 < 1.0


def test_uniform01_range_and_mean():
    stream = RandomStream(2024)
    draws = stream.uniform01_block(1_000_000)
    assert draws.min() >= 0.0
    assert draws.max() < 1.0
    # ~7 sigma of 1/sqrt(12 * 1e6)
    assert abs(draws.mean() - 0.5) < 0.002


def test_uniform01_scalar_matches_block():
    a = RandomStream(5)
    b = RandomStream(5)
    assert [uniform01(a) for _ in range(10)] == list(b.uniform01_block(10))


def test_uniform01_block_equals_uint64_cast_bit_for_bit():
    # the block casts the shifted words as int64; words at and above 2^63
    # before the shift must give the bits of the uint64 cast
    words = np.concatenate(
        [
            np.array([0, 1 << 11, (1 << 63) - 1, 1 << 63, 2**64 - 2048, 2**64 - 1], np.uint64),
            RandomStream(8).next_u64_block(4096),
        ]
    )
    assert np.count_nonzero(words >= np.uint64(1 << 63)) > 1000

    class Replay(RandomStream):
        def next_u64_block(self, count, out=None):
            out[:] = words
            return out

    got = Replay(0).uniform01_block(len(words))
    want = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_uniform01_chi_square_uniformity():
    draws = RandomStream(31337).uniform01_block(100_000)
    counts, _ = np.histogram(draws, bins=100, range=(0.0, 1.0))
    expected = 1000.0
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    assert statistic < 148.23035916510173  # 0.999 quantile of chi-square(99)


def test_uniform_box_identity_square():
    stream = RandomStream(0)
    expect = [uniform01(stream) for _ in range(2)]
    point = uniform_box_block(RandomStream(0), Box([(0, 1), (0, 1)]), 1)[0]
    assert list(point) == expect


def test_uniform_box_affine_and_range(gauss_box):
    stream = RandomStream(17)
    pts = uniform_box_block(stream, gauss_box, 5000)
    assert pts.shape == (5000, 2)
    assert np.all(pts >= -5.0) and np.all(pts < 5.0)

    eps = 1e-9
    tight = Box([(2.0, 2.0 + eps)])
    vals = uniform_box_block(RandomStream(3), tight, 100)
    assert np.all(vals >= 2.0) and np.all(vals < 2.0 + eps)


def test_uniform_box_consumes_exactly_d_draws():
    box = Box([(0, 1), (2, 5), (-1, 1)])
    stream = RandomStream(9)
    reference = RandomStream(9)
    reference.next_u64_block(3)
    uniform_box_block(stream, box, 1)
    assert stream.state == reference.state

    stream2 = RandomStream(9)
    reference2 = RandomStream(9)
    reference2.next_u64_block(3 * 40)
    uniform_box_block(stream2, box, 40)
    assert stream2.state == reference2.state


def test_uniform_box_dimension_order():
    box = Box([(0, 1), (10, 20)])
    raw = RandomStream(77).uniform01_block(2)
    point = uniform_box_block(RandomStream(77), box, 1)[0]
    assert point[0] == raw[0]
    assert point[1] == 10 + raw[1] * 10


def test_substream_pure_and_distinct():
    assert substream(42, 3).state == substream(42, 3).state
    assert next_u64(substream(42, 0)) != next_u64(substream(42, 1))
    # state formula: mix64(seed XOR increment*(chunk+1))
    assert substream(42, 3).state == mix64(42 ^ ((GOLDEN_GAMMA * 4) & MASK64))
    with pytest.raises(ValueError):
        substream(1, -1)


def test_substream_merge_invariant_to_interleaving():
    chunks = [substream(5, k).uniform01_block(8) for k in range(4)]
    interleaved = [substream(5, k) for k in (2, 0, 3, 1)]
    drawn = {}
    for rounds in range(8):
        for st, k in zip(interleaved, (2, 0, 3, 1)):
            drawn.setdefault(k, []).append(uniform01(st))
    merged = [np.array(drawn[k]) for k in range(4)]
    for a, b in zip(chunks, merged):
        assert np.array_equal(a, b)
