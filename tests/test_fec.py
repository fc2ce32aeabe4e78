import tracemalloc

import numpy as np
import pytest

from ofdmlink.errors import FramingError
from ofdmlink.fec import DEFAULT_CODE, conv_encode, viterbi_decode


def _reference_viterbi(coded, spec=DEFAULT_CODE):
    """Per-step add-compare-select decoder, kept as the tie-rule oracle.

    One trellis step per loop iteration; on a metric tie the survivor is the
    lower-numbered predecessor state.
    """
    coded = np.asarray(coded, dtype=np.uint8)
    n_steps = len(coded) // 2
    rx_sym = (coded[0::2].astype(np.int64) << 1) | coded[1::2]

    n = spec.n_states
    dest = np.arange(n)
    bit = dest & 1
    pred0 = dest >> 1
    pred1 = (dest >> 1) | (n >> 1)
    g1, g2 = spec.generators

    def out_sym(pred):
        reg = (pred << 1) | bit
        o1 = np.array([bin(r & g1).count("1") & 1 for r in reg])
        o2 = np.array([bin(r & g2).count("1") & 1 for r in reg])
        return (o1 << 1) | o2

    popcount = np.array([0, 1, 1, 2])
    bm0 = popcount[out_sym(pred0)[None, :] ^ rx_sym[:, None]]
    bm1 = popcount[out_sym(pred1)[None, :] ^ rx_sym[:, None]]

    big = np.iinfo(np.int64).max // 2
    pm = np.full(n, big, dtype=np.int64)
    pm[0] = 0
    choices = np.empty((n_steps, n), dtype=np.uint8)
    for t in range(n_steps):
        m0 = pm[pred0] + bm0[t]
        m1 = pm[pred1] + bm1[t]
        take1 = m1 < m0  # ties go to pred0, the lower-numbered predecessor
        choices[t] = take1
        pm = np.where(take1, m1, m0)

    state = 0  # zero-terminated
    decoded = np.empty(n_steps, dtype=np.uint8)
    for t in range(n_steps - 1, -1, -1):
        decoded[t] = state & 1
        state = pred1[state] if choices[t, state] else pred0[state]
    return decoded[: n_steps - spec.tail_bits]


def codebook(length):
    """All codewords for messages of the given length, via the generator matrix."""
    n_out = 2 * (length + DEFAULT_CODE.tail_bits)
    gen = np.zeros((length, n_out), dtype=np.uint8)
    for i in range(length):
        msg = np.zeros(length, dtype=np.uint8)
        msg[i] = 1
        gen[i] = conv_encode(msg)
    messages = ((np.arange(1 << length)[:, None] >>
                 np.arange(length - 1, -1, -1)) & 1).astype(np.uint8)
    return messages, messages @ gen % 2


def test_zero_input_zero_output():
    out = conv_encode(np.zeros(10, dtype=np.uint8))
    assert len(out) == 32
    assert not out.any()


def test_first_pair_for_leading_one():
    out = conv_encode(np.array([1], dtype=np.uint8))
    assert out[0] == 1 and out[1] == 1


def test_encoder_linearity():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 2, 200).astype(np.uint8)
    b = rng.integers(0, 2, 200).astype(np.uint8)
    assert np.array_equal(conv_encode(a ^ b), conv_encode(a) ^ conv_encode(b))


def test_output_length():
    for n in (1, 17, 100):
        assert len(conv_encode(np.zeros(n, dtype=np.uint8))) == 2 * (n + 6)


@pytest.mark.parametrize("length", range(1, 13))
def test_noiseless_inversion_exhaustive(length):
    messages, words = codebook(length)
    for msg, word in zip(messages, words):
        assert np.array_equal(viterbi_decode(word), msg)


def test_noiseless_inversion_random_long():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 1001))
        msg = rng.integers(0, 2, n).astype(np.uint8)
        assert np.array_equal(viterbi_decode(conv_encode(msg)), msg)


def test_single_flip_corrected_everywhere():
    rng = np.random.default_rng(2)
    msg = rng.integers(0, 2, 64).astype(np.uint8)
    word = conv_encode(msg)
    for pos in range(len(word)):
        corrupted = word.copy()
        corrupted[pos] ^= 1
        assert np.array_equal(viterbi_decode(corrupted), msg), f"flip at {pos}"


def test_ml_equivalence_brute_force():
    length = 12
    messages, words = codebook(length)
    rng = np.random.default_rng(3)
    for _ in range(50):
        msg = messages[rng.integers(0, len(messages))]
        word = conv_encode(msg)
        corrupted = word ^ (rng.random(len(word)) < 0.08).astype(np.uint8)
        decoded = viterbi_decode(corrupted)
        got_dist = np.sum(conv_encode(decoded) ^ corrupted)
        best_dist = np.min(np.sum(words ^ corrupted, axis=1))
        assert got_dist == best_dist


def test_odd_length_rejected():
    with pytest.raises(FramingError):
        viterbi_decode(np.zeros(13, dtype=np.uint8))


def test_non_binary_rejected():
    word = conv_encode(np.zeros(10, dtype=np.uint8))
    word[3] = 2
    with pytest.raises(FramingError, match="0 or 1"):
        viterbi_decode(word)


@pytest.mark.parametrize("flip_rate", [0.05, 0.2, 0.5])
def test_matches_per_step_reference_every_length(flip_rate):
    rng = np.random.default_rng(4)
    for length in range(1, 41):
        for _ in range(5):
            word = conv_encode(rng.integers(0, 2, length).astype(np.uint8))
            noisy = word ^ (rng.random(len(word)) < flip_rate).astype(np.uint8)
            assert np.array_equal(viterbi_decode(noisy), _reference_viterbi(noisy)), (
                f"length {length}")


def test_matches_per_step_reference_long_block():
    rng = np.random.default_rng(5)
    word = conv_encode(rng.integers(0, 2, 44000).astype(np.uint8))
    noisy = word ^ (rng.random(len(word)) < 0.5).astype(np.uint8)
    assert np.array_equal(viterbi_decode(noisy), _reference_viterbi(noisy))


@pytest.mark.parametrize("message", [[2, 3, 0], [0, 1, -1], [0.5, 1.0]])
def test_encoder_rejects_non_binary(message):
    with pytest.raises(FramingError, match="message bits must be 0 or 1"):
        conv_encode(message)


def _noisy_stack(rng, n_blocks, length, flip_rate):
    words = np.stack([conv_encode(rng.integers(0, 2, length).astype(np.uint8))
                      for _ in range(n_blocks)])
    return words ^ (rng.random(words.shape) < flip_rate).astype(np.uint8)


@pytest.mark.parametrize("flip_rate", [0.05, 0.5])
@pytest.mark.parametrize("n_blocks", [1, 2, 4, 5])
def test_stacked_blocks_match_single_and_reference(n_blocks, flip_rate):
    rng = np.random.default_rng(7)
    # n_steps = length + 6 takes every value mod 4, so every head pass runs
    for length in (30, 31, 32, 33, 203):
        stack = _noisy_stack(rng, n_blocks, length, flip_rate)
        decoded = viterbi_decode(stack)
        assert decoded.shape == (n_blocks, length)
        for row, word in zip(decoded, stack):
            assert np.array_equal(row, viterbi_decode(word))
            assert np.array_equal(row, _reference_viterbi(word))


def test_one_block_decodes_to_one_dimension():
    msg = np.random.default_rng(8).integers(0, 2, 50).astype(np.uint8)
    assert viterbi_decode(conv_encode(msg)).shape == (50,)
    assert viterbi_decode(conv_encode(msg)[None]).shape == (1, 50)
    assert viterbi_decode(list(conv_encode(msg))).shape == (50,)


@pytest.mark.parametrize("coded, message", [
    (np.zeros((3, 13), dtype=np.uint8), "odd"),
    (np.zeros((3, 10), dtype=np.uint8), "shorter than the tail"),
    (np.full((3, 32), 2, dtype=np.uint8), "0 or 1"),
    (np.zeros((2, 2, 32), dtype=np.uint8), "3 dimensions"),
], ids=["odd", "short", "non-binary", "3-d"])
def test_bad_stack_rejected(coded, message):
    with pytest.raises(FramingError, match=message):
        viterbi_decode(coded)


# tracemalloc peak, in bytes, of one warm 44 000-bit decode of this test's
# first block while the survivor history held int32 rows
_INT32_HISTORY_SINGLE_PEAK = 4_622_944


def test_four_block_decode_peaks_below_one_int32_history_decode():
    stack = _noisy_stack(np.random.default_rng(9), 4, 44000, 0.06)
    viterbi_decode(stack[:, :64])  # builds the cached tables untraced
    tracemalloc.start()
    try:
        viterbi_decode(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _INT32_HISTORY_SINGLE_PEAK
