import tracemalloc

import numpy as np
import pytest

from ofdmlink import fec
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


@pytest.mark.parametrize("flip_rate", [0.05, 0.2, 0.5, 1.0])
def test_matches_per_step_reference_every_length(flip_rate):
    rng = np.random.default_rng(4)
    for length in range(1, 41):
        for _ in range(5):
            word = conv_encode(rng.integers(0, 2, length).astype(np.uint8))
            noisy = word ^ (rng.random(len(word)) < flip_rate).astype(np.uint8)
            assert np.array_equal(viterbi_decode(noisy), _reference_viterbi(noisy)), (
                f"length {length}")


def _noisy_word(rng, length, flip_rate):
    word = conv_encode(rng.integers(0, 2, length).astype(np.uint8))
    return word ^ (rng.random(len(word)) < flip_rate).astype(np.uint8)


# the flip rates of coded_static's points span about 0.03 to 0.27
@pytest.mark.parametrize("flip_rate", [0.03, 0.13, 0.27, 0.5])
def test_matches_per_step_reference_long_block(flip_rate):
    noisy = _noisy_word(np.random.default_rng(5), 44000, flip_rate)
    assert np.array_equal(viterbi_decode(noisy), _reference_viterbi(noisy))


_W = fec._WARMUP


# n_passes full radix-16 passes around the segment counts 2 and
# fec._SEGMENTS; head is n_steps % 4, the steps of the short first pass
@pytest.mark.parametrize("head", range(4))
@pytest.mark.parametrize("n_passes", [2 * _W - 1, 2 * _W, 2 * _W + 1,
                                      fec._SEGMENTS * _W - 1,
                                      fec._SEGMENTS * _W + 1])
def test_segment_edges_match_reference(n_passes, head):
    length = 4 * n_passes + head - DEFAULT_CODE.tail_bits
    noisy = _noisy_word(np.random.default_rng(n_passes + head), length, 0.2)
    assert np.array_equal(viterbi_decode(noisy), _reference_viterbi(noisy))


def _count_single_row_passes(monkeypatch):
    """Patch fec._acs to record the pass count of every P = 1 call."""
    calls = []
    real = fec._acs

    def counting(pm, tab, groups, hist, marks=None):
        if len(pm) == 1:
            calls.append(hist.shape[1])
        real(pm, tab, groups, hist, marks)
    monkeypatch.setattr(fec, "_acs", counting)
    return calls


def test_failed_segment_check_reruns_and_stays_exact(monkeypatch):
    # a one-pass warm-up is too short for the zero-started metrics to meet
    # the true ones, so some segments fail their check and rerun alone
    monkeypatch.setattr(fec, "_WARMUP", 1)
    reruns = _count_single_row_passes(monkeypatch)
    noisy = _noisy_word(np.random.default_rng(6), 4000 - 6, 0.2)  # no head
    assert np.array_equal(viterbi_decode(noisy), _reference_viterbi(noisy))
    # 1000 passes: fec._SEGMENTS segments after the warm-up, the last cut
    length = -(-(1000 - 1) // fec._SEGMENTS)
    assert len(reruns) >= 1
    assert set(reruns) <= {length,
                           1000 - 1 - (fec._SEGMENTS - 1) * length}


def test_failed_segment_rerun_stops_where_the_metrics_meet(monkeypatch):
    # a one-pass warm-up fails most checks on a noisy 44 000-bit block; each
    # rerun runs ring by ring from its segment's start and stops at the
    # first ring end where its metrics meet the stacked row's
    monkeypatch.setattr(fec, "_WARMUP", 1)
    real = fec._acs
    spans = []  # (first pass, end pass) of every single-row call

    def recording(pm, tab, groups, hist, marks=None):
        if len(pm) == 1:
            start = groups.ctypes.data - groups.base.ctypes.data
            spans.append((start, start + len(groups)))
        real(pm, tab, groups, hist, marks)
    monkeypatch.setattr(fec, "_acs", recording)
    noisy = _noisy_word(np.random.default_rng(12), 44000, 0.2)
    assert np.array_equal(viterbi_decode(noisy), _reference_viterbi(noisy))
    n_passes = (44000 + DEFAULT_CODE.tail_bits) // 4  # no head
    length = -(-(n_passes - 1) // fec._SEGMENTS)
    reruns = {}
    for start, end in spans:
        k, offset = divmod(start - 1, length)
        assert end - start <= fec._RING
        # each call continues its segment's rerun from where it stopped
        assert offset == reruns.get(k, 0)
        reruns[k] = offset + end - start
    assert len(reruns) >= 2
    assert any(run < min(length, n_passes - 1 - k * length)
               for k, run in reruns.items())


# head is n_steps % 4: the head steps are a table lookup, not a pass
@pytest.mark.parametrize("head", range(4))
def test_clean_block_runs_no_single_row_pass(monkeypatch, head):
    calls = _count_single_row_passes(monkeypatch)
    length = 4000 + head - DEFAULT_CODE.tail_bits
    msg = np.random.default_rng(10).integers(0, 2, length).astype(np.uint8)
    assert np.array_equal(viterbi_decode(conv_encode(msg)), msg)
    assert calls == []


# every state is reachable from the best one in 6 steps at a cost of at most
# 12, so the renormalised metrics of a row span at most 16 * 12
_METRIC_SPAN = 16 * 12


@pytest.mark.parametrize("make", [
    lambda word: word ^ 1,
    lambda word: np.ones_like(word),
    # every second run of 600 coded bits, longer than one ring chunk, flipped
    lambda word: word ^ (np.arange(len(word)) // 600 % 2).astype(np.uint8),
], ids=["all-flipped", "all-ones", "alternating-runs"])
def test_metrics_stay_renormalised_on_adversarial_blocks(monkeypatch, make):
    real = fec._acs
    seen = []

    def checking(pm, tab, groups, hist, marks=None):
        real(pm, tab, groups, hist, marks)
        assert pm.dtype == np.int16
        assert (pm.min(axis=1) == 0).all()
        assert pm.max() <= _METRIC_SPAN
        seen.append(len(pm))
    monkeypatch.setattr(fec, "_acs", checking)
    msg = np.random.default_rng(11).integers(0, 2, 20000).astype(np.uint8)
    noisy = make(conv_encode(msg))
    assert np.array_equal(viterbi_decode(noisy), _reference_viterbi(noisy))
    assert fec._SEGMENTS in seen  # the stacked passes ran under the check


@pytest.mark.parametrize("message", [[2, 3, 0], [0, 1, -1], [0.5, 1.0]])
def test_encoder_rejects_non_binary(message):
    with pytest.raises(FramingError, match="message bits must be 0 or 1"):
        conv_encode(message)


def test_one_block_decodes_to_one_dimension():
    msg = np.random.default_rng(8).integers(0, 2, 50).astype(np.uint8)
    assert viterbi_decode(conv_encode(msg)).shape == (50,)
    assert viterbi_decode(list(conv_encode(msg))).shape == (50,)


@pytest.mark.parametrize("coded, message", [
    (np.zeros((1, 32), dtype=np.uint8), "2 dimensions"),
    (np.zeros((3, 32), dtype=np.uint8), "2 dimensions"),
    (np.zeros((2, 2, 32), dtype=np.uint8), "3 dimensions"),
    (np.uint8(0), "0 dimensions"),
], ids=["one-row", "stack", "3-d", "scalar"])
def test_only_one_block_accepted(coded, message):
    with pytest.raises(FramingError, match=f"one block, got {message}"):
        viterbi_decode(coded)


@pytest.mark.parametrize("message, dims", [
    (np.uint8(1), "0 dimensions"),
    (np.zeros((2, 5), dtype=np.uint8), "2 dimensions"),
    (np.zeros((1, 4), dtype=np.uint8), "2 dimensions"),
], ids=["scalar", "stack", "one-row"])
def test_encoder_takes_only_one_block(message, dims):
    with pytest.raises(FramingError,
                       match=f"message bits must be one block, got {dims}"):
        conv_encode(message)


def test_short_block_rejected():
    with pytest.raises(FramingError, match="shorter than the tail"):
        viterbi_decode(np.zeros(10, dtype=np.uint8))


# tracemalloc peak, in bytes, of one warm 44 000-bit decode of this test's
# block when coded sweeps decoded four blocks per call
_SEQUENTIAL_SINGLE_PEAK = 1_028_017


def test_one_block_decode_peak_stays_near_the_sequential_one():
    noisy = _noisy_word(np.random.default_rng(9), 44000, 0.06)
    viterbi_decode(noisy[:64])  # builds the cached tables untraced
    tracemalloc.start()
    try:
        viterbi_decode(noisy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * _SEQUENTIAL_SINGLE_PEAK
