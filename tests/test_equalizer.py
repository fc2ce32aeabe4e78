import tracemalloc

import numpy as np
import pytest
from numpy.fft import fft

from ofdmlink.channel import DEFAULT_TAPS, static_multipath
from ofdmlink.equalizer import PilotLmsEstimator, equalize_pre_fft
from ofdmlink.errors import ConfigurationError, DivergenceError
from ofdmlink.modem import constellation, map_bits
from ofdmlink.ofdm import assemble, default_grid
from ofdmlink.simcli import _MU_CANDIDATES
from theory import (LmsState, data_bin_interp, instantaneous_covariance,
                    lms_step, pilot_lms, windowed_mse)

GRID = default_grid()


def lms_transcription(w, x, d, mu):
    """Independent restatement of the update equations."""
    y = np.sum(np.conj(w) * x)
    e = d - y
    w_next = w + mu * x * np.conj(e)
    return y, e, w_next


def test_scalar_hand_example():
    state = LmsState.zeros(1, 0.5)
    y, e = lms_step(state, [1.0], 1.0)
    assert y == 0 and e == 1.0
    assert state.weights[0] == pytest.approx(0.5)
    y, e = lms_step(state, [1.0], 1.0)
    assert y == pytest.approx(0.5)
    assert e == pytest.approx(0.5)
    assert state.weights[0] == pytest.approx(0.75)


def test_scalar_channel_fixed_point():
    h = 2.0 + 0j
    state = LmsState.zeros(1, 0.1)
    rng = np.random.default_rng(0)
    for _ in range(500):
        d = np.exp(2j * np.pi * rng.random())
        lms_step(state, [h * d], d)
    assert abs(np.conj(state.weights[0]) * h - 1.0) < 1e-3


def test_micro_correctness_10k_random():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        n = rng.integers(1, 6)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        d = complex(rng.normal(), rng.normal())
        mu = rng.uniform(0.001, 0.5)
        state = LmsState(w.copy(), mu)
        y, e = lms_step(state, x, d)
        y_ref, e_ref, w_ref = lms_transcription(w, x, d, mu)
        assert abs(y - y_ref) < 1e-12
        assert abs(e - e_ref) < 1e-12
        assert np.max(np.abs(state.weights - w_ref)) < 1e-12


def test_zero_error_leaves_weights_unchanged():
    rng = np.random.default_rng(2)
    w = rng.normal(size=4) + 1j * rng.normal(size=4)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    d = np.sum(np.conj(w) * x)  # d = w^H x, so e = 0
    state = LmsState(w.copy(), 0.3)
    _, e = lms_step(state, x, d)
    assert abs(e) < 1e-15
    assert np.array_equal(state.weights, w)


def test_covariance_hand_example():
    R, r = instantaneous_covariance([1.0, 0.0], 1.0)
    assert np.array_equal(R, [[1, 0], [0, 0]])
    assert np.array_equal(r, [1, 0])


def test_covariance_hermitian_rank_one():
    rng = np.random.default_rng(3)
    x = rng.normal(size=5) + 1j * rng.normal(size=5)
    R, _ = instantaneous_covariance(x, 0.7 - 0.2j)
    assert np.allclose(R, R.conj().T)
    assert np.linalg.matrix_rank(R) <= 1


def test_update_equals_steepest_descent_step():
    rng = np.random.default_rng(4)
    for _ in range(100):
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        d = complex(rng.normal(), rng.normal())
        mu = 0.05
        R, r = instantaneous_covariance(x, d)
        expected = w + mu * (r - R @ w)
        state = LmsState(w.copy(), mu)
        lms_step(state, x, d)
        assert np.max(np.abs(state.weights - expected)) < 1e-12


def test_scalar_stability_boundary():
    # constant-power regressor: converges below 2/P, diverges above
    power = 4.0
    x_mag = np.sqrt(power)
    bound = 2.0 / power

    def run(mu, steps=2000):
        state = LmsState.zeros(1, mu)
        rng = np.random.default_rng(5)
        for _ in range(steps):
            phase = np.exp(2j * np.pi * rng.random())
            lms_step(state, [x_mag * phase], 0.5 * x_mag * phase)
        return state.weights[0]

    w = run(0.5 * bound)
    assert abs(np.conj(w) - 0.5) < 1e-6
    with pytest.raises(DivergenceError):
        run(4.0 * bound)


def test_windowed_mse_non_increasing_on_identification():
    # noiseless plant identification: error decays to zero monotonically
    rng = np.random.default_rng(6)
    plant = rng.normal(size=4) + 1j * rng.normal(size=4)
    state = LmsState.zeros(4, 0.05)
    sq = []
    for _ in range(2000):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        d = np.sum(np.conj(plant) * x)
        _, e = lms_step(state, x, d)
        sq.append(abs(e) ** 2)
    win = windowed_mse(np.array(sq), 100)
    assert np.all(np.diff(win[1:]) <= 1e-12)


def test_pre_fft_identity_channel():
    rng = np.random.default_rng(7)
    tx = (rng.normal(size=2000) + 1j * rng.normal(size=2000)) / np.sqrt(2)
    out, trace = equalize_pre_fft(tx, tx, 1, 0.1)
    assert abs(trace.final_weights[0] - 1.0) < 1e-3
    assert np.mean(np.abs(out[500:] - tx[500:]) ** 2) < 1e-3


def test_pre_fft_scalar_gain_channel():
    rng = np.random.default_rng(8)
    tx = (rng.normal(size=3000) + 1j * rng.normal(size=3000)) / np.sqrt(2)
    out, trace = equalize_pre_fft(0.5 * tx, tx, 1, 0.2)
    assert abs(trace.final_weights[0] - 2.0) < 1e-2
    assert np.mean(np.abs(out[1000:] - tx[1000:]) ** 2) < 1e-2


def _training_signal(n_frames, seed):
    spec = constellation("qpsk")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_frames * 200 * 2).astype(np.uint8)
    syms = map_bits(bits, spec).reshape(n_frames, 200)
    return assemble(syms[:, :175], syms[:, 175:], GRID).ravel()


def test_pre_fft_table_channel_convergence():
    # 2 training frames; the best of the lms-trace step sizes
    tx = _training_signal(2, seed=3)
    taps = DEFAULT_TAPS / np.linalg.norm(DEFAULT_TAPS)
    rx = static_multipath(tx, taps)

    def final_mse(mu):
        _, trace = equalize_pre_fft(rx, tx, 11, mu)
        return float(trace.squared_errors[-100:].mean())

    final = min(final_mse(mu) for mu in _MU_CANDIDATES)
    assert final < 0.01
    initial = np.mean(np.abs(tx[:100]) ** 2)  # MSE with the initial zero weights
    assert final < 0.01 * initial


def test_pilot_estimator_flat_channel():
    pilot_tx = np.ones(25, complex)
    h = PilotLmsEstimator(GRID, 0.5).update(np.full((20, 25), 2.0 + 0j),
                                            pilot_tx)
    assert h.shape == (20, 175)
    assert np.max(np.abs(h[-1] - 2.0)) < 1e-3


def test_pilot_estimator_one_step_mu_one():
    rng = np.random.default_rng(9)
    pilot_rx = rng.normal(size=(1, 25)) + 1j * rng.normal(size=(1, 25))
    pilot_tx = np.exp(2j * np.pi * rng.random(25))
    assert np.max(np.abs(pilot_lms(pilot_rx, pilot_tx, 1.0)
                         - pilot_rx / pilot_tx)) < 1e-12
    h = PilotLmsEstimator(GRID, 1.0).update(pilot_rx, pilot_tx)
    assert np.max(np.abs(h - data_bin_interp(pilot_rx / pilot_tx, GRID))) < 1e-12


def test_pilot_estimator_static_table_channel():
    taps = DEFAULT_TAPS / np.linalg.norm(DEFAULT_TAPS)
    padded = np.zeros(256, complex)
    padded[:4] = taps
    h_true = fft(padded)
    pilot_tx = np.ones(25, complex)
    pilot_rx = np.tile(h_true[GRID.pilot_bins] * pilot_tx, (40, 1))
    # fixed point exact at the pilot bins
    pilot_est = pilot_lms(pilot_rx, pilot_tx, 0.5)[-1]
    assert np.max(np.abs(pilot_est - h_true[GRID.pilot_bins])) < 1e-3
    # interpolation bias small on pilot-covered data bins; the few edge bins
    # extended by the nearest pilot value carry a larger, bounded error
    h_data = PilotLmsEstimator(GRID, 0.5).update(pilot_rx, pilot_tx)[-1]
    rel = np.abs(h_data - h_true[GRID.data_bins]) / np.abs(h_true[GRID.data_bins])
    shifted = np.where(GRID.data_bins > 128, GRID.data_bins - 256, GRID.data_bins)
    pilot_shifted = np.where(GRID.pilot_bins > 128, GRID.pilot_bins - 256,
                             GRID.pilot_bins)
    covered = (shifted >= pilot_shifted.min()) & (shifted <= pilot_shifted.max())
    assert np.max(rel[covered]) < 0.05
    assert np.max(rel) < 0.25


def _tracker_pilots(n_frames, seed, unit_tx=True, zeros=False):
    rng = np.random.default_rng(seed)
    rx = rng.normal(size=(n_frames, 25)) + 1j * rng.normal(size=(n_frames, 25))
    tx = (np.ones((n_frames, 25), complex) if unit_tx
          else np.exp(2j * np.pi * rng.random((n_frames, 25))))
    if zeros:
        # exact zeros: whole values, then real-only and imaginary-only ones,
        # and the lowest-frequency pilot (bin 160) silent in every other frame
        rx[rng.random(rx.shape) < 0.2] = 0
        rx.real[rng.random(rx.shape) < 0.2] = 0.0
        rx.imag[rng.random(rx.shape) < 0.2] = 0.0
        rx[::2, list(GRID.pilot_bins).index(160)] = 0
        tx[rng.random(tx.shape) < 0.1] = 0
    return rx, tx


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("unit_tx", [True, False])
@pytest.mark.parametrize("n_frames", [1, 37, 254])
def test_update_is_np_interp_of_the_per_frame_oracle(n_frames, unit_tx, zeros):
    pilot_rx, pilot_tx = _tracker_pilots(n_frames, n_frames, unit_tx, zeros)
    h = PilotLmsEstimator(GRID, 0.7).update(pilot_rx, pilot_tx)
    expected = data_bin_interp(pilot_lms(pilot_rx, pilot_tx, 0.7), GRID)
    assert h.shape == (n_frames, len(GRID.data_bins))
    assert np.array_equal(np.ascontiguousarray(h).view(np.uint64),
                          expected.view(np.uint64))


def test_update_starts_from_zero_weights_on_every_call():
    pilot_rx, pilot_tx = _tracker_pilots(12, 4)
    est = PilotLmsEstimator(GRID, 0.5)
    first = est.update(pilot_rx, pilot_tx)
    assert np.array_equal(est.update(pilot_rx, pilot_tx), first)
    assert not hasattr(est, "weights") and not hasattr(est, "update_count")


@pytest.mark.parametrize("unit_tx", [True, False])
def test_divergence_names_the_oracles_frame_and_bin(unit_tx):
    pilot_rx, pilot_tx = _tracker_pilots(200, 5, unit_tx)
    pilot_rx[:, 7] *= 50.0  # bin 7 crosses the limit first
    with pytest.raises(DivergenceError) as oracle:
        pilot_lms(pilot_rx, pilot_tx, 2.5)
    with pytest.raises(DivergenceError) as kernel:
        PilotLmsEstimator(GRID, 2.5).update(pilot_rx, pilot_tx)
    assert 1 < kernel.value.step == oracle.value.step < 200
    assert str(kernel.value) == str(oracle.value)
    assert f"pilot bin {GRID.pilot_bins[7]}" in str(kernel.value)


def test_nan_pilot_counts_as_divergence():
    pilot_rx, pilot_tx = _tracker_pilots(12, 4)
    pilot_rx[5, 3] = np.nan
    with pytest.raises(DivergenceError) as exc:
        PilotLmsEstimator(GRID, 0.5).update(pilot_rx, pilot_tx)
    assert exc.value.step == 6
    assert f"pilot bin {GRID.pilot_bins[3]}" in str(exc.value)


@pytest.mark.parametrize("shape", [(25,), (24,), (3, 26), (2, 3, 25)])
def test_update_rejects_wrong_pilot_shapes(shape):
    with pytest.raises(ConfigurationError, match="expected \\(n_frames, 25\\)"):
        PilotLmsEstimator(GRID, 0.5).update(np.ones(shape, complex), 1.0)


def test_divergence_reports_step_index():
    state = LmsState.zeros(1, 10.0)
    with pytest.raises(DivergenceError) as exc:
        for i in range(1000):
            lms_step(state, [2.0], 1.0)
    assert exc.value.step > 0


def _reference_pre_fft(rx, training, n_taps, step_size):
    """Per-sample loop over the whole of rx: LMS updates over the training
    span, frozen weights after."""
    delay = n_taps // 2
    state = LmsState.zeros(n_taps, step_size)
    padded = np.concatenate([np.zeros(n_taps - 1, complex), rx,
                             np.zeros(delay, complex)])
    out = np.zeros(len(rx), dtype=complex)
    sq_errors = []
    for m in range(len(rx)):
        x = padded[m + delay : m + delay + n_taps][::-1]
        if m < len(training):
            y, e = lms_step(state, x, training[m])
            sq_errors.append(abs(e) ** 2)
        else:
            y = np.vdot(state.weights, x)
        out[m] = y
    return out, np.array(sq_errors), state.weights


def _noisy_table_channel(n, seed):
    rng = np.random.default_rng(seed)
    tx = (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)
    rx = static_multipath(tx, DEFAULT_TAPS / np.linalg.norm(DEFAULT_TAPS))
    return tx, rx + 0.01 * (rng.normal(size=n) + 1j * rng.normal(size=n))


@pytest.mark.parametrize("n_rx, n_train, n_taps", [
    (3000, 640, 11),  # long frozen span
    (700, 640, 12),   # even filter length
    (645, 640, 11),   # rx shorter than training + delay
    (600, 640, 11),   # rx shorter than training: no frozen span
    (400, 400, 1),
])
def test_pre_fft_frozen_span_matches_per_sample_loop(n_rx, n_train, n_taps):
    tx, rx = _noisy_table_channel(max(n_rx, n_train), seed=n_rx)
    out, trace = equalize_pre_fft(rx[:n_rx], tx[:n_train], n_taps, 3e-3)
    ref_out, ref_sq, ref_w = _reference_pre_fft(rx[:n_rx], tx[:n_train],
                                                n_taps, 3e-3)
    n_adapt = min(n_rx, n_train)
    assert np.array_equal(out[:n_adapt], ref_out[:n_adapt])
    assert np.array_equal(trace.squared_errors, ref_sq)
    assert np.array_equal(trace.final_weights, ref_w)
    assert np.max(np.abs(out - ref_out)) < 1e-12


def _outcome(equalizer, rx, training, n_taps, step_size):
    """(out, squared errors, final weights), or the DivergenceError text."""
    try:
        out, sq, w = equalizer(rx, training, n_taps, step_size)
    except DivergenceError as exc:
        return str(exc)
    return out[: min(len(rx), len(training))], sq, w


def _kernel(rx, training, n_taps, step_size):
    out, trace = equalize_pre_fft(rx, training, n_taps, step_size)
    return out, trace.squared_errors, trace.final_weights


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_train", [320, 640, 1280, 1000])
@pytest.mark.parametrize("mu", _MU_CANDIDATES)
@pytest.mark.parametrize("n_taps", [1, 2, 11, 12, 320])
def test_pre_fft_kernel_is_bit_equal_to_lms_step(n_taps, mu, n_train):
    # spans of 1, 2 and 4 OFDM symbols and one that is not a whole number
    # of symbols; the large step sizes diverge with 320 taps
    tx, rx = _noisy_table_channel(n_train + 200, seed=n_taps)
    got = _outcome(_kernel, rx, tx[:n_train], n_taps, mu)
    expected = _outcome(_reference_pre_fft, rx, tx[:n_train], n_taps, mu)
    if isinstance(expected, str):
        assert got == expected
    else:
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_train, bad_update", [
    (640, 100),  # first chunk, weights overflow to inf and nan after it
    (640, 400),  # second chunk
    (640, 640),  # the very last update
    (1000, 1000),  # the last update of a partial chunk
])
def test_pre_fft_divergence_names_the_oracles_update(n_train, bad_update):
    tx, rx = _noisy_table_channel(n_train, seed=bad_update)
    training = tx.copy()
    training[bad_update - 1] = 1e300  # e = 1e300 blows the weights up
    with pytest.raises(DivergenceError) as oracle:
        _reference_pre_fft(rx, training, 11, 1e-2)
    with pytest.raises(DivergenceError) as kernel:
        equalize_pre_fft(rx, training, 11, 1e-2)
    assert oracle.value.step == bad_update
    assert str(kernel.value) == str(oracle.value)


def test_pre_fft_memory_stays_per_symbol():
    # 100 training symbols at 320 taps; a weight history over the whole span
    # would be 32 000 x 320 complex values, 164 MB
    tx, rx = _noisy_table_channel(100 * 320 + 3200, seed=5)
    tracemalloc.start()
    try:
        _, trace = equalize_pre_fft(rx, tx[: 100 * 320], 320, 1e-4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.squared_errors) == 100 * 320
    assert peak < 10e6


_BAD_STEPS = [0.0, -1e-3, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("step_size", _BAD_STEPS)
def test_pre_fft_rejects_non_positive_step(step_size):
    tx = np.ones(10, complex)
    with pytest.raises(ConfigurationError, match="step size must be > 0"):
        equalize_pre_fft(tx, tx, 3, step_size)


@pytest.mark.parametrize("step_size", _BAD_STEPS)
def test_pilot_tracker_rejects_non_positive_step(step_size):
    with pytest.raises(ConfigurationError, match="step size must be > 0"):
        PilotLmsEstimator(GRID, step_size)


@pytest.mark.parametrize("n_taps", [1, 11])
def test_pre_fft_rejects_empty_rx(n_taps):
    with pytest.raises(ConfigurationError, match="rx is empty"):
        equalize_pre_fft(np.empty(0), np.ones(20, complex), n_taps, 1e-2)


@pytest.mark.parametrize("n_taps", [0, -1])
def test_pre_fft_rejects_empty_filter(n_taps):
    tx = np.ones(10, complex)
    with pytest.raises(ConfigurationError, match="n_taps"):
        equalize_pre_fft(tx, tx, n_taps, 1e-2)
