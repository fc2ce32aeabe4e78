"""Test oracles: closed-form theory, reference statistics, the per-sample
LMS update and the per-frame pilot tracker.

Nothing in the simulator calls these; the tests compare simulated results
against them.  They live here so the package itself needs only numpy.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from ofdmlink.equalizer import _DIVERGENCE_LIMIT
from ofdmlink.errors import ConfigurationError, DivergenceError
from ofdmlink.ofdm import default_grid


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5 erfc(x / sqrt(2))."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / math.sqrt(2.0))


def binomial_ci(errors, trials, sigmas):
    """Normal-approximation confidence interval for an error-rate estimate.

    Returns (low, high) = p +- sigmas * sqrt(p (1 - p) / trials), clamped
    to [0, 1].
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if not 0 <= errors <= trials:
        raise ConfigurationError(f"errors must be in [0, {trials}], got {errors}")
    p = errors / trials
    half = sigmas * math.sqrt(p * (1.0 - p) / trials)
    return max(0.0, p - half), min(1.0, p + half)


def reconstruct_sine(bits):
    """The oracle of ``simcli.generate_source``: 8-bit two's-complement PCM
    bits, MSB first, back to the quantized waveform in [-128/127, 1]."""
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) % 8 != 0:
        raise ConfigurationError("bit count must be a multiple of 8")
    pcm = np.packbits(bits.reshape(-1, 8), axis=1).ravel().astype(np.int64)
    pcm[pcm >= 128] -= 256
    return pcm / 127.0


def instantaneous_covariance(x, d):
    """Rank-one estimates R = x x^H and r = d* x used by the LMS gradient."""
    x = np.asarray(x, dtype=np.complex128)
    return np.outer(x, np.conj(x)), np.conj(d) * x


def windowed_mse(squared_errors, window):
    """Mean squared error over consecutive windows; a partial tail is dropped."""
    n = len(squared_errors) // window
    return squared_errors[: n * window].reshape(n, window).mean(axis=1)


@dataclass
class LmsState:
    weights: np.ndarray
    step_size: float
    update_count: int = 0

    @classmethod
    def zeros(cls, n_taps, step_size):
        if step_size <= 0:
            raise ConfigurationError(f"step size must be > 0, got {step_size}")
        return cls(np.zeros(n_taps, dtype=np.complex128), step_size)


def lms_step(state, x, d):
    """One LMS update.  Returns (y, e); the state is advanced in place.

    The per-sample oracle of ``equalizer.equalize_pre_fft``, which must give
    the same bits update for update.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != state.weights.shape:
        raise ConfigurationError(
            f"regressor length {x.size} != weight length {state.weights.size}"
        )
    y = np.vdot(state.weights, x)
    e = d - y
    state.weights = state.weights + state.step_size * x * np.conj(e)
    state.update_count += 1
    if not np.all(np.abs(state.weights) <= _DIVERGENCE_LIMIT):
        raise DivergenceError(state.update_count, state.step_size)
    return y, e


def pilot_lms(pilot_rx, pilot_tx, step_size):
    """Per-frame pilot tracking from zero weights: conj(w) after each frame,
    (n_frames, n_pilot), for the default grid's pilot bins.

    The oracle of ``equalizer.PilotLmsEstimator.update``, whose data-bin
    estimates must be ``data_bin_interp`` of these to the bit.  A diverging tracker
    raises DivergenceError naming its frame, counted from 1, and pilot bin.
    """
    frames_rx = np.atleast_2d(np.asarray(pilot_rx, dtype=np.complex128))
    frames_tx = np.broadcast_to(
        np.asarray(pilot_tx, dtype=np.complex128), frames_rx.shape)
    step_tx = step_size * frames_tx
    weights = np.zeros(frames_rx.shape[1], dtype=np.complex128)
    estimates = np.empty(frames_rx.shape, dtype=np.complex128)
    w_conj = np.conj(weights)
    for n in range(len(frames_rx)):
        e = frames_rx[n] - w_conj * frames_tx[n]
        weights = weights + step_tx[n] * np.conj(e)
        bad = np.abs(weights) > _DIVERGENCE_LIMIT
        if bad.any():
            raise DivergenceError(
                n + 1, step_size,
                detail=f"pilot bin {default_grid().pilot_bins[np.argmax(bad)]}",
            )
        w_conj = estimates[n] = np.conj(weights)
    return estimates


def data_bin_interp(pilot_estimates, grid):
    """Per-frame pilot estimates, (n_frames, n_pilot), to every data bin with
    np.interp on the signed-frequency axis, real and imaginary parts apart."""
    def signed(bins):
        return np.where(bins > grid.fft_size // 2, bins - grid.fft_size, bins)

    order = np.argsort(signed(grid.pilot_bins))
    xp, x = signed(grid.pilot_bins)[order], signed(grid.data_bins)
    return np.array([np.interp(x, xp, est.real) + 1j * np.interp(x, xp, est.imag)
                     for est in np.atleast_2d(pilot_estimates)[:, order]])
