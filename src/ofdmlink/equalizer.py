"""LMS adaptive filtering: the two receivers built on one update rule.

Both use the standard complex LMS convention

    y(n) = w^H x(n)
    e(n) = d(n) - y(n)
    w(n+1) = w(n) + mu x(n) e*(n)

which is equivalent to a steepest-descent step with the rank-one
instantaneous covariance estimates R(n) = x x^H and r(n) = d* x.

* ``equalize_pre_fft`` -- a time-domain transversal equalizer running ahead
  of the receiver FFT, trained on known transmitted samples, then frozen.
* ``PilotLmsEstimator`` -- a bank of one-tap LMS trackers on the comb-pilot
  bins, linearly interpolated across the data bins.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DivergenceError

__all__ = ["LmsTrace", "equalize_pre_fft", "PilotLmsEstimator"]

_DIVERGENCE_LIMIT = 1e6
_CHUNK = 320  # updates between two divergence scans: one OFDM symbol


@dataclass
class LmsTrace:
    """Per-step squared error plus the final weights."""

    squared_errors: np.ndarray
    final_weights: np.ndarray


def equalize_pre_fft(rx, training, n_taps, step_size):
    """Adaptive transversal equalizer ahead of the FFT.

    The regressor at step n is [rx[n], rx[n-1], ..., rx[n-n_taps+1]] and the
    desired sample is training[n - delay] with delay = n_taps // 2.  After
    the training span the weights are frozen.

    Each training update repeats the arithmetic of ``w + mu * x * conj(e)``
    with y = vdot(w, x) on the reversed regressor view itself, so every output
    equals a per-sample loop's to the bit.  The weights after each update go
    to a one-symbol history that is scanned once per chunk: weights beyond
    1e6 in magnitude raise DivergenceError naming the first such update,
    counted from 1, and the updates after it are discarded.

    Past the training span, y = w^H x is an FIR filter with the frozen taps
    conj(w): out[m] = convolve(rx, conj(w))[m + delay], in one call.

    Returns (equalized, trace); equalized[m] estimates the transmitted
    sample m, same length as rx.
    """
    rx = np.asarray(rx, dtype=np.complex128)
    training = np.asarray(training, dtype=np.complex128)
    if len(rx) == 0:
        raise ConfigurationError("rx is empty")
    if n_taps < 1:
        raise ConfigurationError(f"n_taps must be >= 1, got {n_taps}")
    if len(training) < n_taps:
        raise ConfigurationError("training shorter than the filter")
    if not (np.isfinite(step_size) and step_size > 0):
        raise ConfigurationError(
            f"step size must be > 0 and finite, got {step_size}")

    delay = n_taps // 2
    padded = np.pad(rx, (n_taps - 1, delay))
    n_adapt = min(len(rx), len(training))
    regressors = sliding_window_view(padded, n_taps)[delay : delay + n_adapt, ::-1]
    out = np.empty(len(rx), dtype=np.complex128)
    sq_errors = np.empty(n_adapt)
    history = np.zeros((min(_CHUNK, n_adapt) + 1, n_taps), dtype=np.complex128)
    update = np.empty(n_taps, dtype=np.complex128)
    vdot, multiply, add = np.vdot, np.multiply, np.add
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_adapt, _CHUNK):
            stop = min(start + _CHUNK, n_adapt)
            xs = regressors[start:stop]
            span = history[: stop - start + 1]
            for m, x, step, w, w_next, d in zip(
                    range(start, stop), xs, step_size * xs, span[:-1],
                    span[1:], training[start:stop]):
                y = vdot(w, x)
                e = d - y
                out[m] = y
                sq_errors[m] = abs(e) ** 2
                multiply(step, complex(e).conjugate(), out=update)
                add(w, update, out=w_next)
            bounded = np.all(np.abs(span[1:]) <= _DIVERGENCE_LIMIT, axis=1)
            if not bounded.all():
                raise DivergenceError(start + int(np.argmin(bounded)) + 1,
                                      step_size)
            history[0] = span[-1]
    weights = history[0].copy()
    out[n_adapt:] = np.convolve(rx, np.conj(weights))[
        n_adapt + delay : len(rx) + delay]
    return out, LmsTrace(sq_errors, weights)


class PilotLmsEstimator:
    """Comb-pilot frequency-domain channel tracker.

    One one-tap LMS per pilot bin with regressor x = transmitted pilot and
    desired d = received pilot value, so the fixed point of each tracker is
    the true bin response.  Data-bin estimates are linear interpolation
    between neighboring pilot estimates on the signed-frequency axis (bins
    above fft_size/2 are negative frequencies, so the active band is
    contiguous around DC); edge bins copy the nearest pilot.
    """

    def __init__(self, grid, step_size):
        if not (np.isfinite(step_size) and step_size > 0):
            raise ConfigurationError(
                f"step size must be > 0 and finite, got {step_size}")
        self.grid = grid
        self.step_size = step_size

        half = grid.fft_size // 2

        def signed(bins):
            return np.where(bins > half, bins - grid.fft_size, bins).astype(float)

        freq_pilot = signed(grid.pilot_bins)
        self._pilot_order = np.argsort(freq_pilot)
        self._freq_pilot = freq_pilot[self._pilot_order]
        freq_data = signed(grid.data_bins)
        # the pilot interval of each data bin, as np.interp finds it; the
        # last pilot's interval has slope 0, and bins left of the first pilot
        # sit at offset 0, so both edges copy the nearest pilot
        self._interval = np.clip(
            np.searchsorted(self._freq_pilot, freq_data, side="right") - 1,
            0, len(freq_pilot) - 1)
        self._offset = np.maximum(
            freq_data - self._freq_pilot[self._interval], 0.0)

    def update(self, pilot_rx, pilot_tx):
        """Track the pilots of (n_frames, n_pilot) symbols, one frame after
        the other, from zero weights; pilot_tx is the comb that was sent.

        Returns the data-bin estimate after each frame, (n_frames, n_data).
        A diverging tracker raises DivergenceError naming its frame, counted
        from 1, and its pilot bin.
        """
        pilot_rx = np.asarray(pilot_rx, dtype=np.complex128)
        n_pilot = len(self.grid.pilot_bins)
        if pilot_rx.ndim != 2 or pilot_rx.shape[1] != n_pilot:
            raise ConfigurationError(
                f"expected (n_frames, {n_pilot}) pilot values, "
                f"got {pilot_rx.shape}")
        pilot_tx = np.broadcast_to(
            np.asarray(pilot_tx, dtype=np.complex128), pilot_rx.shape)
        # each tracker keeps h = conj(w): h <- h + mu conj(x) (d - h x).  It
        # can differ from conj(w) of the w update only in the sign of a zero,
        # which the interpolation below drops.  Past a diverging frame h may
        # overflow; the scan after the loop names the first frame beyond it
        steps = np.conj(self.step_size * pilot_tx)
        h = np.empty(pilot_rx.shape, dtype=np.complex128)
        h_prev = np.zeros(n_pilot, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for d, x, step, h_next in zip(pilot_rx, pilot_tx, steps, h):
                np.add(h_prev, step * (d - h_prev * x), out=h_next)
                h_prev = h_next
        bad = ~(np.abs(h) <= _DIVERGENCE_LIMIT)  # a nan counts as diverged
        if bad.any():
            frame = int(np.argmax(bad.any(axis=1)))
            pilot_bin = self.grid.pilot_bins[np.argmax(bad[frame])]
            raise DivergenceError(frame + 1, self.step_size,
                                  detail=f"pilot bin {pilot_bin}")
        # np.interp onto the data bins, real and imaginary parts apart, with
        # its own arithmetic slope * (x - xp[j]) + fp[j], so the same bits
        parts = []
        for fp in (h.real, h.imag):
            fp = fp[:, self._pilot_order]
            slope = np.zeros_like(fp)
            slope[:, :-1] = np.diff(fp, axis=1) / np.diff(self._freq_pilot)
            parts.append(slope[:, self._interval] * self._offset
                         + fp[:, self._interval])
        return parts[0] + 1j * parts[1]
