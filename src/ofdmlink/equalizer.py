"""LMS adaptive filtering: the two receivers built on one update rule.

Both use the standard complex LMS convention

    y(n) = w^H x(n)
    e(n) = d(n) - y(n)
    w(n+1) = w(n) + mu x(n) e*(n)

which is equivalent to a steepest-descent step with the rank-one
instantaneous covariance estimates R(n) = x x^H and r(n) = d* x.

* ``equalize_pre_fft`` -- a time-domain transversal equalizer ahead of the
  FFT, trained as a ``train_pre_fft`` row (one per step size), then frozen.
* ``PilotLmsEstimator`` -- a bank of one-tap LMS trackers on the comb-pilot
  bins, linearly interpolated across the data bins.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import fir_in_place
from .errors import (ConfigurationError, DivergenceError, check_integer,
                     check_real)

__all__ = ["LmsTrace", "train_pre_fft", "equalize_pre_fft",
           "PilotLmsEstimator"]

_DIVERGENCE_LIMIT = 1e6
_CHUNK = 320  # updates between two divergence scans: one OFDM symbol


@dataclass
class LmsTrace:
    """Per-step squared error plus the final weights."""

    squared_errors: np.ndarray
    final_weights: np.ndarray


def train_pre_fft(rx, training, n_taps, step_sizes):
    """One pre-FFT LMS equalizer per step size, each trained from zero
    weights, bit for bit as a per-sample loop, on the same n = min(len(rx),
    len(training)) updates: regressor rx[m + delay - k] for k < n_taps (0
    outside rx), delay = n_taps // 2, desired sample training[m].

    Returns (outputs, squared_errors, weights, diverged): per row, (P, n)
    outputs and squared errors, (P, n_taps) final weights, and the first
    update, counted from 1, after which a weight is beyond 1e6 in magnitude,
    or 0.  A diverging row runs on in inf and nan, apart from the others.
    """
    rx, training = (np.asarray(a, dtype=np.complex128) for a in (rx, training))
    if len(rx) == 0:
        raise ConfigurationError("rx is empty")
    n_taps = check_integer("n_taps", n_taps, 1, math.inf)
    if len(training) < n_taps:
        raise ConfigurationError("training shorter than the filter")
    n_rows = check_integer("number of step sizes", len(step_sizes), 1, math.inf)
    for mu in step_sizes:
        check_real("step size", mu, low=0, strict=True)

    delay, n = n_taps // 2, min(len(rx), len(training))
    padded = np.pad(rx[: n + delay], (n_taps - 1, max(n + delay - len(rx), 0)))
    regressors = sliding_window_view(padded, n_taps)[delay : delay + n, ::-1]
    # h = conj(w) after each update of a chunk of at most one symbol x 320
    # taps; the steps conj(mu x) wait in the slots the updates overwrite
    chunk = min(_CHUNK, n, max(1, _CHUNK * _CHUNK // (n_rows * n_taps)))
    history = np.zeros((chunk + 1, n_rows, 1, n_taps), dtype=np.complex128)
    mus = np.array(step_sizes, dtype=float)[:, None, None]
    outputs = np.empty((n, n_rows, 1, 1), dtype=np.complex128)
    errors = np.empty((chunk, n_rows, 1, 1), dtype=np.complex128)
    update = np.empty((n_rows, 1, n_taps), dtype=np.complex128)
    sq_errors = np.empty((n_rows, n))
    bounded = np.empty((n, n_rows), dtype=bool)
    dot, subtract, multiply, add = np.dot, np.subtract, np.multiply, np.add
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            xs, span = regressors[start:stop], history[: stop - start + 1]
            np.conjugate(np.multiply(mus, xs[:, None, None], out=span[1:]),
                         out=span[1:])
            # np.dot of the (P, 1, n_taps) rows sums each as vdot does, at any
            # strides (a BLAS gemv would not); a numpy scalar d costs a
            # conversion; multiply in place rounds otherwise at one element
            for x, d, y, e, h, h_next in zip(
                    xs[:, :, None], training[start:stop].tolist(),
                    outputs[start:stop], errors, span[:-1], span[1:]):
                dot(h, x, out=y)
                subtract(d, y, out=e)
                multiply(h_next, e, out=update)
                add(h, update, out=h_next)
            # the bits of the scalar abs(e) ** 2: array abs and ** 2 differ
            sq_errors[:, start:stop] = np.float_power(np.hypot(
                errors.real, errors.imag), 2.0)[: stop - start, :, 0, 0].T
            bounded[start:stop] = np.all(
                np.abs(span[1:]) <= _DIVERGENCE_LIMIT, axis=(2, 3))
            history[0] = span[-1]
    diverged = np.where(bounded.all(axis=0), 0, np.argmin(bounded, axis=0) + 1)
    return outputs[:, :, 0, 0].T, sq_errors, np.conj(history[0, :, 0]), diverged


def equalize_pre_fft(rx, training, n_taps, step_size):
    """Adaptive transversal equalizer ahead of the FFT, in place: one
    ``train_pre_fft`` row over the training span, then past it the frozen
    weights as an FIR filter, out[m] = convolve(rx, conj(w))[m + n_taps // 2]
    (``fir_in_place``).  Returns (equalized, trace): equalized[m] estimates
    the transmitted sample m and is rx itself (an rx that is not complex128
    is copied to one first), left as it was on DivergenceError.
    """
    rx = np.asarray(rx, dtype=np.complex128)
    outputs, sq_errors, weights, diverged = train_pre_fft(
        rx, training, n_taps, (step_size,))
    if diverged[0]:
        raise DivergenceError(int(diverged[0]), step_size)
    # the frozen span reads the samples before it as received
    fir_in_place(rx, np.conj(weights[0]), n_taps // 2, outputs.shape[1])
    rx[: outputs.shape[1]] = outputs[0]
    return rx, LmsTrace(sq_errors[0], weights[0])


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
        check_real("step size", step_size, low=0, strict=True)
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
        # its own arithmetic slope * (x - xp[j]) + fp[j], so the same bits.
        # Each part is made in its lane of the output, from one gather
        # buffer: the bits of re + 1j * im, which differ from the lanes only
        # where a part is -0.0, and no part is, as h starts from +0.0 and
        # grows by sums, which are -0.0 only when both terms are
        out = np.empty((len(h), len(self._interval)), dtype=np.complex128)
        gathered = np.empty(out.shape)
        for lane, fp in ((out.real, h.real), (out.imag, h.imag)):
            fp = fp[:, self._pilot_order]
            slope = np.zeros_like(fp)
            slope[:, :-1] = np.diff(fp, axis=1) / np.diff(self._freq_pilot)
            # mode="clip" takes straight into gathered; "raise" would buffer
            np.take(slope, self._interval, axis=1, out=gathered, mode="clip")
            np.multiply(gathered, self._offset, out=lane)
            np.take(fp, self._interval, axis=1, out=gathered, mode="clip")
            lane += gathered
        return out
