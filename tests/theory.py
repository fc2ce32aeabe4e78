"""Test oracles: closed-form theory, reference statistics and the
per-sample LMS update.

Nothing in the simulator calls these; the tests compare simulated results
against them.  They live here so the package itself needs only numpy.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from ofdmlink.equalizer import _DIVERGENCE_LIMIT
from ofdmlink.errors import ConfigurationError, DivergenceError


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
