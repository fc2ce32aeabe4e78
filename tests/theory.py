"""Test oracles: closed-form theory and reference statistics.

Nothing in the simulator calls these; the tests compare simulated results
against them.  They live here so the package itself needs only numpy.
"""

import math

import numpy as np
from scipy.special import erfc

from ofdmlink.errors import ConfigurationError


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
