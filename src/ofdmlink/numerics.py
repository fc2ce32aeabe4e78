"""Core numerics: the FFT and seeded random streams.

The FFT is numpy's, restricted to the power-of-two lengths the OFDM grid
uses.  Forward transform is unnormalized, the inverse carries the 1/N
factor.  Both accept batched input (transform along the last axis).

Random numbers come from a counter-based Philox generator keyed by
(master_seed, stream_id), so independent streams are cheap to derive and
bit-exact reproducible.  Gaussian variates use Box-Muller on the uniform
stream, which keeps the uniform consumption rate fixed.
"""

import math

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "fft",
    "ifft",
    "RngStream",
]


def _checked(x):
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    if n < 2 or (n & (n - 1)) != 0:
        raise ConfigurationError(f"FFT length must be a power of two >= 2, got {n}")
    return x


def fft(x):
    """Forward DFT, X[k] = sum_n x[n] exp(-2j pi k n / N), along the last axis."""
    return np.fft.fft(_checked(x))


def ifft(x):
    """Inverse DFT with the 1/N factor, along the last axis."""
    return np.fft.ifft(_checked(x))


class RngStream:
    """One reproducible random stream of a seeded family.

    Identical (master_seed, stream_id) pairs give bit-identical sequences;
    distinct stream ids give statistically independent streams.  A stream is
    single-owner mutable state: never share one between workers.
    """

    def __init__(self, master_seed, stream_id=0):
        if stream_id < 0:
            raise ConfigurationError(f"stream_id must be >= 0, got {stream_id}")
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        key = (self.master_seed & 0xFFFFFFFFFFFFFFFF) | (self.stream_id << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size=None):
        """Uniform variates in [0, 1)."""
        return self._gen.random(size)

    def bits(self, n):
        """n equiprobable 0/1 bits."""
        return self._gen.integers(0, 2, size=n, dtype=np.uint8)

    def normal(self, n):
        """n independent standard normals (vectorized Box-Muller)."""
        half = (n + 1) // 2
        u = self._gen.random((2, half))
        r = np.sqrt(-2.0 * np.log1p(-u[0]))
        theta = 2.0 * np.pi * u[1]
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def complex_normal(self, n):
        """n circular complex Gaussians with unit total variance."""
        z = self.normal(2 * n)
        return (z[:n] + 1j * z[n:]) / math.sqrt(2.0)
