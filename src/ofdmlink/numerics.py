"""Seeded random streams.

Random numbers come from a counter-based Philox generator keyed by
(master_seed, stream_id), so independent streams are cheap to derive and
bit-exact reproducible.  Gaussian variates use Box-Muller on the uniform
stream, which keeps the uniform consumption rate fixed.
"""

import math
import numbers

import numpy as np

from .errors import ConfigurationError

__all__ = ["RngStream"]


def _uint64(name, value):
    """value as an int; ConfigurationError unless an integer in 0..2**64 - 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not 0 <= int(value) <= 2**64 - 1):
        raise ConfigurationError(
            f"{name} must be an integer in 0..{2**64 - 1}, got {value!r}")
    return int(value)


class RngStream:
    """One reproducible random stream of a seeded family.

    Identical (master_seed, stream_id) pairs give bit-identical sequences;
    distinct stream ids give statistically independent streams.  A stream is
    single-owner mutable state: never share one between workers.
    """

    def __init__(self, master_seed, stream_id=0):
        # the seed is the low 64 bits of the Philox key and the stream id the
        # high 64: a wider seed would alias, a wider id overflows the key
        self.master_seed = _uint64("master_seed", master_seed)
        self.stream_id = _uint64("stream_id", stream_id)
        key = self.master_seed | (self.stream_id << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size=None):
        """Uniform variates in [0, 1)."""
        return self._gen.random(size)

    def bits(self, n):
        """n equiprobable 0/1 bits."""
        return self._gen.integers(0, 2, size=n, dtype=np.uint8)

    def normal(self, n, out=None):
        """n independent standard normals (vectorized Box-Muller): r cos(theta)
        for the first (n + 1) // 2, then r sin(theta).

        With out, a float64 array of shape (2, (n + 1) // 2), the cosines go
        to out[0] and the sines to out[1], and out is returned.
        """
        half = (n + 1) // 2
        r, theta = self._gen.random((2, half))
        np.negative(r, out=r)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        pair = np.empty((2, half)) if out is None else out
        np.cos(theta, out=pair[0])
        np.sin(theta, out=pair[1])
        pair *= r
        return pair if out is not None else pair.reshape(-1)[:n]

    def complex_normal(self, n):
        """n circular complex Gaussians with unit total variance: the first
        n normals of normal(2 n) on the real lanes, the other n on the
        imaginary lanes, scaled by 1/sqrt(2) in place: the bits of
        (z[:n] + 1j * z[n:]) / sqrt(2), up to the sign of an exact zero."""
        z = np.empty(n, dtype=np.complex128)
        lanes = z.view(np.float64)
        self.normal(2 * n, out=lanes.reshape(n, 2).T)
        lanes *= 1 / math.sqrt(2.0)  # numpy's complex / real: times 1 / real
        return z
