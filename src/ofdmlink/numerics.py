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


class RngStream:
    """One reproducible random stream of a seeded family.

    Identical (master_seed, stream_id) pairs give bit-identical sequences;
    distinct stream ids give statistically independent streams.  A stream is
    single-owner mutable state: never share one between workers.
    """

    def __init__(self, master_seed, stream_id=0):
        if stream_id < 0:
            raise ConfigurationError(f"stream_id must be >= 0, got {stream_id}")
        # the seed is the low 64 bits of the Philox key: a wider one would alias
        if (isinstance(master_seed, bool)
                or not isinstance(master_seed, numbers.Integral)
                or not 0 <= int(master_seed) <= 2**64 - 1):
            raise ConfigurationError(
                f"master_seed must be an integer in 0..{2**64 - 1}, "
                f"got {master_seed!r}")
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        key = self.master_seed | (self.stream_id << 64)
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
