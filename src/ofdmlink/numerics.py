"""Seeded random streams.

Random numbers come from a counter-based Philox generator keyed by
(master_seed, stream_id), so independent streams are cheap to derive and
bit-exact reproducible.  Gaussian variates use Box-Muller on the uniform
stream, which keeps the uniform consumption rate fixed.
"""

import math

import numpy as np

from .errors import check_integer

__all__ = ["RngStream"]

# complex noise samples made at a time: a 256-ary point is one block, and
# the block buffer stays small next to a QPSK point's sample stream
_NOISE_BLOCK = 1 << 14


class RngStream:
    """One reproducible random stream of a seeded family.

    Identical (master_seed, stream_id) pairs give bit-identical sequences;
    distinct stream ids give statistically independent streams.  A stream is
    single-owner mutable state: never share one between workers.
    """

    def __init__(self, master_seed, stream_id=0):
        # the seed is the low 64 bits of the Philox key and the stream id the
        # high 64: a wider seed would alias, a wider id overflows the key
        self.master_seed = check_integer("master_seed", master_seed, 0, 2**64 - 1)
        self.stream_id = check_integer("stream_id", stream_id, 0, 2**64 - 1)
        key = self.master_seed | (self.stream_id << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size=None):
        """Uniform variates in [0, 1)."""
        return self._gen.random(size)

    def bits(self, n):
        """n equiprobable 0/1 bits."""
        return self._gen.integers(0, 2, size=n, dtype=np.uint8)

    def normal(self, n):
        """n independent standard normals (vectorized Box-Muller): r cos(theta)
        for the first (n + 1) // 2, then r sin(theta)."""
        half = (n + 1) // 2
        r, theta = self._gen.random((2, half))
        pair = np.empty((2, half))
        _box_muller(r, theta, pair)
        return pair.reshape(-1)[:n]

    def add_complex_normal(self, z, scale):
        """Add scale times n circular complex Gaussians of unit total
        variance to z, a C-contiguous complex128 array of n samples, in
        place; returns z.

        Sample i gets (x[i] + 1j * x[n + i]) / sqrt(2) * scale, with x the
        normals of normal(2 n): the Box-Muller pair of the i-th uniform (the
        radius) and the (n + i)-th (the angle).  All n radius uniforms are
        drawn first, then the angles one block of _NOISE_BLOCK samples at a
        time; consecutive draws continue the stream as one draw would.  Each
        block of noise is made in one reused buffer, scaled there, the lanes
        by 1/sqrt(2) and the samples by scale, and added into z, so the bits
        are those of z + noise * scale with the noise of one (2, n) draw.
        """
        if z.dtype != np.complex128 or not z.flags.c_contiguous:
            raise ValueError("z must be a C-contiguous complex128 array")
        flat = z.reshape(-1)  # a view, as z is C-contiguous
        n = flat.size
        r = self.uniform(n)
        noise = np.empty(min(n, _NOISE_BLOCK), dtype=np.complex128)
        for start in range(0, n, _NOISE_BLOCK):
            stop = min(start + _NOISE_BLOCK, n)
            block = noise[: stop - start]
            lanes = block.view(np.float64)
            _box_muller(r[start:stop], self.uniform(stop - start),
                        lanes.reshape(-1, 2).T)
            lanes *= 1 / math.sqrt(2.0)  # numpy's complex / real: times 1 / real
            block *= scale
            flat[start:stop] += block
        return z


def _box_muller(r, theta, out):
    """Standard normals from the uniforms r and theta, both overwritten:
    out[0] = R cos(Theta) and out[1] = R sin(Theta), with R = sqrt(-2 log(1
    - r)) and Theta = 2 pi theta.  out is (2, len(r)) and may be a strided
    view, such as the real and imaginary lanes of a complex array."""
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    np.cos(theta, out=out[0])
    np.sin(theta, out=out[1])
    # one lane at a time: on the (2, n) lanes of a complex array, numpy
    # would run the lane axis innermost, in loops of 2 elements
    for lane in out:
        lane *= r
