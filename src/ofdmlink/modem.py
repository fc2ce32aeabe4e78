"""Gray-coded PSK/QAM constellations with hard-decision demapping.

Supported schemes: QPSK, 16/64/256-PSK, 16/64/256-QAM.  All constellations
are normalized to unit average symbol energy.  PSK rings use a
binary-reflected Gray code; QPSK is rotated to put its points on the
diagonals so that bits 00 map to (1+j)/sqrt(2).  Square QAM uses independent
per-axis Gray codes over amplitude levels {..., -3, -1, 1, 3, ...}.

Bit order is most-significant bit first within each symbol group; for QAM
the first half of the group selects the I level, the second half the Q level.
Each table is stored in label order: ``points[label]`` is the point that
carries the bits of ``label``, so the mapper, the slicers and the exhaustive
search all work in the one index space of bit labels.

Hard decisions never build the symbols x points distance matrix: square QAM
slices each axis to its level cell, every PSK order (QPSK included) rounds
the angle to the nearest of M sectors, and only the few symbols too close to
a cell edge for the float distances to be trusted take the exhaustive search
(see ``demap_hard``).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FramingError

__all__ = ["ConstellationSpec", "constellation", "map_bits", "demap_hard"]

_SCHEMES = ("qpsk", "16psk", "64psk", "256psk", "16qam", "64qam", "256qam")


def _gray(k):
    return k ^ (k >> 1)


@dataclass(frozen=True)
class ConstellationSpec:
    """Immutable constellation table.

    ``points[label]`` is the point carrying the bit pattern ``label`` (an
    integer, MSB-first).  The array is read-only, because ``constellation``
    hands one spec to every caller.
    """

    name: str
    family: str  # "psk" or "qam"
    order: int
    bits_per_symbol: int
    points: np.ndarray

    def __post_init__(self):
        mean_energy = np.mean(np.abs(self.points) ** 2)
        if abs(mean_energy - 1.0) > 1e-12:
            raise ConfigurationError(
                f"{self.name}: mean symbol energy {mean_energy} != 1"
            )
        points = np.array(self.points)
        points.setflags(write=False)
        object.__setattr__(self, "points", points)


def _make_psk(order, offset):
    k = np.arange(order)
    points = np.empty(order, dtype=np.complex128)
    points[_gray(k)] = np.exp(1j * (2 * np.pi * k / order + offset))
    return points


def _make_qam(order):
    side = math.isqrt(order)
    levels = 2 * np.arange(side) - (side - 1)  # ..., -3, -1, 1, 3, ...
    scale = 1.0 / np.sqrt(2 * (order - 1) / 3)
    i, q = np.divmod(np.arange(order), side)
    points = np.empty(order, dtype=np.complex128)
    points[_grid_label(i, q, order)] = (levels[i] + 1j * levels[q]) * scale
    return points


def _grid_label(i, q, order):
    """The label of level cell (i, q), each counted from the most negative."""
    return (_gray(i) << (order.bit_length() - 1) // 2) | _gray(q)


def constellation(name):
    """The ConstellationSpec for a scheme name like 'qpsk' or '64qam'.

    Built once per scheme: every spelling of a name returns the same object.
    """
    if not isinstance(name, str):
        raise ConfigurationError(f"modulation must be a name, got {name!r}")
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key not in _SCHEMES:
        raise ConfigurationError(
            f"unknown modulation {name!r}; expected one of {_SCHEMES}"
        )
    return _build(key)


@functools.lru_cache(maxsize=None)
def _build(key):
    if key == "qpsk":  # on the diagonals
        family, order, offset = "psk", 4, np.pi / 4
    else:
        family, order, offset = key[-3:], int(key[:-3]), 0.0
    points = _make_psk(order, offset) if family == "psk" else _make_qam(order)
    return ConstellationSpec(
        name=key,
        family=family,
        order=order,
        bits_per_symbol=order.bit_length() - 1,
        points=points,
    )


def map_bits(bits, spec):
    """Map a bit stream to constellation points, MSB-first per symbol."""
    bits = np.asarray(bits)
    if not ((bits == 0) | (bits == 1)).all():
        raise FramingError("bits must be 0 or 1")
    k = spec.bits_per_symbol
    if len(bits) % k != 0:
        raise FramingError(
            f"bit count {len(bits)} not divisible by {k} ({spec.name})"
        )
    # labels have at most 8 bits: shift each column into one uint8 per symbol
    groups = bits.astype(np.uint8, copy=False).reshape(-1, k)
    labels = groups[:, 0].copy()
    for column in groups.T[1:]:
        labels <<= 1
        labels |= column
    return spec.points[labels]


# A symbol closer than this share of a cell width to a cell edge takes the
# exhaustive search; so does a grid symbol more than _GRID_WINDOW * side cells
# from the centre on either axis, and a PSK symbol whose magnitude is outside
# _PSK_RADII.  See demap_hard for why these bounds make slicing exact.
_EDGE_GUARD = 1e-9
_GRID_WINDOW = 4
_PSK_RADII = (0.05, 20.0)


def demap_hard(symbols, spec):
    """Hard-decision demap: nearest constellation point, ties to lowest label.

    The result equals ``argmin(abs(s - spec.points)**2)`` per symbol, bit for
    bit, without that n x order matrix; as the points are stored in label
    order, the argmin is the label.  Square QAM rounds each axis to its level
    cell; every PSK order, QPSK included, rounds the angle to the nearest of
    M sectors.  Both give the exactly nearest point unless the symbol is
    within _EDGE_GUARD of a cell edge: coordinates and angles are computed
    to a few ulps, far below the guard.  Outside the guard the nearest point
    leads every other in squared distance by at least 2 * guard * w**2 (w the
    level spacing), or by 4 r sin(pi/M) sin(2 pi guard/M) on a PSK ring at
    radius r.  Inside the windows that lead is over 25 times the rounding of
    two float squared distances (each below 1e-15 of the larger), so the
    argmin picks the same point.  Every other symbol, non-finite ones
    included, takes that argmin itself.
    """
    flat = np.asarray(symbols, dtype=np.complex128).ravel()
    slicer = _slice_grid if spec.family == "qam" else _slice_sectors
    label, unsure = slicer(flat, spec)
    if unsure.any():
        label[unsure] = _nearest_exhaustive(flat[unsure], spec.points)
    k = spec.bits_per_symbol  # each label, MSB first, in the top k bits
    top = label.astype(np.uint8) << (8 - k)
    return np.unpackbits(top[:, None], axis=1, count=k).ravel()


def _slice_grid(flat, spec):
    """Label of the level cell on each axis, and the symbols to re-check."""
    side = math.isqrt(spec.order)
    half_step = spec.points.real.max() / (side - 1)
    axes = []
    unsure = np.zeros(flat.size, dtype=bool)
    for x in (flat.real, flat.imag):
        cell = (x / half_step + (side - 1)) / 2  # level j sits at j
        far = ~(np.abs(cell - (side - 1) / 2) < _GRID_WINDOW * side)
        cell = np.where(far, 0.0, cell)  # drops nan and inf before rint
        nearest = np.rint(cell)
        unsure |= far | (np.abs(np.abs(cell - nearest) - 0.5) < _EDGE_GUARD)
        axes.append(np.clip(nearest, 0, side - 1).astype(np.intp))
    return _grid_label(axes[0], axes[1], spec.order), unsure


def _slice_sectors(flat, spec):
    """Label of the nearest of the M ring sectors, and symbols to re-check.

    Two float buffers carry every step in place: the radius, then the angle,
    the sector and its distance to the nearest sector edge in the first,
    the nearest sector in the second.  Labels are uint8 (M <= 256).
    """
    sector = np.abs(flat)
    unsure = ~((sector > _PSK_RADII[0]) & (sector < _PSK_RADII[1]))
    np.arctan2(flat.imag, flat.real, out=sector)  # np.angle(flat), in place
    sector -= np.angle(spec.points[0])
    sector *= spec.order / (2 * np.pi)
    np.copyto(sector, 0.0, where=unsure)
    nearest = np.rint(sector)
    sector -= nearest
    np.abs(sector, out=sector)
    sector -= 0.5
    np.abs(sector, out=sector)
    unsure |= sector < _EDGE_GUARD
    # nearest mod 256, then mod M, M a power of 2: |nearest| <= M fits int16
    label = nearest.astype(np.int16).astype(np.uint8)
    label &= spec.order - 1
    return _gray(label), unsure


def _nearest_exhaustive(symbols, points):
    """argmin over the distance matrix, in chunks; ties to the lowest label."""
    chunk = max(1, 2_000_000 // len(points))
    return np.concatenate([
        np.argmin(np.abs(symbols[i : i + chunk, None] - points) ** 2, axis=1)
        for i in range(0, len(symbols), chunk)
    ])
