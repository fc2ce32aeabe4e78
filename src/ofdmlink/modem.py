"""Gray-coded PSK/QAM constellations with hard-decision demapping.

Supported schemes: QPSK, 16/64/256-PSK, 16/64/256-QAM.  All constellations
are normalized to unit average symbol energy.  PSK rings use a
binary-reflected Gray code; QPSK is rotated to put its points on the
diagonals so that bits 00 map to (1+j)/sqrt(2).  Square QAM uses independent
per-axis Gray codes over amplitude levels {..., -3, -1, 1, 3, ...}.

Bit order is most-significant bit first within each symbol group; for QAM
the first half of the group selects the I level, the second half the Q level.

Hard decisions never build the symbols x points distance matrix: square QAM
and QPSK (a 2 x 2 grid) slice each axis to its level cell, the other PSK
orders round the angle to the nearest of M sectors, and only the few symbols
too close to a cell edge for the float distances to be trusted take the
exhaustive search (see ``demap_hard``).
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FramingError

__all__ = ["ConstellationSpec", "constellation", "map_bits", "demap_hard"]

_SCHEMES = ("qpsk", "16psk", "64psk", "256psk", "16qam", "64qam", "256qam")


def _gray(k):
    return k ^ (k >> 1)


@dataclass(frozen=True)
class ConstellationSpec:
    """Immutable constellation table.

    ``points[i]`` is the i-th constellation point, ``labels[i]`` the bit
    pattern (as an integer, MSB-first) it carries.  ``point_of_label`` is the
    inverse lookup used by the mapper.  For square QAM and QPSK, ``cell_index``
    maps (I cell, Q cell), counted from the most negative level, to the point
    index; it is None for the other PSK orders.  Every array is read-only,
    because ``constellation`` hands one spec to every caller.
    """

    name: str
    family: str  # "psk" or "qam"
    order: int
    bits_per_symbol: int
    points: np.ndarray
    labels: np.ndarray
    point_of_label: np.ndarray = field(repr=False, default=None)
    cell_index: np.ndarray = field(repr=False, init=False, default=None)

    def __post_init__(self):
        mean_energy = np.mean(np.abs(self.points) ** 2)
        if abs(mean_energy - 1.0) > 1e-12:
            raise ConfigurationError(
                f"{self.name}: mean symbol energy {mean_energy} != 1"
            )
        if sorted(self.labels.tolist()) != list(range(self.order)):
            raise ConfigurationError(f"{self.name}: labels are not a bijection")
        inv = np.empty(self.order, dtype=np.complex128)
        inv[self.labels] = self.points
        tables = {"points": np.array(self.points), "labels": np.array(self.labels),
                  "point_of_label": inv}
        if self.family == "qam" or self.order == 4:
            side = math.isqrt(self.order)
            i, q = (np.rint(_cell_coordinate(x, self.points, side)).astype(np.intp)
                    for x in (self.points.real, self.points.imag))
            table = np.empty((side, side), dtype=np.intp)
            table[i, q] = np.arange(self.order)
            tables["cell_index"] = table
        for name, array in tables.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)


def _cell_coordinate(x, points, side):
    """Position along one axis of a square grid, in cells: level j sits at j."""
    half_step = points.real.max() / (side - 1)
    return (x / half_step + (side - 1)) / 2


def _make_psk(order):
    k = np.arange(order)
    offset = np.pi / 4 if order == 4 else 0.0  # QPSK on the diagonals
    points = np.exp(1j * (2 * np.pi * k / order + offset))
    labels = np.array([_gray(i) for i in k])
    return points, labels


def _make_qam(order):
    side = int(round(np.sqrt(order)))
    levels = 2 * np.arange(side) - (side - 1)  # ..., -3, -1, 1, 3, ...
    scale = 1.0 / np.sqrt(2 * (order - 1) / 3)
    half_bits = (order.bit_length() - 1) // 2
    points = []
    labels = []
    for i in range(side):
        for q in range(side):
            points.append((levels[i] + 1j * levels[q]) * scale)
            labels.append((_gray(i) << half_bits) | _gray(q))
    return np.array(points), np.array(labels)


def constellation(name):
    """The ConstellationSpec for a scheme name like 'qpsk' or '64qam'.

    Built once per scheme: every spelling of a name returns the same object.
    """
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key not in _SCHEMES:
        raise ConfigurationError(
            f"unknown modulation {name!r}; expected one of {_SCHEMES}"
        )
    return _build(key)


@functools.lru_cache(maxsize=None)
def _build(key):
    if key == "qpsk":
        family, order = "psk", 4
    else:
        family = key[-3:]
        order = int(key[:-3])
    points, labels = _make_psk(order) if family == "psk" else _make_qam(order)
    return ConstellationSpec(
        name=key,
        family=family,
        order=order,
        bits_per_symbol=order.bit_length() - 1,
        points=points,
        labels=labels,
    )


def map_bits(bits, spec):
    """Map a bit stream to constellation points, MSB-first per symbol."""
    bits = np.asarray(bits)
    k = spec.bits_per_symbol
    if len(bits) % k != 0:
        raise FramingError(
            f"bit count {len(bits)} not divisible by {k} ({spec.name})"
        )
    groups = bits.reshape(-1, k).astype(np.int64)
    weights = 1 << np.arange(k - 1, -1, -1)
    values = groups @ weights
    return spec.point_of_label[values]


# A symbol closer than this share of a cell width to a cell edge takes the
# exhaustive search; so does a grid symbol more than _GRID_WINDOW * side cells
# from the centre on either axis, and a PSK symbol whose magnitude is outside
# _PSK_RADII.  See demap_hard for why these bounds make slicing exact.
_EDGE_GUARD = 1e-9
_GRID_WINDOW = 4
_PSK_RADII = (0.05, 20.0)


def demap_hard(symbols, spec):
    """Hard-decision demap: nearest constellation point, ties to lowest index.

    The result equals ``argmin(abs(s - spec.points)**2)`` per symbol, bit for
    bit, without that n x order matrix.  Square QAM and QPSK round each axis
    to its level cell; the other PSK orders round the angle to the nearest
    of M sectors.  Both give the exactly nearest point unless the symbol is
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
    if spec.cell_index is not None:
        idx, unsure = _slice_grid(flat, spec)
    else:
        idx, unsure = _slice_sectors(flat, spec)
    if unsure.any():
        idx[unsure] = _nearest_exhaustive(flat[unsure], spec.points)
    weights = 1 << np.arange(spec.bits_per_symbol - 1, -1, -1)
    bits = (spec.labels[idx][:, None] & weights) != 0  # MSB first
    return bits.astype(np.uint8).ravel()


def _slice_grid(flat, spec):
    """Per-axis level cells of a square grid, and the symbols to re-check."""
    side = len(spec.cell_index)
    axes = []
    unsure = np.zeros(flat.size, dtype=bool)
    for x in (flat.real, flat.imag):
        cell = _cell_coordinate(x, spec.points, side)
        far = ~(np.abs(cell - (side - 1) / 2) < _GRID_WINDOW * side)
        cell = np.where(far, 0.0, cell)  # drops nan and inf before rint
        nearest = np.rint(cell)
        unsure |= far | (np.abs(np.abs(cell - nearest) - 0.5) < _EDGE_GUARD)
        axes.append(np.clip(nearest, 0, side - 1).astype(np.intp))
    return spec.cell_index[axes[0], axes[1]], unsure


def _slice_sectors(flat, spec):
    """Nearest of the M ring sectors, and the symbols to re-check."""
    radius = np.abs(flat)
    unsure = ~((radius > _PSK_RADII[0]) & (radius < _PSK_RADII[1]))
    offset = np.angle(spec.points[0])
    sector = (np.angle(flat) - offset) * (spec.order / (2 * np.pi))
    sector = np.where(unsure, 0.0, sector)
    nearest = np.rint(sector)
    unsure |= np.abs(np.abs(sector - nearest) - 0.5) < _EDGE_GUARD
    return nearest.astype(np.intp) % spec.order, unsure


def _nearest_exhaustive(symbols, points):
    """argmin over the full distance matrix, in chunks; ties to lowest index."""
    chunk = max(1, 2_000_000 // len(points))
    return np.concatenate([
        np.argmin(np.abs(symbols[i : i + chunk, None] - points) ** 2, axis=1)
        for i in range(0, len(symbols), chunk)
    ])
