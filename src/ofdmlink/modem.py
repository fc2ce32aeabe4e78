"""Gray-coded PSK/QAM constellations with hard-decision demapping.

Supported schemes: QPSK, 16/64/256-PSK, 16/64/256-QAM.  All constellations
are normalized to unit average symbol energy.  PSK rings use a
binary-reflected Gray code; QPSK is rotated to put its points on the
diagonals so that bits 00 map to (1+j)/sqrt(2).  Square QAM uses independent
per-axis Gray codes over amplitude levels {..., -3, -1, 1, 3, ...}.

Bit order is most-significant bit first within each symbol group; for QAM
the first half of the group selects the I level, the second half the Q level.
"""

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
    inverse lookup used by the mapper.
    """

    name: str
    family: str  # "psk" or "qam"
    order: int
    bits_per_symbol: int
    points: np.ndarray
    labels: np.ndarray
    point_of_label: np.ndarray = field(repr=False, default=None)

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
        object.__setattr__(self, "point_of_label", inv)


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
    """Build the ConstellationSpec for a scheme name like 'qpsk' or '64qam'."""
    key = name.strip().lower().replace("-", "").replace("_", "")
    if key not in _SCHEMES:
        raise ConfigurationError(
            f"unknown modulation {name!r}; expected one of {_SCHEMES}"
        )
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


def demap_hard(symbols, spec):
    """Hard-decision demap: nearest constellation point, ties to lowest index."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    k = spec.bits_per_symbol
    out = np.empty(symbols.size * k, dtype=np.uint8)
    weights = 1 << np.arange(k - 1, -1, -1)
    chunk = max(1, 2_000_000 // spec.order)
    flat = symbols.ravel()
    for start in range(0, flat.size, chunk):
        seg = flat[start : start + chunk]
        d2 = np.abs(seg[:, None] - spec.points[None, :]) ** 2
        idx = np.argmin(d2, axis=1)  # argmin takes the lowest index on ties
        vals = spec.labels[idx]
        bits = (vals[:, None] // weights[None, :]) % 2  # MSB first
        out[start * k : (start + seg.size) * k] = bits.astype(np.uint8).ravel()
    return out
