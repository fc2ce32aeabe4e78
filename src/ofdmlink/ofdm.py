"""OFDM symbol assembly/disassembly and per-subcarrier equalization.

Grid layout: 256-point FFT, 200 active subcarriers placed symmetrically
around a null DC (bins 1..100 and 156..255), cyclic prefix of 64 samples
(1/4 of the FFT size).  Every 8th active bin carries a comb pilot (25
pilots, 175 data bins per symbol).

The transforms are numpy's: the forward FFT is unnormalized and the
inverse carries the 1/N factor.  Assembly scales the inverse transform so
the mean time-sample power of a symbol built from unit-energy inputs is 1;
disassembly undoes the scaling, so the noiseless round trip is the
identity.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import fft, ifft

from .errors import FramingError, SingularChannelError

__all__ = ["OfdmGrid", "default_grid", "assemble", "disassemble", "equalize_one_tap"]


@dataclass(frozen=True)
class OfdmGrid:
    """Bin layout of one OFDM symbol.  Its arrays are read-only copies,
    because ``default_grid`` hands one grid to every caller."""

    fft_size: int
    cp_len: int
    data_bins: np.ndarray
    pilot_bins: np.ndarray
    active_bins: np.ndarray = field(repr=False, default=None)
    # positions of data bins within the sorted active-bin list, for interpolation
    data_positions: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if set(self.data_bins) & set(self.pilot_bins):
            raise FramingError("data and pilot bins overlap")
        if self.cp_len * 4 != self.fft_size:
            raise FramingError("cyclic prefix must be 1/4 of the FFT size")
        active = np.sort(np.concatenate([self.data_bins, self.pilot_bins]))
        pos = {b: i for i, b in enumerate(active)}
        arrays = {"data_bins": np.array(self.data_bins),
                  "pilot_bins": np.array(self.pilot_bins),
                  "active_bins": active,
                  "data_positions": np.array([pos[b] for b in self.data_bins])}
        for name, array in arrays.items():
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_active(self):
        return len(self.active_bins)

    @property
    def symbol_len(self):
        return self.fft_size + self.cp_len

    @property
    def scale(self):
        # unit mean time-sample power for unit-energy subcarrier inputs
        return self.fft_size / np.sqrt(self.n_active)


@functools.lru_cache(maxsize=None)
def default_grid():
    """The standard 256-bin grid: 200 active carriers, comb pilots every 8th.

    Built once: every call returns the same grid.
    """
    active = np.concatenate([np.arange(1, 101), np.arange(156, 256)])
    pilot_bins = active[::8]
    data_bins = np.array([b for b in active if b not in set(pilot_bins)])
    return OfdmGrid(fft_size=256, cp_len=64, data_bins=data_bins, pilot_bins=pilot_bins)


def assemble(data_symbols, pilot_symbols, grid):
    """Build time-domain OFDM symbols (batched along leading axes).

    data_symbols: (..., n_data), pilot_symbols: (..., n_pilots).  Returns
    (..., fft_size + cp_len) time samples with the cyclic prefix prepended.
    """
    data_symbols = np.asarray(data_symbols, dtype=np.complex128)
    pilot_symbols = np.asarray(pilot_symbols, dtype=np.complex128)
    if data_symbols.shape[-1] != len(grid.data_bins):
        raise FramingError(
            f"expected {len(grid.data_bins)} data symbols, "
            f"got {data_symbols.shape[-1]}"
        )
    if pilot_symbols.shape[-1] != len(grid.pilot_bins):
        raise FramingError(
            f"expected {len(grid.pilot_bins)} pilot symbols, "
            f"got {pilot_symbols.shape[-1]}"
        )
    freq = np.zeros(data_symbols.shape[:-1] + (grid.fft_size,), dtype=np.complex128)
    freq[..., grid.data_bins] = data_symbols
    freq[..., grid.pilot_bins] = pilot_symbols
    body = ifft(freq) * grid.scale
    return np.concatenate([body[..., -grid.cp_len :], body], axis=-1)


def disassemble(time_samples, grid):
    """Strip the prefix, transform, undo the assemble scaling.

    Returns (data_bin_values, pilot_bin_values), batched like the input.
    """
    time_samples = np.asarray(time_samples, dtype=np.complex128)
    if time_samples.shape[-1] != grid.symbol_len:
        raise FramingError(
            f"expected {grid.symbol_len} time samples, got {time_samples.shape[-1]}"
        )
    freq = fft(time_samples[..., grid.cp_len :]) / grid.scale
    return freq[..., grid.data_bins], freq[..., grid.pilot_bins]


def equalize_one_tap(bin_values, response):
    """Zero-forcing: divide each bin by its channel response."""
    bin_values = np.asarray(bin_values, dtype=np.complex128)
    response = np.broadcast_to(np.asarray(response, dtype=np.complex128),
                               bin_values.shape)
    mags = np.abs(response)
    bad = np.nonzero(mags < 1e-12)
    if len(bad[0]):
        first = tuple(axis[0] for axis in bad)
        raise SingularChannelError(first[-1], float(mags[first]))
    return bin_values / response
