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
from dataclasses import dataclass

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

    def __post_init__(self):
        if set(self.data_bins) & set(self.pilot_bins):
            raise FramingError("data and pilot bins overlap")
        if self.cp_len * 4 != self.fft_size:
            raise FramingError("cyclic prefix must be 1/4 of the FFT size")
        for name in ("data_bins", "pilot_bins"):
            array = np.array(getattr(self, name))
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_active(self):
        return len(self.data_bins) + len(self.pilot_bins)

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
    # the bins are laid out in the frame body and transformed there
    frames = np.zeros(data_symbols.shape[:-1] + (grid.symbol_len,),
                      dtype=np.complex128)
    body = frames[..., grid.cp_len :]
    body[..., grid.data_bins] = data_symbols
    body[..., grid.pilot_bins] = pilot_symbols
    ifft(body, out=body)  # out= needs NumPy 2
    body *= grid.scale
    frames[..., : grid.cp_len] = body[..., -grid.cp_len :]
    return frames


def disassemble(time_samples, grid):
    """Strip the prefix, transform, undo the assemble scaling.

    The frame bodies are transformed in place, so time_samples is
    overwritten (a complex128 copy of it is, if it is not complex128).
    Returns (data_bin_values, pilot_bin_values), batched like the input, as
    new C-ordered arrays.
    """
    time_samples = np.asarray(time_samples, dtype=np.complex128)
    if time_samples.shape[-1] != grid.symbol_len:
        raise FramingError(
            f"expected {grid.symbol_len} time samples, got {time_samples.shape[-1]}"
        )
    body = time_samples[..., grid.cp_len :]
    fft(body, out=body)  # out= needs NumPy 2
    # taken from the whole frames, which take need not copy to make them
    # contiguous, and scaled once taken
    data = np.take(time_samples, grid.cp_len + grid.data_bins, axis=-1)
    pilots = np.take(time_samples, grid.cp_len + grid.pilot_bins, axis=-1)
    data /= grid.scale
    pilots /= grid.scale
    return data, pilots


def equalize_one_tap(bin_values, response):
    """Zero-forcing: divide each bin by its channel response, in place.

    response must broadcast to the shape of bin_values; |H| is checked on
    response as given, before the division broadcasts it.  The quotients
    overwrite bin_values, which is returned; a bin_values that is not a
    complex128 array is copied to one first, and the copy returned.
    """
    bin_values = np.asarray(bin_values, dtype=np.complex128)
    response = np.asarray(response, dtype=np.complex128)
    np.broadcast_to(response, bin_values.shape)  # a view: checks the shapes
    if bin_values.size:
        mags = np.abs(np.atleast_1d(response))
        bad = np.nonzero(mags < 1e-12)
        if len(bad[0]):
            first = tuple(axis[0] for axis in bad)
            raise SingularChannelError(first[-1], float(mags[first]))
    bin_values /= response
    return bin_values
