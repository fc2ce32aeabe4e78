import numpy as np
import pytest
from numpy.fft import fft

from ofdmlink.channel import DEFAULT_TAPS, static_multipath
from ofdmlink.errors import FramingError, SingularChannelError
from ofdmlink.ofdm import (assemble, default_grid, disassemble,
                           equalize_one_tap)

GRID = default_grid()


def random_payload(rng, n_frames=1):
    d = (rng.normal(size=(n_frames, 175)) + 1j * rng.normal(size=(n_frames, 175)))
    d /= np.sqrt(2)
    p = np.ones((n_frames, 25), dtype=complex)
    if n_frames == 1:
        return d[0], p[0]
    return d, p


def channel_response(taps):
    padded = np.zeros(GRID.fft_size, dtype=complex)
    padded[: len(taps)] = taps
    return fft(padded)


def test_grid_layout():
    assert GRID.fft_size == 256
    assert GRID.cp_len == 64
    assert len(GRID.data_bins) == 175
    assert len(GRID.pilot_bins) == 25
    assert not set(GRID.data_bins) & set(GRID.pilot_bins)
    assert GRID.n_active == 200
    assert 0 not in GRID.active_bins  # null DC


@pytest.mark.parametrize("field", ["data_bins", "pilot_bins", "active_bins",
                                   "data_positions"])
def test_shared_grid_is_read_only(field):
    assert default_grid() is GRID
    with pytest.raises(ValueError):
        getattr(GRID, field)[0] = 0


def test_assemble_output_length():
    d, p = random_payload(np.random.default_rng(0))
    assert assemble(d, p, GRID).shape == (320,)


def test_assemble_all_zero():
    out = assemble(np.zeros(175, complex), np.zeros(25, complex), GRID)
    assert np.allclose(out, 0.0)


def test_single_pilot_constant_magnitude():
    p = np.zeros(25, complex)
    p[3] = 1.0
    out = assemble(np.zeros(175, complex), p, GRID)
    mags = np.abs(out)
    assert np.max(np.abs(mags - mags[0])) < 1e-9


def test_cyclic_prefix_property():
    d, p = random_payload(np.random.default_rng(1))
    out = assemble(d, p, GRID)
    assert np.max(np.abs(out[:64] - out[-64:])) < 1e-12


def test_round_trip_identity():
    d, p = random_payload(np.random.default_rng(2))
    d2, p2 = disassemble(assemble(d, p, GRID), GRID)
    assert np.max(np.abs(d2 - d)) < 1e-9
    assert np.max(np.abs(p2 - p)) < 1e-9


def test_disassemble_all_zero():
    d, p = disassemble(np.zeros(320, complex), GRID)
    assert np.allclose(d, 0) and np.allclose(p, 0)


def test_per_bin_multiplicativity_table_taps():
    taps = DEFAULT_TAPS / np.linalg.norm(DEFAULT_TAPS)
    d, p = random_payload(np.random.default_rng(3))
    tx = assemble(d, p, GRID)
    rx = static_multipath(tx, taps)  # direct time-domain convolution oracle
    d2, p2 = disassemble(rx, GRID)
    h = channel_response(taps)
    assert np.max(np.abs(d2 - h[GRID.data_bins] * d)) < 1e-9
    assert np.max(np.abs(p2 - h[GRID.pilot_bins] * p)) < 1e-9


def test_isi_elimination_any_fir_within_cp():
    rng = np.random.default_rng(4)
    taps = rng.normal(size=64) + 1j * rng.normal(size=64)
    taps /= np.linalg.norm(taps)
    d, p = random_payload(rng)
    rx = static_multipath(assemble(d, p, GRID), taps)
    d2, _ = disassemble(rx, GRID)
    h = channel_response(taps)
    assert np.max(np.abs(d2 - h[GRID.data_bins] * d)) < 1e-9


def test_power_normalization():
    rng = np.random.default_rng(5)
    d, p = random_payload(rng, n_frames=50)
    tx = assemble(d, p, GRID)
    assert abs(np.mean(np.abs(tx) ** 2) - 1.0) < 0.02


def test_framing_errors():
    with pytest.raises(FramingError):
        assemble(np.zeros(100, complex), np.zeros(25, complex), GRID)
    with pytest.raises(FramingError):
        assemble(np.zeros(175, complex), np.zeros(10, complex), GRID)
    with pytest.raises(FramingError):
        disassemble(np.zeros(300, complex), GRID)


def test_equalize_identity_and_scalar():
    v = np.arange(5) + 1j
    assert np.allclose(equalize_one_tap(v, np.ones(5)), v)
    assert np.allclose(equalize_one_tap(v, 2 * np.ones(5)), v / 2)


def test_equalize_singular_channel():
    h = np.ones(5, complex)
    h[3] = 1e-15
    with pytest.raises(SingularChannelError) as exc:
        equalize_one_tap(np.ones(5, complex), h)
    assert exc.value.bin_index == 3


def test_full_chain_noiseless_recovery():
    from ofdmlink.modem import constellation, map_bits

    spec = constellation("qpsk")
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 2, 10 * 175 * 2).astype(np.uint8)
    d = map_bits(bits, spec).reshape(10, 175)
    p = np.ones((10, 25), complex)
    taps = DEFAULT_TAPS / np.linalg.norm(DEFAULT_TAPS)
    rx = static_multipath(assemble(d, p, GRID).ravel(), taps)
    d2, _ = disassemble(rx.reshape(10, 320), GRID)
    h = channel_response(taps)[GRID.data_bins]
    recovered = equalize_one_tap(d2, h)
    assert np.max(np.abs(recovered - d)) < 1e-6
