import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.fft import fft, ifft

from ofdmlink.channel import DEFAULT_TAPS, static_multipath
from ofdmlink.errors import FramingError, SimError, SingularChannelError
from ofdmlink.ofdm import (assemble, default_grid, disassemble,
                           equalize_one_tap)

GRID = default_grid()
# no prefix, one below and one at the static channel's memory of 3 samples,
# the default, and one as long as the body
PREFIXES = (0, 1, 3, 64, 256)


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
    assert 0 not in GRID.data_bins and 0 not in GRID.pilot_bins  # null DC
    assert not hasattr(GRID, "active_bins")
    assert not hasattr(GRID, "data_positions")


@pytest.mark.parametrize("field", ["data_bins", "pilot_bins"])
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


@pytest.mark.parametrize("cp_len", PREFIXES)
def test_cyclic_prefix_property(cp_len):
    grid = dataclasses.replace(GRID, cp_len=cp_len)
    d, p = random_payload(np.random.default_rng(1), n_frames=3)
    out = assemble(d, p, grid)
    assert out.shape == (3, grid.symbol_len)
    # the prefix is a copy of the body's last cp_len samples
    assert np.array_equal(out[:, :cp_len], out[:, grid.fft_size :])


@pytest.mark.parametrize("cp_len", PREFIXES)
def test_round_trip_identity(cp_len):
    grid = dataclasses.replace(GRID, cp_len=cp_len)
    d, p = random_payload(np.random.default_rng(2), n_frames=3)
    d2, p2 = disassemble(assemble(d, p, grid), grid)
    assert np.max(np.abs(d2 - d)) < 1e-9
    assert np.max(np.abs(p2 - p)) < 1e-9


@pytest.mark.parametrize("cp_len", [-1, 257, 2.5, True])
def test_grid_rejects_a_prefix_its_frames_cannot_hold(cp_len):
    with pytest.raises(SimError) as exc:
        dataclasses.replace(GRID, cp_len=cp_len)
    message = str(exc.value)
    assert "cp_len" in message and "\n" not in message


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
    assert np.allclose(equalize_one_tap(v.copy(), np.ones(5)), v)
    assert np.allclose(equalize_one_tap(v.copy(), 2 * np.ones(5)), v / 2)


def test_equalize_singular_channel():
    h = np.ones(5, complex)
    h[3] = 1e-15
    with pytest.raises(SingularChannelError) as exc:
        equalize_one_tap(np.ones(5, complex), h)
    assert exc.value.bin_index == 3


def _first_singular_bin(bin_values, response):
    """The bin and |H| the check on the broadcast response names first."""
    mags = np.abs(np.broadcast_to(response, np.shape(bin_values)))
    first = tuple(axis[0] for axis in np.nonzero(mags < 1e-12))
    return first[-1], float(mags[first])


@pytest.mark.parametrize("shape", [(175,), (6, 175), (1, 175), (6, 1)])
@pytest.mark.parametrize("bad", [0.0, 1e-15])
def test_equalize_singular_bin_named_as_on_the_broadcast_response(shape, bad):
    # |H| is checked on the response as given; the error names the bin and
    # the magnitude that a check on the broadcast (6, 175) response names
    rng = np.random.default_rng(len(shape) + shape[-1])
    bins = rng.normal(size=(6, 175)) + 1j * rng.normal(size=(6, 175))
    response = 1.0 + rng.random(shape) + 0j
    response.flat[-2 if shape[-1] > 1 else 0] = bad
    if response.size > 2:
        response.flat[response.size // 2] = bad * 0.5
    with pytest.raises(SingularChannelError) as exc:
        equalize_one_tap(bins, response)
    assert (exc.value.bin_index, exc.value.magnitude) == \
        _first_singular_bin(bins, response)


def test_equalize_keeps_a_per_bin_response_unbroadcast():
    # a (175,) response over (500, 175) bins: the quotients overwrite the
    # bins, with no (500, 175) magnitudes or quotient array beside them
    bins = np.ones((500, 175), dtype=complex)
    response = np.full(175, 2.0 + 0j)
    expected = bins / response
    tracemalloc.start()
    try:
        out = equalize_one_tap(bins, response)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out is bins
    assert np.array_equal(out, expected)
    assert peak < 0.1 * out.nbytes


@pytest.mark.parametrize("bins_shape, response_shape", [
    ((1,), (1,)), ((1,), ()), ((1, 1), (1,)), ((175,), (175,)),
    ((6, 175), (175,)), ((1, 175), (175,)), ((6, 175), (6, 175)),
    ((6, 175), (6, 1)), ((6, 175), ()),
])
def test_equalize_divides_in_place_bit_for_bit(bins_shape, response_shape):
    # one-element shapes too: numpy may run a one-element in-place
    # operation as a reduction, with its own loop
    rng = np.random.default_rng(bins_shape[-1] + len(response_shape))
    bins = rng.normal(size=bins_shape) + 1j * rng.normal(size=bins_shape)
    bins.flat[::3] *= -1e-300  # tiny quotients, and signed zeros below
    bins.flat[1::4] = -0.0
    response = (0.5 + rng.random(response_shape)
                - 1j * rng.random(response_shape))
    expected = bins / response
    got = equalize_one_tap(bins, response)
    assert got is bins
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_equalize_copies_bins_that_are_not_complex128():
    bins = np.arange(1.0, 6.0)
    out = equalize_one_tap(bins, 2.0)
    assert np.array_equal(bins, np.arange(1.0, 6.0))
    assert np.array_equal(out, np.arange(1.0, 6.0) / 2.0)


def test_equalize_rejects_a_response_that_does_not_broadcast():
    with pytest.raises(ValueError):
        equalize_one_tap(np.ones((2, 175), complex), np.ones((3, 175)))


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


@pytest.mark.parametrize("n_frames", [1, 3, 140])
def test_assemble_and_disassemble_bit_for_bit_with_the_scaled_transforms(
        n_frames):
    # both scale their transform in place; the bits must be those of
    # ifft(freq) * scale with the prefix joined by concatenate, and of
    # fft(body) / scale
    d, p = random_payload(np.random.default_rng(n_frames), n_frames)
    freq = np.zeros(d.shape[:-1] + (GRID.fft_size,), dtype=complex)
    freq[..., GRID.data_bins] = d
    freq[..., GRID.pilot_bins] = p
    body = ifft(freq) * GRID.scale
    expected = np.concatenate([body[..., -GRID.cp_len :], body], axis=-1)
    frames = assemble(d, p, GRID)
    assert np.array_equal(frames.view(np.uint64), expected.view(np.uint64))
    rx = frames + 0.01 * np.random.default_rng(7).normal(size=frames.shape)
    spectrum = fft(rx[..., GRID.cp_len :]) / GRID.scale
    for got, bins in zip(disassemble(rx, GRID),
                         (GRID.data_bins, GRID.pilot_bins)):
        expected = np.ascontiguousarray(spectrum[..., bins])
        # the bins come out C-ordered, so a ravel of them is a view
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_disassemble_transforms_the_frames_in_place():
    d, p = random_payload(np.random.default_rng(9), 4)
    frames = assemble(d, p, GRID)
    body = fft(frames[..., GRID.cp_len :])
    data, _ = disassemble(frames, GRID)
    assert np.array_equal(frames[..., GRID.cp_len :], body)
    assert not np.shares_memory(data, frames)
