import numpy as np
import pytest
from scipy.special import j0

from ofdmlink.channel import (DEFAULT_TAPS, UNIT_TAPS, ChannelConfig,
                              ChannelRealization, add_awgn, apply_fading,
                              rician_taps, static_multipath, _jakes_process)
from ofdmlink.errors import ConfigurationError, FramingError
from ofdmlink.numerics import RngStream


def convolution_oracle(signal, taps):
    """Direct O(N L) convolution sum."""
    out = np.zeros(len(signal), dtype=complex)
    for n in range(len(signal)):
        for l in range(len(taps)):
            if n - l >= 0:
                out[n] += taps[l] * signal[n - l]
    return out


def test_awgn_vanishing_noise():
    sig = np.exp(1j * np.arange(100))
    out = add_awgn(sig, 300.0, 1.0, RngStream(1, 0))
    assert np.max(np.abs(out - sig)) < 1e-9


def test_awgn_noise_power_at_0db():
    sig = np.ones(100_000, complex)
    out = add_awgn(sig, 0.0, 1.0, RngStream(2, 0))
    assert abs(np.mean(np.abs(out - sig) ** 2) - 1.0) < 0.02


def test_awgn_power_ratio_0_vs_10db():
    sig = np.ones(100_000, complex)
    p0 = np.mean(np.abs(add_awgn(sig, 0.0, 1.0, RngStream(3, 0)) - sig) ** 2)
    p10 = np.mean(np.abs(add_awgn(sig, 10.0, 1.0, RngStream(3, 1)) - sig) ** 2)
    assert abs(p0 / p10 - 10.0) < 0.4


@pytest.mark.parametrize("esn0", [0.0, 7.0, 20.0])
def test_awgn_calibration_within_0p2_db(esn0):
    sig = np.ones(100_000, complex)
    out = add_awgn(sig, esn0, 1.0, RngStream(4, int(esn0)))
    measured = -10 * np.log10(np.mean(np.abs(out - sig) ** 2))
    assert abs(measured - esn0) < 0.2


def test_static_multipath_impulse_raw_taps():
    delta = np.zeros(16, complex)
    delta[0] = 1.0
    out = static_multipath(delta, DEFAULT_TAPS)
    assert np.allclose(out[:4], [0.986, 0.845, 0.237, 0.123 + 0.31j])
    assert np.allclose(out[4:], 0.0)


def test_static_multipath_identity():
    sig = np.arange(20) + 1j
    assert np.allclose(static_multipath(sig, np.array([1.0])), sig)


def test_static_multipath_matches_oracle():
    rng = np.random.default_rng(0)
    sig = rng.normal(size=200) + 1j * rng.normal(size=200)
    taps = rng.normal(size=5) + 1j * rng.normal(size=5)
    got = static_multipath(sig, taps)
    assert np.max(np.abs(got - convolution_oracle(sig, taps))) < 1e-12


def test_config_normalizes_taps():
    assert abs(np.sum(np.abs(UNIT_TAPS) ** 2) - 1.0) < 1e-12
    # the expression every recorded count was made with, to the bit
    expected = DEFAULT_TAPS / np.sqrt(np.sum(np.abs(DEFAULT_TAPS) ** 2))
    assert np.array_equal(UNIT_TAPS, expected)
    assert not UNIT_TAPS.flags.writeable


def test_rician_los_only_limit():
    cfg = ChannelConfig(kind="rician", k_factor=1e9, doppler_hz=100.0)
    real = rician_taps(cfg, 500, RngStream(5, 0))
    for l, tap in enumerate(UNIT_TAPS):
        assert np.max(np.abs(real.tap_trajectories[l] - np.abs(tap))) < 1e-3


def test_static_realization_constant():
    # without Doppler every sinusoid of the Jakes sum stands still
    cfg = ChannelConfig(kind="rician", doppler_hz=0.0)
    traj = rician_taps(cfg, 100, RngStream(6, 0)).tap_trajectories
    assert np.max(np.abs(traj - traj[:, :1])) < 1e-12


@pytest.mark.parametrize("kind", ["awgn", "static"])
def test_rician_taps_rejects_other_channels(kind):
    with pytest.raises(ConfigurationError, match="not a rician channel"):
        rician_taps(ChannelConfig(kind=kind), 10, RngStream(6, 0))


def test_rician_power_split_k3():
    cfg = ChannelConfig(kind="rician", k_factor=3.0, doppler_hz=100.0)
    rng = RngStream(7, 0)
    n_real, n_samp = 500, 200
    total = np.zeros(len(UNIT_TAPS))
    diffuse = np.zeros(len(UNIT_TAPS))
    for _ in range(n_real):
        real = rician_taps(cfg, n_samp, rng)
        h = real.tap_trajectories
        los = np.abs(UNIT_TAPS)[:, None] * np.sqrt(3 / 4)
        total += np.mean(np.abs(h) ** 2, axis=1)
        diffuse += np.mean(np.abs(h - los) ** 2, axis=1)
    total /= n_real
    diffuse /= n_real
    mean_sq = np.abs(UNIT_TAPS) ** 2
    assert np.all(np.abs(total / mean_sq - 1.0) < 0.03)
    assert np.all(np.abs(diffuse / mean_sq - 0.25) < 0.03)


@pytest.mark.parametrize("fd", [40.0, 100.0])
def test_jakes_autocorrelation(fd):
    rng = RngStream(8, int(fd))
    n_samp, n_real = 401, 200
    lags = np.arange(41)  # 0 .. 10 ms at 4 kHz
    acf = np.zeros(len(lags), dtype=complex)
    for _ in range(n_real):
        g = _jakes_process(n_samp, fd / 4000.0, rng)
        for i, lag in enumerate(lags):
            acf[i] += np.mean(g[lag:] * np.conj(g[: n_samp - lag]))
    acf /= n_real
    ref = j0(2 * np.pi * fd * lags / 4000.0)
    rms = np.sqrt(np.mean(np.abs(acf - ref) ** 2))
    assert rms < 0.05


def test_doppler_beyond_nyquist_rejected():
    for doppler in (2000.0, 2001.0):
        with pytest.raises(ConfigurationError, match="below 2000 Hz"):
            ChannelConfig(kind="rician", doppler_hz=doppler)
    cfg = ChannelConfig(kind="rician", doppler_hz=1999.9)
    traj = rician_taps(cfg, 10, RngStream(9, 0)).tap_trajectories
    assert traj.shape == (4, 10)
    # the other channels never read the Doppler
    for kind in ("awgn", "static"):
        ChannelConfig(kind=kind, doppler_hz=3000.0)


def test_apply_fading_constant_reduces_to_static():
    rng = np.random.default_rng(1)
    sig = rng.normal(size=100) + 1j * rng.normal(size=100)
    taps = np.array([0.8, 0.5 + 0.1j])
    traj = np.repeat(taps[:, None], 100, axis=1)
    real = ChannelRealization(traj)
    assert np.allclose(apply_fading(sig, real), static_multipath(sig, taps))


def test_apply_fading_single_tap_samplewise():
    rng = np.random.default_rng(2)
    sig = rng.normal(size=50) + 1j * rng.normal(size=50)
    traj = (rng.normal(size=(1, 50)) + 1j * rng.normal(size=(1, 50)))
    real = ChannelRealization(traj)
    assert np.allclose(apply_fading(sig, real), traj[0] * sig)


def test_apply_fading_matches_double_sum_oracle():
    rng = np.random.default_rng(3)
    sig = rng.normal(size=80) + 1j * rng.normal(size=80)
    traj = rng.normal(size=(2, 80)) + 1j * rng.normal(size=(2, 80))
    real = ChannelRealization(traj)
    expected = np.zeros(80, dtype=complex)
    for n in range(80):
        for l in range(2):
            if n - l >= 0:
                expected[n] += traj[l, n] * sig[n - l]
    assert np.max(np.abs(apply_fading(sig, real) - expected)) < 1e-12


def test_fading_trajectory_too_short():
    real = ChannelRealization(np.ones((1, 5), complex))
    with pytest.raises(FramingError):
        apply_fading(np.ones(10, complex), real)


def test_realization_determinism():
    cfg = ChannelConfig(kind="rician", k_factor=3.0, doppler_hz=40.0)
    a = rician_taps(cfg, 300, RngStream(11, 2)).tap_trajectories
    b = rician_taps(cfg, 300, RngStream(11, 2)).tap_trajectories
    assert np.array_equal(a, b)


def _jakes_direct_sum(n_samples, doppler_norm, rng):
    """The n x 32 sum of sinusoids, one exponential per (sample, sinusoid)."""
    alpha = rng.uniform(32) * 2 * np.pi
    phi = rng.uniform(32) * 2 * np.pi
    t = np.arange(n_samples)[:, None]
    phase = 2 * np.pi * doppler_norm * t * np.cos(alpha)[None, :] + phi[None, :]
    return np.exp(1j * phase).sum(axis=1) / np.sqrt(32)


@pytest.mark.parametrize("n", [1, 2, 7, 200, 401, 41_280])
def test_jakes_block_product_matches_direct_sum(n):
    got = _jakes_process(n, 100.0 / 4000.0, RngStream(12, n))
    expected = _jakes_direct_sum(n, 100.0 / 4000.0, RngStream(12, n))
    assert got.shape == (n,)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_jakes_consumes_64_uniforms():
    rng = RngStream(13, 0)
    _jakes_process(50, 0.01, rng)
    reference = RngStream(13, 0)
    reference.uniform(64)
    assert rng.uniform() == reference.uniform()
