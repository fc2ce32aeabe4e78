import numpy as np
import pytest
from numpy.fft import fft, ifft

from ofdmlink.errors import ConfigurationError
from ofdmlink.numerics import RngStream
from theory import binomial_ci, q_function


def dft_oracle(x):
    """Direct O(N^2) DFT used as the independent reference."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * kk * k / n)) for kk in k])


def test_fft_impulse():
    out = fft([1, 0, 0, 0, 0, 0, 0, 0])
    assert np.allclose(out, np.ones(8), atol=1e-12)


def test_fft_constant():
    out = fft(np.ones(8))
    expected = np.zeros(8)
    expected[0] = 8
    assert np.allclose(out, expected, atol=1e-12)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_fft_matches_direct_dft(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.max(np.abs(fft(x) - dft_oracle(x))) < 1e-9


def test_parseval_identity():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 256) + 1j * rng.uniform(-1, 1, 256)
    lhs = np.sum(np.abs(fft(x)) ** 2)
    rhs = 256 * np.sum(np.abs(x) ** 2)
    assert abs(lhs - rhs) / rhs < 1e-9


def test_round_trip_many():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-1, 1, 256) + 1j * rng.uniform(-1, 1, 256)
        assert np.max(np.abs(ifft(fft(x)) - x)) < 1e-9


def test_ifft_of_spike_is_constant():
    out = ifft(np.array([8, 0, 0, 0, 0, 0, 0, 0], dtype=complex))
    assert np.allclose(out, np.ones(8), atol=1e-12)


def test_ifft_one_hot_is_complex_exponential():
    n, k = 64, 5
    spectrum = np.zeros(n, dtype=complex)
    spectrum[k] = 1.0
    expected = np.exp(2j * np.pi * k * np.arange(n) / n) / n
    assert np.max(np.abs(ifft(spectrum) - expected)) < 1e-12


def test_fft_linearity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=128) + 1j * rng.normal(size=128)
    y = rng.normal(size=128) + 1j * rng.normal(size=128)
    a, b = 1.7 - 0.3j, -0.4 + 2.1j
    assert np.max(np.abs(fft(a * x + b * y) - (a * fft(x) + b * fft(y)))) < 1e-9


def test_fft_batched_matches_rowwise():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 64)) + 1j * rng.normal(size=(5, 64))
    batched = fft(x)
    for i in range(5):
        assert np.allclose(batched[i], fft(x[i]), atol=1e-12)


def test_rng_determinism():
    a = RngStream(123, 4).normal(10_000)
    b = RngStream(123, 4).normal(10_000)
    assert np.array_equal(a, b)


def test_empty_draw_leaves_the_stream_unchanged():
    # the link's transmitter draws zero training bits for the genie receiver
    a, b = RngStream(5, 2), RngStream(5, 2)
    assert a.bits(0).size == 0
    assert np.array_equal(a.bits(1000), b.bits(1000))
    assert np.array_equal(a.normal(10), b.normal(10))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5, 1.0, 1.5, "1", True, None])
def test_rng_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ConfigurationError, match="master_seed must be an integer"):
        RngStream(seed)


def test_rng_takes_every_64_bit_seed():
    for seed in (0, np.uint64(2**64 - 1), np.int64(5)):
        assert RngStream(seed).bits(64).size == 64
    assert np.array_equal(RngStream(np.int64(5), 3).bits(256),
                          RngStream(5, 3).bits(256))
    assert not np.array_equal(RngStream(2**64 - 1).bits(256),
                              RngStream(0).bits(256))


def test_gaussian_moments():
    z = RngStream(7, 0).normal(1_000_000)
    assert abs(z.mean()) < 0.005
    assert abs(z.var() - 1.0) < 0.01


def test_streams_uncorrelated():
    a = RngStream(9, 0).normal(100_000)
    b = RngStream(9, 1).normal(100_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_q_function_values():
    assert q_function(0.0) == pytest.approx(0.5)
    assert q_function(2.2414) == pytest.approx(1.2494e-2, abs=1e-5)


def test_q_function_reflection():
    for x in (-3.0, -0.5, 0.7, 2.0):
        assert q_function(-x) == pytest.approx(1.0 - q_function(x), abs=1e-12)


def test_q_function_strictly_decreasing():
    # stay inside the range where erfc is resolvable in double precision
    grid = np.linspace(-5, 5, 1000)
    vals = q_function(grid)
    assert np.all(np.diff(vals) < 0)


def test_binomial_ci_examples():
    assert binomial_ci(0, 1000, 3) == (0.0, 0.0)
    lo, hi = binomial_ci(500, 1000, 2)
    assert lo == pytest.approx(0.4684, abs=1e-4)
    assert hi == pytest.approx(0.5316, abs=1e-4)
    assert binomial_ci(1000, 1000, 3) == (1.0, 1.0)
