"""Channel impairments: calibrated AWGN, static multipath, Rician fading.

The default multipath profile is the four-tap line [.986, .845, .237,
.123+.31j], normalized to unit gain at construction so Es/N0 stays well
defined (the raw values remain available with normalize=False).

Fading taps follow a Rician decomposition: a fixed line-of-sight component
carrying K/(K+1) of each tap's power plus a diffuse Jakes-spectrum process
carrying 1/(K+1), synthesized as a sum of sinusoids with random arrival
angles and phases so the autocorrelation converges to J0(2 pi f_d tau).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, FramingError

__all__ = [
    "DEFAULT_TAPS",
    "ChannelConfig",
    "ChannelRealization",
    "add_awgn",
    "static_multipath",
    "rician_taps",
    "apply_fading",
]

DEFAULT_TAPS = np.array([0.986, 0.845, 0.237, 0.123 + 0.31j])

_N_SINUSOIDS = 32


@dataclass(frozen=True)
class ChannelConfig:
    kind: str  # "awgn" | "static" | "rician"
    taps0: np.ndarray = field(default_factory=lambda: DEFAULT_TAPS.copy())
    k_factor: float = 3.0
    doppler_hz: float = 100.0
    sample_rate_hz: float = 4000.0
    normalize: bool = True

    def __post_init__(self):
        if self.kind not in ("awgn", "static", "rician"):
            raise ConfigurationError(f"unknown channel kind {self.kind!r}")
        if self.k_factor < 0:
            raise ConfigurationError("k_factor must be >= 0")
        if self.sample_rate_hz <= 0:
            raise ConfigurationError("sample_rate_hz must be > 0")
        taps = np.asarray(self.taps0, dtype=np.complex128)
        if self.normalize:
            taps = taps / np.sqrt(np.sum(np.abs(taps) ** 2))
        object.__setattr__(self, "taps0", taps)


@dataclass(frozen=True)
class ChannelRealization:
    """Per-sample tap trajectories, shape (n_taps, n_samples)."""

    tap_trajectories: np.ndarray


def add_awgn(signal, esn0_db, signal_power, rng):
    """Add circular complex Gaussian noise at the requested Es/N0.

    Total noise variance per complex sample is signal_power / 10^(esn0/10),
    split equally between the quadratures.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    sigma2 = signal_power * 10.0 ** (-esn0_db / 10.0)
    noise = rng.complex_normal(signal.size) * np.sqrt(sigma2)
    return signal + noise.reshape(signal.shape)


def static_multipath(signal, taps):
    """FIR channel: linear convolution truncated to the input length."""
    signal = np.asarray(signal, dtype=np.complex128)
    taps = np.asarray(taps, dtype=np.complex128)
    return np.convolve(signal, taps)[: signal.size]


def _jakes_process(n_samples, doppler_norm, rng):
    """Unit-power complex process with Jakes Doppler spectrum.

    The sum-of-sinusoids model of Zheng & Xiao (IEEE Trans. Commun. 51(6),
    2003), g(t) = sum_k exp(j(w_k t + phi_k)) / sqrt(32) with
    w_k = 2 pi f_d cos(alpha_k), has a phase linear in t.  With t = B q + r
    and B = max(1, isqrt(n)), each term is A[q, k] C[k, r], where
    A = exp(j(outer(B q, w) + phi)) has shape (ceil(n / B), 32) and
    C = exp(j outer(w, r)) has shape (32, B).  So g = (A @ C).ravel()[:n]
    / sqrt(32) takes about 64 sqrt(n) exponentials instead of 32 n.
    """
    alpha = rng.uniform(_N_SINUSOIDS) * 2 * np.pi
    phi = rng.uniform(_N_SINUSOIDS) * 2 * np.pi
    w = 2 * np.pi * doppler_norm * np.cos(alpha)
    block = max(1, math.isqrt(n_samples))
    starts = np.arange(-(-n_samples // block)) * block
    a = np.exp(1j * (np.outer(starts, w) + phi))
    c = np.exp(1j * np.outer(w, np.arange(block)))
    return (a @ c).ravel()[:n_samples] / np.sqrt(_N_SINUSOIDS)


def rician_taps(cfg, n_samples, rng):
    """Draw one fading realization: per-tap trajectories of length n_samples."""
    if cfg.doppler_hz >= cfg.sample_rate_hz / 2:
        raise ConfigurationError(
            f"doppler {cfg.doppler_hz} Hz >= Nyquist of {cfg.sample_rate_hz} Hz"
        )
    taps = cfg.taps0
    if cfg.kind != "rician":
        traj = np.repeat(taps[:, None], n_samples, axis=1)
        return ChannelRealization(traj)
    k = cfg.k_factor
    los = np.sqrt(k / (k + 1.0))
    diffuse = np.sqrt(1.0 / (k + 1.0))
    doppler_norm = cfg.doppler_hz / cfg.sample_rate_hz
    g = np.array([_jakes_process(n_samples, doppler_norm, rng) for _ in taps])
    return ChannelRealization(np.abs(taps)[:, None] * (los + diffuse * g))


def apply_fading(signal, realization):
    """Time-varying convolution y(t) = sum_l h_l(t) x(t - l)."""
    signal = np.asarray(signal, dtype=np.complex128)
    traj = realization.tap_trajectories
    if traj.shape[1] < signal.size:
        raise FramingError(
            f"trajectory length {traj.shape[1]} < signal length {signal.size}"
        )
    out = np.zeros(signal.size, dtype=np.complex128)
    for l in range(traj.shape[0]):
        out[l:] += traj[l, l : signal.size] * signal[: signal.size - l]
    return out
