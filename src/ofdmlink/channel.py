"""Channel impairments: calibrated AWGN, static multipath, Rician fading.

The link has one multipath profile, the four-tap line [.986, .845, .237,
.123+.31j] (``DEFAULT_TAPS``), scaled to unit gain (``UNIT_TAPS``) so Es/N0
stays well defined.  Fading runs on the 4 kHz sample clock
(``SAMPLE_RATE_HZ``), so a Rician Doppler must stay below 2 kHz.

Fading taps follow a Rician decomposition: a fixed line-of-sight component
carrying K/(K+1) of each tap's power plus a diffuse Jakes-spectrum process
carrying 1/(K+1), synthesized as a sum of sinusoids with random arrival
angles and phases so the autocorrelation converges to J0(2 pi f_d tau).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, FramingError

__all__ = [
    "DEFAULT_TAPS",
    "UNIT_TAPS",
    "SAMPLE_RATE_HZ",
    "ChannelConfig",
    "ChannelRealization",
    "add_awgn",
    "static_multipath",
    "rician_taps",
    "apply_fading",
]

DEFAULT_TAPS = np.array([0.986, 0.845, 0.237, 0.123 + 0.31j])
UNIT_TAPS = DEFAULT_TAPS / np.sqrt(np.sum(np.abs(DEFAULT_TAPS) ** 2))
UNIT_TAPS.setflags(write=False)

SAMPLE_RATE_HZ = 4000.0

_N_SINUSOIDS = 32


@dataclass(frozen=True)
class ChannelConfig:
    """One channel of the link; construction rejects what it cannot run."""

    kind: str  # "awgn" | "static" | "rician"
    k_factor: float = 3.0
    doppler_hz: float = 100.0

    def __post_init__(self):
        if self.kind not in ("awgn", "static", "rician"):
            raise ConfigurationError(f"unknown channel {self.kind!r}")
        for name in ("k_factor", "doppler_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {value}")
        # only fading reads the Doppler
        nyquist = SAMPLE_RATE_HZ / 2
        if self.kind == "rician" and self.doppler_hz >= nyquist:
            raise ConfigurationError(
                f"doppler_hz {self.doppler_hz:g} must be below {nyquist:g} "
                f"Hz, half the {SAMPLE_RATE_HZ:g} Hz sample rate")


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
    """Draw one fading realization of a Rician cfg: per-tap trajectories of
    length n_samples."""
    if cfg.kind != "rician":
        raise ConfigurationError(f"not a rician channel: {cfg.kind!r}")
    k = cfg.k_factor
    los = np.sqrt(k / (k + 1.0))
    diffuse = np.sqrt(1.0 / (k + 1.0))
    doppler_norm = cfg.doppler_hz / SAMPLE_RATE_HZ
    g = np.array([_jakes_process(n_samples, doppler_norm, rng)
                  for _ in UNIT_TAPS])
    return ChannelRealization(np.abs(UNIT_TAPS)[:, None] * (los + diffuse * g))


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
