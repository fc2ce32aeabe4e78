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

from .errors import ConfigurationError, FramingError, check_real

__all__ = [
    "DEFAULT_TAPS",
    "UNIT_TAPS",
    "SAMPLE_RATE_HZ",
    "ChannelConfig",
    "ChannelRealization",
    "add_awgn",
    "static_multipath",
    "fir_in_place",
    "rician_taps",
    "apply_fading",
]

DEFAULT_TAPS = np.array([0.986, 0.845, 0.237, 0.123 + 0.31j])
UNIT_TAPS = DEFAULT_TAPS / np.sqrt(np.sum(np.abs(DEFAULT_TAPS) ** 2))
UNIT_TAPS.setflags(write=False)

SAMPLE_RATE_HZ = 4000.0

_N_SINUSOIDS = 32
_FIR_CHUNK = 8192  # outputs per convolve in fir_in_place


@dataclass(frozen=True)
class ChannelConfig:
    """One channel of the link; construction rejects what it cannot run."""

    kind: str  # "awgn" | "static" | "rician"
    k_factor: float = 3.0
    doppler_hz: float = 100.0

    def __post_init__(self):
        if self.kind not in ("awgn", "static", "rician"):
            raise ConfigurationError(f"unknown channel {self.kind!r}")
        check_real("k_factor", self.k_factor, low=0)
        check_real("doppler_hz", self.doppler_hz, low=0)
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
    """Add circular complex Gaussian noise at the requested Es/N0, in place.

    Total noise variance per complex sample is signal_power / 10^(esn0/10),
    split equally between the quadratures.  The noise is added into signal
    block by block (``RngStream.add_complex_normal``) and signal is
    returned; a signal that is not a C-contiguous complex128 array is
    copied to one first, and the copy returned.
    """
    signal = np.ascontiguousarray(signal, dtype=np.complex128)
    sigma2 = signal_power * 10.0 ** (-esn0_db / 10.0)
    return rng.add_complex_normal(signal, np.sqrt(sigma2))


def fir_in_place(x, kernel, delay=0, start=0):
    """x[m] for m >= start becomes np.convolve(x, kernel)[m + delay] of x as
    given.  Chunks of _FIR_CHUNK outputs run first to last, each convolved
    with the len(kernel) given samples before it, so every output is the
    dot product that one full-length convolve makes, and no input is
    shorter than the kernel (convolve would swap the two, and sum in another
    order).  Returns x.
    """
    before = x[max(start - len(kernel), 0) : start]
    chunk = max(_FIR_CHUNK, len(kernel))
    for a in range(start, len(x), chunk):
        b = min(a + chunk, len(x))
        segment = np.concatenate([before, x[a : b + delay]])
        lead = len(before)
        before = segment[lead + b - a - len(kernel) : lead + b - a]
        x[a:b] = np.convolve(segment, kernel)[lead + delay :][: b - a]
    return x


def static_multipath(signal, taps):
    """FIR channel: linear convolution truncated to the input length,
    written over signal (``fir_in_place``) and returned; a signal that is
    not a complex128 array is copied to one first, and the copy returned."""
    signal = np.asarray(signal, dtype=np.complex128)
    return fir_in_place(signal, np.asarray(taps, dtype=np.complex128))


def _jakes_process(n_taps, n_samples, doppler_norm, rng):
    """n_taps unit-power complex processes with Jakes Doppler spectrum,
    shape (n_taps, n_samples): a view of one (n_taps, Q * B) buffer.

    The Monte-Carlo sum of sinusoids (Hoeher, IEEE Trans. Veh. Technol.
    41(4), 1992) draws every arrival angle alpha_k iid uniform, unlike the
    stratified angles of Zheng & Xiao; the ensemble autocorrelation is
    J0(2 pi f_d tau) either way.  Its g(t) = sum_k exp(j(w_k t + phi_k)) /
    sqrt(32) with w_k = 2 pi f_d cos(alpha_k) has a phase linear in t.
    With t = B q + r, each term is A[q, k] C[k, r], where
    A = exp(j(w_k B q + phi_k)) has shape (Q, 32) and C = exp(j w_k r) has
    shape (32, B); so g is the product A @ C read row by row.  Each factor
    is again a phasor product: with q = a q1 + q0,
    A[q, k] = exp(j(w_k B a q1 + phi_k)) exp(j w_k B q0),
    and with B = b * b and r = b r1 + r0, C[k, r] = exp(j w_k b r1)
    exp(j w_k r0).  The four tables have about n^(1/4) rows each, so a tap
    takes about 128 n^(1/4) exponentials instead of 32 n.  The 1/sqrt(32)
    is folded into the finest table, and one matmul evaluates every tap.
    One call draws the 64 uniforms of each tap in turn, alpha then phi.
    """
    u = rng.uniform(n_taps * 2 * _N_SINUSOIDS).reshape(n_taps, 2, 1, -1)
    alpha = u[:, 0] * 2 * np.pi
    phi = u[:, 1] * 2 * np.pi
    w = 2 * np.pi * doppler_norm * np.cos(alpha)  # (n_taps, 1, 32)

    def phasors(count, stride, phase=0.0):
        """exp(j(w_k stride s + phase_k)) for s < count: (n_taps, count, 32)."""
        return np.exp(1j * (w * (stride * np.arange(count)[:, None]) + phase))

    def product(coarse, fine):
        """Row c * len(fine) + f is coarse[c] * fine[f]."""
        return (coarse[:, :, None] * fine[:, None]).reshape(
            n_taps, -1, _N_SINUSOIDS)

    b = max(1, math.isqrt(math.isqrt(n_samples)))
    block = b * b
    rows = -(-n_samples // block)
    a = max(1, math.isqrt(rows))
    factor_a = product(phasors(-(-rows // a), block * a, phi),
                       phasors(a, block))[:, :rows]
    fine = phasors(b, 1) / np.sqrt(_N_SINUSOIDS)
    factor_c = product(phasors(b, b), fine).transpose(0, 2, 1)
    return np.matmul(factor_a, factor_c).reshape(n_taps, -1)[:, :n_samples]


def rician_taps(cfg, n_samples, rng):
    """Draw one fading realization of a Rician cfg: per-tap trajectories of
    length n_samples, |taps| * (los + diffuse * g) computed in place on the
    Jakes processes g."""
    if cfg.kind != "rician":
        raise ConfigurationError(f"not a rician channel: {cfg.kind!r}")
    k = cfg.k_factor
    los = np.sqrt(k / (k + 1.0))
    diffuse = np.sqrt(1.0 / (k + 1.0))
    doppler_norm = cfg.doppler_hz / SAMPLE_RATE_HZ
    g = _jakes_process(len(UNIT_TAPS), n_samples, doppler_norm, rng)
    g *= diffuse
    g += los
    g *= np.abs(UNIT_TAPS)[:, None]
    return ChannelRealization(g)


def apply_fading(signal, realization):
    """Time-varying convolution y(t) = sum_l h_l(t) x(t - l).

    The products are formed in the realization's complex128 trajectory
    buffer, which this overwrites: row l becomes h_l(t) x(t - l), and row 0
    sums the others into itself in tap order, so y is a view of row 0.
    That is the arithmetic of a sum started from zero, up to the sign of an
    exact zero: a sum whose terms are all -0.0 stays -0.0 here.
    """
    signal = np.asarray(signal, dtype=np.complex128)
    traj = realization.tap_trajectories
    if traj.shape[1] < signal.size:
        raise FramingError(
            f"trajectory length {traj.shape[1]} < signal length {signal.size}"
        )
    n = signal.size
    n_taps = min(traj.shape[0], n)
    if not n_taps:
        return np.zeros(n, dtype=np.complex128)
    for l in range(n_taps):
        row = traj[l, l:n]
        if len(row) > 1:
            row *= signal[: n - l]
        else:
            # numpy runs an in-place product of one sample as a reduction,
            # whose complex multiply may fuse a multiply-add
            row[:] = row * signal[: n - l]
    out = traj[0, :n]
    for l in range(1, n_taps):
        out[l:] += traj[l, l:n]
    return out
