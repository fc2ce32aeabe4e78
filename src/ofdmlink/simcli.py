"""Batch harness: source generation, the full link chain, BER sweeps, output.

The chain per point: bits -> optional convolutional encode -> Gray mapping
-> OFDM assembly (comb pilots, CP) -> channel (AWGN / static multipath /
Rician fading) -> selected receiver -> hard demap -> optional Viterbi ->
bit comparison.  Only information bits enter the BER numerator and
denominator; training symbols, pilots, pad and tail bits are excluded.

SNR accounting: the requested snr_db is realized as Es/N0 per active
subcarrier (the noise injected in the time domain is scaled by the
active/FFT-size duty factor), so uncoded QPSK over AWGN with an ideal
receiver lands exactly on the Q(sqrt(2 Eb/N0)) theory curve.  Eb/N0 counts
bits per symbol and code rate but not CP or pilot overheads; the CSV
records both axes.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft

from .channel import (UNIT_TAPS, ChannelConfig, add_awgn, apply_fading,
                      rician_taps, static_multipath)
from .equalizer import PilotLmsEstimator, equalize_pre_fft
from .errors import ConfigurationError, DivergenceError
from .fec import conv_encode, viterbi_decode
from .modem import constellation, demap_hard, map_bits
from .numerics import RngStream
from .ofdm import assemble, default_grid, disassemble, equalize_one_tap

__all__ = [
    "SimConfig",
    "BerPoint",
    "parse_config",
    "load_config",
    "generate_source",
    "ebn0_from_esn0",
    "run_point",
    "run_sweep",
    "run_lms_trace",
    "write_csv",
    "read_csv",
    "emit_plot",
    "CSV_HEADER",
    "MSE_WINDOW",
]

CSV_HEADER = "modulation,channel,coding,receiver_mode,snr_db,ebn0_db,bits,errors,ber,seed"

_PCM_BITS = 8
_SINE_HZ = 1000.0
_SAMPLE_HZ = 4000.0

# the step sizes lms-trace tries when lms_mu is unset, ranked by the mean
# squared error over the last MSE_WINDOW training steps
_MU_CANDIDATES = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
MSE_WINDOW = 100

# the longest SNR grid a config file may ask for
_MAX_SNR_POINTS = 10_000
# the largest point a config may ask for: a coded Rician pre-FFT LMS point,
# the heaviest chain, peaks near 0.33 GB per 10^6 bits; a sweep runs its
# points one at a time, so it peaks no higher than its largest point
_MAX_N_BITS = 4_000_000
# each training symbol adds 320 LMS updates to every pre-FFT point
_MAX_TRAINING_SYMBOLS = 100


@dataclass(frozen=True)
class SimConfig:
    modulations: tuple = ("qpsk",)
    channel: str = "awgn"
    coding: str = "none"
    receiver_mode: str = "known_channel_zf"
    snr_grid_db: tuple = tuple(float(s) for s in range(0, 51, 2))
    n_bits: int = 44000
    seed: int = 1
    k_factor: float = 3.0
    doppler_hz: float = 100.0
    lms_taps: int = 11
    lms_mu: float = 0.0  # 0 means "use the per-mode default"
    training_symbols: int = 2
    source: str = "random"

    def __post_init__(self):
        # the channel owns the checks on channel, k_factor and doppler_hz
        ChannelConfig(self.channel, self.k_factor, self.doppler_hz)
        if self.coding not in ("none", "cc_k7"):
            raise ConfigurationError(f"unknown coding {self.coding!r}")
        if self.receiver_mode not in _RECEIVERS:
            raise ConfigurationError(
                f"unknown receiver_mode {self.receiver_mode!r}")
        if not self.modulations:
            raise ConfigurationError("no modulation given")
        schemes = [constellation(name).name for name in self.modulations]
        for i, scheme in enumerate(schemes):
            if scheme in schemes[:i]:
                raise ConfigurationError(f"modulation {scheme!r} given twice")
        # a pre-FFT equalizer longer than one OFDM symbol has no use, and
        # RngStream takes a seed of 64 bits
        symbol_len = default_grid().symbol_len
        for name, lo, hi in (("n_bits", 1, _MAX_N_BITS),
                             ("seed", 0, 2**64 - 1),
                             ("lms_taps", 1, symbol_len),
                             ("training_symbols", 0, _MAX_TRAINING_SYMBOLS)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}")
            if not lo <= value <= hi:
                raise ConfigurationError(
                    f"{name} must be in {lo}..{hi}, got {value}")
        if _RECEIVERS[self.receiver_mode].time_domain:
            _check_training_span(self)
        if not (math.isfinite(self.lms_mu) and self.lms_mu >= 0):
            raise ConfigurationError(
                f"lms_mu must be finite and >= 0, got {self.lms_mu}")
        if self.source not in ("random", "sine"):
            raise ConfigurationError(f"unknown source {self.source!r}")
        if self.source == "sine" and self.n_bits % _PCM_BITS:
            raise ConfigurationError(
                f"sine source: n_bits {self.n_bits} is not a multiple of 8")
        if not self.snr_grid_db:
            raise ConfigurationError("empty SNR grid")
        for s in self.snr_grid_db:
            if not math.isfinite(s):
                raise ConfigurationError("SNR grid values must be finite")

    @property
    def code_rate(self):
        return 0.5 if self.coding == "cc_k7" else 1.0

    @property
    def step_size(self):
        """lms_mu, or the receiver's default if unset (None for the genie)."""
        default = _RECEIVERS[self.receiver_mode].default_mu
        return self.lms_mu if self.lms_mu > 0 else default


def _check_training_span(cfg):
    """Reject a pre-FFT filter longer than the training it learns from."""
    span = cfg.training_symbols * default_grid().symbol_len
    if cfg.lms_taps > span:
        raise ConfigurationError(
            f"lms_taps {cfg.lms_taps} exceeds the pre-FFT training span "
            f"of {span} samples")


@dataclass(frozen=True)
class BerPoint:
    modulation: str
    channel: str
    coding: str
    receiver_mode: str
    snr_db: float
    ebn0_db: float
    bits: int
    errors: int
    seed: int

    @property
    def ber(self):
        return self.errors / self.bits


def _names(value):
    return tuple(m.strip().lower() for m in value.split(",") if m.strip())


# the parser of each config key that sets a SimConfig field ("modulation"
# sets modulations); the snr_*_db keys, with their defaults, set snr_grid_db
_FIELD_PARSERS = {
    "modulation": _names, "channel": str.lower, "coding": str.lower,
    "receiver_mode": str.lower, "n_bits": int, "seed": int, "lms_taps": int,
    "training_symbols": int, "k_factor": float, "doppler_hz": float,
    "lms_mu": float, "source": str.lower,
}
_SNR_DEFAULTS = {"snr_start_db": 0.0, "snr_stop_db": 50.0, "snr_step_db": 2.0}
_CONFIG_KEYS = _FIELD_PARSERS.keys() | _SNR_DEFAULTS.keys()


def parse_config(text):
    """Parse flat 'key = value' lines ('#' comments) into a SimConfig."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigurationError(f"line {lineno}: key {key!r} given twice")
        raw[key] = value

    def parsed(key, parse):
        try:
            return parse(raw[key])
        except ValueError:
            raise ConfigurationError(
                f"{key}: cannot read {raw[key]!r} as {parse.__name__}") from None

    kwargs = {("modulations" if key == "modulation" else key): parsed(key, parse)
              for key, parse in _FIELD_PARSERS.items() if key in raw}
    bounds = {key: parsed(key, float) if key in raw else default
              for key, default in _SNR_DEFAULTS.items()}
    for key, value in bounds.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{key} must be finite, got {value}")
    start, stop, step = bounds.values()
    if step <= 0:
        raise ConfigurationError("snr_step_db must be > 0")
    grid = []
    snr = start
    while snr <= stop + 1e-9:
        # counted here, not from (stop - start) / step: the 1e-9 tolerance
        # and a step below the spacing of doubles near snr would let the
        # loop run far past that ratio, or forever
        if len(grid) == _MAX_SNR_POINTS:
            raise ConfigurationError(
                f"SNR grid longer than {_MAX_SNR_POINTS} points: "
                f"snr_start_db {start:g}, snr_stop_db {stop:g}, "
                f"snr_step_db {step:g}")
        grid.append(round(snr, 9))
        snr += step
    if not grid:
        raise ConfigurationError(
            f"empty SNR grid: snr_start_db {start:g} > snr_stop_db {stop:g}")
    kwargs["snr_grid_db"] = tuple(grid)
    return SimConfig(**kwargs)


def load_config(path):
    return parse_config(_read_text(path))


def _read_text(path):
    """A file's text; ConfigurationError naming it if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None


def generate_source(n_bits):
    """1 kHz unit sine sampled at 4 kHz, 8-bit two's-complement PCM, MSB first."""
    if n_bits % _PCM_BITS != 0:
        raise ConfigurationError(f"n_bits must be a multiple of 8, got {n_bits}")
    n_bytes = n_bits // _PCM_BITS
    n = np.arange(n_bytes)
    samples = np.sin(2 * np.pi * _SINE_HZ / _SAMPLE_HZ * n)
    pcm = np.clip(np.rint(samples * 127), -128, 127).astype(np.int64)
    codes = (pcm & 0xFF).astype(np.uint8)
    return np.unpackbits(codes.reshape(-1, 1), axis=1).ravel()


def ebn0_from_esn0(esn0_db, bits_per_symbol, code_rate):
    """Per-bit SNR from per-symbol SNR: subtract 10 log10(k * r)."""
    if bits_per_symbol < 1:
        raise ConfigurationError("bits_per_symbol must be >= 1")
    if not 0 < code_rate <= 1:
        raise ConfigurationError("code_rate must be in (0, 1]")
    return esn0_db - 10.0 * math.log10(bits_per_symbol * code_rate)


def _known_symbols(rng, n_frames, width, spec):
    """(n_frames, width) symbols of spec from random bits drawn from rng."""
    bits = rng.bits(n_frames * width * spec.bits_per_symbol)
    return map_bits(bits, spec).reshape(n_frames, width)


def _transmit(payload, n_train, known_pilots, spec, grid, rng):
    """The transmitter: n_train known training frames drawn from rng, then
    the payload frames, each with a pilot comb of ones (with known_pilots,
    of known symbols drawn next), as one sample stream: (flat, pilots)."""
    frames = np.vstack(
        [_known_symbols(rng, n_train, payload.shape[1], spec), payload])
    shape = (len(frames), len(grid.pilot_bins))
    pilots = (_known_symbols(rng, *shape, spec) if known_pilots
              else np.ones(shape, dtype=np.complex128))
    return assemble(frames, pilots, grid).ravel(), pilots


def _through_channel(cfg, flat, snr_db, grid, rng):
    """Pass the transmitted samples through cfg.channel, then add AWGN.

    snr_db is realized as Es/N0 per active subcarrier: the time-domain noise
    is scaled by the FFT-size/active duty factor.  Returns ``(rx, taps)``
    with the true taps: the static ones, the unit tap on AWGN, or per frame
    the mean of the Rician trajectories (n_frames, n_taps), so that the
    (n_taps, n_samples) trajectories do not outlive this stage.
    """
    if cfg.channel == "awgn":
        rx, taps = flat, np.ones(1, dtype=np.complex128)
    elif cfg.channel == "static":
        rx, taps = static_multipath(flat, UNIT_TAPS), UNIT_TAPS
    else:
        chan = ChannelConfig(cfg.channel, cfg.k_factor, cfg.doppler_hz)
        realization = rician_taps(chan, flat.size, rng)
        rx, traj = apply_fading(flat, realization), realization.tap_trajectories
        taps = traj.reshape(len(traj), -1, grid.symbol_len).mean(axis=2).T
    signal_power = float(np.mean(np.abs(flat) ** 2))
    duty = grid.fft_size / grid.n_active
    return add_awgn(rx, snr_db, signal_power * duty, rng), taps


def _known_channel_zf(cfg, rx, flat, pilots, taps, n_train, grid):
    """Genie one-tap zero forcing by the true response of each frame."""
    data_rx, _ = disassemble(rx.reshape(len(pilots), -1), grid)
    return equalize_one_tap(data_rx, fft(taps, grid.fft_size)[..., grid.data_bins])


def _pilot_fd_lms(cfg, rx, flat, pilots, taps, n_train, grid):
    """One-tap equalization by the LMS-tracked, interpolated pilot response."""
    data_rx, pilot_rx = disassemble(rx.reshape(len(pilots), -1), grid)
    h = PilotLmsEstimator(grid, cfg.step_size).update(pilot_rx, pilots)
    return equalize_one_tap(data_rx[n_train:], h[n_train:])


def _pre_fft_lms(cfg, rx, flat, pilots, taps, n_train, grid):
    """Time-domain LMS trained on the leading known frames, then the FFT."""
    training_time = flat[: n_train * grid.symbol_len]
    rx, _ = equalize_pre_fft(rx, training_time, cfg.lms_taps, cfg.step_size)
    data_rx, _ = disassemble(rx.reshape(len(pilots), -1), grid)
    return data_rx[n_train:]


@dataclass(frozen=True)
class _Receiver:
    """A receiver as run_point sees it.  equalize(cfg, rx, flat, pilots, taps,
    n_train, grid) returns the data-bin values; it calls the chain's stages
    through this module's globals, so that a tracer's wrappers see them."""
    trains: bool  # leads with cfg.training_symbols known frames
    time_domain: bool  # equalizes samples: known pilots, a training span
    default_mu: float | None  # the step size when lms_mu is unset
    equalize: object


_RECEIVERS = {
    "known_channel_zf": _Receiver(False, False, None, _known_channel_zf),
    "pilot_fd_lms": _Receiver(True, False, 0.5, _pilot_fd_lms),
    "pre_fft_lms": _Receiver(True, True, 3e-3, _pre_fft_lms),
}


def run_point(cfg, snr_db, modulation=None, stream_id=0):
    """Simulate one (SNR, modulation) point and return its BerPoint.

    Source, encode, map, transmit, channel, receiver and hard demap, then
    one Viterbi decode when cfg.coding is cc_k7, then the bit comparison.
    """
    modulation = modulation or cfg.modulations[0]
    spec = constellation(modulation)
    grid = default_grid()
    rng = RngStream(cfg.seed, stream_id)

    info_bits = (generate_source(cfg.n_bits) if cfg.source == "sine"
                 else rng.bits(cfg.n_bits))
    coded = conv_encode(info_bits) if cfg.coding == "cc_k7" else info_bits
    k = spec.bits_per_symbol
    tx_bits = np.concatenate([coded, np.zeros(-len(coded) % k, dtype=np.uint8)])
    symbols = map_bits(tx_bits, spec)
    n_data = len(grid.data_bins)
    payload = np.concatenate(
        [symbols, np.zeros(-len(symbols) % n_data, dtype=np.complex128)]
    ).reshape(-1, n_data)

    receiver = _RECEIVERS[cfg.receiver_mode]
    n_train = cfg.training_symbols if receiver.trains else 0
    # the time-domain equalizer never reads the pilot comb; known random
    # symbols there keep the regressor free of a deterministic component
    flat, pilots = _transmit(payload, n_train, receiver.time_domain, spec,
                             grid, rng)
    rx, taps = _through_channel(cfg, flat, snr_db, grid, rng)
    data_vals = receiver.equalize(cfg, rx, flat, pilots, taps, n_train, grid)

    # the pad symbols and pad bits carry no information
    hard_bits = demap_hard(data_vals.ravel()[: len(symbols)], spec)[: len(coded)]
    rx_bits = viterbi_decode(hard_bits) if cfg.coding == "cc_k7" else hard_bits
    return BerPoint(
        modulation=modulation, channel=cfg.channel, coding=cfg.coding,
        receiver_mode=cfg.receiver_mode, snr_db=float(snr_db),
        ebn0_db=ebn0_from_esn0(snr_db, k, cfg.code_rate),
        bits=len(info_bits),
        errors=int(np.count_nonzero(rx_bits != info_bits)), seed=cfg.seed,
    )


def run_sweep(cfg, csv_path=None):
    """One BerPoint per (modulation, SNR); optionally write the CSV artifact.

    Each point gets the RNG stream matching its index in the ordered
    (modulation, snr) product, so adding points never perturbs existing ones.
    """
    jobs = [(mod, snr) for mod in cfg.modulations for snr in cfg.snr_grid_db]
    points = [run_point(cfg, snr, modulation=mod, stream_id=i)
              for i, (mod, snr) in enumerate(jobs)]
    if csv_path is not None:
        write_csv(points, csv_path)
    return points


def run_lms_trace(cfg):
    """Run the pre-FFT LMS over training frames.

    Returns ``(trace, mu, initial_mse)``: the LMS trace, the chosen step
    size, and the error power of the unadapted (zero-weight) equalizer.

    When lms_mu is set it is the one candidate step size; when unset, each
    of _MU_CANDIDATES is.  Each candidate trains once, and the trace with the
    lowest MSE over the last MSE_WINDOW steps is kept (the first one on a
    tie; a non-finite MSE ranks last).  A diverging candidate is skipped; if
    every one diverges, the error names the first one's update and step size.
    """
    _check_training_span(cfg)
    spec = constellation(cfg.modulations[0])
    grid = default_grid()
    rng = RngStream(cfg.seed, 0)
    no_payload = np.empty((0, len(grid.data_bins)), dtype=np.complex128)
    flat, _ = _transmit(no_payload, cfg.training_symbols, True, spec, grid, rng)
    rx, _ = _through_channel(cfg, flat, cfg.snr_grid_db[0], grid, rng)
    # error power of the unadapted (zero-weight) equalizer, i.e. the
    # reference level the converged MSE is compared against
    initial_mse = float(np.mean(np.abs(flat) ** 2))

    best = first_divergence = None
    for mu in (cfg.lms_mu,) if cfg.lms_mu > 0 else _MU_CANDIDATES:
        try:
            _, trace = equalize_pre_fft(rx, flat, cfg.lms_taps, mu)
        except DivergenceError as exc:
            first_divergence = first_divergence or exc
            continue
        mse = float(trace.squared_errors[-MSE_WINDOW:].mean())
        mse = mse if math.isfinite(mse) else math.inf
        if best is None or mse < best[0]:
            best = mse, mu, trace
    if best is None:
        detail = "" if cfg.lms_mu > 0 else "every candidate step size diverged"
        raise DivergenceError(first_divergence.step,
                              first_divergence.step_size, detail=detail)
    _, mu, trace = best
    return trace, mu, initial_mse


def _fmt(x):
    return f"{x:.6g}"


def write_csv(points, path):
    lines = [CSV_HEADER]
    for p in points:
        lines.append(",".join([
            p.modulation, p.channel, p.coding, p.receiver_mode,
            _fmt(p.snr_db), _fmt(p.ebn0_db), str(p.bits), str(p.errors),
            _fmt(p.ber), str(p.seed),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read a points CSV; a malformed row raises ConfigurationError naming
    the file and line."""
    lines = [(n, line.strip())
             for n, line in enumerate(_read_text(path).split("\n"), 1)
             if line.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ConfigurationError(f"{path}: missing or wrong CSV header")
    n_fields = CSV_HEADER.count(",") + 1
    points = []
    for lineno, line in lines[1:]:
        where = f"{path} line {lineno}"
        f = line.split(",")
        if len(f) != n_fields:
            raise ConfigurationError(
                f"{where}: expected {n_fields} fields, got {len(f)}")
        try:
            p = BerPoint(
                modulation=f[0], channel=f[1], coding=f[2], receiver_mode=f[3],
                snr_db=float(f[4]), ebn0_db=float(f[5]), bits=int(f[6]),
                errors=int(f[7]), seed=int(f[9]),
            )
        except ValueError as exc:
            raise ConfigurationError(f"{where}: {exc}") from None
        if not (math.isfinite(p.snr_db) and math.isfinite(p.ebn0_db)):
            raise ConfigurationError(
                f"{where}: snr_db and ebn0_db must be finite")
        if p.bits < 1:
            raise ConfigurationError(
                f"{where}: bits must be >= 1, got {p.bits}")
        if not 0 <= p.errors <= p.bits:
            raise ConfigurationError(
                f"{where}: errors must be in 0..{p.bits}, got {p.errors}")
        points.append(p)
    return points


# ---------------------------------------------------------------------------
# SVG plot output (hand-rolled so artifacts are byte-deterministic)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50
# a CSV read back by `sim plot` may put any text in the legend
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def emit_plot(points, path):
    """Semilog BER-vs-Eb/N0 plot, one series per (modulation, channel, coding).

    Zero-error points are drawn at the floor 1 / (2 * bits) with a distinct
    diamond marker.
    """
    if not points:
        raise ConfigurationError("no points to plot")
    series = {}
    for p in points:
        series.setdefault((p.modulation, p.channel, p.coding), []).append(p)
    for pts in series.values():
        pts.sort(key=lambda p: p.ebn0_db)

    def floor_of(p):
        return 1.0 / (2.0 * p.bits)

    xs = [p.ebn0_db for p in points]
    ys = [p.ber if p.errors else floor_of(p) for p in points]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = 10.0 ** math.floor(math.log10(min(ys)))
    y_hi = 10.0 ** math.ceil(math.log10(max(max(ys), 1e-12)))
    if y_hi <= y_lo:
        y_hi = y_lo * 10.0

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        ly, l0, l1 = math.log10(y), math.log10(y_lo), math.log10(y_hi)
        return _H - _MB - (ly - l0) / (l1 - l0) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]
    # decade gridlines and y labels
    decade = int(math.log10(y_lo))
    while decade <= math.log10(y_hi) + 1e-9:
        y = 10.0 ** decade
        yy = py(y)
        out.append(
            f'<line x1="{_ML}" y1="{yy:.2f}" x2="{_W - _MR}" y2="{yy:.2f}" '
            'stroke="#cccccc" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">1e{decade}</text>'
        )
        decade += 1
    # axes
    out.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>'
    )
    n_ticks = 6
    for i in range(n_ticks):
        x = x_lo + (x_hi - x_lo) * i / (n_ticks - 1)
        xx = px(x)
        out.append(
            f'<line x1="{xx:.2f}" y1="{_H - _MB}" x2="{xx:.2f}" '
            f'y2="{_H - _MB + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{xx:.2f}" y="{_H - _MB + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{x:.3g}</text>'
        )
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 12}" '
        'text-anchor="middle" font-size="13" font-family="sans-serif">'
        'Eb/N0 (dB)</text>'
    )
    out.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.2f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.2f})">BER</text>'
    )

    for idx, (key, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = [(px(p.ebn0_db), py(p.ber if p.errors else floor_of(p)))
                  for p in pts]
        path_d = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        out.append(
            f'<polyline points="{path_d}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        for p, (x, y) in zip(pts, coords):
            if p.errors:
                out.append(
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>'
                )
            else:
                out.append(
                    f'<path d="M {x:.2f} {y - 4:.2f} L {x + 4:.2f} {y:.2f} '
                    f'L {x:.2f} {y + 4:.2f} L {x - 4:.2f} {y:.2f} Z" '
                    f'fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
        label = "/".join(key).translate(_XML_ESCAPES)
        out.append(
            f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 16 * idx}" '
            f'text-anchor="end" font-size="12" font-family="sans-serif" '
            f'fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
