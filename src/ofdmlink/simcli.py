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
from dataclasses import dataclass

import numpy as np

from .channel import (DEFAULT_TAPS, ChannelConfig, add_awgn, apply_fading,
                      rician_taps, static_multipath)
from .equalizer import PilotLmsEstimator, equalize_pre_fft, sweep_step_size
from .errors import ConfigurationError
from .fec import conv_encode, viterbi_decode
from .modem import constellation, demap_hard, map_bits
from .numerics import RngStream, fft
from .ofdm import assemble, default_grid, disassemble, equalize_one_tap

__all__ = [
    "SimConfig",
    "BerPoint",
    "parse_config",
    "load_config",
    "generate_source",
    "reconstruct_sine",
    "ebn0_from_esn0",
    "run_point",
    "run_sweep",
    "run_lms_trace",
    "write_csv",
    "read_csv",
    "emit_plot",
    "CSV_HEADER",
]

CSV_HEADER = "modulation,channel,coding,receiver_mode,snr_db,ebn0_db,bits,errors,ber,seed"

_PCM_BITS = 8
_SINE_HZ = 1000.0
_SAMPLE_HZ = 4000.0

# step sizes that behave well for each adaptive receiver, used when the
# config leaves lms_mu unset
_DEFAULT_MU = {"pilot_fd_lms": 0.5, "pre_fft_lms": 3e-3}

# the longest SNR grid a config file may ask for
_MAX_SNR_POINTS = 10_000
# the largest point a config may ask for: a coded Rician pre-FFT LMS point,
# the heaviest chain, peaks near 0.45 GB per 10^6 bits
_MAX_N_BITS = 4_000_000
# each training symbol adds 320 per-sample LMS steps to every pre-FFT point
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
    normalize_taps: bool = True
    source: str = "random"

    def __post_init__(self):
        if self.channel not in ("awgn", "static", "rician"):
            raise ConfigurationError(f"unknown channel {self.channel!r}")
        if self.coding not in ("none", "cc_k7"):
            raise ConfigurationError(f"unknown coding {self.coding!r}")
        if self.receiver_mode not in ("pre_fft_lms", "pilot_fd_lms",
                                      "known_channel_zf"):
            raise ConfigurationError(
                f"unknown receiver_mode {self.receiver_mode!r}")
        if not self.modulations:
            raise ConfigurationError("no modulation given")
        for name in self.modulations:
            constellation(name)
        # a pre-FFT equalizer longer than one OFDM symbol has no use
        symbol_len = default_grid().symbol_len
        for name, lo, hi in (("n_bits", 1, _MAX_N_BITS),
                             ("lms_taps", 1, symbol_len),
                             ("training_symbols", 0, _MAX_TRAINING_SYMBOLS)):
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ConfigurationError(
                    f"{name} must be in {lo}..{hi}, got {value}")
        span = self.training_symbols * symbol_len
        if self.receiver_mode == "pre_fft_lms" and self.lms_taps > span:
            raise ConfigurationError(
                f"lms_taps {self.lms_taps} exceeds the pre-FFT training span "
                f"of {span} samples")
        for name in ("k_factor", "doppler_hz", "lms_mu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {value}")
        if not self.snr_grid_db:
            raise ConfigurationError("empty SNR grid")
        for s in self.snr_grid_db:
            if not math.isfinite(s):
                raise ConfigurationError("SNR grid values must be finite")

    @property
    def code_rate(self):
        return 0.5 if self.coding == "cc_k7" else 1.0

    def step_size_for(self, mode):
        return self.lms_mu if self.lms_mu > 0 else _DEFAULT_MU[mode]


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


_CONFIG_KEYS = {
    "modulation", "channel", "coding", "receiver_mode", "snr_start_db",
    "snr_stop_db", "snr_step_db", "n_bits", "seed", "k_factor", "doppler_hz",
    "lms_taps", "lms_mu", "training_symbols", "normalize_taps",
}


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
        raw[key] = value

    def number(key, cast, default=None):
        try:
            return cast(raw[key]) if key in raw else default
        except ValueError:
            raise ConfigurationError(
                f"{key}: cannot read {raw[key]!r} as {cast.__name__}") from None

    kwargs = {}
    if "modulation" in raw:
        kwargs["modulations"] = tuple(
            m.strip().lower() for m in raw["modulation"].split(",") if m.strip()
        )
    for key in ("channel", "coding", "receiver_mode"):
        if key in raw:
            kwargs[key] = raw[key].lower()
    for key, cast in (("n_bits", int), ("seed", int), ("lms_taps", int),
                      ("training_symbols", int), ("k_factor", float),
                      ("doppler_hz", float), ("lms_mu", float)):
        if key in raw:
            kwargs[key] = number(key, cast)
    if "normalize_taps" in raw:
        value = raw["normalize_taps"].lower()
        if value not in ("true", "false"):
            raise ConfigurationError("normalize_taps must be true or false")
        kwargs["normalize_taps"] = value == "true"
    start = number("snr_start_db", float, 0.0)
    stop = number("snr_stop_db", float, 50.0)
    step = number("snr_step_db", float, 2.0)
    for key, value in (("snr_start_db", start), ("snr_stop_db", stop),
                       ("snr_step_db", step)):
        if not math.isfinite(value):
            raise ConfigurationError(f"{key} must be finite, got {value}")
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


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


def reconstruct_sine(bits):
    """Invert generate_source: bits back to the quantized waveform."""
    bits = np.asarray(bits, dtype=np.uint8)
    if len(bits) % _PCM_BITS != 0:
        raise ConfigurationError("bit count must be a multiple of 8")
    codes = np.packbits(bits.reshape(-1, _PCM_BITS), axis=1).ravel()
    pcm = codes.astype(np.int64)
    pcm[pcm >= 128] -= 256
    return pcm / 127.0


def ebn0_from_esn0(esn0_db, bits_per_symbol, code_rate):
    """Per-bit SNR from per-symbol SNR: subtract 10 log10(k * r)."""
    if bits_per_symbol < 1:
        raise ConfigurationError("bits_per_symbol must be >= 1")
    if not 0 < code_rate <= 1:
        raise ConfigurationError("code_rate must be in (0, 1]")
    return esn0_db - 10.0 * math.log10(bits_per_symbol * code_rate)


def _source_bits(cfg, rng):
    if cfg.source == "sine":
        return generate_source(cfg.n_bits)
    return rng.bits(cfg.n_bits)


def _channel_response(taps, grid):
    """Frequency response on every FFT bin from taps of shape (..., n_taps)."""
    taps = np.asarray(taps)
    padded = np.zeros(taps.shape[:-1] + (grid.fft_size,), dtype=np.complex128)
    padded[..., : taps.shape[-1]] = taps
    return fft(padded)


def _through_channel(cfg, flat, snr_db, grid, rng):
    """Pass the transmitted samples through cfg.channel, then add AWGN.

    snr_db is realized as Es/N0 per active subcarrier: the time-domain noise
    is scaled by the FFT-size/active duty factor.  Returns ``(rx, taps)``:
    the static taps (n_taps,), the single unit tap on AWGN, or the per-sample
    Rician trajectories (n_taps, n_samples).
    """
    chan = ChannelConfig(kind=cfg.channel, taps0=DEFAULT_TAPS,
                         k_factor=cfg.k_factor, doppler_hz=cfg.doppler_hz,
                         normalize=cfg.normalize_taps)
    if cfg.channel == "awgn":
        rx, taps = flat, np.ones(1, dtype=np.complex128)
    elif cfg.channel == "static":
        rx, taps = static_multipath(flat, chan.taps0), chan.taps0
    else:
        realization = rician_taps(chan, flat.size, rng)
        rx, taps = apply_fading(flat, realization), realization.tap_trajectories
    signal_power = float(np.mean(np.abs(flat) ** 2))
    duty = grid.fft_size / grid.n_active
    return add_awgn(rx, snr_db, signal_power * duty, rng), taps


def run_point(cfg, snr_db, modulation=None, stream_id=0):
    """Simulate one (SNR, modulation) point and return its BerPoint."""
    modulation = modulation or cfg.modulations[0]
    spec = constellation(modulation)
    grid = default_grid()
    rng = RngStream(cfg.seed, stream_id)

    info_bits = _source_bits(cfg, rng)
    coded = conv_encode(info_bits) if cfg.coding == "cc_k7" else info_bits
    k = spec.bits_per_symbol
    pad_bits = (-len(coded)) % k
    tx_bits = np.concatenate([coded, np.zeros(pad_bits, dtype=np.uint8)])
    symbols = map_bits(tx_bits, spec)

    n_data = len(grid.data_bins)
    pad_syms = (-len(symbols)) % n_data
    payload = np.concatenate(
        [symbols, np.zeros(pad_syms, dtype=np.complex128)]
    ).reshape(-1, n_data)

    adaptive = cfg.receiver_mode in ("pre_fft_lms", "pilot_fd_lms")
    n_train = cfg.training_symbols if adaptive else 0
    if n_train:
        train_bits = rng.bits(n_train * n_data * k)
        train_frames = map_bits(train_bits, spec).reshape(n_train, n_data)
        frames = np.vstack([train_frames, payload])
    else:
        frames = payload
    n_frames = frames.shape[0]
    n_pilot = len(grid.pilot_bins)
    if cfg.receiver_mode == "pre_fft_lms":
        # the time-domain equalizer never reads the pilot comb; known random
        # symbols there keep the regressor free of a deterministic component
        pilots = map_bits(rng.bits(n_frames * n_pilot * k), spec)
        pilots = pilots.reshape(n_frames, n_pilot)
    else:
        pilots = np.ones((n_frames, n_pilot), dtype=np.complex128)
    flat = assemble(frames, pilots, grid).ravel()

    rx, taps = _through_channel(cfg, flat, snr_db, grid, rng)
    if cfg.receiver_mode == "pre_fft_lms":
        training_time = flat[: n_train * grid.symbol_len]
        mu = cfg.step_size_for("pre_fft_lms")
        rx, _ = equalize_pre_fft(rx, training_time, cfg.lms_taps, mu)
    data_rx, pilot_rx = disassemble(rx.reshape(n_frames, grid.symbol_len), grid)
    data_vals = data_rx[n_train:]
    if cfg.receiver_mode == "pilot_fd_lms":
        est = PilotLmsEstimator(grid, cfg.step_size_for("pilot_fd_lms"))
        h_active = est.update(pilot_rx, pilots)
        data_vals = equalize_one_tap(
            data_vals, h_active[n_train:, grid.data_positions])
    elif cfg.receiver_mode == "known_channel_zf":
        if taps.ndim == 2:  # per-frame mean of the Rician trajectories
            taps = taps.reshape(len(taps), n_frames, grid.symbol_len)
            taps = taps.mean(axis=2).T
        data_vals = equalize_one_tap(
            data_vals, _channel_response(taps, grid)[..., grid.data_bins])

    rx_symbols = data_vals.ravel()
    if pad_syms:
        rx_symbols = rx_symbols[:-pad_syms]
    rx_bits = demap_hard(rx_symbols, spec)
    if pad_bits:
        rx_bits = rx_bits[:-pad_bits]
    if cfg.coding == "cc_k7":
        rx_bits = viterbi_decode(rx_bits)
    errors = int(np.count_nonzero(rx_bits != info_bits))

    return BerPoint(
        modulation=modulation, channel=cfg.channel, coding=cfg.coding,
        receiver_mode=cfg.receiver_mode, snr_db=float(snr_db),
        ebn0_db=ebn0_from_esn0(snr_db, k, cfg.code_rate),
        bits=len(info_bits), errors=errors, seed=cfg.seed,
    )


def run_sweep(cfg, csv_path=None):
    """One BerPoint per (modulation, SNR); optionally write the CSV artifact.

    Each point gets the RNG stream matching its index in the ordered
    (modulation, snr) product, so adding points never perturbs existing ones.
    """
    jobs = [(mod, snr) for mod in cfg.modulations for snr in cfg.snr_grid_db]
    points = [
        run_point(cfg, snr, modulation=mod, stream_id=i)
        for i, (mod, snr) in enumerate(jobs)
    ]
    if csv_path is not None:
        write_csv(points, csv_path)
    return points


def run_lms_trace(cfg):
    """Run the pre-FFT LMS over training frames.

    Returns ``(trace, mu, initial_mse)``: the LMS trace, the chosen step
    size, and the error power of the unadapted (zero-weight) equalizer.

    When lms_mu is unset the step size is picked by a sweep minimizing the
    final 100-step training MSE.
    """
    spec = constellation(cfg.modulations[0])
    grid = default_grid()
    rng = RngStream(cfg.seed, 0)
    n_data = len(grid.data_bins)
    k = spec.bits_per_symbol
    n_train = cfg.training_symbols
    frames = map_bits(rng.bits(n_train * n_data * k), spec).reshape(n_train, n_data)
    n_pilot = len(grid.pilot_bins)
    pilots = map_bits(rng.bits(n_train * n_pilot * k), spec).reshape(n_train, n_pilot)
    flat = assemble(frames, pilots, grid).ravel()
    rx, _ = _through_channel(cfg, flat, cfg.snr_grid_db[0], grid, rng)

    def final_mse(mu):
        _, trace = equalize_pre_fft(rx, flat, cfg.lms_taps, mu)
        return float(trace.squared_errors[-100:].mean())

    if cfg.lms_mu > 0:
        mu = cfg.lms_mu
    else:
        mu, _ = sweep_step_size(final_mse)
    _, trace = equalize_pre_fft(rx, flat, cfg.lms_taps, mu)
    # error power of the unadapted (zero-weight) equalizer, i.e. the
    # reference level the converged MSE is compared against
    initial_mse = float(np.mean(np.abs(flat) ** 2))
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
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigurationError(f"{path}: missing or wrong CSV header")
    points = []
    for line in lines[1:]:
        f = line.split(",")
        points.append(BerPoint(
            modulation=f[0], channel=f[1], coding=f[2], receiver_mode=f[3],
            snr_db=float(f[4]), ebn0_db=float(f[5]), bits=int(f[6]),
            errors=int(f[7]), seed=int(f[9]),
        ))
    return points


# ---------------------------------------------------------------------------
# SVG plot output (hand-rolled so artifacts are byte-deterministic)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50


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
        label = "/".join(key)
        out.append(
            f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 16 * idx}" '
            f'text-anchor="end" font-size="12" font-family="sans-serif" '
            f'fill="{color}">{label}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
