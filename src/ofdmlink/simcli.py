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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft

from .channel import (UNIT_TAPS, ChannelConfig, add_awgn, apply_fading,
                      rician_taps, static_multipath)
from .equalizer import (LmsTrace, PilotLmsEstimator, equalize_pre_fft,
                        train_pre_fft)
from .errors import (ConfigurationError, DivergenceError, check_integer,
                     check_real)
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
# the largest point a config may ask for: a coded Rician QPSK point, the
# heaviest chain, peaks near 0.17 GB per 10^6 bits (in its Rician taps); a
# sweep runs its points one at a time, so it peaks no higher than its
# largest point
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
        # a bare name is a str, itself a sequence of one-letter names
        if (isinstance(self.modulations, str)
                or not isinstance(self.modulations, Sequence)):
            raise ConfigurationError(
                "modulations must be a sequence of names, "
                f"got {type(self.modulations).__name__}")
        if not self.modulations:
            raise ConfigurationError("no modulation given")
        schemes = [constellation(name).name for name in self.modulations]
        for i, scheme in enumerate(schemes):
            if scheme in schemes[:i]:
                raise ConfigurationError(f"modulation {scheme!r} given twice")
        # a pre-FFT equalizer longer than one OFDM symbol has no use, and
        # RngStream takes a seed of 64 bits
        symbol_len = default_grid().symbol_len
        check_integer("n_bits", self.n_bits, 1, _MAX_N_BITS)
        check_integer("seed", self.seed, 0, 2**64 - 1)
        check_integer("lms_taps", self.lms_taps, 1, symbol_len)
        check_integer("training_symbols", self.training_symbols, 0,
                      _MAX_TRAINING_SYMBOLS)
        if _RECEIVERS[self.receiver_mode].time_domain:
            _check_training_span(self)
        check_real("lms_mu", self.lms_mu, low=0)
        if self.source not in ("random", "sine"):
            raise ConfigurationError(f"unknown source {self.source!r}")
        if self.source == "sine" and self.n_bits % _PCM_BITS:
            raise ConfigurationError(
                f"sine source: n_bits {self.n_bits} is not a multiple of 8")
        if not isinstance(self.snr_grid_db, Sequence):
            raise ConfigurationError(
                "snr_grid_db must be a sequence of numbers, "
                f"got {type(self.snr_grid_db).__name__}")
        if not self.snr_grid_db:
            raise ConfigurationError("empty SNR grid")
        for s in self.snr_grid_db:
            check_real("SNR grid value", s)

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
        check_real(key, value)
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


def _transmit(bits, n_train, known_pilots, spec, grid, rng):
    """The transmitter: n_train known training frames drawn from rng, then
    the payload frames that bits are mapped onto, each with a pilot comb of
    ones (with known_pilots, of known symbols drawn next), as one sample
    stream: (flat, pilots).  Zero bits fill the last symbol and zero
    symbols the last frame.  The symbols are mapped straight into the
    frames, which live only until assemble has built the stream."""
    k, n_data = spec.bits_per_symbol, len(grid.data_bins)
    n_symbols = -(-len(bits) // k)
    frames = np.zeros((n_train + -(-n_symbols // n_data), n_data),
                      dtype=np.complex128)
    frames[:n_train] = _known_symbols(rng, n_train, n_data, spec)
    frames[n_train:].reshape(-1)[:n_symbols] = map_bits(
        np.concatenate([bits, np.zeros(-len(bits) % k, dtype=np.uint8)]), spec)
    shape = (len(frames), len(grid.pilot_bins))
    pilots = (_known_symbols(rng, *shape, spec) if known_pilots
              else np.ones(shape, dtype=np.complex128))
    return assemble(frames, pilots, grid).ravel(), pilots


def _through_channel(cfg, flat, grid, rng):
    """Pass the transmitted samples through cfg.channel, without the noise.

    Returns ``(rx, taps, noise_ref)``.  rx is the buffer every later stage
    works in: flat itself on AWGN, and over static multipath flat filtered
    in place, so a caller that reads the transmitted samples after the
    channel copies them first; on Rician fading a view of the trajectory
    buffer that ``apply_fading`` sums into.  taps are the true taps: the
    static ones, the unit tap on AWGN, or per frame the mean of the Rician
    trajectories (n_frames, n_taps), taken before the fading overwrites
    them.  noise_ref is the power that add_awgn scales the noise against:
    snr_db is realized as Es/N0 per active subcarrier, so it is the
    transmitted power, measured before the channel, times the
    FFT-size/active duty factor.
    """
    signal_power = float(np.mean(np.abs(flat) ** 2))
    if cfg.channel == "awgn":
        rx, taps = flat, np.ones(1, dtype=np.complex128)
    elif cfg.channel == "static":
        rx, taps = static_multipath(flat, UNIT_TAPS), UNIT_TAPS
    else:
        chan = ChannelConfig(cfg.channel, cfg.k_factor, cfg.doppler_hz)
        realization = rician_taps(chan, flat.size, rng)
        traj = realization.tap_trajectories
        taps = traj.reshape(len(traj), -1, grid.symbol_len).mean(axis=2).T
        rx = apply_fading(flat, realization)
    duty = grid.fft_size / grid.n_active
    return rx, taps, signal_power * duty


def _known_channel_zf(cfg, data_rx, pilot_rx, pilots, taps, n_train, grid):
    """Genie one-tap zero forcing by the true response of each frame."""
    return equalize_one_tap(data_rx, fft(taps, grid.fft_size)[..., grid.data_bins])


def _pilot_fd_lms(cfg, data_rx, pilot_rx, pilots, taps, n_train, grid):
    """One-tap equalization by the LMS-tracked, interpolated pilot response."""
    h = PilotLmsEstimator(grid, cfg.step_size).update(pilot_rx, pilots)
    return equalize_one_tap(data_rx[n_train:], h[n_train:])


def _pre_fft_lms(cfg, data_rx, pilot_rx, pilots, taps, n_train, grid):
    """The data frames, equalized ahead of the FFT (see run_point)."""
    return data_rx[n_train:]


@dataclass(frozen=True)
class _Receiver:
    """A receiver as run_point sees it.  A time-domain receiver has the
    samples equalized ahead of the FFT by equalize_pre_fft, trained on the
    leading known frames; then equalize(cfg, data_rx, pilot_rx, pilots,
    taps, n_train, grid) returns the data-bin values of the payload frames.
    It calls the chain's stages through this module's globals, so that a
    tracer's wrappers see them."""
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

    Source, encode, map, transmit, channel, noise, receiver and hard demap,
    then one Viterbi decode when cfg.coding is cc_k7, then the bit
    comparison.  Each full-size array is dropped as soon as the stages
    after it no longer need it, so the point's heap holds about one
    stage's arrays at a time.  The transmitted stream is the one working
    buffer of the samples on AWGN and static multipath, and the fading's
    output is on Rician fading: the channel, the noise, the pre-FFT
    equalizer and the FFT all run in place in it, and zero forcing divides
    the bins in place.
    """
    check_real("snr_db", snr_db)
    modulation = modulation or cfg.modulations[0]
    spec = constellation(modulation)
    grid = default_grid()
    rng = RngStream(cfg.seed, stream_id)
    receiver = _RECEIVERS[cfg.receiver_mode]
    n_train = cfg.training_symbols if receiver.trains else 0

    info_bits = (generate_source(cfg.n_bits) if cfg.source == "sine"
                 else rng.bits(cfg.n_bits))
    coded = conv_encode(info_bits) if cfg.coding == "cc_k7" else info_bits
    n_coded = len(coded)
    # the time-domain equalizer never reads the pilot comb; known random
    # symbols there keep the regressor free of a deterministic component
    flat, pilots = _transmit(coded, n_train, receiver.time_domain, spec,
                             grid, rng)
    training = flat[: n_train * grid.symbol_len].copy()
    rx, taps, noise_ref = _through_channel(cfg, flat, grid, rng)
    # the noise is the last draw; on Rician fading it is added once the
    # transmitted stream is dropped
    del coded, flat
    rx = add_awgn(rx, snr_db, noise_ref, rng)
    if receiver.time_domain:
        rx, _ = equalize_pre_fft(rx, training, cfg.lms_taps, cfg.step_size)
    data_rx, pilot_rx = disassemble(rx.reshape(len(pilots), -1), grid)
    del rx
    data_vals = receiver.equalize(cfg, data_rx, pilot_rx, pilots, taps,
                                  n_train, grid)
    del data_rx, pilot_rx

    # the pad symbols and pad bits carry no information
    n_symbols = -(-n_coded // spec.bits_per_symbol)
    hard_bits = demap_hard(data_vals.ravel()[:n_symbols], spec)[:n_coded]
    del data_vals
    rx_bits = viterbi_decode(hard_bits) if cfg.coding == "cc_k7" else hard_bits
    return BerPoint(
        modulation=modulation, channel=cfg.channel, coding=cfg.coding,
        receiver_mode=cfg.receiver_mode, snr_db=float(snr_db),
        ebn0_db=ebn0_from_esn0(snr_db, spec.bits_per_symbol, cfg.code_rate),
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
    """The pre-FFT LMS over training frames: returns ``(trace, mu,
    initial_mse)``, the LMS trace, the chosen step size, and the error power
    of the unadapted (zero-weight) equalizer.

    The candidates are lms_mu when set, else _MU_CANDIDATES, trained as the
    rows of one train_pre_fft call.  The row with the lowest MSE over the
    last MSE_WINDOW steps is kept (the first on a tie; a non-finite MSE ranks
    last), and a diverging one is skipped; if every row diverges, the error
    names the first one's update and step size.
    """
    _check_training_span(cfg)
    spec = constellation(cfg.modulations[0])
    grid = default_grid()
    rng = RngStream(cfg.seed, 0)
    no_payload = np.zeros(0, dtype=np.uint8)
    flat, _ = _transmit(no_payload, cfg.training_symbols, True, spec, grid, rng)
    # the channel may filter flat in place: the training reference is a copy
    training = flat.copy()
    rx, _, noise_ref = _through_channel(cfg, flat, grid, rng)
    rx = add_awgn(rx, cfg.snr_grid_db[0], noise_ref, rng)
    # error power of the unadapted (zero-weight) equalizer, i.e. the
    # reference level the converged MSE is compared against
    initial_mse = float(np.mean(np.abs(training) ** 2))

    mus = (cfg.lms_mu,) if cfg.lms_mu > 0 else _MU_CANDIDATES
    _, sq, weights, diverged = train_pre_fft(rx, training, cfg.lms_taps, mus)
    if diverged.all():
        detail = "" if cfg.lms_mu > 0 else "every candidate step size diverged"
        raise DivergenceError(int(diverged[0]), mus[0], detail=detail)
    rows = np.flatnonzero(diverged == 0)
    mse = sq[rows, -MSE_WINDOW:].mean(axis=1)
    best = rows[np.argmin(np.fmin(mse, np.inf))]  # a nan MSE ranks last
    return LmsTrace(sq[best], weights[best]), mus[best], initial_mse


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
    """Read a points CSV; a malformed row, or a ber that is not the row's
    errors / bits as write_csv prints it, raises ConfigurationError naming
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
            ber = float(f[8])
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
        # write_csv prints the ratio to 6 significant digits
        if ber != float(_fmt(p.ber)):
            raise ConfigurationError(
                f"{where}: ber must be errors / bits = {_fmt(p.ber)}, "
                f"got {f[8]}")
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


def _num(v):
    """A page position: an int as given, a computed float to 0.01."""
    return str(v) if isinstance(v, int) else f"{v:.2f}"


def _line(x1, y1, x2, y2, stroke="black"):
    return (f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" '
            f'y2="{_num(y2)}" stroke="{stroke}" stroke-width="1"/>')


def _text(x, y, body, anchor="middle", size=12, extra=""):
    return (f'<text x="{_num(x)}" y="{_num(y)}" text-anchor="{anchor}" '
            f'font-size="{size}" font-family="sans-serif"{extra}>{body}</text>')


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

    def y_of(p):
        return p.ber if p.errors else 1.0 / (2.0 * p.bits)

    xs = [p.ebn0_db for p in points]
    ys = [y_of(p) for p in points]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo = 10.0 ** math.floor(math.log10(min(ys)))
    y_hi = 10.0 ** math.ceil(math.log10(max(max(ys), 1e-12)))
    if y_hi <= y_lo:
        y_hi = y_lo * 10.0
    l0, l1 = math.log10(y_lo), math.log10(y_hi)

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (math.log10(y) - l0) / (l1 - l0) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    # decade gridlines and y labels, axes, x ticks, axis titles
    for decade in range(int(l0), math.floor(l1 + 1e-9) + 1):
        y = py(10.0 ** decade)
        out += [_line(_ML, y, _W - _MR, y, stroke="#cccccc"),
                _text(_ML - 8, y + 4, f"1e{decade}", anchor="end")]
    out += [_line(_ML, _MT, _ML, _H - _MB),
            _line(_ML, _H - _MB, _W - _MR, _H - _MB)]
    for i in range(6):
        x = x_lo + (x_hi - x_lo) * i / 5
        out += [_line(px(x), _H - _MB, px(x), _H - _MB + 5),
                _text(px(x), _H - _MB + 20, f"{x:.3g}")]
    y_mid = (_MT + _H - _MB) / 2
    out += [_text((_ML + _W - _MR) / 2, _H - 12, "Eb/N0 (dB)", size=13),
            _text(16, y_mid, "BER", size=13,
                  extra=f' transform="rotate(-90 16 {_num(y_mid)})"')]

    for idx, (key, pts) in enumerate(sorted(series.items())):
        color = _PALETTE[idx % len(_PALETTE)]
        pts.sort(key=lambda p: p.ebn0_db)
        coords = [(px(p.ebn0_db), py(y_of(p))) for p in pts]
        path_d = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
        out.append(f'<polyline points="{path_d}" fill="none" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        for p, (x, y) in zip(pts, coords):
            out.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color}"/>'
                if p.errors else
                f'<path d="M {x:.2f} {y - 4:.2f} L {x + 4:.2f} {y:.2f} '
                f'L {x:.2f} {y + 4:.2f} L {x - 4:.2f} {y:.2f} Z" '
                f'fill="none" stroke="{color}" stroke-width="1.5"/>')
        label = "/".join(key).translate(_XML_ESCAPES)
        out.append(_text(_W - _MR - 8, _MT + 16 + 16 * idx, label,
                         anchor="end", extra=f' fill="{color}"'))
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
