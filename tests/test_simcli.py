import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ofdmlink import cli, simcli
from ofdmlink.channel import ChannelConfig, rician_taps
from ofdmlink.equalizer import PilotLmsEstimator
from ofdmlink.errors import ConfigurationError, DivergenceError, SimError
from ofdmlink.numerics import RngStream
from ofdmlink.ofdm import default_grid, equalize_one_tap
from ofdmlink.simcli import (BerPoint, SimConfig, ebn0_from_esn0, emit_plot,
                             generate_source, parse_config, read_csv,
                             reconstruct_sine, run_lms_trace, run_point,
                             run_sweep, _channel_response)
from theory import binomial_ci, q_function


def test_source_quarter_period_samples():
    wave = reconstruct_sine(generate_source(64))
    assert np.allclose(wave[:4] * 127, [0, 127, 0, -127])
    assert np.allclose(wave[:4], wave[4:8])


def test_source_first_byte_is_zero():
    assert not generate_source(80)[:8].any()


def test_source_round_trip():
    bits = generate_source(44000)
    wave = reconstruct_sine(bits)
    n = np.arange(len(wave))
    quantized = np.clip(np.rint(np.sin(2 * np.pi / 4 * n) * 127), -128, 127)
    assert np.allclose(wave * 127, quantized)


def test_source_rejects_non_byte_counts():
    with pytest.raises(ConfigurationError):
        generate_source(44001)


def test_ebn0_examples():
    assert ebn0_from_esn0(10.0, 2, 1.0) == pytest.approx(10 - 3.0103, abs=1e-4)
    assert ebn0_from_esn0(10.0, 8, 1.0) == pytest.approx(10 - 9.0309, abs=1e-4)
    assert ebn0_from_esn0(10.0, 2, 0.5) == pytest.approx(10.0)


def test_parse_config_defaults_and_overrides():
    cfg = parse_config("""
    # comment line
    modulation = qpsk, 16qam   # inline comment
    channel = static
    snr_start_db = 2
    snr_stop_db = 10
    snr_step_db = 4
    seed = 99
    """)
    assert cfg.modulations == ("qpsk", "16qam")
    assert cfg.channel == "static"
    assert cfg.snr_grid_db == (2.0, 6.0, 10.0)
    assert cfg.seed == 99
    assert cfg.n_bits == 44000  # default payload


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigurationError):
        parse_config("bogus = 1")


@pytest.mark.parametrize("line", [
    "n_bits = abc", "seed = 1.5", "lms_taps = eleven", "k_factor = high",
    "snr_step_db = 2dB",
])
def test_parse_config_names_the_key_of_a_bad_number(line):
    key = line.split()[0]
    with pytest.raises(ConfigurationError, match=key):
        parse_config(line)


_CONFIG_LINES = st.lists(st.tuples(
    st.sampled_from(sorted(simcli._CONFIG_KEYS)),
    st.one_of(st.integers().map(str), st.floats().map(repr), st.text()),
), max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_CONFIG_LINES)
def test_parse_config_accepts_bounded_grids_or_fails_in_one_line(lines):
    text = "\n".join(f"{key} = {value}" for key, value in lines)
    try:
        cfg = parse_config(text)
    except SimError as exc:
        assert len(str(exc).splitlines()) == 1
        return
    grid = cfg.snr_grid_db
    assert 0 < len(grid) <= simcli._MAX_SNR_POINTS
    assert all(math.isfinite(s) for s in grid)


@pytest.mark.parametrize("field, value", [
    ("lms_taps", 0), ("lms_taps", -3), ("training_symbols", -1),
    ("lms_mu", float("nan")), ("lms_mu", float("inf")), ("lms_mu", -0.1),
])
def test_config_rejects_bad_lms_settings(field, value):
    with pytest.raises(ConfigurationError, match=field):
        SimConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        parse_config(f"{field} = {value}")


@pytest.mark.parametrize("field, value", [
    ("n_bits", 0), ("n_bits", 4_000_001), ("n_bits", 10**15),
    ("lms_taps", 321), ("training_symbols", 101), ("training_symbols", 10**15),
])
def test_config_rejects_out_of_range_sizes(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be in"):
        SimConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=f"{field} must be in"):
        parse_config(f"{field} = {value}")


def test_config_accepts_the_largest_sizes():
    cfg = parse_config("n_bits = 4000000\nlms_taps = 320\n"
                       "training_symbols = 100")
    assert (cfg.n_bits, cfg.lms_taps, cfg.training_symbols) == \
        (4_000_000, 320, 100)
    SimConfig(receiver_mode="pre_fft_lms", lms_taps=320, training_symbols=1)


def test_config_rejects_filter_longer_than_pre_fft_training():
    with pytest.raises(ConfigurationError, match="training span of 0"):
        SimConfig(receiver_mode="pre_fft_lms", training_symbols=0)
    SimConfig(receiver_mode="pilot_fd_lms", training_symbols=0)


@pytest.mark.parametrize("modulations", [(), ("qpsk", "bogus")])
def test_config_rejects_bad_modulations(modulations):
    with pytest.raises(ConfigurationError):
        SimConfig(modulations=modulations)


def test_config_rejects_empty_snr_grid():
    with pytest.raises(ConfigurationError, match="empty SNR grid"):
        SimConfig(snr_grid_db=())


def test_config_rejects_unknown_source():
    with pytest.raises(ConfigurationError, match="unknown source 'sin'"):
        SimConfig(source="sin")
    SimConfig(source="sine")


def test_config_has_no_normalize_taps_key():
    with pytest.raises(ConfigurationError,
                       match="unknown key 'normalize_taps'"):
        parse_config("normalize_taps = true")


@pytest.mark.parametrize("command", ["ber-sweep", "lms-trace", "demo-audio"])
@pytest.mark.parametrize("line, message", [
    ("modulation = ,", "no modulation"),
    ("modulation = qpsk, bogus", "unknown modulation 'bogus'"),
    ("snr_start_db = 10\nsnr_stop_db = 2", "empty SNR grid"),
    ("snr_start_db = nan", "snr_start_db must be finite"),
    ("snr_stop_db = inf", "snr_stop_db must be finite"),
    ("snr_step_db = nan", "snr_step_db must be finite"),
    ("snr_step_db = inf", "snr_step_db must be finite"),
    ("snr_step_db = 1e-7", "longer than 10000 points"),
    # within the loop's 1e-9 tolerance, and a step the doubles near 1e10
    # cannot resolve: (stop - start) / step is 0 for both
    ("snr_stop_db = 0\nsnr_step_db = 1e-18", "longer than 10000 points"),
    ("snr_start_db = 1e10\nsnr_stop_db = 1e10\nsnr_step_db = 1e-7",
     "longer than 10000 points"),
    ("k_factor = nan", "k_factor must be finite"),
    ("k_factor = -1", "k_factor must be finite and >= 0"),
    ("doppler_hz = nan", "doppler_hz must be finite"),
    ("doppler_hz = -5", "doppler_hz must be finite and >= 0"),
    ("n_bits = 1000000000000000", "n_bits must be in 1..4000000"),
    ("lms_taps = 100000", "lms_taps must be in 1..320"),
    ("training_symbols = 1000000000", "training_symbols must be in 0..100"),
    ("receiver_mode = pre_fft_lms\ntraining_symbols = 0",
     "lms_taps 11 exceeds the pre-FFT training span of 0 samples"),
    ("channel = rayleigh", "unknown channel 'rayleigh'"),
    ("channel = rician\ndoppler_hz = 2000",
     "doppler_hz 2000 must be below 2000 Hz, half the 4000 Hz sample rate"),
])
def test_bad_config_fails_before_any_point(tmp_path, capsys, command, line,
                                           message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    args = [command, "--config", str(cfg)]
    if command != "demo-audio":
        args += ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ber-sweep", "lms-trace", "demo-audio",
                                     "plot"])
@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    (b"\xffmodulation = qpsk\n", "can't decode byte 0xff"),
], ids=["missing", "not-utf8"])
def test_unreadable_input_fails_in_one_line(tmp_path, capsys, command,
                                            content, message):
    infile = tmp_path / "input"
    if content is not None:
        infile.write_bytes(content)
    out_path = tmp_path / "out"
    if command == "plot":
        args = ["plot", "--in", str(infile), "--out", str(out_path)]
    else:
        args = [command, "--config", str(infile)]
        if command != "demo-audio":
            args += ["--out", str(out_path)]
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {infile}: ")
    assert err.count("\n") == 1 and message in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["ber-sweep", "lms-trace", "demo-audio"])
def test_rician_doppler_just_below_half_the_rate_runs(tmp_path, capsys,
                                                      command):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("channel = rician\ndoppler_hz = 1999.9\nn_bits = 800\n"
                   "snr_start_db = 20\nsnr_stop_db = 20\n")
    args = [command, "--config", str(cfg)]
    if command != "demo-audio":
        args += ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
def test_lms_trace_rejects_empty_training_before_any_draw(tmp_path, capsys,
                                                          monkeypatch):
    calls = []
    monkeypatch.setattr(RngStream, "__init__",
                        lambda *args: calls.append("rng"))
    monkeypatch.setattr(simcli, "_through_channel",
                        lambda *args: calls.append("channel"))
    cfg = tmp_path / "untrained.cfg"
    cfg.write_text("training_symbols = 0\n")
    assert cli.main(["lms-trace", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: lms_taps 11 exceeds the pre-FFT training span "
                   "of 0 samples\n")
    assert calls == []
    assert not (tmp_path / "out").exists()


# sha256 of lms_trace.csv, recorded before the step-size sweep stopped
# retraining its winner
_LMS_TRACE_SHA256 = {
    "channel = static\nsnr_start_db = 20\nseed = 3\n":
        "f57edc0e08f5c481c63fbf5a5cbba907afe30e3e6c299f6e8d157231b2d88443",
    "modulation = 16qam\nchannel = static\nsnr_start_db = 15\n"
    "lms_mu = 0.002\nseed = 5\n":
        "2cca8e5a50d79cee787c6f67c1b71e42cc31151dbb2bce6c231fcffbbea9a883",
}


@pytest.mark.parametrize("text", sorted(_LMS_TRACE_SHA256))
def test_lms_trace_csv_pinned(tmp_path, capsys, text):
    cfg = tmp_path / "trace.cfg"
    cfg.write_text(text)
    assert cli.main(["lms-trace", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = (tmp_path / "lms_trace.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _LMS_TRACE_SHA256[text]


def _count_pre_fft_calls(monkeypatch):
    mus = []
    real = simcli.equalize_pre_fft

    def spy(rx, training, n_taps, step_size):
        mus.append(step_size)
        return real(rx, training, n_taps, step_size)

    monkeypatch.setattr(simcli, "equalize_pre_fft", spy)
    return mus


@pytest.mark.parametrize("lms_mu", [0.0, 0.002])
def test_lms_trace_trains_each_candidate_once(monkeypatch, lms_mu):
    cfg = SimConfig(channel="static", snr_grid_db=(20.0,), seed=3,
                    lms_mu=lms_mu)
    mus = _count_pre_fft_calls(monkeypatch)
    trace, mu, _ = run_lms_trace(cfg)
    assert mus == ([lms_mu] if lms_mu else list(simcli._MU_CANDIDATES))
    fresh, fresh_mu, _ = run_lms_trace(replace(cfg, lms_mu=mu))
    assert fresh_mu == mu
    assert np.array_equal(fresh.squared_errors, trace.squared_errors)
    assert np.array_equal(fresh.final_weights, trace.final_weights)


def test_lms_trace_skips_diverging_candidates(monkeypatch):
    cfg = SimConfig(channel="static", snr_grid_db=(20.0,), seed=3)
    monkeypatch.setattr(simcli, "_MU_CANDIDATES", (50.0, 1e-2, 5.0))
    mus = _count_pre_fft_calls(monkeypatch)
    _, mu, _ = run_lms_trace(cfg)
    assert mu == 1e-2
    assert mus == [50.0, 1e-2, 5.0]
    monkeypatch.setattr(simcli, "_MU_CANDIDATES", (50.0, 5.0))
    with pytest.raises(DivergenceError,
                       match="every candidate step size diverged"):
        run_lms_trace(cfg)


def test_batched_rician_zf_matches_per_frame_loop():
    grid = default_grid()
    n_frames = 9
    chan = ChannelConfig(kind="rician", k_factor=3.0, doppler_hz=100.0)
    traj = rician_taps(chan, n_frames * grid.symbol_len,
                       RngStream(3, 0)).tap_trajectories
    frame_taps = traj.reshape(4, n_frames, grid.symbol_len).mean(axis=2).T
    rng = np.random.default_rng(3)
    data_rx = rng.normal(size=(n_frames, len(grid.data_bins))) + 0j
    expected = np.empty_like(data_rx)
    for i in range(n_frames):
        h_data = _channel_response(frame_taps[i], grid)[grid.data_bins]
        expected[i] = equalize_one_tap(data_rx[i], h_data)
    h_data = _channel_response(frame_taps, grid)[..., grid.data_bins]
    assert np.array_equal(equalize_one_tap(data_rx, h_data), expected)


def _pilot_receiver_loop(data_rx, pilot_rx, grid, mu, n_train):
    """Per-frame pilot receiver: update the estimator on every frame,
    divide each payload frame by its own estimate."""
    est = PilotLmsEstimator(grid, mu)
    pilot_tx = np.ones(len(grid.pilot_bins), dtype=np.complex128)
    out = np.empty_like(data_rx[n_train:])
    for i in range(len(data_rx)):
        h_active = est.update(pilot_rx[i], pilot_tx)
        if i >= n_train:
            out[i - n_train] = data_rx[i] / h_active[grid.data_positions]
    return out


def test_batched_pilot_division_matches_per_frame_loop(monkeypatch):
    captured = {}
    real_disassemble, real_demap = simcli.disassemble, simcli.demap_hard

    def disassemble(frames, grid):
        captured["bins"] = real_disassemble(frames, grid)
        return captured["bins"]

    def demap_hard(symbols, spec):
        captured["symbols"] = symbols
        return real_demap(symbols, spec)

    real_update = PilotLmsEstimator.update
    update_shapes = []

    def update(self, pilot_rx, pilot_tx):
        update_shapes.append(np.shape(pilot_rx))
        return real_update(self, pilot_rx, pilot_tx)

    monkeypatch.setattr(simcli, "disassemble", disassemble)
    monkeypatch.setattr(simcli, "demap_hard", demap_hard)
    monkeypatch.setattr(PilotLmsEstimator, "update", update)
    cfg = SimConfig(channel="rician", receiver_mode="pilot_fd_lms",
                    n_bits=4000, seed=7)
    run_point(cfg, 20.0)
    data_rx, pilot_rx = captured["bins"]
    # run_point updates once on the whole (n_frames, n_pilot) batch; the
    # oracle below updates frame by frame on (n_pilot,) vectors
    assert update_shapes == [pilot_rx.shape]
    expected = _pilot_receiver_loop(data_rx, pilot_rx, default_grid(),
                                    cfg.step_size_for("pilot_fd_lms"),
                                    cfg.training_symbols).ravel()
    symbols = captured["symbols"]
    assert np.array_equal(symbols, expected[: len(symbols)])


def test_awgn_zero_forcing_divides_by_exactly_one():
    grid = default_grid()
    h = _channel_response(np.ones(1, dtype=np.complex128), grid)
    assert np.array_equal(h, np.ones(grid.fft_size, dtype=np.complex128))


# error counts at n_bits = 4000, seed 7, SNR 10 and 30 dB on streams 0 and 1,
# recorded with the per-sample Jakes sum, the per-sample frozen LMS span,
# the per-frame ZF loop and the radix-2 FFT
RICIAN_COUNTS = {
    ("known_channel_zf", "qpsk"): [360, 251],
    ("known_channel_zf", "16qam"): [792, 657],
    ("pilot_fd_lms", "qpsk"): [433, 275],
    ("pilot_fd_lms", "16qam"): [993, 719],
    ("pre_fft_lms", "qpsk"): [410, 235],
    ("pre_fft_lms", "16qam"): [990, 845],
}


@pytest.mark.parametrize("receiver, modulation", sorted(RICIAN_COUNTS))
def test_rician_point_counts_pinned(receiver, modulation):
    cfg = SimConfig(modulations=(modulation,), channel="rician",
                    receiver_mode=receiver, n_bits=4000, seed=7)
    counts = [run_point(cfg, snr, modulation, stream_id=i).errors
              for i, snr in enumerate((10.0, 30.0))]
    assert counts == RICIAN_COUNTS[receiver, modulation]


def test_run_point_deterministic():
    cfg = SimConfig(n_bits=8000)
    assert run_point(cfg, 6.0) == run_point(cfg, 6.0)


def test_run_point_noiseless_ideal_receiver():
    for mod in ("qpsk", "64qam"):
        cfg = SimConfig(modulations=(mod,), n_bits=12000)
        assert run_point(cfg, 300.0).errors == 0


# (receiver, channel, lms_mu) -> modulations a noiseless point must decode
# without error.  The genie ZF divides by the exact response.  With mu = 1
# the pilot tracker's estimate equals each received pilot, exact without
# noise, but on the static profile its linear interpolation between pilots
# 8 bins apart misses the response by more than 64-QAM's decision margin on
# some bins (9 errors in 8000 bits at 64-QAM); on AWGN the response is flat
# and every order decodes.  The default pre-FFT equalizer (11 taps, mu =
# 3e-3, two training symbols) leaves a residual error that only QPSK's
# margin absorbs (514 errors in 8000 bits at 16-QAM).
_NOISELESS_ERROR_FREE = {
    ("known_channel_zf", "static", 0.0): ("qpsk", "16qam", "64qam", "256qam",
                                          "256psk"),
    ("pilot_fd_lms", "static", 1.0): ("qpsk", "16qam"),
    ("pilot_fd_lms", "awgn", 1.0): ("qpsk", "16qam", "64qam", "256qam",
                                    "256psk"),
    ("pre_fft_lms", "static", 0.0): ("qpsk",),
}


@pytest.mark.parametrize("coding", ["none", "cc_k7"])
@pytest.mark.parametrize("receiver, channel, mu", sorted(_NOISELESS_ERROR_FREE))
def test_noiseless_point_is_error_free(receiver, channel, mu, coding):
    for modulation in _NOISELESS_ERROR_FREE[receiver, channel, mu]:
        cfg = SimConfig(modulations=(modulation,), channel=channel,
                        coding=coding, receiver_mode=receiver, lms_mu=mu,
                        n_bits=4000)
        assert run_point(cfg, 300.0).errors == 0, modulation


def test_run_point_matches_qpsk_theory():
    ebn0 = 4.0
    cfg = SimConfig(n_bits=200_000)
    point = run_point(cfg, ebn0 + 10 * np.log10(2))
    theory = float(q_function(np.sqrt(2 * 10 ** (ebn0 / 10))))
    lo, hi = binomial_ci(round(theory * point.bits), point.bits, 3)
    assert lo <= point.ber <= hi


def test_sweep_csv_determinism(tmp_path):
    cfg = SimConfig(n_bits=4000, snr_grid_db=(0.0, 6.0))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(cfg, csv_path=a)
    run_sweep(cfg, csv_path=b)
    assert a.read_bytes() == b.read_bytes()


def test_sweep_streams_stable_under_extension():
    base = SimConfig(n_bits=4000, snr_grid_db=(0.0, 4.0))
    extended = SimConfig(n_bits=4000, snr_grid_db=(0.0, 4.0, 8.0))
    assert run_sweep(base) == run_sweep(extended)[:2]


def test_csv_round_trip(tmp_path):
    cfg = SimConfig(n_bits=4000, snr_grid_db=(0.0, 6.0))
    path = tmp_path / "pts.csv"
    points = run_sweep(cfg, csv_path=path)
    back = read_csv(path)
    assert [(p.modulation, p.snr_db, p.errors) for p in back] == \
        [(p.modulation, p.snr_db, p.errors) for p in points]


def test_ber_monotone_in_snr():
    cfg = SimConfig(n_bits=44000, snr_grid_db=tuple(np.arange(0.0, 13.0, 4.0)))
    points = run_sweep(cfg)
    for a, b in zip(points, points[1:]):
        if a.errors >= 100 and b.errors >= 100:
            assert b.ber <= a.ber


def test_plot_structure(tmp_path):
    points = [
        BerPoint("qpsk", "awgn", "none", "known_channel_zf",
                 float(s), float(s) - 3.0, 20_000, e, 1)
        for s, e in ((0, 2000), (4, 300), (8, 0))
    ]
    path = tmp_path / "curves.svg"
    emit_plot(points, path)
    svg = path.read_text()
    assert svg.count("<polyline") == 1
    assert "1e-" in svg  # decade labels on the log axis
    # zero-error point rendered as the distinct floor marker
    assert svg.count("<path d=") == 1
    emit_plot(points, tmp_path / "again.svg")
    assert (tmp_path / "again.svg").read_bytes() == path.read_bytes()


def test_plot_floor_rule():
    p = BerPoint("qpsk", "awgn", "none", "known_channel_zf",
                 8.0, 5.0, 200_000, 0, 1)
    assert 1.0 / (2 * p.bits) == pytest.approx(2.5e-6)


def test_cli_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "modulation = qpsk\nsnr_start_db = 0\nsnr_stop_db = 8\n"
        "snr_step_db = 4\nn_bits = 4000\nseed = 5\n"
    )
    out = tmp_path / "out"
    assert cli.main(["ber-sweep", "--config", str(cfg),
                     "--out", str(out)]) == 0
    assert (out / "points.csv").exists()
    assert (out / "curves.svg").exists()
    assert cli.main(["plot", "--in", str(out / "points.csv"),
                     "--out", str(tmp_path / "replot.svg")]) == 0
    assert cli.main(["demo-audio", "--config", str(cfg)]) == 0
    capsys.readouterr()


_GOOD_ROW = "qpsk,awgn,none,known_channel_zf,0,-3.0103,100,3,0.03,1"


@pytest.mark.parametrize("row, message", [
    ("qpsk,awgn,none,known_channel_zf,0,-3,100", "expected 10 fields, got 7"),
    (_GOOD_ROW + ",1", "expected 10 fields, got 11"),
    ("qpsk,awgn,none,known_channel_zf,abc,-3,100,3,0.03,1",
     "could not convert string to float: 'abc'"),
    ("qpsk,awgn,none,known_channel_zf,0,-3,1e2,3,0.03,1",
     "invalid literal for int()"),
    ("qpsk,awgn,none,known_channel_zf,0,nan,100,3,0.03,1",
     "snr_db and ebn0_db must be finite"),
    ("qpsk,awgn,none,known_channel_zf,0,-3,0,0,0,1",
     "bits must be >= 1, got 0"),
    ("qpsk,awgn,none,known_channel_zf,0,-3,100,101,1.01,1",
     "errors must be in 0..100, got 101"),
    ("qpsk,awgn,none,known_channel_zf,0,-3,100,-1,0,1",
     "errors must be in 0..100, got -1"),
])
def test_plot_rejects_malformed_csv_rows(tmp_path, capsys, row, message):
    csv = tmp_path / "points.csv"
    # the blank line still counts: the bad row is line 4 of the file
    csv.write_text("\n".join([simcli.CSV_HEADER, _GOOD_ROW, "", row]) + "\n")
    svg = tmp_path / "curves.svg"
    assert cli.main(["plot", "--in", str(csv), "--out", str(svg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {csv} line 4: ") and err.count("\n") == 1
    assert message in err
    assert not svg.exists()


def test_cli_reports_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert cli.main(["ber-sweep", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
