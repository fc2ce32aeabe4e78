import hashlib
import math
import tracemalloc
import xml.dom.minidom
from dataclasses import replace
from pathlib import Path

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
                             run_lms_trace, run_point, run_sweep)
from theory import (binomial_ci, data_bin_interp, pilot_lms, q_function,
                    reconstruct_sine)


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


def test_parse_config_rejects_a_repeated_key():
    with pytest.raises(ConfigurationError,
                       match="^line 3: key 'modulation' given twice$"):
        parse_config("modulation = qpsk\n# comment\nmodulation = 16qam")


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
    ("lms_mu", "x"), ("lms_mu", True), ("lms_mu", None), ("lms_mu", 1e-3j),
    ("k_factor", "3"), ("k_factor", True), ("doppler_hz", None),
    ("doppler_hz", False),
])
def test_config_rejects_float_fields_that_are_not_real_numbers(field, value):
    with pytest.raises(ConfigurationError) as exc:
        SimConfig(**{field: value})
    assert str(exc.value) == f"{field} must be a real number, got {value!r}"
    if field != "lms_mu":
        with pytest.raises(ConfigurationError, match=field):
            ChannelConfig("rician", **{field: value})


@pytest.mark.parametrize("field, value", [
    ("n_bits", 0), ("n_bits", 4_000_001), ("n_bits", 10**15),
    ("lms_taps", 321), ("training_symbols", 101), ("training_symbols", 10**15),
    ("seed", -1), ("seed", 2**64), ("seed", 2**64 + 1),
])
def test_config_rejects_out_of_range_sizes(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be in"):
        SimConfig(**{field: value})
    with pytest.raises(ConfigurationError, match=f"{field} must be in"):
        parse_config(f"{field} = {value}")


def test_config_accepts_the_largest_sizes():
    cfg = parse_config("n_bits = 4000000\nlms_taps = 320\n"
                       "training_symbols = 100\nseed = 18446744073709551615")
    assert (cfg.n_bits, cfg.lms_taps, cfg.training_symbols, cfg.seed) == \
        (4_000_000, 320, 100, 2**64 - 1)
    SimConfig(seed=0)
    SimConfig(receiver_mode="pre_fft_lms", lms_taps=320, training_symbols=1)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", True), ("seed", np.float64(3.0)),
    ("n_bits", 800.0), ("n_bits", np.bool_(True)), ("lms_taps", 11.5),
    ("training_symbols", 2.5), ("training_symbols", "2"),
])
def test_config_rejects_non_integer_sizes(field, value):
    with pytest.raises(ConfigurationError,
                       match=f"^{field} must be an integer, got "):
        SimConfig(**{field: value})


def test_config_accepts_numpy_integers(tmp_path):
    cfg = SimConfig(seed=np.int64(5), n_bits=np.int32(800),
                    lms_taps=np.uint8(11), training_symbols=np.int16(2),
                    snr_grid_db=(4.0,))
    run_sweep(cfg, tmp_path / "points.csv")
    assert [p.seed for p in read_csv(tmp_path / "points.csv")] == [5]


@pytest.mark.parametrize("modulations, scheme", [
    (("qpsk", "QPSK"), "qpsk"),
    (("16qam", "16-QAM"), "16qam"),
    (("64qam", "qpsk", "64_qam"), "64qam"),
])
def test_config_rejects_a_repeated_modulation(modulations, scheme):
    with pytest.raises(ConfigurationError,
                       match=f"^modulation '{scheme}' given twice$"):
        SimConfig(modulations=modulations)


def test_config_rejects_filter_longer_than_pre_fft_training():
    with pytest.raises(ConfigurationError, match="training span of 0"):
        SimConfig(receiver_mode="pre_fft_lms", training_symbols=0)
    SimConfig(receiver_mode="pilot_fd_lms", training_symbols=0)


@pytest.mark.parametrize("modulations, message", [
    ((), "^no modulation given$"),
    (("qpsk", "bogus"), "^unknown modulation 'bogus'"),
    ("qpsk", "^modulations must be a sequence of names, got str$"),
    (5, "^modulations must be a sequence of names, got int$"),
    ((5,), "^modulation must be a name, got 5$"),
])
def test_config_rejects_bad_modulations(modulations, message):
    with pytest.raises(ConfigurationError, match=message):
        SimConfig(modulations=modulations)


@pytest.mark.parametrize("grid, message", [
    ((), "^empty SNR grid$"),
    (5.0, "^snr_grid_db must be a sequence of numbers, got float$"),
    (np.arange(3.0), "^snr_grid_db must be a sequence of numbers, got ndarray$"),
    ((0, "x"), "^SNR grid value must be a real number, got 'x'$"),
    ((0.0, True), "^SNR grid value must be a real number, got True$"),
    ((0.0, float("inf")), "^SNR grid value must be finite, got inf$"),
    # an int beyond the doubles' range has no finite float value
    ((0.0, 10**400), "^SNR grid value must be finite, got 10{400}$"),
])
def test_config_rejects_empty_snr_grid(grid, message):
    with pytest.raises(ConfigurationError, match=message):
        SimConfig(snr_grid_db=grid)


def test_config_rejects_unknown_source():
    with pytest.raises(ConfigurationError, match="unknown source 'sin'"):
        SimConfig(source="sin")
    SimConfig(source="sine")


def test_config_has_no_normalize_taps_key():
    with pytest.raises(ConfigurationError,
                       match="unknown key 'normalize_taps'"):
        parse_config("normalize_taps = true")


# each command that reads a config; the sine source runs through ber-sweep
_CONFIG_COMMANDS = [
    pytest.param("ber-sweep", "", id="ber-sweep"),
    pytest.param("lms-trace", "", id="lms-trace"),
    pytest.param("ber-sweep", "source = sine\n", id="ber-sweep-sine"),
]


@pytest.mark.parametrize("command, source_line", _CONFIG_COMMANDS)
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
    ("receiver_mode = mmse", "unknown receiver_mode 'mmse'"),
    ("coding = turbo", "unknown coding 'turbo'"),
    ("source = wav", "unknown source 'wav'"),
    ("source = sine\nn_bits = 44001",
     "sine source: n_bits 44001 is not a multiple of 8"),
    ("seed = -1", "seed must be in 0..18446744073709551615, got -1"),
    ("seed = 18446744073709551617",
     "seed must be in 0..18446744073709551615, got 18446744073709551617"),
    ("modulation = qpsk\nmodulation = 16qam", "key 'modulation' given twice"),
    ("modulation = qpsk, QPSK", "modulation 'qpsk' given twice"),
    ("modulation = 16qam, 16-QAM", "modulation '16qam' given twice"),
])
def test_bad_config_fails_before_any_point(tmp_path, capsys, command,
                                           source_line, line, message):
    cfg = tmp_path / "bad.cfg"
    # a key is given once, so a line that sets the source stands alone
    if line.startswith("source ="):
        source_line = ""
    cfg.write_text(source_line + line + "\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out").exists()


def _count_runs(monkeypatch):
    """Record each run_sweep and run_lms_trace call the CLI makes."""
    runs = []
    for name in ("run_sweep", "run_lms_trace"):
        real = getattr(simcli, name)
        monkeypatch.setattr(simcli, name, lambda cfg, real=real:
                            runs.append(cfg) or real(cfg))
    return runs


@pytest.mark.parametrize("below", ["", "/", "/sub", "/sub/deeper/"])
@pytest.mark.parametrize("command", ["ber-sweep", "lms-trace"])
def test_out_that_is_a_file_fails_in_one_line(tmp_path, capsys, monkeypatch,
                                              command, below):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("snr_start_db = 0\nsnr_stop_db = 0\nn_bits = 800\n")
    out_file = tmp_path / "taken"
    out_file.write_text("keep")
    runs = _count_runs(monkeypatch)
    out_dir = f"{out_file}{below}"
    assert cli.main([command, "--config", str(cfg), "--out", out_dir]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"--out {out_dir}: {out_file} exists" in err
    assert out_file.read_text() == "keep"
    assert runs == []  # refused before any point or trace runs


def test_plot_to_a_missing_directory_fails_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("snr_start_db = 0\nsnr_stop_db = 0\nn_bits = 800\n")
    assert cli.main(["ber-sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    svg = tmp_path / "missing" / "x.svg"
    assert cli.main(["plot", "--in", str(tmp_path / "out" / "points.csv"),
                     "--out", str(svg)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(svg) in err
    assert not svg.parent.exists()


def test_failed_sweep_leaves_no_output_directory(tmp_path, capsys):
    # the config passes SimConfig; the first point's LMS diverges at run time
    cfg = tmp_path / "diverges.cfg"
    cfg.write_text("receiver_mode = pre_fft_lms\nlms_mu = 100\nn_bits = 800\n")
    out_dir = tmp_path / "out"
    assert cli.main(["ber-sweep", "--config", str(cfg),
                     "--out", str(out_dir)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: LMS diverged") and err.count("\n") == 1
    assert not out_dir.exists()


def test_seed_option_equals_the_seed_key(tmp_path, capsys):
    base = ("snr_start_db = 0\nsnr_stop_db = 10\nsnr_step_db = 10\n"
            "n_bits = 800\n")
    flag_cfg, key_cfg = tmp_path / "flag.cfg", tmp_path / "key.cfg"
    flag_cfg.write_text(base)
    key_cfg.write_text(base + "seed = 7\n")
    assert cli.main(["ber-sweep", "--config", str(flag_cfg), "--seed", "7",
                     "--out", str(tmp_path / "flag")]) == 0
    assert cli.main(["ber-sweep", "--config", str(key_cfg),
                     "--out", str(tmp_path / "key")]) == 0
    capsys.readouterr()
    flag_csv, key_csv = (tmp_path / d / "points.csv" for d in ("flag", "key"))
    assert flag_csv.read_bytes() == key_csv.read_bytes()
    assert [p.seed for p in read_csv(flag_csv)] == [7, 7]


def test_seed_option_out_of_range_fails_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n_bits = 800\n")
    assert cli.main(["ber-sweep", "--config", str(cfg), "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be in 0..18446744073709551615, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, source_line",
                         _CONFIG_COMMANDS + [pytest.param("plot", "", id="plot")])
@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    (b"\xffmodulation = qpsk\n", "can't decode byte 0xff"),
], ids=["missing", "not-utf8"])
def test_unreadable_input_fails_in_one_line(tmp_path, capsys, command,
                                            source_line, content, message):
    infile = tmp_path / "input"
    if content is not None:
        infile.write_bytes(source_line.encode() + content)
    out_path = tmp_path / "out"
    if command == "plot":
        args = ["plot", "--in", str(infile), "--out", str(out_path)]
    else:
        args = [command, "--config", str(infile), "--out", str(out_path)]
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {infile}: ")
    assert err.count("\n") == 1 and message in err
    assert not out_path.exists()


@pytest.mark.parametrize("command, source_line", _CONFIG_COMMANDS)
def test_rician_doppler_just_below_half_the_rate_runs(tmp_path, capsys,
                                                      command, source_line):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(source_line +
                   "channel = rician\ndoppler_hz = 1999.9\nn_bits = 800\n"
                   "snr_start_db = 20\nsnr_stop_db = 20\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
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
    # 3 of the 7 candidates diverge, at updates 163, 33 and 14, and 1e-3
    # wins: one kernel call with diverging and converging rows
    "snr_start_db = 0\nlms_taps = 320\n":
        "d931e46e6861242dd61a2fba7fdc299f9e2f98b313537e6ed38996c439e8fb6a",
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


def _count_kernel_calls(monkeypatch):
    calls = []
    real = simcli.train_pre_fft

    def spy(rx, training, n_taps, step_sizes):
        calls.append(tuple(step_sizes))
        return real(rx, training, n_taps, step_sizes)

    monkeypatch.setattr(simcli, "train_pre_fft", spy)
    return calls


@pytest.mark.parametrize("lms_mu", [0.0, 0.002])
def test_lms_trace_trains_each_candidate_once(monkeypatch, lms_mu):
    cfg = SimConfig(channel="static", snr_grid_db=(20.0,), seed=3,
                    lms_mu=lms_mu)
    calls = _count_kernel_calls(monkeypatch)
    trace, mu, _ = run_lms_trace(cfg)
    # one kernel call, one row per candidate
    assert calls == [(lms_mu,) if lms_mu else simcli._MU_CANDIDATES]
    fresh, fresh_mu, _ = run_lms_trace(replace(cfg, lms_mu=mu))
    assert fresh_mu == mu
    assert np.array_equal(fresh.squared_errors, trace.squared_errors)
    assert np.array_equal(fresh.final_weights, trace.final_weights)


def test_lms_trace_skips_diverging_candidates(monkeypatch):
    cfg = SimConfig(channel="static", snr_grid_db=(20.0,), seed=3)
    monkeypatch.setattr(simcli, "_MU_CANDIDATES", (50.0, 1e-2, 5.0))
    calls = _count_kernel_calls(monkeypatch)
    _, mu, _ = run_lms_trace(cfg)
    assert mu == 1e-2
    assert calls == [(50.0, 1e-2, 5.0)]
    monkeypatch.setattr(simcli, "_MU_CANDIDATES", (50.0, 5.0))
    with pytest.raises(DivergenceError,
                       match="every candidate step size diverged") as info:
        run_lms_trace(cfg)
    # the error names the first diverging candidate's own update
    assert info.value.step >= 1
    assert info.value.step_size == 50.0


@pytest.mark.parametrize("lms_taps", [11, 320])
def test_lms_trace_memory_stays_per_symbol(lms_taps):
    # 100 training symbols and 7 candidates: the rows' outputs and squared
    # errors take 5.4 MB, and the weight history of one chunk at most 1.6 MB
    cfg = SimConfig(channel="static", snr_grid_db=(20.0,), seed=3,
                    training_symbols=100, lms_taps=lms_taps)
    tracemalloc.start()
    try:
        trace, _, _ = run_lms_trace(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.squared_errors) == 100 * 320
    assert peak < 13e6


def test_lms_trace_with_a_diverging_step_size_fails_in_one_line(tmp_path,
                                                                capsys):
    cfg = tmp_path / "diverges.cfg"
    cfg.write_text("lms_mu = 50\n")
    assert cli.main(["lms-trace", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: LMS diverged at update ")
    assert err.endswith(" with step size 50.0\n") and err.count("\n") == 1
    assert not (tmp_path / "lms_trace.csv").exists()


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
        h_data = np.fft.fft(frame_taps[i], grid.fft_size)[grid.data_bins]
        expected[i] = equalize_one_tap(data_rx[i].copy(), h_data)
    h_data = np.fft.fft(frame_taps, grid.fft_size)[..., grid.data_bins]
    assert np.array_equal(equalize_one_tap(data_rx, h_data), expected)


def _pilot_receiver_loop(data_rx, pilot_rx, grid, mu, n_train):
    """Per-frame pilot receiver: the oracle's pilot estimate after every
    frame, interpolated with np.interp, divides each payload frame."""
    h_data = data_bin_interp(
        pilot_lms(pilot_rx, np.ones(len(grid.pilot_bins)), mu), grid)
    out = np.empty_like(data_rx[n_train:])
    for i in range(n_train, len(data_rx)):
        out[i - n_train] = data_rx[i] / h_data[i]
    return out


def test_batched_pilot_division_matches_per_frame_loop(monkeypatch):
    captured = {}
    real_disassemble, real_demap = simcli.disassemble, simcli.demap_hard

    def disassemble(frames, grid):
        bins = real_disassemble(frames, grid)
        # zero forcing divides the bins in place
        captured["bins"] = tuple(b.copy() for b in bins)
        return bins

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
    # oracle below tracks and divides frame by frame
    assert update_shapes == [pilot_rx.shape]
    expected = _pilot_receiver_loop(data_rx, pilot_rx, default_grid(),
                                    cfg.step_size,
                                    cfg.training_symbols).ravel()
    symbols = captured["symbols"]
    assert np.array_equal(symbols, expected[: len(symbols)])


def test_awgn_zero_forcing_divides_by_exactly_one():
    grid = default_grid()
    h = np.fft.fft(np.ones(1, dtype=np.complex128), grid.fft_size)
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


# error counts at n_bits = 8000 on stream 0, seeds 1, 2 and 3 (one row each)
# at SNR 0, 10, 20 and 30 dB, recorded with the Jakes taps taken straight
# from the exponential, before they came from phasor tables
RICIAN_SEED_COUNTS = {
    ("known_channel_zf", "qpsk"): [
        [1772, 721, 522, 503],
        [1822, 741, 540, 510],
        [1731, 743, 579, 562],
    ],
    ("known_channel_zf", "16qam"): [
        [2661, 1621, 1357, 1324],
        [2558, 1621, 1355, 1333],
        [2672, 1742, 1493, 1463],
    ],
    ("pilot_fd_lms", "qpsk"): [
        [2085, 825, 622, 584],
        [2121, 961, 735, 694],
        [2061, 880, 667, 629],
    ],
    ("pilot_fd_lms", "16qam"): [
        [2856, 1866, 1596, 1557],
        [2902, 1887, 1652, 1628],
        [2822, 1800, 1546, 1507],
    ],
    ("pre_fft_lms", "qpsk"): [
        [1908, 871, 671, 644],
        [1863, 842, 623, 590],
        [1762, 698, 497, 501],
    ],
    ("pre_fft_lms", "16qam"): [
        [2737, 1902, 1751, 1742],
        [2839, 1966, 1744, 1726],
        [2709, 1907, 1697, 1653],
    ],
}


@pytest.mark.parametrize("receiver, modulation", sorted(RICIAN_SEED_COUNTS))
def test_rician_seed_counts_pinned(receiver, modulation):
    counts = []
    for seed in (1, 2, 3):
        cfg = SimConfig(modulations=(modulation,), channel="rician",
                        receiver_mode=receiver, n_bits=8000, seed=seed)
        counts.append([run_point(cfg, snr, modulation).errors
                       for snr in (0.0, 10.0, 20.0, 30.0)])
    assert counts == RICIAN_SEED_COUNTS[receiver, modulation]


@pytest.mark.parametrize("modulation", ["qpsk", "16qam", "64qam"])
def test_rician_without_doppler_is_ici_free(modulation):
    # without Doppler the taps hold still, so the genie's frame-mean
    # response is exact and a noiseless point decodes; at 100 Hz they move
    # within a symbol and the ICI floor shows (520, 1419 and 2112 errors
    # in 8000 bits at these orders on stream 1)
    errors = {}
    for doppler_hz in (0.0, 100.0):
        cfg = SimConfig(modulations=(modulation,), channel="rician",
                        doppler_hz=doppler_hz, n_bits=8000)
        errors[doppler_hz] = run_point(cfg, 300.0, stream_id=1).errors
    assert errors[0.0] == 0
    assert errors[100.0] > 0


# QPSK errors in 44 000 bits on stream 1, ZF(s) / pilot(s) / ZF(s - 1.25):
# 2423 / 2959 / 3259 at 6 dB, 716 / 872 / 1125 at 10, 80 / 136 / 200 at 14
@pytest.mark.parametrize("snr_db", [6.0, 10.0, 14.0])
def test_pilot_receiver_within_its_estimate_noise_of_the_genie(snr_db):
    # the mu = 0.5 pilot tracker adds estimate noise of mu / (2 - mu) = 1/3
    # of the noise variance at each pilot, which costs at most
    # 10 log10(4/3) = 1.25 dB: it neither beats the genie at the same SNR
    # nor loses to the genie 1.25 dB lower
    def errors_and_bits(receiver, snr):
        cfg = SimConfig(channel="static", receiver_mode=receiver)
        point = run_point(cfg, snr, stream_id=1)
        return point.errors, point.bits

    zf_lo, _ = binomial_ci(*errors_and_bits("known_channel_zf", snr_db), 3)
    _, zf_worse_hi = binomial_ci(
        *errors_and_bits("known_channel_zf", snr_db - 1.25), 3)
    errors, bits = errors_and_bits("pilot_fd_lms", snr_db)
    assert zf_lo <= errors / bits <= zf_worse_hi


def test_run_point_deterministic():
    cfg = SimConfig(n_bits=8000)
    assert run_point(cfg, 6.0) == run_point(cfg, 6.0)


@pytest.mark.parametrize("snr_db, message", [
    (float("nan"), "^snr_db must be finite, got nan$"),
    (float("inf"), "^snr_db must be finite, got inf$"),
    (float("-inf"), "^snr_db must be finite, got -inf$"),
    (True, "^snr_db must be a real number, got True$"),
    ("6", "^snr_db must be a real number, got '6'$"),
    (6 + 0j, r"^snr_db must be a real number, got \(6\+0j\)$"),
])
def test_run_point_rejects_bad_snr(snr_db, message):
    with pytest.raises(ConfigurationError, match=message):
        run_point(SimConfig(n_bits=800), snr_db)


@pytest.mark.parametrize("snr_db", [6, np.float64(6.0), np.int64(6)])
def test_run_point_takes_any_real_snr(snr_db):
    cfg = SimConfig(n_bits=800)
    assert run_point(cfg, snr_db) == run_point(cfg, 6.0)


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


_RECEIVERS = ("known_channel_zf", "pilot_fd_lms", "pre_fft_lms")


def _assert_sweep_equals_single_points(cfg):
    # a sweep may batch its points, but each must stay the point that
    # run_point gives on the stream of its index
    jobs = [(mod, snr) for mod in cfg.modulations for snr in cfg.snr_grid_db]
    expected = [run_point(cfg, snr, mod, stream_id=i)
                for i, (mod, snr) in enumerate(jobs)]
    assert run_sweep(cfg) == expected


@pytest.mark.parametrize("cp_len", [0, 1, 256])
def test_every_combination_runs_at_any_prefix(monkeypatch, cp_len):
    # the chain reads the prefix from the grid; noiseless QPSK off the
    # fading channel is error-free at every prefix, even below the static
    # channel's memory of 3 samples
    grid = replace(default_grid(), cp_len=cp_len)
    monkeypatch.setattr(simcli, "default_grid", lambda: grid)
    for receiver in _RECEIVERS:
        for channel in ("awgn", "static", "rician"):
            for coding in ("none", "cc_k7"):
                point = run_point(SimConfig(
                    channel=channel, coding=coding, receiver_mode=receiver,
                    n_bits=4000), 300.0)
                assert point.bits == 4000
                assert point.errors == 0 or channel == "rician"
    cfg = SimConfig(channel="static", snr_grid_db=(300.0,))
    trace, _, _ = run_lms_trace(cfg)
    assert len(trace.squared_errors) == cfg.training_symbols * grid.symbol_len


@pytest.mark.parametrize("channel", ["awgn", "static", "rician"])
@pytest.mark.parametrize("receiver", _RECEIVERS)
def test_sweep_points_equal_single_point_calls(receiver, channel):
    _assert_sweep_equals_single_points(SimConfig(
        modulations=("qpsk", "16qam"), channel=channel,
        receiver_mode=receiver, snr_grid_db=(4.0, 12.0, 30.0), n_bits=800))


@pytest.mark.parametrize("channel", ["awgn", "static", "rician"])
@pytest.mark.parametrize("receiver", _RECEIVERS)
def test_coded_sweep_points_equal_single_point_calls(receiver, channel,
                                                     monkeypatch):
    shapes = []
    real = simcli.viterbi_decode
    monkeypatch.setattr(simcli, "viterbi_decode",
                        lambda coded: shapes.append(coded.shape) or real(coded))
    _assert_sweep_equals_single_points(SimConfig(
        modulations=("qpsk", "16qam", "64qam"), channel=channel,
        coding="cc_k7", receiver_mode=receiver,
        snr_grid_db=(4.0, 12.0, 30.0), n_bits=800))
    # nine single points, then the sweep's nine: one block per decode
    assert shapes == [(2 * (800 + 6),)] * 18


@pytest.mark.parametrize("channel", ["awgn", "static", "rician"])
@pytest.mark.parametrize("receiver", _RECEIVERS)
def test_receivers_get_a_copy_of_the_training_span(monkeypatch, receiver,
                                                    channel):
    # the channel works in the transmitted stream on AWGN and static
    # multipath, so the training reference is checked against a copy of the
    # stream taken at assemble
    streams, sent, received, arrays, trainings = [], [], [], [], []
    real_assemble, real_pre_fft = simcli.assemble, simcli.equalize_pre_fft
    real_equalize = simcli._RECEIVERS[receiver].equalize

    def assemble(*args):
        streams.append(real_assemble(*args))
        sent.append(streams[-1].copy())
        return streams[-1]

    def pre_fft(rx, training, *args):
        received.append(rx)
        trainings.append(training)
        return real_pre_fft(rx, training, *args)

    def equalize(*args):
        arrays.extend(a for a in args if isinstance(a, np.ndarray))
        return real_equalize(*args)
    monkeypatch.setattr(simcli, "assemble", assemble)
    monkeypatch.setattr(simcli, "equalize_pre_fft", pre_fft)
    monkeypatch.setitem(simcli._RECEIVERS, receiver, replace(
        simcli._RECEIVERS[receiver], equalize=equalize))
    cfg = SimConfig(channel=channel, receiver_mode=receiver, n_bits=800)
    run_point(cfg, 20.0)
    (stream,), (copy,) = streams, sent
    # the receivers get the bins, never a view of the stream
    assert not any(np.shares_memory(a, stream) for a in arrays)
    if receiver == "pre_fft_lms":
        (rx,), (training,) = received, trainings
        # the samples the equalizer filters are the stream itself, except
        # on Rician fading, whose output is the trajectory buffer's
        assert np.shares_memory(rx, stream) == (channel != "rician")
        span = cfg.training_symbols * default_grid().symbol_len
        assert np.array_equal(training, copy.ravel()[:span])
        assert not np.shares_memory(training, stream)
        assert not any(np.shares_memory(training, a)
                       for a in arrays + received)
    else:
        assert trainings == received == []


@pytest.mark.parametrize("coding", ["none", "cc_k7"])
@pytest.mark.parametrize("receiver", _RECEIVERS)
def test_demap_reads_the_receivers_output_without_a_copy(monkeypatch,
                                                         receiver, coding):
    outputs, inputs = [], []
    real_equalize, real_demap = (simcli._RECEIVERS[receiver].equalize,
                                 simcli.demap_hard)

    def equalize(*args):
        outputs.append(real_equalize(*args))
        return outputs[-1]

    def demap_hard(symbols, spec):
        inputs.append(symbols)
        return real_demap(symbols, spec)
    monkeypatch.setitem(simcli._RECEIVERS, receiver, replace(
        simcli._RECEIVERS[receiver], equalize=equalize))
    monkeypatch.setattr(simcli, "demap_hard", demap_hard)
    run_point(SimConfig(channel="static", coding=coding,
                        receiver_mode=receiver, n_bits=800), 20.0)
    (output,), (symbols,) = outputs, inputs
    assert np.shares_memory(symbols, output)


def _warm_point_peak(cfg, snr_db):
    """tracemalloc peak, in bytes, of run_point(cfg, snr_db) run a second
    time, once the cached tables are built."""
    run_point(cfg, snr_db)
    tracemalloc.start()
    try:
        run_point(cfg, snr_db)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peak, in bytes, of one warm coded QPSK pilot_fd_lms point over
# static multipath at the defaults (44 000 bits), with the channel working in
# the transmitted stream and zero forcing in the bins; it was 7 551 614 while
# every array lived until run_point returned, 4 126 180 with each stage's
# arrays dropped when the stage ends but the noise, the FFT and the bins in
# arrays of their own, 2 871 197 with the channel's output and the
# quotients in arrays of their own, and 2 674 490 in the hard demap while the
# PSK slicer held full-length float and intp temporaries; now the noise
# stage sets it
_CODED_POINT_PEAK = 2_568_924


def test_coded_point_peak_stays_at_one_stage():
    cfg = SimConfig(channel="static", coding="cc_k7",
                    receiver_mode="pilot_fd_lms")
    assert _warm_point_peak(cfg, 2.0) <= 1.1 * _CODED_POINT_PEAK


def test_channel_and_zero_forcing_peak_below_the_noise(monkeypatch):
    # the static channel filters the stream in place and zero forcing
    # divides the bins in place, so neither holds a second full-size array
    # (2.85 and 2.87 MB traced, against 2.57 MB in the noise stage)
    peaks = {}

    def traced(name):
        real = getattr(simcli, name)

        def stage(*args):
            tracemalloc.reset_peak()
            try:
                return real(*args)
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1]
        monkeypatch.setattr(simcli, name, stage)
    for name in ("_through_channel", "add_awgn", "equalize_one_tap"):
        traced(name)
    _warm_point_peak(SimConfig(channel="static", coding="cc_k7",
                               receiver_mode="pilot_fd_lms"), 2.0)
    assert 0 < peaks["_through_channel"] < peaks["add_awgn"]
    assert 0 < peaks["equalize_one_tap"] < peaks["add_awgn"]


# the same for warm uncoded QPSK points at the defaults, with the parent
# layout's peaks (separate noise, FFT and pre-FFT output arrays) noted
_POINT_PEAKS = {
    # 2 851 419 in the pre-FFT equalizer
    ("static", "pre_fft_lms"): 1_550_852,
    # 4 616 669 in apply_fading; now in rician_taps
    ("rician", "known_channel_zf"): 4_192_629,
}


@pytest.mark.parametrize("channel, receiver", _POINT_PEAKS)
def test_uncoded_point_peak_stays_at_one_stage(channel, receiver):
    cfg = SimConfig(channel=channel, receiver_mode=receiver)
    assert _warm_point_peak(cfg, 2.0) <= 1.1 * _POINT_PEAKS[channel, receiver]


# the modulations README's noiseless table (and, for the genie receiver,
# test_noiseless_point_is_error_free) gives zero errors at the defaults
_ERROR_FREE_AT_DEFAULTS = {
    "known_channel_zf": ("qpsk", "16qam", "64qam", "256qam"),
    "pilot_fd_lms": ("qpsk", "16qam", "64qam"),
    "pre_fft_lms": ("qpsk",),
}


@pytest.mark.parametrize("receiver", _RECEIVERS)
def test_sine_source_sweep(receiver, monkeypatch):
    sources = []
    real = simcli.generate_source
    monkeypatch.setattr(simcli, "generate_source",
                        lambda n: sources.append(n) or real(n))
    mods = ("qpsk", "16qam", "64qam", "256qam")
    cfg = SimConfig(modulations=mods, receiver_mode=receiver,
                    snr_grid_db=(40.0,), n_bits=4000, source="sine")
    points = run_sweep(cfg)
    assert sources == [4000] * len(mods)
    assert [(p.modulation, p.bits) for p in points] == \
        [(mod, 4000) for mod in mods]
    for p in points:
        if p.modulation in _ERROR_FREE_AT_DEFAULTS[receiver]:
            assert p.errors == 0, p.modulation


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


def test_plot_escapes_legend_text(tmp_path, capsys):
    csv = tmp_path / "points.csv"
    row = "q&a<b,x>y,none,known_channel_zf,0,-3,100,3,0.03,1"
    csv.write_text(simcli.CSV_HEADER + "\n" + row + "\n")
    svg = tmp_path / "curves.svg"
    assert cli.main(["plot", "--in", str(csv), "--out", str(svg)]) == 0
    assert capsys.readouterr().err == ""
    text = svg.read_text()
    xml.dom.minidom.parseString(text)  # raises unless well-formed
    assert ">q&amp;a&lt;b/x&gt;y/none</text>" in text


# sha256 of curves.svg, recorded before emit_plot drew every line and text
# element through one helper each: the golden CSV (12 series, so the palette
# wraps, with zero-error diamonds), a live two-modulation sweep, and one
# 1-bit point whose Eb/N0 and BER ranges are both degenerate
_CURVES_INPUTS = {
    "golden": lambda: read_csv(Path(__file__).with_name("golden_points.csv")),
    "sweep": lambda: run_sweep(SimConfig(
        modulations=("qpsk", "16qam"), snr_grid_db=(0.0, 8.0, 16.0),
        n_bits=4000, seed=5)),
    "one_bit": lambda: [BerPoint("a&b<c", "awgn", "none", "known_channel_zf",
                                 3.0, 3.0, 1, 1, 1)],
}
_CURVES_SHA256 = {
    "golden": "77f5f197733e8cf0f7eb8e18ba526637d77c700cf5de6cf461cb6238293d9a08",
    "sweep": "547d63a561c702a174d84ac649597d10a4788a47c2a55b0b6f20d288e85622bc",
    "one_bit": "8691ad18dcd70a91ca4dcee20a34ea2071759e9ad0fc08d3bbf0b28e9aa3a608",
}


@pytest.mark.parametrize("name", sorted(_CURVES_SHA256))
def test_curves_svg_pinned(tmp_path, name):
    path = tmp_path / "curves.svg"
    emit_plot(_CURVES_INPUTS[name](), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _CURVES_SHA256[name]


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
    sine_cfg = tmp_path / "sine.cfg"
    sine_cfg.write_text(cfg.read_text() + "source = sine\n")
    assert cli.main(["ber-sweep", "--config", str(sine_cfg),
                     "--out", str(tmp_path / "sine")]) == 0
    api_csv = tmp_path / "api.csv"
    run_sweep(SimConfig(snr_grid_db=(0.0, 4.0, 8.0), n_bits=4000, seed=5,
                        source="sine"), csv_path=api_csv)
    assert (tmp_path / "sine" / "points.csv").read_bytes() == \
        api_csv.read_bytes()
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
    ("qpsk,awgn,none,known_channel_zf,0,-3,100,5,banana,1",
     "could not convert string to float: 'banana'"),
    ("qpsk,awgn,none,known_channel_zf,0,-3,100,5,0.9,1",
     "ber must be errors / bits = 0.05, got 0.9"),
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
