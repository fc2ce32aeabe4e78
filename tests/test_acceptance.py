"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import numpy as np
from numpy.fft import fft
from scipy.special import j0

from ofdmlink import cli
from ofdmlink.channel import (DEFAULT_TAPS, UNIT_TAPS, ChannelConfig, add_awgn,
                              rician_taps, static_multipath, _jakes_process)
from ofdmlink.errors import DivergenceError
from ofdmlink.fec import conv_encode, viterbi_decode
from ofdmlink.modem import constellation, map_bits
from ofdmlink.numerics import RngStream
from ofdmlink.ofdm import assemble, default_grid, disassemble, equalize_one_tap
from ofdmlink.simcli import SimConfig, run_lms_trace, run_point, run_sweep
from theory import (LmsState, binomial_ci, lms_step, q_function,
                    windowed_mse)

GRID = default_grid()
NORM_TAPS = DEFAULT_TAPS / np.linalg.norm(DEFAULT_TAPS)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} {detail}".rstrip())
    assert ok, f"criterion {criterion} failed: {detail}"


def in_band(ber, theory, bits, sigmas=3):
    lo, hi = binomial_ci(round(theory * bits), bits, sigmas)
    return lo <= ber <= hi


def test_criterion_1_qpsk_awgn_theory():
    cfg = SimConfig(n_bits=200_000)
    details = []
    ok = True
    for ebn0 in (0.0, 2.0, 4.0, 6.0, 8.0):
        point = run_point(cfg, ebn0 + 10 * np.log10(2))
        theory = float(q_function(np.sqrt(2 * 10 ** (ebn0 / 10))))
        good = in_band(point.ber, theory, point.bits)
        ok = ok and good
        details.append(f"{ebn0:g}dB sim={point.ber:.4g} thy={theory:.4g}")
    report(1, ok, "uncoded QPSK/AWGN vs Q(sqrt(2 Eb/N0)): " + "; ".join(details))


def test_criterion_2_modulation_ordering():
    mods = ("qpsk", "16psk", "64psk", "256psk")
    ok = True
    notes = []
    for chan in ("awgn", "rician"):
        cfg = SimConfig(modulations=mods, channel=chan,
                        snr_grid_db=tuple(float(s) for s in range(0, 51, 10)),
                        n_bits=44000, seed=7)
        points = run_sweep(cfg)
        by_mod = {m: [p for p in points if p.modulation == m] for m in mods}
        for i, snr in enumerate(cfg.snr_grid_db):
            row = [by_mod[m][i] for m in mods]
            for lower, higher in zip(row, row[1:]):
                if higher.errors >= 100 and lower.ber > higher.ber:
                    ok = False
                    notes.append(f"{chan}@{snr:g}dB {lower.modulation}>"
                                 f"{higher.modulation}")
    report(2, ok, "BER ordering QPSK<=16PSK<=64PSK<=256PSK over AWGN and "
           "fading" + (f" (violations: {notes})" if notes else ""))


def test_criterion_3_coding_gain_direction():
    ebn0 = 6.0
    uncoded = run_point(SimConfig(n_bits=100_000), ebn0 + 10 * np.log10(2))
    coded = run_point(SimConfig(n_bits=100_000, coding="cc_k7"),
                      ebn0 + 10 * np.log10(2 * 0.5))
    ok = coded.ber < uncoded.ber
    report(3, ok, f"CC-coded QPSK {coded.ber:.4g} < uncoded "
           f"{uncoded.ber:.4g} at Eb/N0=6dB")


def test_criterion_4_isi_elimination():
    # noiseless: exact symbol recovery through the 4-tap channel
    spec = constellation("qpsk")
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, 20 * 175 * 2).astype(np.uint8)
    tx_syms = map_bits(bits, spec).reshape(20, 175)
    pilots = np.ones((20, 25), complex)
    rx = static_multipath(assemble(tx_syms, pilots, GRID).ravel(), NORM_TAPS)
    data_rx, _ = disassemble(rx.reshape(20, 320), GRID)
    padded = np.zeros(256, complex)
    padded[:4] = NORM_TAPS
    h_data = fft(padded)[GRID.data_bins]
    recovered = equalize_one_tap(data_rx, h_data)
    max_err = float(np.max(np.abs(recovered - tx_syms)))
    ok = max_err < 1e-6

    # noisy: BER inside the 3-sigma band of per-bin-corrected AWGN theory
    esn0 = 12.0
    point = run_point(SimConfig(channel="static", n_bits=200_000, seed=3), esn0)
    ebn0_lin = 10 ** ((esn0 - 10 * np.log10(2)) / 10)
    theory = float(np.mean(q_function(np.sqrt(2 * ebn0_lin * np.abs(h_data) ** 2))))
    ok_noisy = in_band(point.ber, theory, point.bits)
    report(4, ok and ok_noisy,
           f"noiseless max symbol error {max_err:.2e}; noisy ber "
           f"{point.ber:.4g} vs per-bin theory {theory:.4g}")


def test_criterion_5_lms_convergence(tmp_path, capsys):
    cfg = SimConfig(channel="static", snr_grid_db=(320.0,),
                    training_symbols=20)
    trace, mu, initial = run_lms_trace(cfg)
    final = float(trace.squared_errors[-100:].mean())
    # OFDM-symbol-aligned windows; the learning curve must only rise again
    # once it is down at the converged noise floor
    windows = windowed_mse(trace.squared_errors, GRID.symbol_len)
    floor = 2 * final
    decreasing = all(
        windows[i + 1] <= windows[i] + 1e-12 or windows[i + 1] <= floor
        for i in range(len(windows) - 1)
    )
    ok = final < 0.01 and final < 0.01 * initial and decreasing

    # the lms-trace CLI emits the same trace as a CSV
    cfg_file = tmp_path / "trace.cfg"
    cfg_file.write_text("channel = static\nsnr_start_db = 320\n"
                        "snr_stop_db = 320\ntraining_symbols = 20\n")
    assert cli.main(["lms-trace", "--config", str(cfg_file),
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    csv_lines = (tmp_path / "lms_trace.csv").read_text().splitlines()
    assert csv_lines[0] == "step,squared_error"
    assert len(csv_lines) == 1 + len(trace.squared_errors)
    report(5, ok, f"mu={mu:g} final={final:.4g} initial={initial:.4g} "
           f"windowed-decay={decreasing}")


def test_criterion_6_lms_micro_correctness():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 6))
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        d = complex(rng.normal(), rng.normal())
        mu = float(rng.uniform(0.001, 0.5))
        state = LmsState(w.copy(), mu)
        y, e = lms_step(state, x, d)
        # independent transcription of the update equations
        y_ref = np.sum(np.conj(w) * x)
        e_ref = d - y_ref
        w_ref = w + mu * x * np.conj(e_ref)
        worst = max(worst, abs(y - y_ref), abs(e - e_ref),
                    float(np.max(np.abs(state.weights - w_ref))))
    ok = worst < 1e-12

    # scalar stability boundary at 0.5x and 4x of 2/P
    power = 4.0
    bound = 2.0 / power

    def run(mu):
        state = LmsState.zeros(1, mu)
        gen = np.random.default_rng(22)
        for _ in range(2000):
            ph = np.exp(2j * np.pi * gen.random())
            lms_step(state, [np.sqrt(power) * ph], 0.5 * np.sqrt(power) * ph)
        return state.weights[0]

    converged = abs(np.conj(run(0.5 * bound)) - 0.5) < 1e-6
    try:
        run(4.0 * bound)
        diverged = False
    except DivergenceError:
        diverged = True
    report(6, ok and converged and diverged,
           f"max deviation {worst:.2e}; stable at mu=1/P, divergent at 8/P")


def test_criterion_7_channel_statistics():
    # AWGN calibration within +-0.2 dB
    sig = np.ones(100_000, complex)
    awgn_ok = True
    for esn0 in (0.0, 10.0):
        out = add_awgn(sig.copy(), esn0, 1.0, RngStream(30, int(esn0)))
        measured = -10 * np.log10(np.mean(np.abs(out - sig) ** 2))
        awgn_ok = awgn_ok and abs(measured - esn0) < 0.2

    # Rician K=3 power split within 3%
    cfg = ChannelConfig(kind="rician", k_factor=3.0, doppler_hz=100.0)
    rng = RngStream(31, 0)
    total = np.zeros(4)
    diffuse = np.zeros(4)
    for _ in range(500):
        h = rician_taps(cfg, 200, rng).tap_trajectories
        los = np.abs(UNIT_TAPS)[:, None] * np.sqrt(3 / 4)
        total += np.mean(np.abs(h) ** 2, axis=1)
        diffuse += np.mean(np.abs(h - los) ** 2, axis=1)
    total /= 500
    diffuse /= 500
    mean_sq = np.abs(UNIT_TAPS) ** 2
    rician_ok = (np.all(np.abs(total / mean_sq - 1.0) < 0.03)
                 and np.all(np.abs(diffuse / mean_sq - 0.25) < 0.03))

    # Jakes autocorrelation vs J0 for both reference Doppler values
    jakes_ok = True
    rms_vals = []
    for fd in (40.0, 100.0):
        stream = RngStream(32, int(fd))
        lags = np.arange(41)
        acf = np.zeros(len(lags), complex)
        for _ in range(200):
            g = _jakes_process(1, 401, fd / 4000.0, stream)[0]
            for i, lag in enumerate(lags):
                acf[i] += np.mean(g[lag:] * np.conj(g[: 401 - lag]))
        acf /= 200
        rms = float(np.sqrt(np.mean(np.abs(acf - j0(2 * np.pi * fd * lags
                                                    / 4000.0)) ** 2)))
        rms_vals.append(rms)
        jakes_ok = jakes_ok and rms < 0.05
    report(7, awgn_ok and rician_ok and jakes_ok,
           f"awgn={awgn_ok} rician-split={rician_ok} jakes RMS={rms_vals}")


def test_criterion_8_fec_correctness():
    # exhaustive inversion up to length 12
    ok = True
    for length in range(1, 13):
        msgs = ((np.arange(1 << length)[:, None] >>
                 np.arange(length - 1, -1, -1)) & 1).astype(np.uint8)
        for msg in msgs[:: max(1, len(msgs) // 256)]:
            if not np.array_equal(viterbi_decode(conv_encode(msg)), msg):
                ok = False
    # randomized up to length 1000
    rng = np.random.default_rng(41)
    for _ in range(20):
        msg = rng.integers(0, 2, int(rng.integers(1, 1001))).astype(np.uint8)
        if not np.array_equal(viterbi_decode(conv_encode(msg)), msg):
            ok = False
    # every single flip corrected on a length-64 message
    msg = rng.integers(0, 2, 64).astype(np.uint8)
    word = conv_encode(msg)
    for pos in range(len(word)):
        corrupted = word.copy()
        corrupted[pos] ^= 1
        if not np.array_equal(viterbi_decode(corrupted), msg):
            ok = False
    # brute-force ML equivalence on length-12 blocks
    length = 12
    gen = np.zeros((length, 2 * (length + 6)), dtype=np.uint8)
    for i in range(length):
        unit = np.zeros(length, dtype=np.uint8)
        unit[i] = 1
        gen[i] = conv_encode(unit)
    all_msgs = ((np.arange(1 << length)[:, None] >>
                 np.arange(length - 1, -1, -1)) & 1).astype(np.uint8)
    all_words = all_msgs @ gen % 2
    for _ in range(50):
        word = conv_encode(all_msgs[rng.integers(0, 1 << length)])
        corrupted = word ^ (rng.random(len(word)) < 0.08).astype(np.uint8)
        decoded = viterbi_decode(corrupted)
        got = np.sum(conv_encode(decoded) ^ corrupted)
        best = np.min(np.sum(all_words ^ corrupted, axis=1))
        if got != best:
            ok = False
    report(8, ok, "inversion, single-flip correction, brute-force ML match")


def test_criterion_9_artifact_determinism(tmp_path, capsys):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("modulation = qpsk, 16qam\nchannel = static\n"
                   "snr_start_db = 0\nsnr_stop_db = 12\nsnr_step_db = 6\n"
                   "n_bits = 8000\nseed = 77\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["ber-sweep", "--config", str(cfg), "--out",
                     str(out_a)]) == 0
    assert cli.main(["ber-sweep", "--config", str(cfg), "--out",
                     str(out_b)]) == 0
    capsys.readouterr()
    csv_same = ((out_a / "points.csv").read_bytes()
                == (out_b / "points.csv").read_bytes())
    svg_same = ((out_a / "curves.svg").read_bytes()
                == (out_b / "curves.svg").read_bytes())
    report(9, csv_same and svg_same,
           f"csv identical={csv_same} svg identical={svg_same}")
