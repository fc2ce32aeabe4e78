"""Golden sweep: every receiver x channel x coding, compared byte for byte.

The committed ``golden_points.csv`` pins the error counts of 108 points
(3 receivers x 3 channels x {none, cc_k7} x {qpsk, 16qam} x SNR
{4, 12, 30} dB, n_bits = 4000, seed 5).  A change that moves a count must
explain it before the file is regenerated with

    PYTHONPATH=src python tests/test_golden.py
"""

import itertools
from pathlib import Path

from ofdmlink.simcli import SimConfig, run_sweep, write_csv

GOLDEN = Path(__file__).with_name("golden_points.csv")

RECEIVERS = ("known_channel_zf", "pilot_fd_lms", "pre_fft_lms")
CHANNELS = ("awgn", "static", "rician")
CODINGS = ("none", "cc_k7")


def golden_sweep(path):
    points = []
    for receiver, channel, coding in itertools.product(RECEIVERS, CHANNELS,
                                                       CODINGS):
        cfg = SimConfig(modulations=("qpsk", "16qam"), channel=channel,
                        coding=coding, receiver_mode=receiver,
                        snr_grid_db=(4.0, 12.0, 30.0), n_bits=4000, seed=5)
        points += run_sweep(cfg)
    write_csv(points, path)


def test_golden_sweep_byte_identical(tmp_path):
    path = tmp_path / "points.csv"
    golden_sweep(path)
    assert path.read_bytes() == GOLDEN.read_bytes()


if __name__ == "__main__":
    golden_sweep(GOLDEN)
    print(f"wrote {GOLDEN}")
