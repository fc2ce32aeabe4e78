"""Command-line entry point: ber-sweep, demo-audio, lms-trace, plot."""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import simcli
from .errors import SimError


def _add_config_arg(parser):
    parser.add_argument("--config", required=True, help="config file path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sim",
        description="OFDM link simulator with LMS equalization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ber-sweep", help="run a BER-vs-SNR sweep")
    _add_config_arg(p)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("demo-audio", help="send the 1 kHz PCM sine end to end")
    _add_config_arg(p)

    p = sub.add_parser("lms-trace", help="write the per-step |e|^2 trace CSV")
    _add_config_arg(p)
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("plot", help="render a points CSV as an SVG")
    p.add_argument("--in", dest="infile", required=True, help="points CSV")
    p.add_argument("--out", dest="outfile", required=True, help="SVG path")
    return parser


def cmd_ber_sweep(args):
    cfg = simcli.load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "points.csv")
    points = simcli.run_sweep(cfg, csv_path=csv_path)
    svg_path = os.path.join(args.out, "curves.svg")
    simcli.emit_plot(points, svg_path)
    for p in points:
        print(f"{p.modulation} snr={p.snr_db:g} dB ebn0={p.ebn0_db:.4g} dB "
              f"ber={p.ber:.6g} ({p.errors}/{p.bits})")
    print(f"wrote {csv_path} and {svg_path}")


def cmd_demo_audio(args):
    cfg = simcli.load_config(args.config)
    cfg = replace(cfg, source="sine")
    point = simcli.run_point(cfg, cfg.snr_grid_db[0])
    print(f"demo-audio: {point.modulation} over {point.channel} at "
          f"snr={point.snr_db:g} dB -> ber={point.ber:.6g} "
          f"({point.errors}/{point.bits})")
    original = simcli.reconstruct_sine(simcli.generate_source(cfg.n_bits))
    print(f"first waveform samples: {np.round(original[:8], 4).tolist()}")


def cmd_lms_trace(args):
    cfg = simcli.load_config(args.config)
    trace, mu, initial_mse = simcli.run_lms_trace(cfg)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "lms_trace.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,squared_error\n")
        for i, e in enumerate(trace.squared_errors):
            fh.write(f"{i},{e:.6g}\n")
    final = trace.squared_errors[-simcli.MSE_WINDOW:].mean()
    print(f"step size {mu:g}; initial MSE {initial_mse:.6g}; "
          f"final {simcli.MSE_WINDOW}-step MSE {final:.6g}; wrote {path}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "ber-sweep":
            cmd_ber_sweep(args)
        elif args.command == "demo-audio":
            cmd_demo_audio(args)
        elif args.command == "lms-trace":
            cmd_lms_trace(args)
        else:
            simcli.emit_plot(simcli.read_csv(args.infile), args.outfile)
            print(f"wrote {args.outfile}")
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
