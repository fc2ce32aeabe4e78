"""Regenerate reference.json: error counts for the default workload seed.

    python3 benchmarks/make_reference.py

Runs every sweep and LMS trace of every workload once with the default
seed and records, per (workload, config, modulation, SNR), the error count,
and per LMS trace the chosen step size and the number of updates.  The
benchmark fails an op whose counts differ.  Regenerate only with a change
that explains every count that moved.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from ofdmlink import simcli  # noqa: E402
from workloads import DEFAULT_SEED, N_BITS, WORKLOADS, point_key  # noqa: E402


def main():
    out = {"seed": DEFAULT_SEED, "n_bits": N_BITS, "workloads": {}}
    for wl in WORKLOADS.values():
        points, lms = {}, {}
        for label in dict.fromkeys(op.config for op in wl.ops):
            cfg = simcli.parse_config(wl.config(label).text(DEFAULT_SEED))
            if any(op.kind == "lms" and op.config == label for op in wl.ops):
                trace, mu, _ = simcli.run_lms_trace(cfg)
                lms[label] = [mu, len(trace.squared_errors)]
            else:
                for p in simcli.run_sweep(cfg):
                    points[point_key(label, p.modulation, p.snr_db)] = p.errors
        out["workloads"][wl.name] = {"points": points, "lms": lms}
    path = HERE / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
