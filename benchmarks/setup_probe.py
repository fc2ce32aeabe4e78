"""Set-up probe: the work every ``sim`` call pays before its first point.

Started by ``run.py`` as ``python -I benchmarks/setup_probe.py NAME SEED`` in
a fresh interpreter.  It imports ofdmlink, parses the workload's configs
and builds the constellations, the grid and (for coded workloads) the
trellis, then prints ``ready``.  ``run.py`` times from process start to that
line.
"""

import sys
from pathlib import Path


def main(workload, seed):
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    import numpy as np
    from ofdmlink import fec, modem, ofdm, simcli
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    cfgs = [simcli.parse_config(spec.text(seed)) for spec in wl.configs]
    for mod in sorted({m for cfg in cfgs for m in cfg.modulations}):
        modem.constellation(mod)
    ofdm.default_grid()
    if wl.coded:
        # the shortest valid block; the decoder builds its trellis first
        fec.viterbi_decode(np.zeros(2 * fec.DEFAULT_CODE.tail_bits, np.uint8))
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
