"""Workload definitions for the ofdmlink benchmark.

A workload is a fixed list of operations (one *cycle*) that the worker
repeats until the run time is used up.  Every workload uses
``n_bits = 44000`` and interleaves three kinds of operation, all through
the public API:

* ``sweep``  -- ``run_sweep(cfg, csv_path)`` then ``emit_plot``, the calls
  ``sim ber-sweep`` makes;
* ``point``  -- one ``run_point``; it uses the RNG stream id of the same
  (modulation, SNR) inside the sweep, so it must reproduce that sweep
  point's error count exactly;
* ``lms``    -- one ``run_lms_trace`` with ``lms_mu`` unset, so the
  seven-candidate step-size sweep runs.

The workload seed reaches the simulator only as the ``seed`` line of the
generated config texts, which go through ``parse_config``.

This module uses only the standard library, so the set-up probe can import
it without adding to the cost it measures.
"""

from dataclasses import dataclass

N_BITS = 44000
DEFAULT_SEED = 1

UNCODED_MODS = ("qpsk", "16qam", "64qam", "256qam", "256psk")
RECEIVERS = ("known_channel_zf", "pilot_fd_lms", "pre_fft_lms")


@dataclass(frozen=True)
class ConfigSpec:
    """One simulator config of a workload, before the seed is filled in."""

    label: str
    channel: str
    coding: str
    receiver_mode: str
    modulations: tuple
    snr_start_db: float
    snr_stop_db: float
    snr_step_db: float

    def text(self, seed):
        """The config file text that ``parse_config`` reads."""
        return "\n".join([
            f"modulation = {', '.join(self.modulations)}",
            f"channel = {self.channel}",
            f"coding = {self.coding}",
            f"receiver_mode = {self.receiver_mode}",
            f"snr_start_db = {self.snr_start_db:g}",
            f"snr_stop_db = {self.snr_stop_db:g}",
            f"snr_step_db = {self.snr_step_db:g}",
            f"n_bits = {N_BITS}",
            f"seed = {seed}",
            "k_factor = 3",
            "doppler_hz = 100",
            "",
        ])


@dataclass(frozen=True)
class Op:
    kind: str  # "sweep" | "point" | "lms"
    config: str  # ConfigSpec label
    modulation: str = ""
    snr_db: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    ops: tuple  # one cycle
    # Percentile reported as point_ms_tail.  Fixed per workload so that it
    # means the same on every commit; chosen as the highest multiple of 5
    # that left at least ten single-point samples beyond it in every 30 s
    # run at the commit that defined the benchmark, slow host phases
    # included (faster code only adds samples).
    tail_percentile: int
    # Span names (see tracing.py) the workload exists to measure; the traced
    # run fails if one of them is never called.
    layers: tuple

    def config(self, label):
        for spec in self.configs:
            if spec.label == label:
                return spec
        raise KeyError(label)

    @property
    def coded(self):
        return any(spec.coding != "none" for spec in self.configs)


def point_key(config, modulation, snr_db):
    """Key of one (config, modulation, SNR) error count in the reference."""
    return f"{config}|{modulation}|{snr_db:g}"


def _interleave(configs, points_of, lms=()):
    """Each config's sweep followed by its single points, then LMS traces."""
    ops = []
    for spec in configs:
        ops.append(Op("sweep", spec.label))
        ops.extend(Op("point", spec.label, mod, snr)
                   for mod, snr in points_of(spec))
    ops.extend(Op("lms", label) for label in lms)
    return tuple(ops)


def _uncoded_fixed():
    configs = tuple(
        ConfigSpec(f"{channel}/{rx}", channel, "none", rx, UNCODED_MODS,
                   4, 24, 10)
        for channel in ("awgn", "static") for rx in RECEIVERS
    )
    lms = tuple(
        ConfigSpec(f"lms/{mod}", "static", "none", "pre_fft_lms", (mod,),
                   20, 20, 1)
        for mod in ("qpsk", "16qam")
    )
    # Single points use the ZF and pilot-LMS receivers only.  Pre-FFT LMS
    # points run a per-sample Python loop whose time doubles in the host's
    # slow phases, where vectorised points slow by a third; as the slowest
    # singles they set the tail, which then spread 0.41 (quartile distance
    # over median) across ten runs.  They still run in every sweep and in
    # the LMS traces.  The second pair of 256-ary points puts the median
    # inside the 14-22 ms group of QPSK and 256-ary points instead of on the
    # gap below it, where the 16/64-QAM points sit at 8-11 ms.
    def points_of(spec):
        if spec.receiver_mode == "pre_fft_lms":
            return []
        return ([(mod, 14.0) for mod in spec.modulations]
                + [("256qam", 24.0), ("256psk", 24.0)])

    ops = _interleave(configs, points_of, lms=[spec.label for spec in lms])
    return Workload(
        name="uncoded_fixed",
        configs=configs + lms,
        ops=ops,
        tail_percentile=95,
        layers=("channel.static_multipath", "channel.add_awgn",
                "equalizer.equalize_pre_fft",
                "equalizer.PilotLmsEstimator.update", "modem.demap_hard",
                "modem.map_bits", "modem.constellation", "ofdm.default_grid",
                "ofdm.assemble", "ofdm.disassemble", "ofdm.equalize_one_tap",
                "numerics.fft", "numerics.rng", "simcli.run_point",
                "simcli.run_lms_trace", "simcli.write_csv", "simcli.emit_plot"),
    )


def _coded_static():
    configs = tuple(
        ConfigSpec(f"static/{rx}/cc_k7", "static", "cc_k7", rx,
                   ("qpsk", "16qam"), 2, 8, 6)
        for rx in RECEIVERS[:2]
    )
    ops = _interleave(configs,
                      lambda spec: [(mod, snr) for mod in spec.modulations
                                    for snr in (2.0, 8.0)])
    return Workload(
        name="coded_static",
        configs=configs,
        ops=ops,
        tail_percentile=75,
        layers=("fec.viterbi_decode", "fec.conv_encode"),
    )


def _rician_fading():
    configs = tuple(
        ConfigSpec(f"rician/{rx}", "rician", "none", rx, ("qpsk", "16qam"),
                   10, 30, 20)
        for rx in RECEIVERS
    )
    # A QPSK point takes about twice as long as a 16-QAM one (twice the
    # samples); pilot-LMS points are slower than ZF ones and pre-FFT LMS
    # points the slowest of each.  Sorted by time, this mix puts the median
    # between two copies of the QPSK ZF point at 10 dB and the tail
    # percentile on the QPSK pilot-LMS points.  The ZF point at 30 dB takes
    # 9% longer than at 10 dB; with one of each, the median fell on the gap
    # between them and spread 0.12 (quartile distance over median) across
    # ten runs.
    def points_of(spec):
        if spec.receiver_mode == "known_channel_zf":
            return [("16qam", 10.0), ("qpsk", 10.0), ("qpsk", 10.0)]
        pre_fft = spec.receiver_mode == "pre_fft_lms"
        return ([("16qam", 10.0)] + [("16qam", 30.0)] * pre_fft
                + [("qpsk", 10.0), ("qpsk", 30.0)])

    ops = _interleave(configs, points_of)
    return Workload(
        name="rician_fading",
        configs=configs,
        ops=ops,
        tail_percentile=70,
        layers=("channel.rician_taps", "channel.apply_fading",
                "equalizer.equalize_pre_fft", "numerics.fft"),
    )


WORKLOADS = {w.name: w for w in (_uncoded_fixed(), _coded_static(),
                                 _rician_fading())}
