"""Span tracing of ofdmlink from outside the package.

Spans are recorded by replacing public functions at the module attribute
each caller looks up (``ofdmlink.simcli.viterbi_decode``,
``ofdmlink.ofdm.fft``, ...) with a wrapper that records name, start, end,
parent span and op id.  Spans are kept in memory and summarised when the
run ends.  A layer's self time is its span duration minus the time covered
by its child spans.

Every benchmark op gets a root span ``bench.op``; its self time is the part
of the op that no layer span covers.  The summed self time of the layer
spans must match the ops' wall time within COVERAGE_TOLERANCE, so a missing
wrapper around a whole op fails the run instead of quietly shrinking a
share; a wrapper whose target is gone fails it too (``missing``).
"""

import functools
import math
import time

# Sum-of-sinusoids size of the Jakes model at the commit that defined the
# benchmark; sinusoid_evals is computed as taps x samples x this.
JAKES_SINUSOIDS = 32

# The summed self time of the layer spans (the root excluded) and the op
# wall time measured outside the root span must agree within this share.
COVERAGE_TOLERANCE = 0.01


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _size(value):
    return value.size if hasattr(value, "size") else len(value)


def _rows(value):
    """Transforms or OFDM symbols in a batch: all axes but the last."""
    return math.prod(value.shape[:-1])


def _draws(size):
    if size is None:
        return 1
    if isinstance(size, tuple):
        return math.prod(size)
    return int(size)


def _rician_counts(args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "cfg")
    tap_samples = _size(result.tap_trajectories)
    evals = tap_samples * JAKES_SINUSOIDS if cfg.kind == "rician" else 0
    return {"tap_samples": tap_samples, "sinusoid_evals": evals}


def _pre_fft_counts(args, kwargs, result):
    return {"samples": _size(_arg(args, kwargs, 0, "rx")),
            "updates": len(result[1].squared_errors)}


def _demap_counts(args, kwargs, result):
    n = _size(_arg(args, kwargs, 0, "symbols"))
    return {"symbols": n, "dist_evals": n * _arg(args, kwargs, 1, "spec").order}


def _fft_counts(args, kwargs, result):
    return {"rows": _rows(result)}


# (owner path inside ofdmlink, attribute, span name, counter).  A counter
# maps (args, kwargs, result) to {count name: amount}; every span also
# counts its calls.
TARGETS = (
    ("simcli", "viterbi_decode", "fec.viterbi_decode",
     lambda a, k, r: {"trellis_steps": _size(_arg(a, k, 0, "coded")) // 2}),
    ("simcli", "conv_encode", "fec.conv_encode",
     lambda a, k, r: {"bits": _size(_arg(a, k, 0, "bits"))}),
    ("simcli", "rician_taps", "channel.rician_taps", _rician_counts),
    ("simcli", "apply_fading", "channel.apply_fading", None),
    ("simcli", "static_multipath", "channel.static_multipath",
     lambda a, k, r: {"samples": _size(_arg(a, k, 0, "signal"))}),
    ("simcli", "add_awgn", "channel.add_awgn",
     lambda a, k, r: {"samples": _size(_arg(a, k, 0, "signal"))}),
    ("simcli", "equalize_pre_fft", "equalizer.equalize_pre_fft",
     _pre_fft_counts),
    ("equalizer.PilotLmsEstimator", "update",
     "equalizer.PilotLmsEstimator.update", None),
    ("simcli", "demap_hard", "modem.demap_hard", _demap_counts),
    ("simcli", "map_bits", "modem.map_bits", None),
    ("simcli", "constellation", "modem.constellation", None),
    ("simcli", "default_grid", "ofdm.default_grid", None),
    ("simcli", "assemble", "ofdm.assemble",
     lambda a, k, r: {"frames": _rows(_arg(a, k, 0, "data_symbols"))}),
    ("simcli", "disassemble", "ofdm.disassemble",
     lambda a, k, r: {"frames": _rows(_arg(a, k, 0, "time_samples"))}),
    ("simcli", "equalize_one_tap", "ofdm.equalize_one_tap", None),
    ("simcli", "fft", "numerics.fft", _fft_counts),
    ("ofdm", "fft", "numerics.fft", _fft_counts),
    ("ofdm", "ifft", "numerics.fft", _fft_counts),
    ("numerics.RngStream", "bits", "numerics.rng",
     lambda a, k, r: {"draws": _draws(_arg(a, k, 1, "n"))}),
    ("numerics.RngStream", "uniform", "numerics.rng",
     lambda a, k, r: {"draws": _draws(_arg(a, k, 1, "size"))}),
    ("numerics.RngStream", "normal", "numerics.rng",
     lambda a, k, r: {"draws": _draws(_arg(a, k, 1, "n"))}),
    ("simcli", "run_point", "simcli.run_point", None),
    ("simcli", "run_lms_trace", "simcli.run_lms_trace", None),
    ("simcli", "write_csv", "simcli.write_csv", None),
    ("simcli", "emit_plot", "simcli.emit_plot", None),
)

# Per-layer metrics.  A ".self_ms" metric is the self time of the span
# named before it, in ms per cycle; any other is a count per cycle.  A cycle
# is one pass over the workload's op list.
LAYER_METRICS = (
    "fec.viterbi_decode.self_ms",
    "fec.viterbi_decode.calls",
    "fec.viterbi_decode.trellis_steps",
    "fec.conv_encode.self_ms",
    "fec.conv_encode.bits",
    "channel.rician_taps.self_ms",
    "channel.rician_taps.tap_samples",
    "channel.rician_taps.sinusoid_evals",
    "channel.apply_fading.self_ms",
    "channel.static_multipath.self_ms",
    "channel.static_multipath.samples",
    "channel.add_awgn.self_ms",
    "channel.add_awgn.samples",
    "equalizer.equalize_pre_fft.self_ms",
    "equalizer.equalize_pre_fft.calls",
    "equalizer.equalize_pre_fft.samples",
    "equalizer.equalize_pre_fft.updates",
    "equalizer.equalize_pre_fft.diverged",
    "equalizer.PilotLmsEstimator.update.self_ms",
    "equalizer.PilotLmsEstimator.update.calls",
    "modem.demap_hard.self_ms",
    "modem.demap_hard.symbols",
    "modem.demap_hard.dist_evals",
    "modem.map_bits.self_ms",
    "modem.constellation.self_ms",
    "modem.constellation.calls",
    "ofdm.default_grid.self_ms",
    "ofdm.default_grid.calls",
    "ofdm.assemble.self_ms",
    "ofdm.assemble.frames",
    "ofdm.disassemble.self_ms",
    "ofdm.disassemble.frames",
    "ofdm.equalize_one_tap.self_ms",
    "numerics.fft.self_ms",
    "numerics.fft.calls",
    "numerics.fft.rows",
    "numerics.rng.self_ms",
    "numerics.rng.draws",
    "simcli.run_point.self_ms",
    "simcli.run_point.calls",
    "simcli.run_lms_trace.self_ms",
    "simcli.write_csv.self_ms",
    "simcli.emit_plot.self_ms",
    "simcli.artifact_bytes",
)

ROOT = "bench.op"


class Tracer:
    """Installs span wrappers into ofdmlink and keeps the spans in memory."""

    def __init__(self, package, divergence_error):
        self._package = package
        self._divergence_error = divergence_error
        # [name, start, end, parent index, op id]
        self.spans = []
        self.counts = {}
        self.missing = []
        self._stack = []
        self._op_id = -1
        self._installed = []

    def _owner(self, path):
        obj = self._package
        for part in path.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack
        diverged = self._divergence_error

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op_id]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except diverged:
                self.count(name + ".diverged", 1)
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            self.count(name + ".calls", 1)
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.count(f"{name}.{key}", amount)
            return result

        return wrapper

    def install(self):
        """Wrap every target; targets the package no longer has are listed
        in ``missing``, which fails the traced run, and skipped."""
        self.missing = []
        for path, attr, name, counter in TARGETS:
            owner = self._owner(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{path}.{attr}")
                continue
            # class attributes are read from __dict__ so methods stay plain
            # functions and bind as before
            if isinstance(owner, type):
                fn = owner.__dict__.get(attr, fn)
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed = []

    def begin_op(self, op_id):
        self._op_id = op_id
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, op_id])

    def end_op(self):
        index = self._stack.pop()
        self.spans[index][2] = time.perf_counter()
        self._op_id = -1


def summarize(tracer, op_walls, n_cycles, layers):
    """Self time per span name, coverage check and uncovered shares.

    ``op_walls`` maps op id to the op's wall time measured by the caller
    outside its root span; ``layers`` are span names that must have been
    called.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s = {}
    uncovered = []
    for i, (name, start, end, _, _) in enumerate(spans):
        own = end - start - covered[i]
        self_s[name] = self_s.get(name, 0.0) + own
        if name == ROOT and end > start:
            uncovered.append(own / (end - start))
    layer_self = sum(v for name, v in self_s.items() if name != ROOT)
    total_wall = sum(op_walls.values())
    coverage_error = abs(total_wall - layer_self) / total_wall

    metrics = {}
    for metric in LAYER_METRICS:
        span = metric.removesuffix(".self_ms")
        if span != metric:
            value, unit = self_s.get(span, 0.0) * 1e3 / n_cycles, "ms/cycle"
        else:
            value, unit = tracer.counts.get(metric, 0) / n_cycles, "count/cycle"
        metrics[metric] = {"value": value, "unit": unit}
    metrics["trace.coverage_error_pct"] = {
        "value": 100.0 * coverage_error, "unit": "%"}
    metrics["trace.uncovered_pct"] = {
        "value": 100.0 * self_s.get(ROOT, 0.0) / total_wall, "unit": "%"}
    metrics["trace.uncovered_pct_max"] = {
        "value": 100.0 * max(uncovered, default=0.0), "unit": "%"}
    idle = [name for name in layers if not tracer.counts.get(name + ".calls")]
    details = {
        "ok": (coverage_error <= COVERAGE_TOLERANCE and not tracer.missing
               and not idle),
        "coverage_tolerance_pct": 100.0 * COVERAGE_TOLERANCE,
        "spans": len(spans),
        "missing_targets": tracer.missing,
        "idle_layers": idle,
        "self_ms_per_cycle": {k: v * 1e3 / n_cycles
                              for k, v in sorted(self_s.items())},
    }
    return metrics, details
