"""One workload in one fresh process: warm-up, timed cycles, checks.

Started by ``run.py`` as

    python -I benchmarks/worker.py --workload NAME --seed N --seconds S
                                   --trace 0|1

It prints one JSON object on stdout.  With ``--trace 1`` cycles alternate
between untraced and traced, so the traced run can also report the tracing
overhead on the same host conditions.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]
from tracing import Tracer, summarize  # noqa: E402
from workloads import DEFAULT_SEED, N_BITS, WORKLOADS, point_key  # noqa: E402


class Checker:
    """Correctness gate: reference counts, invariants, run-to-run equality.

    An op fails if it raises, if a count breaks an invariant or differs from
    the reference (default seed) or from an earlier op on the same key in
    this run, or if two sweeps of one config write different artifacts.
    """

    def __init__(self, reference, seed):
        self.reference = reference
        self.seed = seed
        self.counts = {}  # key -> errors, first seen in this run
        self.lms = {}  # label -> [mu, updates]
        self.artifacts = {}  # config label -> sha256 of csv + svg

    def points(self, config, points):
        problems = []
        for p in points:
            key = point_key(config, p.modulation, p.snr_db)
            if p.bits != N_BITS or not 0 <= p.errors <= p.bits:
                problems.append(f"{key}: {p.errors}/{p.bits} bits")
            if p.seed != self.seed:
                problems.append(f"{key}: seed {p.seed} != {self.seed}")
            seen = self.counts.setdefault(key, p.errors)
            if p.errors != seen:
                problems.append(f"{key}: {p.errors} errors, earlier {seen}")
            if self.reference is not None:
                want = self.reference["points"].get(key)
                if p.errors != want:
                    problems.append(f"{key}: {p.errors} errors, reference {want}")
        return problems

    def artifacts_of(self, config, digest):
        seen = self.artifacts.setdefault(config, digest)
        return [] if digest == seen else [f"{config}: artifacts differ"]

    def lms_trace(self, label, mu, updates):
        got = [mu, updates]
        problems = []
        seen = self.lms.setdefault(label, got)
        if got != seen:
            problems.append(f"{label}: mu/updates {got}, earlier {seen}")
        if self.reference is not None:
            want = self.reference["lms"].get(label)
            if got != want:
                problems.append(f"{label}: mu/updates {got}, reference {want}")
        return problems


def nearest_rank(sorted_values, percentile):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import numpy
    import scipy
    import ofdmlink
    from ofdmlink import simcli
    from ofdmlink.errors import DivergenceError
    if not Path(ofdmlink.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"ofdmlink imported from {ofdmlink.__file__}, "
                         f"not from {SRC}")

    wl = WORKLOADS[args.workload]
    cfgs = {spec.label: simcli.parse_config(spec.text(args.seed))
            for spec in wl.configs}
    # a single point uses the stream id its (modulation, SNR) has in the
    # sweep, as run_sweep numbers its jobs
    stream_of = {}
    for label, cfg in cfgs.items():
        jobs = [(m, s) for m in cfg.modulations for s in cfg.snr_grid_db]
        for i, (m, s) in enumerate(jobs):
            stream_of[point_key(label, m, s)] = i

    reference = None
    if args.seed == DEFAULT_SEED:
        with open(HERE / "reference.json") as fh:
            reference = json.load(fh)["workloads"][wl.name]
    checker = Checker(reference, args.seed)

    workdir = HERE / ".work" / f"{wl.name}-{os.getpid()}"
    for label in cfgs:
        (workdir / label.replace("/", "_")).mkdir(parents=True, exist_ok=True)
    tracer = Tracer(ofdmlink, DivergenceError)

    def run_op(op):
        """Run one op; returns (points, checks).  checks() runs untimed and
        returns (problems, artifact bytes)."""
        cfg = cfgs[op.config]
        if op.kind == "sweep":
            out = workdir / op.config.replace("/", "_")
            csv_path, svg_path = out / "points.csv", out / "curves.svg"
            points = simcli.run_sweep(cfg, csv_path=str(csv_path))
            simcli.emit_plot(points, str(svg_path))

            def checks():
                blob = csv_path.read_bytes() + svg_path.read_bytes()
                problems = checker.artifacts_of(
                    op.config, hashlib.sha256(blob).hexdigest())
                if len(points) != len(cfg.modulations) * len(cfg.snr_grid_db):
                    problems.append(f"{op.config}: {len(points)} points")
                problems += checker.points(op.config, points)
                return problems, len(blob)
            return points, checks
        if op.kind == "point":
            stream = stream_of[point_key(op.config, op.modulation, op.snr_db)]
            point = simcli.run_point(cfg, op.snr_db, modulation=op.modulation,
                                     stream_id=stream)
            return [point], lambda: (checker.points(op.config, [point]), 0)
        trace, mu, _ = simcli.run_lms_trace(cfg)
        updates = len(trace.squared_errors)
        return [], lambda: (checker.lms_trace(op.config, mu, updates), 0)

    failures = []
    op_id = 0

    def attempt(op, traced):
        """Time one op; returns (seconds, bits, failed)."""
        nonlocal op_id
        op_id += 1
        start = time.perf_counter()
        if traced:
            tracer.begin_op(op_id)
        try:
            try:
                points, checks = run_op(op)
            finally:
                if traced:
                    tracer.end_op()
                elapsed = time.perf_counter() - start
            problems, artifact_bytes = checks()
        except Exception as exc:  # an op that raises counts as failed
            failures.append(f"{op.kind} {op.config} {op.modulation} "
                            f"{op.snr_db:g}: {type(exc).__name__}: {exc}")
            return elapsed, 0, True
        if traced:
            tracer.count("simcli.artifact_bytes", artifact_bytes)
        failures.extend(problems)
        return elapsed, sum(p.bits for p in points), bool(problems)

    try:
        warm = next(op for op in wl.ops if op.kind == "point")
        attempt(warm, traced=False)
        failures_at_warmup = len(failures)

        attempted = failed = cycles = 0
        bits = {False: 0, True: 0}
        busy = {False: 0.0, True: 0.0}
        point_ms = []
        cycle_s = []
        op_walls = {}
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            traced = bool(args.trace) and cycles % 2 == 1
            if traced:
                tracer.install()
            try:
                for op in wl.ops:
                    seconds, n, bad = attempt(op, traced)
                    attempted += 1
                    failed += bad
                    bits[traced] += n
                    busy[traced] += seconds
                    if traced:
                        op_walls[op_id] = seconds
                    elif op.kind == "point":
                        point_ms.append(seconds * 1e3)
            finally:
                tracer.uninstall()
            cycles += 1
            cycle_s.append(time.perf_counter() - cycle_start)
            # stop where the run ends closest to --seconds; traced runs
            # stop after whole (untraced, traced) pairs
            step = 2 if args.trace else 1
            if cycles % step == 0:
                left = args.seconds - (time.perf_counter() - start)
                if left < step * statistics.mean(cycle_s) / 2:
                    break
        run_s = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    result = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "warmup_failed": failures_at_warmup > 0,
        "cycles": cycles,
        "cycle_s": cycle_s,
        "run_s": run_s,
        "counts": dict(sorted(checker.counts.items())),
        "lms": checker.lms,
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "ofdmlink": ofdmlink.__version__,
            "n_bits": N_BITS,
            "snr_grids_db": {label: list(cfg.snr_grid_db)
                             for label, cfg in cfgs.items()},
        },
    }
    untraced_rate = bits[False] / busy[False]
    if args.trace:
        n_traced = cycles // 2
        metrics, details = summarize(tracer, op_walls, n_traced,
                                     wl.layers)
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (bits[True] / busy[True] / untraced_rate - 1.0),
            "unit": "%"}
        result.update(metrics=metrics, trace=details)
    else:
        point_ms.sort()
        tail, beyond = nearest_rank(point_ms, wl.tail_percentile)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result["metrics"] = {
            "bits_per_s": {"value": untraced_rate, "unit": "bit/s"},
            "point_ms_p50": {"value": statistics.median(point_ms), "unit": "ms"},
            "point_ms_tail": {"value": tail, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted,
                         "unit": "ratio"},
        }
        result["latency"] = {
            "point_samples": len(point_ms),
            "tail_percentile": wl.tail_percentile,
            "tail_samples_beyond": beyond,
        }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
