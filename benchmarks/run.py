"""ofdmlink benchmark: one workload, end-to-end or traced.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1]

Run from the root of a source checkout; the simulator is imported from its
``src`` directory, never from an installed copy.  Each workload runs in
fresh processes with the BLAS thread count capped at the usable cores:

* ``--trace 0`` times the set-up of SET_UP_PROBES fresh interpreters, then
  runs the workload in one more fresh process, which reports throughput,
  single-point latency, peak RSS and the share of ops that passed the
  correctness gate;
* ``--trace 1`` runs the workload with span tracing on every other cycle
  and reports self time and work counts per layer instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
report with the provenance, latency sample counts, error counts and any
failures.  The workloads are defined in ``workloads.py``; the reason for
each is in ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SET_UP_PROBES = 5
# every run must end within this many seconds
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(cap):
    env = dict(os.environ)
    env.update({var: str(cap) for var in BLAS_THREAD_VARS})
    return env


def probe_set_up(root, workload, seed, env, timeout):
    """Seconds from starting a fresh interpreter to the probe's ``ready``."""
    cmd = [sys.executable, "-I", str(HERE / "setup_probe.py"), workload,
           str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                          cwd=root, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed


def main(argv=None):
    try:
        return run(argv)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()

    root = HERE.parent
    if not (root / "src" / "ofdmlink" / "__init__.py").is_file():
        print(f"error: no simulator source under {root / 'src'}",
              file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    env = child_env(cores)

    set_up = []
    if not args.trace:
        # one untimed probe first, so every timed one finds the bytecode
        # cache and the page cache as a repeated `sim` call does
        for i in range(SET_UP_PROBES + 1):
            s = probe_set_up(root, args.workload, args.seed, env, timeout=60)
            if i:
                set_up.append(s)

    cmd = [sys.executable, "-I", str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    timeout = DEADLINE_S - (time.perf_counter() - began)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=root,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])

    metrics = result.pop("metrics")
    if set_up:
        metrics["setup_s"] = {"value": statistics.median(set_up), "unit": "s"}
    correct = result["failed"] == 0 and not result["warmup_failed"]
    if args.trace:
        correct = correct and result["trace"]["ok"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_checked": args.seed == DEFAULT_SEED,
        "fail_ratio": result["failed"] / result["attempted"],
        "set_up_probes_s": set_up,
        **result,
    }
    report["provenance"].update(
        cores=os.cpu_count(), cores_usable=cores, blas_thread_cap=cores)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
