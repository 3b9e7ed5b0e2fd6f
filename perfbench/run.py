#!/usr/bin/env python3
"""The emrcache benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload {scenario-eval,mc-estimate,cli-cold}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is imported from `src/`. The
run sets up, then repeats whole cycles of the workload's operations until
`--seconds` have passed and at least MIN_OPS operations are done, checking
every output against an independent model. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("scenario-eval", "mc-estimate", "cli-cold")
MIN_OPS = 100
SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
MAX_REPORTED_FAILURES = 5


def set_up(workload_name: str, seed: int, workdir: str, trace: bool):
    """Import emrcache, build the workload's inputs and warm up; returns (workload, seconds)."""
    start = time.perf_counter()
    import emrcache  # noqa: F401  (timed: part of what set-up costs)
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed, workdir, trace)
    workload.warm_up()
    return workload, time.perf_counter() - start


def probe_set_up(args, workdir: str) -> float:
    """Time one more set-up in a fresh interpreter, so import is cold again."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", workdir]
    result = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if result.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {result.stderr.strip()[-500:]}")
    return float(result.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, tracer):
    """Whole cycles until `seconds` have passed and MIN_OPS are done.

    Before each operation a full collection runs outside the timed span, so
    the collections inside a span are those the operation's own allocations
    cause, not leftovers of earlier operations and checks.
    """
    durations, failed = [], 0
    start = time.perf_counter()
    while True:
        for item in workload.items:
            if tracer is not None:
                tracer.op = len(durations)
            gc.collect()
            t0 = time.perf_counter()
            try:
                output = workload.run(item)
                error = None
            except Exception as exc:  # a failing operation is counted, not fatal
                error = exc
            durations.append(time.perf_counter() - t0)
            if error is None:
                try:
                    workload.check(item, output)
                except Exception as exc:  # a check that cannot even read the output
                    error = exc
            if error is not None:
                failed += 1
                if failed <= MAX_REPORTED_FAILURES:
                    traceback.print_exception(error, file=sys.stderr)
        if time.perf_counter() - start >= seconds and len(durations) >= MIN_OPS:
            return durations, failed


def end_to_end(setup_s, durations, peak_rss_mb) -> dict:
    deciles = statistics.quantiles(durations, n=10)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(durations) / sum(durations), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(durations) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": deciles[8] * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)  # internal: time one set-up under DIR
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "emrcache", "__init__.py")):
        print(f"error: no emrcache sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_probe is not None:
        workdir = os.path.join(args.setup_probe, f"probe{os.getpid()}")
        os.makedirs(workdir)
        try:
            print(set_up(args.workload, args.seed, workdir, False)[1])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        workload, setup_s = set_up(args.workload, args.seed, workdir, bool(args.trace))
        setups = [setup_s] + [probe_set_up(args, workdir) for _ in range(SETUP_REPEATS - 1)]
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer().install()
        started = time.perf_counter()
        gc.freeze()  # set-up's objects are never garbage; keep them out of every collection
        durations, failed = measure(workload, args.seconds, tracer)
        elapsed = time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    if args.trace:
        from tracing import per_layer
        spans = tracer.spans if args.workload != "cli-cold" else workload.spans
        metrics = per_layer(spans, len(durations), getattr(workload, "import_ms", None))
    else:
        metrics = end_to_end(statistics.median(setups), durations, workload.peak_rss_mb())
    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={len(durations)} "
          f"elapsed_s={elapsed:.3f} ops_per_s={len(durations) / sum(durations):.4f} "
          f"setups_s={','.join(f'{s:.4f}' for s in setups)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(durations), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
