"""arq2d benchmark: run one workload and print its result as one JSON line.

    python3 bench/run.py --workload certify|explore|cli --seed N \
                         --seconds S --trace 0|1

Run it from the root of a source checkout; it imports arq2d from src/ and
needs nothing outside the standard library and the package's own
dependencies.  With --trace 0 the result holds the end-to-end metrics
declared in BENCHMARK.json, with --trace 1 the per-layer ones.

Each run starts a warm-up interpreter (it compiles the bytecode caches, a
once-per-install cost), then SETUP_PROBES interpreters that only set up and
exit, then the measuring worker, then SETUP_PROBES more set-up
interpreters.  setup_s is the median of the probes' set-up times; probing
on both sides of the measuring loop keeps a slow spell of the machine from
falling on every sample.  throughput_ops_s is the operations of one round
over the median round time.  On certify and explore, whose operations run
in the worker's own process, times are reported at the reference speed of
reference.py.  Every process runs alone, so at most one core does benchmark
work at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5  # before the worker, and again after it
BUDGET_S = 170.0


class BenchError(Exception):
    pass


def run_worker(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    argv = [sys.executable, WORKER, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError("worker exited with status %d" % proc.returncode)
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned


def declared_units() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("certify", "explore", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "arq2d", "__init__.py")):
        print("error: no arq2d sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        end_to_end, per_layer = declared_units()
        setups = []

        def probe():
            if not args.trace:
                for _ in range(SETUP_PROBES):
                    probed, setup = run_worker(args, deadline, setup_only=True)
                    setups.append(setup / probed["speed_factor"])

        if not args.trace:
            run_worker(args, deadline, setup_only=True)  # warm-up
        probe()
        result = run_worker(args, deadline, setup_only=False)[0]
        probe()
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    if args.trace:
        values = result["layers"]
        units = per_layer
    else:
        latencies = result["latencies_ms"]
        values = {
            # a round's operations over the median round: a slow spell of
            # the machine that spans a few rounds does not move it
            "throughput_ops_s": (len(latencies) / len(result["round_seconds"])
                                 / statistics.median(result["round_seconds"])),
            "latency_p50_ms": statistics.median(latencies) if latencies else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = end_to_end
    if set(values) != set(units):
        print("error: metrics %s do not match BENCHMARK.json"
              % sorted(set(values) ^ set(units)), file=sys.stderr)
        return 1
    raw = result["raw_latencies_ms"]
    print("%s seed %d: %d operations in %.1f s, %d failed, set-up samples %s,"
          " speed factor %.3f, measured p50 %.1f ms"
          % (args.workload, args.seed, result["attempted"], result["elapsed"],
             result["failed"], ["%.3f" % s for s in setups],
             result["speed_factor"], statistics.median(raw) if raw else 0.0),
          file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
