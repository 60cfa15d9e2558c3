"""One workload in one fresh interpreter; started by run.py, not by hand.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
                            [--setup-only]

Imports arq2d from the checkout's src/, builds the workload's inputs, stamps
the moment the first operation is about to start (time.monotonic, a clock
shared by every process on Linux, so run.py can subtract its own spawn
time), then runs whole rounds of operations in a closed loop with one caller
until --seconds of operation time have passed.  On workloads whose
operations run in this process, set-up and operation times are reported at
the reference speed of reference.py; every operation's time is also
reported as measured.  Each output is checked as soon as its operation returns, with
the clock stopped.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports arq2d, so it needs src/ on the path)
from reference import loop_factor  # noqa: E402
from tracing import Tracer  # noqa: E402

IMPORT_PROBES = 5
CALIBRATE_S = 2.0


def probe_ms(argv, env=None) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=60, check=True)
    return (time.perf_counter() - t0) * 1000.0, proc.stderr.decode("utf-8")


def start_up_layers() -> dict:
    """Bare interpreter start and the import costs `-X importtime` reports
    for arq2d and networkx, each the median of a few fresh processes."""
    env = workloads.src_env(ROOT)
    bare, arq2d_ms, nx_ms = [], [], []
    for _ in range(IMPORT_PROBES):
        bare.append(probe_ms([sys.executable, "-c", "pass"])[0])
        _, err = probe_ms([sys.executable, "-X", "importtime", "-c",
                           "import arq2d"], env)
        cumulative = {}
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[0].startswith("import time:"):
                try:
                    cumulative[fields[2].strip()] = int(fields[1]) / 1000.0
                except ValueError:
                    continue  # the header line
        arq2d_ms.append(cumulative["arq2d"])
        nx_ms.append(cumulative.get("networkx", 0.0))
    return {
        "cli.interpreter_ms": statistics.median(bare),
        "cli.import.arq2d_ms": statistics.median(arq2d_ms),
        "cli.import.networkx_ms": statistics.median(nx_ms),
    }


def per_op(total: float, n: int) -> float:
    return total / n if n else 0.0


def layer_metrics(records, tracer) -> dict:
    """Per-layer numbers of a traced run.  `.ms` is time spent in the layer
    per workload operation, `.calls` calls per operation; sizes are per call
    of the function that returns them."""
    n = len(records)
    secs, calls, items = tracer.secs, tracer.calls, tracer.items

    def ms(key):
        return per_op(secs[key] * 1000.0, n)

    def size(key):
        return per_op(items[key], calls[key])

    out = {
        "closure.triangle_catalog.ms": ms("closure.triangle_catalog"),
        "closure.triangle_catalog.triangles": size("closure.triangle_catalog"),
        "closure.fixpoint.ms": per_op(
            (secs["closure.closure"] - secs["closure.triangle_catalog"])
            * 1000.0, n),
        "closure.replay_trace.ms": ms("closure.replay_trace"),
        "closure.extract_params.ms": ms("closure.extract_params"),
        "ortho.maximal_systems_containing.ms":
            ms("ortho.maximal_systems_containing"),
        "ortho.systems": size("ortho.maximal_systems_containing"),
        "ortho.witness_pool.ms": ms("ortho.witness_pool"),
        "ortho.witness_pool.size": size("ortho.witness_pool"),
        "ortho.maximality.ms": ms("ortho.maximality"),
        "ortho.is_orthogonal_system.ms": ms("ortho.is_orthogonal_system"),
        "homs.stable_hom_nonzero.calls": per_op(
            calls["homs.stable_hom_nonzero"], n),
        "homs.stable_hom_nonzero.ms": ms("homs.stable_hom_nonzero"),
        "homs.biperp.ms": ms("homs.biperp"),
        "homs.rsupp.ms": ms("homs.rsupp"),
        "homs.lsupp.ms": ms("homs.lsupp"),
        "model.canonical.calls": per_op(calls["model.canonical"], n),
        "model.omega.calls": per_op(calls["model.omega"], n),
        "brauer.classify.ms": ms("brauer.classify"),
        "brauer.build_quiver.ms": ms("brauer.build_quiver"),
        "render.render.ms": ms("render.render"),
    }

    # closure figures split by verdict, from each operation's own spans
    certify = [r for r in records if "certified" in r.get("facts", {})]
    steps = sum(r["facts"]["steps"] for r in certify)
    out["closure.derived"] = per_op(
        sum(r["facts"]["derived"] for r in certify), len(certify))
    out["closure.useful_ratio"] = per_op(steps, items["closure.triangle_catalog"])
    for verdict, certified in (("certified", True), ("inconclusive", False)):
        group = [r for r in certify if r["facts"]["certified"] == certified]
        catalog = sum(r["spans"].get("closure.triangle_catalog", 0.0)
                      for r in group)
        whole = sum(r["spans"].get("closure.closure", 0.0) for r in group)
        out["closure.triangle_catalog.%s_ms" % verdict] = per_op(
            catalog * 1000.0, len(group))
        out["closure.fixpoint.%s_ms" % verdict] = per_op(
            (whole - catalog) * 1000.0, len(group))

    for command in workloads.CLI_COMMANDS:
        times = [r["seconds"] * 1000.0 for r in records
                 if r["kind"] == command and r["ok"]]
        out["cli.main.%s_ms" % command] = (statistics.median(times)
                                           if times else 0.0)
    out.update(start_up_layers())
    return out


def checked(workload, op, out) -> bool:
    try:
        ok = workload.check(op, out)
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print("check failed: %s %r" % (op.kind, op.args), file=sys.stderr)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.workload == "cli":
        workload = workloads.Cli(args.seed, ROOT, in_process=bool(args.trace))
    else:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    ready = time.monotonic()
    try:
        if args.setup_only:
            # the speed that run.py scales this set-up by, measured in the
            # process that set up
            print(json.dumps({"ready": ready, "speed_factor": (
                loop_factor() if workload.in_process else 1.0)}))
            return 0
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()

        records = []
        failed = 0
        correct = True
        clock = time.perf_counter
        measured = 0.0
        rounds = 0
        # The machine's speed is measured again after each CALIBRATE_S of
        # operation time; the operations in between are scaled by the mean
        # of the two measurements around them.  Workloads whose operations
        # are child processes are not scaled (reference.py says why).
        calibration = [loop_factor()]
        pending = []

        def calibrate():
            calibration.append(loop_factor())
            slower = (calibration[-2] + calibration[-1]) / 2
            if not workload.in_process:
                slower = 1.0
            for record in pending:
                record["scaled"] = record["seconds"] / slower
            pending.clear()

        # a round's operations run in a seeded random order, so a slow spell
        # of the machine does not fall on one group of alike operations
        order = random.Random("order:%d" % args.seed)
        while measured < args.seconds:
            ops = workload.round()
            order.shuffle(ops)
            for op in ops:
                before = tracer.snapshot() if tracer else None
                if tracer:
                    tracer.active = True
                t0 = clock()
                try:
                    out, error = workload.run(op), None
                except Exception as exc:  # counted as a failed operation
                    out, error = None, exc
                seconds = clock() - t0
                if tracer:
                    tracer.active = False
                measured += seconds
                # the check runs here, outside the timed region, so that no
                # output outlives its operation and inflates the heap
                record = {"kind": op.kind, "round": rounds,
                          "seconds": seconds, "ok": False}
                if error is not None or not checked(workload, op, out):
                    failed += 1
                    correct = False
                    if error is not None:
                        print("operation %s raised: %r" % (op.kind, error),
                              file=sys.stderr)
                else:
                    record["ok"] = True
                    if tracer:
                        record["facts"] = workload.facts(op, out)
                        record["spans"] = {
                            k: v - before.get(k, 0.0)
                            for k, v in tracer.secs.items()}
                records.append(record)
                pending.append(record)
                del out
                if sum(r["seconds"] for r in pending) >= CALIBRATE_S:
                    calibrate()
            rounds += 1
        if pending:
            calibrate()
        round_seconds = [0.0] * rounds
        for record in records:
            round_seconds[record["round"]] += record["scaled"]
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # the cli workload's operations are child processes
        peak_kb = children if args.workload == "cli" and not args.trace else own

        result = {
            "ready": ready,
            "attempted": len(records),
            "failed": failed,
            "correct": correct,
            "elapsed": measured,
            "round_seconds": round_seconds,
            "latencies_ms": [r["scaled"] * 1000.0 for r in records
                             if r["ok"]],
            "raw_latencies_ms": [r["seconds"] * 1000.0 for r in records
                                 if r["ok"]],
            "speed_factor": statistics.median(calibration),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        if tracer:
            result["layers"] = layer_metrics(records, tracer)
        print(json.dumps(result))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
