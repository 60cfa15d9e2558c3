"""Run-to-run steadiness of the end-to-end metrics against their bounds.

    python3 bench/steady.py [--first-seed N] [--against OLD.json]

Runs bench/run.py ten times on every workload of BENCHMARK.json, with seeds
first-seed, first-seed+1, ..., one run at a time, for BENCHMARK.json's
run_seconds.  For every end-to-end metric it prints the median, the
quartiles and the spread (q3 - q1) / median, as
statistics.quantiles(values, n=4) gives them, next to the metric's bound.

The benchmark counts as steady only if every spread, setup_s's too, stays
within a third of its bound: two sets of runs of the same code must agree
within the bound, and that needs headroom.  With --against, each median is
also compared with the one in an earlier output file, and the set fails if
it is worse by more than the bound or if its share of failed operations
differs.  The exit status is 0 only if every check holds.  The raw results
go to .bench_work/steady-<time>.json.
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
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=300)
    if proc.returncode != 0:
        raise SystemExit("run.py failed on %s seed %d" % (workload, seed))
    return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])


def summarise(results: list[dict], spec: dict, old: dict | None) -> bool:
    steady = True
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    line = "  failed %d of %d" % (failed, attempted)
    if old is not None and failed / attempted != old["failed_share"]:
        steady = False
        line += ", earlier share %r: DIFFERS" % old["failed_share"]
    print(line)
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        ok = spread <= bound / 3
        steady &= ok
        line = ("  %-18s median %12.4f %-6s q1 %12.4f q3 %12.4f spread %6.3f"
                " bound %.2f %s" % (name, med, metric["unit"], q1, q3, spread,
                                    bound, "ok" if ok else "SPREAD > bound/3"))
        if old is not None:
            prev = statistics.median(old[name])
            worse = (med - prev) / prev
            if metric["better"] == "higher":
                worse = -worse
            steady &= worse <= bound
            line += "  vs earlier median %.4f: %+.3f%s" % (
                prev, worse, " WORSE THAN BOUND" if worse > bound else "")
        print(line)
    return steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--against", default=None,
                    help="an earlier output file to compare medians with")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    old = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            old = json.load(fh)

    record: dict = {}
    steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for i in range(RUNS):
            seed = args.first_seed + i
            results.append(run_once(workload, seed, spec["run_seconds"]))
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in results[-1]["metrics"].items()})), flush=True)
        print("%s, %d runs:" % (workload, len(results)))
        steady &= summarise(results, spec,
                            old.get(workload) if old else None)
        record[workload] = {m["name"]: [r["metrics"][m["name"]]["value"]
                                        for r in results]
                            for m in spec["end_to_end"]}
        record[workload]["failed_share"] = (
            sum(r["failed"] for r in results)
            / sum(r["attempted"] for r in results))
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_work",
                        "steady-%s.json" % time.strftime("%Y%m%d-%H%M%S"))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("raw values written to %s" % os.path.relpath(path, ROOT))
    print("steady" if steady else "NOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
