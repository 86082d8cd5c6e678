"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/sets.py --workloads poisson_limits,line_fit --seeds 1-10 \
        --seconds 20 --log perfbench/out/set-a.jsonl

Runs one workload after another, one seed after another, never two at
once, appends each run's JSON line (tagged with workload and seed) to
--log, and prints per workload and metric the median, the first and
third quartiles and their distance as a share of the median. Without
--seeds it only summarises the runs already in --log.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(records):
    by_key = defaultdict(list)
    failures = defaultdict(set)
    walls = defaultdict(list)
    for rec in records:
        result = rec["result"]
        failures[rec["workload"]].add(result["failed"] / result["attempted"])
        if "wall_s" in rec:
            walls[rec["workload"]].append(rec["wall_s"])
        for name, metric in result["metrics"].items():
            by_key[(rec["workload"], name, metric["unit"])].append(metric["value"])
    lines = []
    for (workload, name, unit), values in sorted(by_key.items()):
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        lines.append(f"{workload:15s} {name:36s} n={len(values):2d} median {median:.6g} {unit} "
                     f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}")
    for workload, shares in sorted(failures.items()):
        lines.append(f"{workload:15s} failed share per run: {sorted(shares)}")
    for workload, walls in sorted(walls.items()):
        lines.append(f"{workload:15s} wall time per run: median {statistics.median(walls):.1f} s, "
                     f"max {max(walls):.1f} s")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default=None,
                        help="first-last, e.g. 1-10; omit to summarise --log as it is")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--log", required=True)
    args = parser.parse_args(argv)
    log = Path(args.log)
    log.parent.mkdir(parents=True, exist_ok=True)
    if args.seeds is None:
        records = [json.loads(line) for line in log.read_text().splitlines()]
        print("\n".join(summarise(records)))
        return
    records = []
    for workload in filter(None, args.workloads.split(",")):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            start = time.perf_counter()
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            wall_s = time.perf_counter() - start
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(done.stderr)
            rec = {"workload": workload, "seed": seed, "wall_s": wall_s, "result": result}
            records.append(rec)
            with log.open("a") as fh:
                fh.write(json.dumps(rec) + "\n")
    print("\n".join(summarise(records)))


if __name__ == "__main__":
    main()
