#!/usr/bin/env python3
"""Record one point of the perf trajectory: every workload over ten seeds.

    python3 perfbench/trajectory.py --out perfbench/trajectory/LABEL.jsonl

Runs ``run.py`` untraced for seeds 1 to 10 of every workload, for the
``run_seconds`` of ``BENCHMARK.json``, then traced once per workload at the
default seed, and appends each run's detail and result lines to ``--out`` as
one JSON object.  Prints, per workload and end-to-end metric, the median and
the quartile spread (Q3 - Q1) / median of the untraced runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT
from workloads import DEFAULT_SEED, WORKLOADS

SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    detail, result = (json.loads(x) for x in proc.stdout.strip().splitlines()[-2:])
    return {"workload": workload, "seed": seed, "trace": trace,
            "detail": detail, "result": result}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    with open(args.out, "a", encoding="utf-8") as out:
        for w in WORKLOADS:
            values: dict = {}
            for trace, run_seeds in ((0, SEEDS), (1, [DEFAULT_SEED])):
                for seed in run_seeds:
                    rec = bench(w, seed, seconds, trace)
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    res = rec["result"]
                    if not res["correct"]:
                        print(f"{w} seed {seed}: {res['failed']} failed checks", flush=True)
                    if trace == 0:
                        for k, v in res["metrics"].items():
                            values.setdefault(k, []).append(v["value"])
            for k, v in values.items():
                med = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4)
                print(f"{w:14s} {k:12s} median {med:.6g}  spread {(q3 - q1) / med:.4f}",
                      flush=True)


if __name__ == "__main__":
    main()
