#!/usr/bin/env python3
"""Capture ``reference.json``: the science output of every command of every
workload at the default seed, from the sources in the checkout.

    python3 perfbench/capture.py

Run it only on a commit whose outputs are known to be right; ``run.py``
checks every later pass against what it writes.
"""

import json
import os
import time

from checks import science_lines
from run import HERE, run_child, usable_cores
from workloads import DEFAULT_SEED, WORKLOADS, commands


def main():
    workers = str(min(2, usable_cores()))
    reference = {"seed": DEFAULT_SEED, "workloads": {}}
    for w in WORKLOADS:
        outputs = []
        for i in range(len(commands(w, DEFAULT_SEED, int(workers)))):
            out = run_child(["--workload", w, "--seed", str(DEFAULT_SEED), "--workers",
                             workers, "--command", str(i)], time.monotonic() + 600)["output"]
            if out["rc"] != 0:
                raise SystemExit(f"{' '.join(out['argv'])} exited {out['rc']}")
            outputs.append(out)
        reference["workloads"][w] = [
            {"argv": out["argv"], "science": science_lines(out["stdout"])} for out in outputs
        ]
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
