#!/usr/bin/env python3
"""qlcm benchmark: README workloads run end to end, with an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command of a workload runs in a fresh interpreter (``child.py``) that
imports ``qlcm.cli`` from the checkout's ``src`` and runs the command through
``qlcm.cli.main(argv)``, as a user running ``qlcm`` from a shell meets it:
module-level caches (C1 values, weight prefixes) start cold every time.  The
commands run one after another, a closed loop with a single client.  Every
output is checked against ``reference.json``.

``--trace 0`` cycles through the workload's commands until at least
``--seconds`` have gone by and each has run at least once.  A pass of the
workload is its command list, so the wall time of a pass is the sum over the
commands of each one's median wall time; many short samples per command keep
that median steady where a single long pass would carry whatever the host's
speed was while it ran.  The set-up time is the median ``import qlcm.cli``
time of all the interpreters, and the peak RSS is the largest over the
commands of each one's median ``ru_maxrss``.
``--trace 1`` runs every command once, traced, and reports the per-layer
metrics of ``tracing.py``; the tracer's overhead is the number of wrapped
calls times the cost of a wrapper measured in this interpreter.

The last line of standard output is the result object, whose ``attempted``
and ``failed`` count output checks; the line before it carries the machine
block, the per-command samples, ``fail_frac`` and the first failed checks.
The traced pass's spans are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from checks import check_workload, science_lines  # noqa: E402
from tracing import calibrate, merge_traces, summarize  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, commands  # noqa: E402

# every child must end by then, so that the whole run ends within 180 s
RUN_DEADLINE_S = 165.0
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for name in SINGLE_THREAD_ENV:
        env[name] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another interpreter")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not os.path.abspath(result["qlcm_file"]).startswith(SRC + os.sep):
        raise BenchError(f"imported qlcm from {result['qlcm_file']}, not from {SRC}")
    return result


def source_commit() -> str | None:
    """The checkout's git commit, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine_block(numpy_version: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": usable_cores(),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "seed": seed,
        "commit": source_commit(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qlcm", "cli.py")):
        print(f"error: no qlcm sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 bits", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    deadline = time.monotonic() + RUN_DEADLINE_S
    workers = min(2, usable_cores())
    argvs = commands(args.workload, args.seed, workers)
    base_args = ["--workload", args.workload, "--seed", str(args.seed),
                 "--workers", str(workers)]
    # samples[i]: the results of command i, one per time it ran
    samples: list[list[dict]] = [[] for _ in argvs]
    try:
        if args.trace:
            for i, runs in enumerate(samples):
                runs.append(run_child(base_args + ["--command", str(i), "--trace"], deadline))
        else:
            start = time.monotonic()
            i = 0
            while not samples[-1] or time.monotonic() - start < args.seconds:
                samples[i].append(run_child(base_args + ["--command", str(i)], deadline))
                i = (i + 1) % len(argvs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    c = check_workload(args.workload, args.seed,
                       [[r["output"] for r in runs] for runs in samples], reference)
    setup = [r["import_s"] for runs in samples for r in runs]
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_block(samples[0][0]["numpy"], args.seed),
        "commands": [{"argv": argv,
                      "wall_s": [r["wall_s"] for r in runs],
                      "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in runs]}
                     for argv, runs in zip(argvs, samples)],
        "setup_samples_s": setup,
        "fail_frac": len(c.failures) / c.attempted,
        "failed_checks": c.failures[:20],
    }
    if args.trace:
        traced = [runs[0] for runs in samples]
        records = sum(len(science_lines(r["output"]["stdout"])) for r in traced)
        trace = merge_traces([r["trace"] for r in traced])
        layers = summarize(trace, sum(r["rng_probe_s"] for r in traced), records,
                           sum(r["wall_s"] for r in traced), calibrate())
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    else:
        wall = sum(statistics.median(r["wall_s"] for r in runs) for runs in samples)
        rss = max(statistics.median(r["peak_rss_kb"] for r in runs) for runs in samples)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss / 1024.0, "unit": "MB"},
        }
    print(json.dumps(detail))
    print(json.dumps({"correct": not c.failures, "attempted": c.attempted,
                      "failed": len(c.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
