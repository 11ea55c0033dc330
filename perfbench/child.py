"""One command of a workload in a fresh interpreter.

Times ``import qlcm.cli`` first, then runs command ``--command`` of the
workload in-process through ``qlcm.cli.main(argv)``, capturing its output and
exit code, and prints one JSON object on the last line of standard output.

    python3 perfbench/child.py --workload NAME --seed N --workers K --command I [--trace]

``run.py`` starts this script with ``src`` on ``PYTHONPATH``.
"""

import time

_t0 = time.perf_counter()
import qlcm.cli  # noqa: E402  (the import is the measured set-up)
import qlcm.model  # noqa: E402  (already loaded by qlcm.cli)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

from tracing import Tracer, rng_probe  # noqa: E402
from workloads import commands  # noqa: E402


def run_command(argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = qlcm.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return time.perf_counter() - t0, {"argv": argv, "rc": rc, "stdout": buf.getvalue()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--command", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    argv = commands(args.workload, args.seed, args.workers)[args.command]
    tracer = None
    sample_set = qlcm.model.sample_set
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wall, output = run_command(argv)
    result = {
        "import_s": IMPORT_S,
        "qlcm_file": qlcm.cli.__file__,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": numpy.__version__,
        "output": output,
    }
    if tracer is not None:
        trace = tracer.export()
        mc = [s for s in trace["spans"] if s[0] == "model.monte_carlo"]
        result.update(trace=trace, rng_probe_s=rng_probe(sample_set, mc))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
