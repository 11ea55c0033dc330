"""The benchmark's workloads: command lists taken from README.md.

Each workload is a list of ``qlcm`` argument vectors that one user runs one
after another (a closed loop with a single client), each in its own
interpreter.  ``moments`` is deterministic; ``sampling`` depends on the
seed.
"""

DEFAULT_SEED = 20260814

WORKLOADS = ("moments", "sampling")

_ALPHA_TENTHS = ",".join(f"0.{k}" for k in range(1, 10))


def commands(workload: str, seed: int, workers: int) -> list[list[str]]:
    """Argument vectors of the commands of ``workload``.

    ``workers`` is the second worker count of criterion 9, already capped at
    the number of usable cores.
    """
    if workload == "moments":
        return [
            # criteria 2, 3, 4, 6 and 8 and the README's csv variance example
            ["expect", "--exact", "--n", "1:12", "--alpha", "1/4,1/3,1/2,3/4"],
            ["variance", "--exact", "--n", "1:12", "--alpha", "1/4,1/3,1/2,3/4"],
            ["expect", "--n", "10,100,1000,10000", "--alpha", "0.05,0.5,0.95"],
            ["expect", "--n", "100,1000,10000,100000", "--alpha", "0.1,0.5,0.9,1.0"],
            ["variance", "--n", "10,100,1000,2000", "--alpha", _ALPHA_TENTHS],
            ["variance", "--n", "100:1000:100", "--alpha", "0.5", "--format", "csv"],
            ["vfun", "--alpha", "0.5", "--c1-pair", "1,1", "--c1-x", "1000000"],
            # the README's v(alpha) list (0.5 is criterion 10's) and the
            # costlier alpha = 0.3
            ["vfun", "--alpha", "0.2,0.5,0.8"],
            ["vfun", "--alpha", "0.3"],
            # criterion 5: V[X] at n = 16000 (v(1/2) comes from the list
            # above).  Its time barely varies from run to run, so it goes
            # last: when a run's time is up mid-round, it is the command
            # left with one sample fewer.
            ["variance", "--n", "16000", "--alpha", "0.5"],
        ]
    if workload == "sampling":
        s = str(seed)
        worker_run = ["simulate", "--n", "20000", "--alpha", "0.5", "--trials", "2000",
                      "--seed", s, "--no-timings", "--workers"]
        return [
            # criterion 1
            ["oracle-check", "--n", "40", "--trials", "500", "--seed", s],
            # criterion 7 (its 0.05 threshold is not checked: it fails by design)
            ["simulate", "--n", "10000", "--alpha", "0.1", "--trials", "2000",
             "--seed", s, "--dev-eps", "0.05"],
            ["simulate", "--n", "1000", "--alpha", "0.9", "--trials", "2000",
             "--seed", s, "--dev-eps", "0.05"],
            # criterion 9: the last two outputs must be byte-identical
            worker_run + ["1"],
            worker_run + [str(workers)],
        ]
    raise ValueError(f"unknown workload {workload!r}")
