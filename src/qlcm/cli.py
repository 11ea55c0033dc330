"""Experiment harness: CLI, configuration, and machine-readable reports.

Commands: expect, variance, simulate, vfun, oracle-check, bench.  Science
records are emitted in grid order as json-lines (fixed key order, floats with
17 significant digits) or a flat csv schema; wall-clock timings live in a
separate trailing block and are never part of the determinism guarantee.

The CLI is two tables: ``OPTIONS`` declares each option once, ``COMMANDS``
gives each command one row.  The argparse subcommands, the option resolution
(CLI flag > QLCM_* environment variable > config file of flat ``key = value``
lines > built-in default, for the options a command reads) and the dispatch
are generated from them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import sys
import time
import types
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import arith, model, moments, qpoly
from .errors import ResourceLimitError

CSV_COLUMNS = (
    "n",
    "alpha",
    "e_exact",
    "e_asym",
    "v_exact",
    "v_upper",
    "v_alpha",
    "mc_mean",
    "mc_var",
    "seed",
)

BENCH_SUITES = ("sieve", "variance-sum", "valpha", "oracle")

# oracle-check work in units of about one ns: a set at n costs n^3.5 plus a
# fixed ORACLE_SET_WORK.  Fitted to one process, 2 cores, alpha = 0.5: the
# first sets cost 0.23 ms at n = 40, 10 ms at 100, 45 ms at 200, 0.39 s at
# 300 and 2.5 s at 512 (0.6-1.0 ns per n^3.5), later sets less as the gcd
# cache fills; 17-26 us a set (drawn twice) at n <= 8.  The cap is about 20 s
# of oracle work: 92 times the README run, 176 sets at n = 200, 6 at n = 512
ORACLE_SET_WORK = 30_000
ORACLE_WORK_LIMIT = 2 * 10**10
# simulate work in units of one bit draw: a trial costs n draws plus a fixed
# SIMULATE_TRIAL_WORK (one process, 2 cores: 13-15 us a trial at n <= 40
# and 12.7-13.6 ns a bit at n >= 10^4); the cap is 140 times the README
# run's 2000 x 10^4, about 34 s of draws
SIMULATE_TRIAL_WORK = 1024
SIMULATE_WORK_LIMIT = 140 * 2000 * 10**4
# bytes the float V[X] at the largest n of variance or simulate may
# allocate beside the tables (moments._variance_bytes): 256 MiB admits n up
# to 9,747,872
VARIANCE_BYTES = 1 << 28
# most --n values a run may take: their tuple peaks at about 39 MiB at 10^6
N_VALUES_LIMIT = 10**6
# most runs of a bench case: one repeat takes 0.008 s (valpha) to 0.23 s
# (variance-sum), so 100 of the costliest take about 23 s
BENCH_REPEAT_LIMIT = 100


class SpecError(ValueError):
    """Invalid experiment specification; message names the offending field."""


class ExperimentSpec(types.SimpleNamespace):
    """A resolved run: ``command``, every option's value under its name (``n``
    and ``alpha`` as ``n_values`` and ``alphas``) and the ``truncation``
    config the four truncation options make."""


# ---------------------------------------------------------------------------
# option parsing: one table shared by CLI flags, QLCM_* env vars, config files
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _checked(conv, ok, rule: str):
    """A parser that converts with ``conv`` and refuses values failing ``ok``."""

    def parse(text: str):
        v = conv(text)
        if not ok(v):
            raise ValueError(f"must {rule}, got {v!r}")
        return v

    return parse


def _one_of(choices: tuple[str, ...]):
    return _checked(str, choices.__contains__, "be one of " + ", ".join(choices))


_POSITIVE = _checked(int, lambda v: v >= 1, "be >= 1")
_SEED = _checked(int, lambda v: 0 <= v < 2**64, "fit in 64 bits")
_OPEN_UNIT = _checked(float, lambda v: 0.0 < v < 1.0, "lie in (0, 1)")


def _split(text: str) -> list[str]:
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ValueError("no values given")
    return parts


def _parse_n_values(text: str) -> tuple[int, ...]:
    """An integer, a comma list, or an inclusive range a:b[:step].  A value or
    range end past the table limit, or more than N_VALUES_LIMIT values in all,
    is refused before any range is expanded."""
    ranges = []
    for part in _split(text):
        bits = [int(b) for b in part.split(":")]
        if len(bits) > 3:
            raise ValueError(f"range must be a:b or a:b:step, got {part!r}")
        a, b = bits[0], bits[min(1, len(bits) - 1)]
        step = bits[2] if len(bits) == 3 else 1
        if min(a, b) < 1:
            raise ValueError(f"n must be >= 1, got {min(a, b)}")
        if max(a, b) > arith.TABLE_LIMIT:
            raise ResourceLimitError(f"--n {max(a, b)} exceeds the table limit {arith.TABLE_LIMIT}")
        if step < 1:
            raise ValueError(f"range step must be >= 1, got {step}")
        if a > b:
            raise ValueError(f"range endpoints out of order: {part!r}")
        ranges.append(range(a, b + 1, step))
    count = sum(map(len, ranges))
    if count > N_VALUES_LIMIT:
        raise ResourceLimitError(f"--n lists {count} values, past the limit of {N_VALUES_LIMIT}")
    return tuple(n for r in ranges for n in r)


# largest decimal exponent an exact alpha may carry: Fraction expands a
# decimal with exponent e as 10^|e| (1e-10000000 takes seconds)
EXACT_EXPONENT_LIMIT = 100


def _exact_alpha(part: str) -> Fraction:
    if "/" not in part:  # a ratio p/q carries no exponent
        try:
            scale = Decimal(part).adjusted()
        except InvalidOperation:
            raise ValueError(f"cannot read {part!r} as a number") from None
        if abs(scale) > EXACT_EXPONENT_LIMIT:
            raise ValueError(
                f"exponent of {part} is past +-{EXACT_EXPONENT_LIMIT} under --exact"
            )
    return Fraction(part)


def _parse_alphas(text: str, exact: bool = False) -> tuple:
    """A comma list in [0, 1]; fractions allowed, kept exact in exact mode."""
    out = []
    for part in _split(text):
        if exact:
            v = _exact_alpha(part)
        elif "/" in part:
            v = float(Fraction(part))
        else:
            v = float(part)
        if not 0 <= v <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {part}")
        out.append(v)
    return tuple(out)


def _parse_pair(text: str) -> tuple[int, int]:
    bits = str(text).split(",")
    if len(bits) != 2:
        raise ValueError(f"expected a1,a2 got {text!r}")
    pair = (int(bits[0]), int(bits[1]))
    if math.gcd(*pair) != 1 or min(pair) < 1:
        raise ValueError(f"needs coprime positive a1,a2, got {pair}")
    return pair


class Option(NamedTuple):
    flag: str
    parse: object  # text -> value; raises ValueError on an invalid one
    default: object
    help: str
    const: str | None = None  # the text a flag that takes no value stands for


_TRUNC = moments.TruncationConfig()

# name -> option, in resolution order: exact comes before alpha, whose
# parse depends on it
OPTIONS = {
    "n": Option("--n", _parse_n_values, (), "int, comma list, or a:b[:step]"),
    "exact": Option("--exact", _parse_bool, False, "exact rationals plus enumeration", "true"),
    "alpha": Option("--alpha", _parse_alphas, (), "comma list; fractions allowed"),
    "seed": Option("--seed", _SEED, 0, "64-bit unsigned simulation seed"),
    "trials": Option("--trials", _POSITIVE, 1000, "Monte Carlo trial count"),
    "workers": Option("--workers", _POSITIVE, 1, "worker threads for trials"),
    "dev_eps": Option("--dev-eps", _OPEN_UNIT, 0.05, "relative deviation band of dev_frac"),
    "c1_pair": Option("--c1-pair", _parse_pair, None, "a1,a2 for a C1 record"),
    "c1_x": Option("--c1-x", _POSITIVE, None, "brute-force C1 check at x"),
    "suite": Option("--suite", _one_of(BENCH_SUITES), None, ", ".join(BENCH_SUITES)),
    "repeat": Option("--repeat", _POSITIVE, 3, "runs per bench case"),
    "format": Option("--format", _one_of(("json-lines", "csv")), "json-lines", "json-lines or csv"),
    "timings": Option("--no-timings", _parse_bool, True, "suppress the timing block", "false"),
    "j3_max": Option("--j3-max", int, _TRUNC.j3_max, "S_inf enumeration depth"),
    "tail_tol": Option("--tail-tol", float, _TRUNC.beta_tail_tol, "S_inf beta tail tolerance"),
    "c1_cutoff": Option("--c1-cutoff", int, _TRUNC.c1_cutoff, "C1 double-sum cutoff"),
    "dilog_tol": Option("--dilog-tol", float, _TRUNC.dilog_tol, "dilog series tolerance"),
}


def _load_config_file(path: str) -> dict:
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise SpecError(f"config: cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"config: line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in OPTIONS:
            raise SpecError(f"config: unknown key {key!r} (line {lineno})")
        values[key] = value.strip()
    return values


def _resolve(args: argparse.Namespace, cmd: Command) -> dict:
    """Each option the command reads: the first of CLI flag, QLCM_* variable,
    config file and command default, parsed.  The rest keep their defaults."""
    config_path = getattr(args, "config", None) or os.environ.get("QLCM_CONFIG")
    file_values = _load_config_file(config_path) if config_path else {}
    values = {name: opt.default for name, opt in OPTIONS.items()}
    for name, opt in OPTIONS.items():
        if name not in cmd.options:
            continue
        env = "QLCM_" + name.upper()
        sources = (
            (name, getattr(args, name, None)),
            (f"{name} (environment variable {env})", os.environ.get(env)),
            (f"{name} (config key {name})", file_values.get(name)),
            (name, cmd.defaults.get(name)),
        )
        origin, raw = next(((o, r) for o, r in sources if r is not None), (name, None))
        if raw is None:
            continue
        try:
            if name == "alpha":
                values[name] = _parse_alphas(raw, exact=values["exact"])
            else:
                values[name] = opt.parse(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"{origin}: {exc}") from exc
    return values


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Resolve the command's options into a spec, then run its pre-flight."""
    cmd = COMMANDS.get(args.command)
    if cmd is None:
        raise SpecError(f"command: unknown command {args.command!r}")
    values = _resolve(args, cmd)
    try:
        truncation = moments.TruncationConfig(
            c1_cutoff=values.pop("c1_cutoff"),
            j3_max=values.pop("j3_max"),
            beta_tail_tol=values.pop("tail_tol"),
            dilog_tol=values.pop("dilog_tol"),
        )
    except ValueError as exc:
        raise SpecError(f"truncation: {exc}") from exc
    spec = ExperimentSpec(
        command=args.command,
        n_values=values.pop("n"),
        alphas=values.pop("alpha"),
        truncation=truncation,
        **values,
    )
    cmd.preflight(spec)
    return spec


# pre-flight checks: each refuses a spec before anything is allocated, with
# SpecError (exit 2) or ResourceLimitError (exit 3)


def _check_grid(spec: ExperimentSpec):
    if not spec.n_values:
        raise SpecError("n: required for this command")
    if not spec.alphas:
        raise SpecError("alpha: required for this command")


def _check_exact(spec: ExperimentSpec):
    _check_grid(spec)
    bad = [n for n in spec.n_values if n > moments.EXACT_RATIONAL_LIMIT]
    if spec.exact and bad:
        raise SpecError(
            f"exact: rational mode limited to n <= {moments.EXACT_RATIONAL_LIMIT}, got {bad[0]}"
        )


def _check_variance_bytes(spec: ExperimentSpec):
    n_max = max(spec.n_values)
    need = moments._variance_bytes(n_max)
    if need > VARIANCE_BYTES:
        raise ResourceLimitError(
            f"V[X] at --n {n_max} needs about {need / 2**20:.0f} MiB beside the tables, "
            f"past the {VARIANCE_BYTES >> 20} MiB budget; lower --n"
        )


def _check_variance(spec: ExperimentSpec):
    _check_exact(spec)
    _check_variance_bytes(spec)


def _check_c1_cutoff(spec: ExperimentSpec):
    # the C1 weight prefix is a table up to the cutoff
    if spec.truncation.c1_cutoff > arith.TABLE_LIMIT:
        raise ResourceLimitError(
            f"--c1-cutoff {spec.truncation.c1_cutoff} exceeds the table cap {arith.TABLE_LIMIT}"
        )


def _check_vfun(spec: ExperimentSpec):
    if not spec.alphas and spec.c1_pair is None:
        raise SpecError("alpha: required for this command")
    _check_c1_cutoff(spec)
    if spec.c1_pair is not None and spec.format == "csv":
        raise SpecError("format: csv has no columns for the C1 record of c1_pair")
    if spec.c1_pair is not None and max(spec.c1_pair) > arith.TABLE_LIMIT:
        # C1 factors a1 and a2 by trial division
        raise ResourceLimitError(
            f"--c1-pair {max(spec.c1_pair)} exceeds the cap {arith.TABLE_LIMIT}"
        )
    for a in spec.alphas:
        if not 0 < a < 1:
            raise SpecError(f"alpha: vfun needs interior alpha in (0, 1), got {a}")
        # the S_inf member bound, for every alpha before any v(alpha) runs
        moments._enumeration_depth(float(a), spec.truncation)
    if spec.c1_x is not None:
        if spec.c1_pair is None:
            raise SpecError("c1_x: requires c1_pair")
        # the C1 check reads phi(a * m) up to max(a1, a2) * x
        size = max(spec.c1_pair) * spec.c1_x
        if size > arith.TABLE_LIMIT:
            raise ResourceLimitError(
                f"--c1-x {spec.c1_x} reads phi up to {size}, past the cap {arith.TABLE_LIMIT}"
            )


def _check_work(spec: ExperimentSpec, per_n, per_n_text: str, per_trial: int, limit: int):
    """Refuse trials x alphas x sum over n of (per_n(n) + per_trial) past limit."""
    work = spec.trials * len(spec.alphas) * sum(per_n(n) + per_trial for n in spec.n_values)
    if work > limit:
        raise ResourceLimitError(
            f"{spec.command} work {work:.3g} (--trials x alphas x sum of {per_n_text} plus "
            f"{per_trial:.3g} a trial) exceeds {limit:.2g}; lower --trials or --n"
        )


def _check_simulate(spec: ExperimentSpec):
    _check_grid(spec)
    _check_work(spec, int, "--n", SIMULATE_TRIAL_WORK, SIMULATE_WORK_LIMIT)
    _check_variance_bytes(spec)


def _check_oracle(spec: ExperimentSpec):
    _check_grid(spec)
    n_max = max(spec.n_values)
    if n_max > qpoly.ORACLE_LIMIT:
        raise ResourceLimitError(f"--n {n_max} exceeds the oracle limit {qpoly.ORACLE_LIMIT}")
    _check_work(spec, lambda n: n**3.5, "--n^3.5", ORACLE_SET_WORK, ORACLE_WORK_LIMIT)


def _check_bench(spec: ExperimentSpec):
    if spec.suite is None:
        raise SpecError(f"suite: required, one of {', '.join(BENCH_SUITES)}")
    if spec.repeat > BENCH_REPEAT_LIMIT:
        raise ResourceLimitError(f"--repeat {spec.repeat} exceeds the limit {BENCH_REPEAT_LIMIT}")
    if spec.suite == "valpha":
        _check_c1_cutoff(spec)
        moments._enumeration_depth(0.5, spec.truncation, raise_flags="--tail-tol")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        if math.isnan(v) or math.isinf(v):
            raise ValueError(f"non-finite float in record: {v}")
        return format(v, ".17g")
    if isinstance(v, Fraction):
        return json.dumps(f"{v.numerator}/{v.denominator}")
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_value(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def emit_jsonl(record: dict) -> str:
    """One json line; key order is the record's insertion order."""
    return _json_value(record)


def emit_csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def emit_csv_row(record: dict) -> str:
    cells = []
    for col in CSV_COLUMNS:
        v = record.get(col)
        if v is None:
            cells.append("")
        elif isinstance(v, float):
            cells.append(format(v, ".17g"))
        else:
            cells.append(str(v))
    return ",".join(cells)


# ---------------------------------------------------------------------------
# command implementations: each takes (spec, phases) and yields records
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _timed(phases, name):
    """Times a phase; counters put in the yielded dict go into its timing
    record, followed by peak_rss_kib, the process's peak resident set so far
    (ru_maxrss, in KiB on Linux)."""
    counters: dict = {}
    t0 = time.perf_counter()
    yield counters
    seconds = time.perf_counter() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    phases.append({"phase": name, "seconds": seconds, **counters, "peak_rss_kib": peak})


def _report(spec: ExperimentSpec, body: dict, **head) -> dict:
    """The record scaffold: type, command, [n,] [alpha,] seed, body, truncation.
    A command that reads no seed or truncation echoes the defaults."""
    return {
        "type": "report",
        "command": spec.command,
        **head,
        "seed": spec.seed,
        **body,
        "truncation": spec.truncation._asdict(),
    }


def _grid(point, row=None):
    """Records of a walk over the (n, alpha) grid: tables built once, n outer,
    alpha inner.  point(spec, tables, n, a, af, timer) returns a record's
    body and times its core work under ``timer``.  With a row step,
    row(spec, tables, n, phases) first does and times the work of the whole
    n row, returning one value per alpha, and point gets its alpha's value
    in place of a timer."""

    def records(spec: ExperimentSpec, phases):
        with _timed(phases, "tables") as counters:
            tables = arith.build_tables(max(spec.n_values))
            counters["table_bytes"] = tables.nbytes
        for n in spec.n_values:
            if row is None:
                per_alpha = [_timed(phases, f"{spec.command} n={n} alpha={float(a):g}")
                             for a in spec.alphas]
            else:
                per_alpha = row(spec, tables, n, phases)
            for a, x in zip(spec.alphas, per_alpha):
                af = float(a)
                yield _report(spec, point(spec, tables, n, a, af, x), n=n, alpha=af)

    return records


def _enumeration_check(body, key, rational, stat, n, a, tables):
    """Exact mode: the rational moment and, where n is small enough to
    enumerate, the enumerated one and whether the two agree."""
    body[f"{key}_rational"] = rational
    if n <= model.ENUMERATION_LIMIT:
        enumerated = getattr(model.enumerate_exact(n, a, tables), stat)
        body[f"enum_{stat}"] = enumerated
        body["enum_agrees"] = enumerated == rational


def _expect_point(spec, tables, n, a, af, timer):
    with timer:
        e_exact = moments.expectation_exact(n, af, tables)
        e_grouped = moments.expectation_grouped(n, af, tables)
        e_asym = moments.expectation_asymptotic(n, af)
    body = {
        "e_exact": e_exact,
        "e_grouped": e_grouped,
        "e_asym": e_asym,
        "gap_asym": e_exact - e_asym,
        "alpha_factor": moments.alpha_factor(af),
    }
    if spec.exact:
        e_rat = moments.expectation_exact(n, a, tables, exact=True)
        _enumeration_check(body, "e_exact", e_rat, "mean", n, a, tables)
    return body


def _alpha_groups(n: int, alphas: tuple) -> list[tuple]:
    """alphas split, in order, into groups whose float V[X] at n fits
    VARIANCE_BYTES in one variance_exact call: each alpha past a group's
    first adds a beta^k table of 8 (n + 1) bytes to _variance_bytes(n)."""
    spare = max(VARIANCE_BYTES - moments._variance_bytes(n), 0)
    size = 1 + spare // (8 * (n + 1))
    return [alphas[i : i + size] for i in range(0, len(alphas), size)]


def _variance_row(spec, tables, n, phases):
    """(v_exact, v_rational) at each alpha of the n row: the float V[X] of
    every alpha from one timed pair walk per group of alphas, and under
    --exact the rational ones from one more walk (None without it)."""
    afs = tuple(float(a) for a in spec.alphas)
    name = f"variance n={n} alpha=" + ",".join(f"{af:g}" for af in afs)
    with _timed(phases, name) as counters:
        v_exact = []
        for group in _alpha_groups(n, afs):
            v_exact += moments.variance_exact(n, group, tables, counters=counters)
    v_rat = [None] * len(afs)
    if spec.exact:
        v_rat = moments.variance_exact(n, tuple(spec.alphas), tables, exact=True)
    return list(zip(v_exact, v_rat))


def _variance_point(spec, tables, n, a, af, row_value):
    v_exact, v_rat = row_value
    v_upper = moments.variance_upper_envelope(n, af)
    body = {
        "v_exact": v_exact,
        "v_upper": v_upper,
        "envelope_ratio": (v_exact / v_upper) if v_upper > 0 else 0.0,
    }
    if spec.exact:
        _enumeration_check(body, "v_exact", v_rat, "variance", n, a, tables)
    return body


def _simulate_point(spec, tables, n, a, af, timer):
    params = model.ModelParams(n=n, alpha=af, seed=spec.seed, trials=spec.trials)
    # the exact moments go first: V's temporaries are then freed
    # before the trial blocks are allocated, not on top of them
    e_exact = moments.expectation_exact(n, af, tables)
    v_exact = moments.variance_exact(n, af, tables)
    with timer:
        mc = model.monte_carlo(params, tables, workers=spec.workers)
    if e_exact > 0:
        dev = np.abs(mc.degrees - e_exact) > spec.dev_eps * e_exact
        dev_frac = float(Fraction(int(dev.sum()), mc.trials))
    else:
        dev_frac = 0.0
    cheb_den = (spec.dev_eps * e_exact) ** 2
    return {
        "trials": spec.trials,
        "mc_mean": mc.mean,
        "mc_var": mc.variance,
        "mc_stderr": mc.stderr,
        "e_exact": e_exact,
        "v_exact": v_exact,
        "z_mean": (mc.mean - e_exact) / mc.stderr if mc.stderr > 0 else 0.0,
        "var_ratio": mc.variance / v_exact if v_exact > 0 else 0.0,
        "dev_eps": spec.dev_eps,
        "dev_frac": dev_frac,
        "cheb_bound": v_exact / cheb_den if cheb_den > 0 else 0.0,
    }


def _oracle_point(spec, tables, n, a, af, timer):
    # X of each set is the degree simulate reports, from monte_carlo's bit
    # planes; the oracles read the set sample_set redraws from its key, so
    # a fault in the planes or in the transform disagrees
    params = model.ModelParams(n=n, alpha=af, seed=spec.seed, trials=spec.trials)
    agree = elements = 0
    gcd_before = qpoly._q_gcd.cache_info()
    with timer as counters:
        degrees = model.monte_carlo(params, tables).degrees.tolist()
        for t, x in enumerate(degrees):
            members = np.flatnonzero(model.sample_set(params, t)).tolist()
            elements += len(members)
            d_cyc = qpoly.lcm_degree_oracle(members, method="cyclotomic")
            d_gcd = qpoly.lcm_degree_oracle(members, method="gcd")
            if x == d_cyc == d_gcd:
                agree += 1
        gcd_after = qpoly._q_gcd.cache_info()
        counters.update(
            sets=spec.trials,
            elements=elements,
            gcd_pairs=gcd_after.misses - gcd_before.misses,
            gcd_pair_hits=gcd_after.hits - gcd_before.hits,
        )
    return {
        "trials": spec.trials,
        "agree_count": agree,
        "disagree_count": spec.trials - agree,
        "all_agree": agree == spec.trials,
    }


def _vfun_records(spec: ExperimentSpec, phases):
    for a in spec.alphas:
        af = float(a)
        with _timed(phases, f"vfun alpha={af:g}") as counters:
            est = moments.v_alpha(af, spec.truncation)
            counters.update(
                triples=est.triples,
                members=est.terms,
                c1_inner_evals=est.c1_inner_evals,
                c1_cache_hits=est.c1_prime_sets - est.c1_inner_evals,
            )
        body = {
            "v_alpha": est.value,
            "v_alpha_error": est.truncation_error,
            "v_alpha_terms": est.terms,
            "alpha_factor": moments.alpha_factor(af),
            "dilog_beta": moments.dilog(1.0 - af, spec.truncation.dilog_tol),
        }
        yield _report(spec, body, alpha=af)
    if spec.c1_pair is not None:
        a1, a2 = spec.c1_pair
        with _timed(phases, f"c1 ({a1},{a2})"):
            est = moments.c1_constant(a1, a2, spec.truncation)
        body = {
            "c1_a1": a1,
            "c1_a2": a2,
            "c1_value": est.value,
            "c1_tail_error": est.tail_error,
            "c1_cutoff": est.cutoff,
        }
        if spec.c1_x is not None:
            x = spec.c1_x
            with _timed(phases, f"phi_pair x={x}") as counters:
                brute = arith.phi_pair_summatory(a1, a2, x)
                counters["segment_bytes"] = arith.segment_bytes(x)
            ratio = brute / float(x) ** 3
            body["phi_pair_x"] = x
            body["phi_pair_ratio"] = ratio
            body["c1_rel_diff"] = abs(est.value - ratio) / ratio if ratio else 0.0
        yield _report(spec, body)


def _bench_cases(spec: ExperimentSpec):
    suite = spec.suite
    if suite == "sieve":
        for size in (10**5, 10**6):
            yield f"build_tables {size}", size, lambda size=size: arith.build_tables(size)
    elif suite == "variance-sum":
        tables = arith.build_tables(100000)
        for n in (25000, 50000, 100000):
            yield (
                f"variance n={n}",
                n,
                lambda n=n: moments.variance_exact(n, 0.5, tables),
            )
    elif suite == "valpha":

        def cold_v_alpha():
            # cold C1 caches on every repeat, as in the oracle suite
            for cache in (moments._c1_prefix_cache, moments._c1_inner_cache):
                cache.clear()
            moments.v_alpha(0.5, spec.truncation)

        yield "v_alpha 0.5", 0, cold_v_alpha
    elif suite == "oracle":
        params = model.ModelParams(n=40, alpha=0.5, seed=spec.seed, trials=20)
        sets = []
        for t in range(params.trials):
            bits = model.sample_set(params, t)
            sets.append([int(k) for k in np.nonzero(bits)[0]])

        def run_sets():
            # cold oracles on every repeat, not cached lookups after the first
            for cache in (qpoly._q_gcd, qpoly._divisor_lcm, qpoly.cyclotomic):
                cache.cache_clear()
            for members in sets:
                qpoly.lcm_degree_oracle(members, method="cyclotomic")
                qpoly.lcm_degree_oracle(members, method="gcd")

        yield "oracle n=40 x20 both paths", 40, run_sets


def _median(xs: list) -> float:
    """The median of a nonempty list: its middle value, or the mean of the
    middle two."""
    s = sorted(xs)
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def _bench_records(spec: ExperimentSpec, phases):
    # cold caches would double-count sieve work; each case runs repeat times
    # and reports the median
    for case, size, fn in _bench_cases(spec):
        times = []
        for _ in range(spec.repeat):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        yield {
            "type": "bench",
            "suite": spec.suite,
            "case": case,
            "size": size,
            "runs": spec.repeat,
            "median_s": _median(times),
            "times_s": times,
        }


class Command(NamedTuple):
    help: str
    options: tuple[str, ...]  # the options it reads, and so its flags
    preflight: object  # spec -> None; raises SpecError or ResourceLimitError
    records: object  # (spec, phases) -> records
    # texts, parsed as an env value is; read-only, as the default is shared
    defaults: types.MappingProxyType = types.MappingProxyType({})


_OUTPUT = ("format", "timings")
_TRUNCATION = ("j3_max", "tail_tol", "c1_cutoff", "dilog_tol")

COMMANDS = {
    "expect": Command(
        "exact, grouped, and asymptotic E[X]",
        ("n", "exact", "alpha", *_OUTPUT),
        _check_exact,
        _grid(_expect_point),
    ),
    "variance": Command(
        "exact V[X] and the alpha*n^3 envelope",
        ("n", "exact", "alpha", *_OUTPUT),
        _check_variance,
        _grid(_variance_point, _variance_row),
    ),
    "simulate": Command(
        "Monte Carlo degree statistics",
        ("n", "alpha", "dev_eps", "trials", "workers", "seed", *_OUTPUT),
        _check_simulate,
        _grid(_simulate_point),
    ),
    "vfun": Command(
        "limiting variance constant v(alpha); C1 diagnostics",
        ("alpha", "c1_pair", "c1_x", *_OUTPUT, *_TRUNCATION),
        _check_vfun,
        _vfun_records,
    ),
    "oracle-check": Command(
        "degree statistic vs both polynomial oracles",
        ("n", "alpha", "trials", "seed", "timings"),
        _check_oracle,
        _grid(_oracle_point),
        defaults=types.MappingProxyType({"alpha": "0.5"}),
    ),
    # the valpha suite reads the truncation, the oracle suite the seed
    "bench": Command(
        "micro-benchmarks", ("suite", "repeat", "seed", *_TRUNCATION), _check_bench, _bench_records
    ),
}


def run(spec: ExperimentSpec):
    """Yield science records in grid order, then timing records."""
    phases: list[dict] = []
    yield from COMMANDS[spec.command].records(spec, phases)
    if spec.timings:
        for phase in phases:
            yield {"type": "timing", "command": spec.command, **phase}


def render(spec: ExperimentSpec, records):
    """Yield the lines of a record stream per the spec's output format, each
    as its record is made."""
    if spec.format == "csv":
        yield emit_csv_header()
        for rec in records:
            if rec.get("type") == "report":
                yield emit_csv_row(rec)
    else:
        for rec in records:
            yield emit_jsonl(rec)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlcm",
        description="moments and simulation of the lcm degree of q-analogs of random sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for opt_name in cmd.options:
            opt = OPTIONS[opt_name]
            action = "store" if opt.const is None else "store_const"
            p.add_argument(opt.flag, dest=opt_name, action=action, const=opt.const, help=opt.help)
        p.add_argument("--config", help="flat key = value config file")
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        spec = build_spec(args)
        for line in render(spec, run(spec)):
            print(line)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
