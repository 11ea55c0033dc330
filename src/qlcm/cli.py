"""Experiment harness: CLI, configuration, and machine-readable reports.

Commands: expect, variance, simulate, vfun, oracle-check, bench.  Science
records are emitted in grid order as json-lines (fixed key order, floats with
17 significant digits) or a flat csv schema; wall-clock timings live in a
separate trailing block and are never part of the determinism guarantee.

Option precedence: CLI flag > QLCM_* environment variable > config file
(flat ``key = value`` lines) > built-in default.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

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

COMMANDS = ("expect", "variance", "simulate", "vfun", "oracle-check", "bench")
BENCH_SUITES = ("sieve", "variance-sum", "valpha", "oracle")

# oracle-check work cap in trials x |alpha| x sum of n^2, 125 times the
# README run's 500 x 40^2
ORACLE_WORK_LIMIT = 10**8


class SpecError(ValueError):
    """Invalid experiment specification; message names the offending field."""


@dataclass(frozen=True)
class ExperimentSpec:
    command: str
    n_values: tuple[int, ...] = ()
    alphas: tuple = ()
    seed: int = 0
    trials: int = 1000
    workers: int = 1
    output_format: str = "json-lines"
    exact_mode: bool = False
    include_timings: bool = True
    dev_eps: float = 0.05
    truncation: moments.TruncationConfig = field(default_factory=moments.TruncationConfig)
    c1_pair: tuple[int, int] | None = None
    c1_x: int | None = None
    bench_suite: str | None = None
    bench_repeat: int = 3


# ---------------------------------------------------------------------------
# option parsing: registry shared by CLI flags, QLCM_* env vars, config files
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_n_values(text: str) -> tuple[int, ...]:
    """An integer, a comma list, or an inclusive range a:b[:step]."""
    out: list[int] = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            bits = part.split(":")
            if len(bits) not in (2, 3):
                raise ValueError(f"range must be a:b or a:b:step, got {part!r}")
            a, b = int(bits[0]), int(bits[1])
            step = int(bits[2]) if len(bits) == 3 else 1
            if step < 1:
                raise ValueError(f"range step must be >= 1, got {step}")
            if a > b:
                raise ValueError(f"range endpoints out of order: {part!r}")
            out.extend(range(a, b + 1, step))
        else:
            out.append(int(part))
    if not out:
        raise ValueError("no n values given")
    for n in out:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
    return tuple(out)


def _parse_alpha_list(text: str, exact: bool) -> tuple:
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if exact:
            v = Fraction(part)
        elif "/" in part:
            v = float(Fraction(part))
        else:
            v = float(part)
        if not 0 <= v <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {part}")
        out.append(v)
    if not out:
        raise ValueError("no alpha values given")
    return tuple(out)


def _parse_pair(text: str) -> tuple[int, int]:
    bits = [b.strip() for b in str(text).split(",")]
    if len(bits) != 2:
        raise ValueError(f"expected a1,a2 got {text!r}")
    return int(bits[0]), int(bits[1])


# name -> (converter from string, default); converters run on env/config
# values, while argparse supplies already-converted CLI values
_OPTIONS = {
    "seed": (int, 0),
    "trials": (int, 1000),
    "workers": (int, 1),
    "format": (str, "json-lines"),
    "exact": (_parse_bool, False),
    "timings": (_parse_bool, True),
    "dev_eps": (float, 0.05),
    "j3_max": (int, 40),
    "tail_tol": (float, 1e-12),
    "c1_cutoff": (int, 100000),
    "dilog_tol": (float, 1e-12),
    "n": (str, None),
    "alpha": (str, None),
    "c1_pair": (str, None),
    "c1_x": (int, None),
    "suite": (str, None),
    "repeat": (int, 3),
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
        if key not in _OPTIONS:
            raise SpecError(f"config: unknown key {key!r} (line {lineno})")
        values[key] = value.strip()
    return values


def _resolve_options(args: argparse.Namespace) -> dict:
    """Merge CLI > env > config file > defaults into a flat dict."""
    config_path = getattr(args, "config", None) or os.environ.get("QLCM_CONFIG")
    file_values = _load_config_file(config_path) if config_path else {}
    resolved = {}
    for name, (conv, default) in _OPTIONS.items():
        cli_val = getattr(args, name, None)
        if cli_val is not None:
            resolved[name] = cli_val
            continue
        env_val = os.environ.get("QLCM_" + name.upper())
        source = None
        if env_val is not None:
            source = ("environment variable QLCM_" + name.upper(), env_val)
        elif name in file_values:
            source = (f"config key {name}", file_values[name])
        if source is None:
            resolved[name] = default
            continue
        origin, raw = source
        try:
            resolved[name] = conv(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"{origin}: {exc}") from exc
    return resolved


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    opts = _resolve_options(args)
    command = args.command
    if command not in COMMANDS:
        raise SpecError(f"command: unknown command {command!r}")

    def _positive(name, lo=1):
        v = opts[name]
        if v < lo:
            raise SpecError(f"{name}: must be >= {lo}, got {v}")
        return v

    seed = opts["seed"]
    if not 0 <= seed < 2**64:
        raise SpecError(f"seed: must fit in 64 bits, got {seed}")
    trials = _positive("trials")
    workers = _positive("workers")
    fmt = opts["format"]
    if fmt not in ("json-lines", "csv"):
        raise SpecError(f"format: expected json-lines or csv, got {fmt!r}")
    exact = bool(opts["exact"])
    dev_eps = opts["dev_eps"]
    if not 0.0 < dev_eps < 1.0:
        raise SpecError(f"dev_eps: must lie in (0, 1), got {dev_eps}")
    try:
        trunc = moments.TruncationConfig(
            c1_cutoff=opts["c1_cutoff"],
            j3_max=opts["j3_max"],
            beta_tail_tol=opts["tail_tol"],
            dilog_tol=opts["dilog_tol"],
        )
    except ValueError as exc:
        raise SpecError(f"truncation: {exc}") from exc

    n_values: tuple[int, ...] = ()
    if command in ("expect", "variance", "simulate", "oracle-check"):
        if opts["n"] is None:
            raise SpecError("n: required for this command")
        try:
            n_values = _parse_n_values(opts["n"])
        except ValueError as exc:
            raise SpecError(f"n: {exc}") from exc

    alphas: tuple = ()
    if command in ("expect", "variance", "simulate", "vfun"):
        if opts["alpha"] is None:
            if command == "vfun" and opts["c1_pair"] is not None:
                alphas = ()
            else:
                raise SpecError("alpha: required for this command")
        else:
            try:
                alphas = _parse_alpha_list(opts["alpha"], exact)
            except ValueError as exc:
                raise SpecError(f"alpha: {exc}") from exc
    elif command == "oracle-check":
        alphas = (0.5,) if opts["alpha"] is None else _parse_alpha_list(opts["alpha"], False)

    if exact:
        if command not in ("expect", "variance"):
            raise SpecError("exact: only meaningful for expect and variance")
        bad = [n for n in n_values if n > moments.EXACT_RATIONAL_LIMIT]
        if bad:
            raise SpecError(
                f"exact: rational mode limited to n <= {moments.EXACT_RATIONAL_LIMIT}, got {bad[0]}"
            )

    if command == "vfun":
        for a in alphas:
            if not 0 < a < 1:
                raise SpecError(f"alpha: vfun needs interior alpha in (0, 1), got {a}")

    c1_pair = None
    if opts["c1_pair"] is not None:
        if command != "vfun":
            raise SpecError("c1_pair: only available with vfun")
        try:
            c1_pair = _parse_pair(opts["c1_pair"])
        except ValueError as exc:
            raise SpecError(f"c1_pair: {exc}") from exc
        if math.gcd(*c1_pair) != 1 or min(c1_pair) < 1:
            raise SpecError(f"c1_pair: needs coprime positive a1,a2, got {c1_pair}")
    c1_x = opts["c1_x"]
    if c1_x is not None and c1_pair is None:
        raise SpecError("c1_x: requires c1_pair")

    suite = None
    repeat = opts["repeat"]
    if command == "bench":
        suite = opts["suite"]
        if suite not in BENCH_SUITES:
            raise SpecError(f"suite: expected one of {', '.join(BENCH_SUITES)}, got {suite!r}")
        if repeat < 1:
            raise SpecError(f"repeat: must be >= 1, got {repeat}")

    return ExperimentSpec(
        command=command,
        n_values=n_values,
        alphas=alphas,
        seed=seed,
        trials=trials,
        workers=workers,
        output_format=fmt,
        exact_mode=exact,
        include_timings=bool(opts["timings"]),
        dev_eps=dev_eps,
        truncation=trunc,
        c1_pair=c1_pair,
        c1_x=c1_x,
        bench_suite=suite,
        bench_repeat=repeat,
    )


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


def _truncation_echo(cfg: moments.TruncationConfig) -> dict:
    return {
        "c1_cutoff": cfg.c1_cutoff,
        "j3_max": cfg.j3_max,
        "beta_tail_tol": cfg.beta_tail_tol,
        "dilog_tol": cfg.dilog_tol,
    }


# ---------------------------------------------------------------------------
# command implementations: each yields ("report"|"timing", dict)
# ---------------------------------------------------------------------------


def _timed(phase_sink, name):
    """Times a phase; counters set on the context go into its timing record."""

    class _Ctx:
        def __enter__(self):
            self.counters = {}
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            phase_sink.append((name, time.perf_counter() - self.t0, self.counters))
            return False

    return _Ctx()


def _build_tables_for(spec: ExperimentSpec, phases) -> arith.ArithTables:
    need = max(spec.n_values)
    with _timed(phases, "tables"):
        return arith.build_tables(need)


def _run_expect(spec: ExperimentSpec, phases):
    tables = _build_tables_for(spec, phases)
    for n in spec.n_values:
        for a in spec.alphas:
            af = float(a)
            with _timed(phases, f"expect n={n} alpha={af:g}"):
                e_exact = moments.expectation_exact(n, af, tables)
                e_grouped = moments.expectation_grouped(n, af, tables)
                e_asym = moments.expectation_asymptotic(n, af)
            rec = {
                "type": "report",
                "command": "expect",
                "n": n,
                "alpha": af,
                "seed": spec.seed,
                "e_exact": e_exact,
                "e_grouped": e_grouped,
                "e_asym": e_asym,
                "gap_asym": e_exact - e_asym,
                "alpha_factor": moments.alpha_factor(af),
            }
            if spec.exact_mode:
                e_rat = moments.expectation_exact(n, a, tables, exact=True)
                rec["e_exact_rational"] = e_rat
                if n <= model.ENUMERATION_LIMIT:
                    dist = model.enumerate_exact(n, a, tables)
                    rec["enum_mean"] = dist.mean
                    rec["enum_agrees"] = dist.mean == e_rat
            rec["truncation"] = _truncation_echo(spec.truncation)
            yield rec


def _run_variance(spec: ExperimentSpec, phases):
    tables = _build_tables_for(spec, phases)
    for n in spec.n_values:
        for a in spec.alphas:
            af = float(a)
            with _timed(phases, f"variance n={n} alpha={af:g}"):
                v_exact = moments.variance_exact(n, af, tables)
            v_upper = moments.variance_upper_envelope(n, af)
            rec = {
                "type": "report",
                "command": "variance",
                "n": n,
                "alpha": af,
                "seed": spec.seed,
                "v_exact": v_exact,
                "v_upper": v_upper,
                "envelope_ratio": (v_exact / v_upper) if v_upper > 0 else 0.0,
            }
            if spec.exact_mode:
                v_rat = moments.variance_exact(n, a, tables, exact=True)
                rec["v_exact_rational"] = v_rat
                if n <= model.ENUMERATION_LIMIT:
                    dist = model.enumerate_exact(n, a, tables)
                    rec["enum_variance"] = dist.variance
                    rec["enum_agrees"] = dist.variance == v_rat
            rec["truncation"] = _truncation_echo(spec.truncation)
            yield rec


def _run_simulate(spec: ExperimentSpec, phases):
    tables = _build_tables_for(spec, phases)
    for n in spec.n_values:
        for a in spec.alphas:
            af = float(a)
            params = model.ModelParams(n=n, alpha=af, seed=spec.seed, trials=spec.trials)
            # the exact moments go first: V's temporaries are then freed
            # before the trial blocks are allocated, not on top of them
            e_exact = moments.expectation_exact(n, af, tables)
            v_exact = moments.variance_exact(n, af, tables)
            with _timed(phases, f"simulate n={n} alpha={af:g}"):
                mc = model.monte_carlo(params, tables, workers=spec.workers)
            if e_exact > 0:
                dev = np.abs(mc.degrees - e_exact) > spec.dev_eps * e_exact
                dev_frac = float(Fraction(int(dev.sum()), mc.trials))
            else:
                dev_frac = 0.0
            cheb_den = (spec.dev_eps * e_exact) ** 2
            yield {
                "type": "report",
                "command": "simulate",
                "n": n,
                "alpha": af,
                "seed": spec.seed,
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
                "truncation": _truncation_echo(spec.truncation),
            }


def _run_vfun(spec: ExperimentSpec, phases):
    for a in spec.alphas:
        af = float(a)
        with _timed(phases, f"vfun alpha={af:g}") as timer:
            est = moments.v_alpha(af, spec.truncation)
            timer.counters = {
                "triples": est.triples,
                "members": est.terms,
                "c1_inner_evals": est.c1_inner_evals,
                "c1_cache_hits": est.triples - est.c1_inner_evals,
            }
        yield {
            "type": "report",
            "command": "vfun",
            "alpha": af,
            "seed": spec.seed,
            "v_alpha": est.value,
            "v_alpha_error": est.truncation_error,
            "v_alpha_terms": est.terms,
            "alpha_factor": moments.alpha_factor(af),
            "dilog_beta": moments.dilog(1.0 - af, spec.truncation.dilog_tol),
            "truncation": _truncation_echo(spec.truncation),
        }
    if spec.c1_pair is not None:
        a1, a2 = spec.c1_pair
        with _timed(phases, f"c1 ({a1},{a2})"):
            est = moments.c1_constant(a1, a2, spec.truncation)
        rec = {
            "type": "report",
            "command": "vfun",
            "seed": spec.seed,
            "c1_a1": a1,
            "c1_a2": a2,
            "c1_value": est.value,
            "c1_tail_error": est.tail_error,
            "c1_cutoff": est.cutoff,
        }
        if spec.c1_x is not None:
            x = spec.c1_x
            with _timed(phases, f"phi_pair x={x}"):
                tables = arith.build_tables(max(a1, a2) * x)
                brute = arith.phi_pair_summatory(tables, a1, a2, x)
            ratio = brute / float(x) ** 3
            rec["phi_pair_x"] = x
            rec["phi_pair_ratio"] = ratio
            rec["c1_rel_diff"] = abs(est.value - ratio) / ratio if ratio else 0.0
        rec["truncation"] = _truncation_echo(spec.truncation)
        yield rec


def _run_oracle_check(spec: ExperimentSpec, phases):
    n_max = max(spec.n_values)
    if n_max > qpoly.ORACLE_LIMIT:
        raise ResourceLimitError(f"--n {n_max} exceeds the oracle limit {qpoly.ORACLE_LIMIT}")
    work = spec.trials * len(spec.alphas) * sum(n * n for n in spec.n_values)
    if work > ORACLE_WORK_LIMIT:
        raise ResourceLimitError(
            f"oracle-check work {work:.3g} (--trials x alphas x sum of --n squared) "
            f"exceeds {ORACLE_WORK_LIMIT:.0e}; lower --trials or --n"
        )
    tables = _build_tables_for(spec, phases)
    for n in spec.n_values:
        for a in spec.alphas:
            af = float(a)
            params = model.ModelParams(n=n, alpha=af, seed=spec.seed, trials=spec.trials)
            agree = 0
            with _timed(phases, f"oracle-check n={n} alpha={af:g}"):
                for t in range(spec.trials):
                    bits = model.sample_set(params, t)
                    members = [int(k) for k in np.nonzero(bits)[0]]
                    x = model.degree_statistic(bits, n, tables)
                    d_cyc = qpoly.lcm_degree_oracle(members, method="cyclotomic")
                    d_gcd = qpoly.lcm_degree_oracle(members, method="gcd")
                    if x == d_cyc == d_gcd:
                        agree += 1
            yield {
                "type": "report",
                "command": "oracle-check",
                "n": n,
                "alpha": af,
                "seed": spec.seed,
                "trials": spec.trials,
                "agree_count": agree,
                "disagree_count": spec.trials - agree,
                "all_agree": agree == spec.trials,
                "truncation": _truncation_echo(spec.truncation),
            }


def _bench_cases(spec: ExperimentSpec):
    suite = spec.bench_suite
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
        yield "v_alpha 0.5", 0, lambda: moments.v_alpha(0.5, spec.truncation)
    elif suite == "oracle":
        params = model.ModelParams(n=40, alpha=0.5, seed=spec.seed, trials=20)
        sets = []
        for t in range(params.trials):
            bits = model.sample_set(params, t)
            sets.append([int(k) for k in np.nonzero(bits)[0]])

        def run_sets():
            for members in sets:
                qpoly.lcm_degree_oracle(members, method="cyclotomic")
                qpoly.lcm_degree_oracle(members, method="gcd")

        yield "oracle n=40 x20 both paths", 40, run_sets


def _run_bench(spec: ExperimentSpec):
    # cold caches would double-count sieve work; each case runs repeat times
    # and reports the median
    for case, size, fn in _bench_cases(spec):
        times = []
        for _ in range(spec.bench_repeat):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        yield {
            "type": "bench",
            "suite": spec.bench_suite,
            "case": case,
            "size": size,
            "runs": spec.bench_repeat,
            "median_s": statistics.median(times),
            "times_s": times,
        }


def run(spec: ExperimentSpec):
    """Yield science records in grid order, then timing records."""
    phases: list[tuple[str, float, dict]] = []
    if spec.command == "expect":
        gen = _run_expect(spec, phases)
    elif spec.command == "variance":
        gen = _run_variance(spec, phases)
    elif spec.command == "simulate":
        gen = _run_simulate(spec, phases)
    elif spec.command == "vfun":
        gen = _run_vfun(spec, phases)
    elif spec.command == "oracle-check":
        gen = _run_oracle_check(spec, phases)
    elif spec.command == "bench":
        yield from _run_bench(spec)
        return
    else:
        raise SpecError(f"command: unknown command {spec.command!r}")
    yield from gen
    if spec.include_timings:
        for phase, seconds, counters in phases:
            yield {
                "type": "timing",
                "command": spec.command,
                "phase": phase,
                "seconds": seconds,
                **counters,
            }


def render(spec: ExperimentSpec, records) -> list[str]:
    """Serialize a record stream per the spec's output format."""
    lines: list[str] = []
    if spec.output_format == "csv" and spec.command != "bench":
        lines.append(emit_csv_header())
        for rec in records:
            if rec.get("type") == "report":
                lines.append(emit_csv_row(rec))
    else:
        for rec in records:
            lines.append(emit_jsonl(rec))
    return lines


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None, help="64-bit unsigned simulation seed")
    p.add_argument("--trials", type=int, default=None, help="Monte Carlo trial count")
    p.add_argument("--workers", type=int, default=None, help="worker threads for trials")
    p.add_argument("--format", choices=("json-lines", "csv"), default=None, dest="format")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument(
        "--no-timings",
        action="store_const",
        const=False,
        default=None,
        dest="timings",
        help="suppress the trailing timing block",
    )
    p.add_argument("--j3-max", type=int, default=None, dest="j3_max")
    p.add_argument("--tail-tol", type=float, default=None, dest="tail_tol")
    p.add_argument("--c1-cutoff", type=int, default=None, dest="c1_cutoff")
    p.add_argument("--dilog-tol", type=float, default=None, dest="dilog_tol")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlcm",
        description="moments and simulation of the lcm degree of q-analogs of random sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expect", help="exact, grouped, and asymptotic E[X]")
    p.add_argument("--n", default=None, help="int, comma list, or a:b[:step]")
    p.add_argument("--alpha", default=None, help="comma list; fractions allowed")
    p.add_argument("--exact", action="store_const", const=True, default=None, dest="exact")
    _add_common(p)

    p = sub.add_parser("variance", help="exact V[X] and the alpha*n^3 envelope")
    p.add_argument("--n", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--exact", action="store_const", const=True, default=None, dest="exact")
    _add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo degree statistics")
    p.add_argument("--n", default=None)
    p.add_argument("--alpha", default=None)
    p.add_argument("--dev-eps", type=float, default=None, dest="dev_eps")
    _add_common(p)

    p = sub.add_parser("vfun", help="limiting variance constant v(alpha); C1 diagnostics")
    p.add_argument("--alpha", default=None)
    p.add_argument("--c1-pair", default=None, dest="c1_pair", help="a1,a2 for a C1 record")
    p.add_argument("--c1-x", type=int, default=None, dest="c1_x", help="brute-force C1 check at x")
    _add_common(p)

    p = sub.add_parser("oracle-check", help="degree statistic vs both polynomial oracles")
    p.add_argument("--n", default=None)
    p.add_argument("--alpha", default=None)
    _add_common(p)

    p = sub.add_parser("bench", help="micro-benchmarks")
    p.add_argument("--suite", choices=BENCH_SUITES, default=None)
    p.add_argument("--repeat", type=int, default=None)
    _add_common(p)

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
