"""CLI: option precedence, record schemas, serialization, exit codes."""

import json
import math
import os
import re
import shlex
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from qlcm import cli, model, moments, qpoly
from qlcm.arith import TABLE_LIMIT
from qlcm.errors import ResourceLimitError
from qlcm.cli import (
    COMMANDS,
    CSV_COLUMNS,
    OPTIONS,
    SpecError,
    _make_parser,
    build_spec,
    emit_csv_header,
    emit_csv_row,
    emit_jsonl,
    main,
    render,
    run,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    out = [ln for ln in captured.out.splitlines() if ln]
    return code, out, captured.err


def spec_for(argv):
    return build_spec(_make_parser().parse_args(argv))


def records_for(argv):
    return [json.loads(ln) for ln in render(spec_for(argv), run(spec_for(argv)))]


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


def test_expect_record_schema_and_roundtrip(capsys):
    code, out, err = run_cli(capsys, ["expect", "--n", "10", "--alpha", "0.5"])
    assert code == 0 and not err
    rec = json.loads(out[0])
    assert list(rec)[:5] == ["type", "command", "n", "alpha", "seed"]
    # expect reads no seed: the record echoes the default
    assert rec["command"] == "expect" and rec["n"] == 10 and rec["seed"] == 0
    for key in ("e_exact", "e_grouped", "e_asym", "gap_asym", "alpha_factor", "truncation"):
        assert key in rec
    assert rec["truncation"]["c1_cutoff"] == 100000
    # parse -> re-emit is byte identical (floats carry 17 significant digits)
    assert emit_jsonl(rec) == out[0]


def test_timing_records_trail_science(capsys):
    code, out, _ = run_cli(capsys, ["expect", "--n", "5", "--alpha", "0.5"])
    assert code == 0
    kinds = [json.loads(ln)["type"] for ln in out]
    assert kinds[0] == "report"
    assert "timing" in kinds
    first_timing = kinds.index("timing")
    assert all(k == "timing" for k in kinds[first_timing:])
    tm = json.loads(out[first_timing])
    assert tm["seconds"] >= 0.0 and tm["command"] == "expect"
    # phi over 0..5, int32
    assert tm["phase"] == "tables" and tm["table_bytes"] == 6 * 4

    code, out, _ = run_cli(capsys, ["expect", "--n", "5", "--alpha", "0.5", "--no-timings"])
    assert all(json.loads(ln)["type"] == "report" for ln in out)


def test_timing_records_carry_peak_rss_and_variance_pairs(capsys):
    # every timing record ends with the process's peak RSS; a variance
    # record also counts the ordered pairs (d1, d2) its sum visited, those
    # with lcm <= n; science records carry neither and do not change
    argv = ["variance", "--n", "2,30", "--alpha", "0.5"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    recs = [json.loads(ln) for ln in out]
    reports = [r for r in recs if r["type"] == "report"]
    timings = [r for r in recs if r["type"] == "timing"]
    assert len(reports) == 2 and len(timings) == 3
    for tm in timings:
        assert list(tm)[-1] == "peak_rss_kib" and tm["peak_rss_kib"] > 0
    assert timings[0]["phase"] == "tables" and "pairs" not in timings[0]
    for n, tm in zip((2, 30), timings[1:]):
        want = sum(1 for d1 in range(2, n + 1) for d2 in range(2, n + 1) if math.lcm(d1, d2) <= n)
        assert tm["phase"] == f"variance n={n} alpha=0.5" and tm["pairs"] == want
    assert not any({"pairs", "peak_rss_kib"} & set(r) for r in reports)
    _, quiet, _ = run_cli(capsys, argv + ["--no-timings"])
    assert quiet == out[:2]


@pytest.fixture
def variance_calls(monkeypatch):
    """The (n, alpha) of every moments.variance_exact call, in order."""
    calls = []
    real = moments.variance_exact

    def spy(n, alpha, *args, **kwargs):
        calls.append((n, alpha))
        return real(n, alpha, *args, **kwargs)

    monkeypatch.setattr(moments, "variance_exact", spy)
    return calls


def test_variance_row_walks_once_per_n(capsys, variance_calls):
    # every alpha of an n row comes from one variance_exact call, timed as
    # one record whose phase lists the row's alphas
    code, out, _ = run_cli(capsys, ["variance", "--n", "10,30", "--alpha", "0.25,0.5"])
    assert code == 0
    assert variance_calls == [(10, (0.25, 0.5)), (30, (0.25, 0.5))]
    recs = [json.loads(ln) for ln in out]
    assert [r["alpha"] for r in recs if r["type"] == "report"] == [0.25, 0.5] * 2
    timings = [r for r in recs if r["type"] == "timing"]
    assert [tm["phase"] for tm in timings] == [
        "tables", "variance n=10 alpha=0.25,0.5", "variance n=30 alpha=0.25,0.5"]
    for n, tm in zip((10, 30), timings[1:]):
        want = sum(1 for d1 in range(2, n + 1) for d2 in range(2, n + 1) if math.lcm(d1, d2) <= n)
        assert tm["pairs"] == want


def test_variance_row_split_by_the_budget(capsys, monkeypatch, variance_calls):
    # a budget that leaves room for two beta^k tables at n = 2000 splits the
    # five alphas into groups of three and two, and changes no record but
    # the times
    argv = ["variance", "--n", "10,2000", "--alpha", "0.1,0.3,0.5,0.7,0.9"]
    _, whole, _ = run_cli(capsys, argv)
    assert variance_calls == [(10, (0.1, 0.3, 0.5, 0.7, 0.9)), (2000, (0.1, 0.3, 0.5, 0.7, 0.9))]
    variance_calls.clear()
    monkeypatch.setattr(cli, "VARIANCE_BYTES", moments._variance_bytes(2000) + 2 * 8 * 2001)
    code, split, _ = run_cli(capsys, argv)
    assert code == 0
    assert variance_calls[1:] == [(2000, (0.1, 0.3, 0.5)), (2000, (0.7, 0.9))]
    assert len(variance_calls[0][1]) == 5  # n = 10: room for every alpha

    def timeless(lines):
        recs = [json.loads(ln) for ln in lines]
        for r in recs:
            r.pop("seconds", None)
            r.pop("peak_rss_kib", None)
        return recs

    assert timeless(split) == timeless(whole)


def test_variance_exact_row_matches_per_alpha_runs(capsys):
    # the rational row of each n against a run per alpha
    alphas = ["1/4", "1/3", "7/10"]
    _, row, _ = run_cli(
        capsys, ["variance", "--exact", "--n", "1:12", "--alpha", ",".join(alphas), "--no-timings"])
    single = []
    for a in alphas:
        _, out, _ = run_cli(
            capsys, ["variance", "--exact", "--n", "1:12", "--alpha", a, "--no-timings"])
        single.append(out)
    assert row == [ln for lines in zip(*single) for ln in lines]


def test_grid_order_n_outer_alpha_inner(capsys):
    code, out, _ = run_cli(
        capsys,
        ["expect", "--n", "4,6", "--alpha", "0.25,0.75", "--no-timings"],
    )
    assert code == 0
    grid = [(json.loads(ln)["n"], json.loads(ln)["alpha"]) for ln in out]
    assert grid == [(4, 0.25), (4, 0.75), (6, 0.25), (6, 0.75)]


def test_n_range_forms():
    assert spec_for(["expect", "--n", "2:6", "--alpha", "0.5"]).n_values == (2, 3, 4, 5, 6)
    assert spec_for(["expect", "--n", "2:10:3", "--alpha", "0.5"]).n_values == (2, 5, 8)
    assert spec_for(["expect", "--n", "7, 3", "--alpha", "0.5"]).n_values == (7, 3)
    assert spec_for(["expect", "--n", "5", "--alpha", "1/4,0.5"]).alphas == (0.25, 0.5)


def test_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        ["expect", "--n", "4,6", "--alpha", "0.25,0.5", "--format", "csv", "--no-timings"],
    )
    assert code == 0
    assert out[0] == emit_csv_header() == ",".join(CSV_COLUMNS)
    assert len(out) == 5
    row = dict(zip(CSV_COLUMNS, out[1].split(",")))
    assert row["n"] == "4" and row["e_exact"] != ""
    assert row["v_exact"] == "" and row["mc_mean"] == ""
    assert row["seed"] == "0"
    # variance and simulate fill their own columns
    _, vout, _ = run_cli(
        capsys, ["variance", "--n", "50", "--alpha", "0.5", "--format", "csv", "--no-timings"]
    )
    vrow = dict(zip(CSV_COLUMNS, vout[1].split(",")))
    assert vrow["v_exact"] != "" and vrow["v_upper"] != "" and vrow["e_exact"] == ""
    _, sout, _ = run_cli(
        capsys,
        ["simulate", "--n", "50", "--alpha", "0.5", "--trials", "20", "--format", "csv",
         "--no-timings"],
    )
    srow = dict(zip(CSV_COLUMNS, sout[1].split(",")))
    assert srow["mc_mean"] != "" and srow["mc_var"] != "" and srow["e_exact"] != ""
    assert srow["v_exact"] != ""


def test_csv_empty_stream_is_header_only():
    spec = spec_for(["expect", "--n", "5", "--alpha", "0.5", "--format", "csv"])
    assert list(render(spec, [])) == [emit_csv_header()]


@pytest.mark.parametrize("fmt", ["json-lines", "csv"])
def test_render_yields_each_line_as_its_record_is_made(fmt):
    # a record stream that fails after its first record has that record's
    # line out first: the output is not held back until the stream ends
    spec = spec_for(["expect", "--n", "5", "--alpha", "0.5", "--format", fmt])
    first = {"type": "report", "command": "expect", "n": 5, "alpha": 0.5, "seed": 0}

    def records():
        yield first
        raise RuntimeError("after the first record")

    lines = render(spec, records())
    if fmt == "csv":
        assert next(lines) == emit_csv_header()
        assert next(lines) == emit_csv_row(first)
    else:
        assert next(lines) == emit_jsonl(first)
    with pytest.raises(RuntimeError, match="after the first record"):
        next(lines)


def test_emit_jsonl_values():
    assert emit_jsonl({"a": True, "b": 3}) == '{"a": true, "b": 3}'
    assert emit_jsonl({"x": 0.1}) == '{"x": 0.10000000000000001}'
    assert emit_jsonl({"f": Fraction(1, 3)}) == '{"f": "1/3"}'
    assert emit_jsonl({"s": "q", "l": [1, 2.5]}) == '{"s": "q", "l": [1, 2.5]}'
    with pytest.raises(ValueError):
        emit_jsonl({"bad": math.nan})
    with pytest.raises(TypeError):
        emit_jsonl({"bad": object()})


def test_emit_csv_row_blank_for_missing():
    line = emit_csv_row({"n": 5, "alpha": 0.5, "seed": 1})
    cells = line.split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[0] == "5" and cells[-1] == "1"
    assert cells[2] == ""


def test_exit_code_spec_error(capsys):
    code, _, err = run_cli(capsys, ["expect", "--alpha", "0.5"])
    assert code == 2 and err.startswith("error: n:")
    code, _, err = run_cli(capsys, ["expect", "--n", "0", "--alpha", "0.5"])
    assert code == 2
    code, _, err = run_cli(capsys, ["expect", "--n", "9:3", "--alpha", "0.5"])
    assert code == 2 and "out of order" in err
    code, _, err = run_cli(capsys, ["expect", "--n", "5", "--alpha", "1.5"])
    assert code == 2 and "alpha" in err
    code, _, err = run_cli(capsys, ["vfun", "--alpha", "1.0"])
    assert code == 2 and "interior" in err
    code, _, err = run_cli(capsys, ["simulate", "--n", "5", "--alpha", "0.5", "--dev-eps", "0"])
    assert code == 2
    code, _, err = run_cli(capsys, ["expect", "--n", "40", "--alpha", "0.5", "--exact"])
    assert code == 2 and "rational mode" in err
    code, _, err = run_cli(capsys, ["vfun", "--c1-pair", "2,4"])
    assert code == 2 and "coprime" in err
    code, _, err = run_cli(capsys, ["vfun", "--alpha", "0.5", "--c1-x", "100"])
    assert code == 2 and "c1_x" in err
    code, _, err = run_cli(capsys, ["bench", "--suite", "oracle", "--repeat", "0"])
    assert code == 2
    code, _, err = run_cli(capsys, ["simulate", "--n", "5", "--alpha", "0.5", "--seed", "-3"])
    assert code == 2 and "seed" in err
    code, _, err = run_cli(capsys, ["vfun", "--alpha", "0.5", "--c1-pair", "1,1", "--format",
                                    "csv"])
    assert code == 2 and err.startswith("error: format:")
    # every command's alpha goes through the one guarded parse; c1_x >= 1
    for argv, name in (
        (["oracle-check", "--n", "10", "--alpha", "1.5"], "alpha"),
        (["oracle-check", "--n", "10", "--alpha", "abc"], "alpha"),
        (["vfun", "--c1-pair", "1,1", "--c1-x", "0"], "c1_x"),
        (["vfun", "--c1-pair", "1,1", "--c1-x", "-5"], "c1_x"),
    ):
        code, _, err = run_cli(capsys, argv)
        assert code == 2 and err.startswith(f"error: {name}"), (argv, err)


def test_exit_code_resource_limit(capsys):
    # the first five requests exceed the table cap (--c1-x x reads phi up to
    # max(a1, a2) * x, --c1-cutoff T a C1 weight prefix up to T, and an
    # --n range is refused by its end before it is expanded), the two small
    # alphas the S_inf member bound.  The refusal comes before any table is
    # allocated or any member enumerated, and names the option to change
    # where one is given.
    for argv, option in (
        (["variance", "--n", str(TABLE_LIMIT + 1), "--alpha", "0.5"], ""),
        (["expect", "--n", "1:10000000000", "--alpha", "0.5"], "--n"),
        (["vfun", "--alpha", "0.5", "--c1-pair", "1,1", "--c1-x", "1000000000"], "--c1-x"),
        (["vfun", "--c1-pair", "2,3", "--c1-x", "4000000"], "--c1-x"),
        (["vfun", "--alpha", "0.5", "--c1-cutoff", "10000000000"], "--c1-cutoff"),
        (["vfun", "--alpha", "0.01"], "--alpha"),
        (["vfun", "--alpha", "1e-300"], "--alpha"),  # beta = 1.0 in floating point
    ):
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and err.startswith("resource limit:"), argv
        assert option in err, err
        assert peak < 2**24, f"{argv}: peak {peak} bytes"
        if option == "--alpha":
            # the loop stops once the bound passes the limit: a lower bound
            assert "member bound is at least" in err, err


@pytest.mark.parametrize(
    "argv,option",
    [
        (["--n", "600", "--trials", "1"], "--n"),  # past qpoly.ORACLE_LIMIT
        (["--n", "512", "--trials", "500"], "--trials"),  # 1.5e12 work units
        (["--n", "40", "--trials", "62501"], "--trials"),  # past the cap of 46,001 at n = 40
        (["--n", "200", "--trials", "2500"], "--trials"),  # minutes of oracle work
        (["--n", "200", "--trials", "177"], "--trials"),  # past the cap of 176 at n = 200
    ],
)
def test_oracle_check_preflight_refuses(capsys, argv, option):
    # refused before the tables are built or a set is sampled
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["oracle-check", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err.startswith("resource limit:") and not out
    assert option in err, err
    assert peak < 2**24, f"{argv}: peak {peak} bytes"


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "10000000", "--trials", "1000"],  # 10^10 draws
        ["--n", "10000", "--trials", "300000"],  # 150 times the README run
        ["--n", "20000", "--alpha", "0.1,0.3,0.5,0.7,0.9", "--trials", "30000"],
        # 10^9 one-bit trials: 8 GB of degrees, refused only by the cost per trial
        ["--n", "1", "--trials", "1000000000"],
    ],
)
def test_simulate_preflight_refuses(capsys, argv):
    # refused before the tables are built or a trial is drawn
    argv = ["simulate", *argv] if "--alpha" in argv else ["simulate", "--alpha", "0.5", *argv]
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err.startswith("resource limit:") and not out, err
    assert "--trials" in err, err
    assert peak < 2**24, f"{argv}: peak {peak} bytes"


def test_simulate_preflight_refuses_variance_memory(capsys):
    # one trial is little work, but V[X] at n = 10^7 would hold about
    # 262 MiB beside the tables: refused before the tables are built
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["simulate", "--n", "10000000", "--alpha", "0.5",
                                          "--trials", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err.startswith("resource limit:") and not out, err
    assert "--n 10000000" in err and "MiB" in err, err
    assert peak < 2**24, f"peak {peak} bytes"


def test_variance_preflight_refuses_memory(capsys):
    # the float V[X] at n = 10^7 would hold about 262 MiB beside the
    # tables: refused before the tables are built, as simulate refuses it
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["variance", "--n", "10000000", "--alpha", "0.5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err.startswith("resource limit:") and not out, err
    assert "--n 10000000" in err and "MiB" in err, err
    assert peak < 2**24, f"peak {peak} bytes"
    # about 31 MiB at n = 10^6: the pre-flight passes (nothing is run)
    spec_for(["variance", "--n", "1000000", "--alpha", "0.5"])


def test_simulate_preflight_accepts_the_documented_runs():
    # criterion 7's runs and the benchmark's 2000 trials at n = 20000
    for n, alpha in (("10000", "0.1"), ("1000", "0.9"), ("20000", "0.5")):
        spec_for(["simulate", "--n", n, "--alpha", alpha, "--trials", "2000"])


def test_oracle_check_preflight_fits_measured_costs():
    # the pre-flight alone, no oracle run: 20 sets at n = 200 take about 1 s
    # and one set at n = 512 about 3.5 s, so both pass; the cap at n = 512
    # is 6 sets
    for argv in (
        ["--n", "200", "--trials", "20"],
        ["--n", "512", "--trials", "1"],
        ["--n", "512", "--trials", "6"],
        ["--n", "40", "--trials", "500", "--seed", "20260814"],
    ):
        spec_for(["oracle-check", *argv])
    with pytest.raises(ResourceLimitError, match="--trials"):
        spec_for(["oracle-check", "--n", "512", "--trials", "7"])


def test_oracle_check_counts_a_cost_per_set():
    # each set costs a fixed share besides its n^3.5, so many tiny sets are
    # refused (10^11 sets at n = 2 would take weeks); the README run is not
    with pytest.raises(ResourceLimitError, match="--trials"):
        spec_for(["oracle-check", "--n", "2", "--trials", "100000000000"])
    with pytest.raises(ResourceLimitError, match="--trials"):
        spec_for(["oracle-check", "--n", "1:8", "--trials", "100000"])
    spec_for(["oracle-check", "--n", "40", "--trials", "500", "--seed", "20260814"])


@pytest.mark.parametrize(
    "argv",
    [
        ["--alpha", "0.1", "--c1-pair", "1,1", "--c1-x", "20000000"],  # v(0.1) used to run first
        ["--alpha", "0.5,0.2", "--c1-pair", "3,2", "--c1-x", "3333334"],  # 3 x 3333334 > 10^7
    ],
)
def test_vfun_c1_x_refused_before_v_alpha(capsys, monkeypatch, argv):
    # the C1 check's reach, max(a1, a2) * x, is a pre-flight refusal: no
    # v(alpha) record is computed before it
    calls = []
    monkeypatch.setattr(moments, "v_alpha", lambda *a, **k: calls.append(a))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["vfun", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err.startswith("resource limit:") and "--c1-x" in err, err
    assert not out and not calls
    assert peak < 2**24, f"{argv}: peak {peak} bytes"


@pytest.mark.parametrize("pair", ["1000000000000000003,1", f"1,{TABLE_LIMIT + 1}"])
def test_vfun_c1_pair_past_the_cap_refused_at_once(capsys, monkeypatch, pair):
    # C1 factors a1 and a2 by trial division, which takes minutes on a prime
    # near 10^18: a pair past the table cap is a pre-flight refusal,
    # before any v(alpha) or C1 runs
    calls = []
    monkeypatch.setattr(moments, "v_alpha", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(moments, "c1_constant", lambda *a, **k: calls.append(a))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, ["vfun", "--alpha", "0.5", "--c1-pair", pair])
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and err.startswith("resource limit:") and "--c1-pair" in err, err
    assert not out and not calls


@pytest.mark.parametrize(
    "argv",
    [
        ["vfun", "--format", "csv", "--alpha", "0.5", "--c1-cutoff", str(TABLE_LIMIT + 1)],
        ["vfun", "--c1-pair", "6,35", "--c1-cutoff", str(TABLE_LIMIT + 1)],
        ["bench", "--suite", "valpha", "--c1-cutoff", str(TABLE_LIMIT + 1)],
        ["bench", "--suite", "valpha", "--tail-tol", "1e-300"],
    ],
)
def test_truncation_refused_in_preflight(capsys, monkeypatch, argv):
    # a C1 cutoff past the table cap, or a bench v(0.5) past the S_inf
    # member bound, is refused before the csv header or any v(alpha) or C1
    def called(*args, **kwargs):
        raise AssertionError("ran past the pre-flight")

    monkeypatch.setattr(moments, "v_alpha", called)
    monkeypatch.setattr(moments, "c1_constant", called)
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and err.startswith("resource limit:") and not out, err
    assert ("--c1-cutoff" if "--c1-cutoff" in argv else "--tail-tol") in err, err


def test_tail_refusal_names_only_flags_the_command_has(capsys):
    # bench fixes alpha = 0.5, so its refusal names --tail-tol alone
    code, out, err = run_cli(capsys, ["bench", "--suite", "valpha", "--tail-tol", "1e-300"])
    assert code == 3 and not out and err.rstrip().endswith("; raise --tail-tol"), err
    code, out, err = run_cli(capsys, ["vfun", "--alpha", "0.01"])
    assert code == 3 and not out and err.rstrip().endswith("; raise --alpha or --tail-tol"), err


def test_n_values_counted_before_expansion(capsys, monkeypatch):
    # the values of every part are counted from the range lengths: the cap
    # itself is accepted, one more refused, through the flag and QLCM_N
    monkeypatch.setattr(cli, "N_VALUES_LIMIT", 10)
    assert cli._parse_n_values("1:10") == tuple(range(1, 11))
    assert cli._parse_n_values("1:5,6:18:3") == (1, 2, 3, 4, 5, 6, 9, 12, 15, 18)
    for text in ("1:11", "1:5,6:18:3,7", "1:21:2"):
        with pytest.raises(ResourceLimitError, match="--n"):
            cli._parse_n_values(text)
    code, out, err = run_cli(capsys, ["expect", "--n", "1:11", "--alpha", "0.5"])
    assert code == 3 and "--n" in err and not out, err
    monkeypatch.setenv("QLCM_N", "1:5,1:6")
    code, out, err = run_cli(capsys, ["expect", "--alpha", "0.5"])
    assert code == 3 and "--n" in err and not out, err
    # at the real cap, ten ranges of 10^7 values are refused with no list made
    monkeypatch.undo()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="--n"):
            cli._parse_n_values(",".join(["1:10000000"] * 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak} bytes"


def test_bench_repeat_capped(capsys, monkeypatch):
    # refused before any case is set up
    monkeypatch.setattr(cli, "_bench_cases", lambda spec: pytest.fail("a case ran"))
    assert spec_for(["bench", "--suite", "variance-sum", "--repeat", str(cli.BENCH_REPEAT_LIMIT)])
    for repeat in (cli.BENCH_REPEAT_LIMIT + 1, 10**9):
        code, out, err = run_cli(capsys, ["bench", "--suite", "variance-sum", "--repeat",
                                          str(repeat)])
        assert code == 3 and err.startswith("resource limit:") and "--repeat" in err, err
        assert not out


def test_vfun_c1_pair_under_the_cap_keeps_its_record(capsys):
    # two primes just under the cap, a1 a2 near 10^14: the record of the
    # scalar C1 path, byte for byte
    code, out, _ = run_cli(capsys, ["vfun", "--c1-pair", "9999991,9999973", "--no-timings"])
    assert code == 0 and len(out) == 1
    assert out[0].startswith(
        '{"type": "report", "command": "vfun", "seed": 0, "c1_a1": 9999991, "c1_a2": 9999973, '
        '"c1_value": 14274928054054.334, "c1_tail_error": 191881438.68412662, '
        '"c1_cutoff": 100000, '
    ), out[0]


def test_vfun_small_alpha_refused_before_v_alpha(capsys, monkeypatch):
    # the S_inf member bound of every alpha is a pre-flight refusal: v(0.1)
    # is not computed before 0.01 is refused
    calls = []
    monkeypatch.setattr(moments, "v_alpha", lambda *a, **k: calls.append(a))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, ["vfun", "--alpha", "0.1,0.01"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err.startswith("resource limit:") and "--alpha" in err, err
    assert not out and not calls
    assert peak < 2**24, f"peak {peak} bytes"


def test_exact_alpha_exponent_refused_at_once(capsys):
    # Fraction would expand 10^10000000 first; the exponent is read as a
    # Decimal's and refused
    for alpha in ("1e-10000000", "1e+10000000", "1e-99999999999999999999999", "0.5e-101"):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, ["expect", "--exact", "--n", "5", "--alpha", alpha])
        assert time.perf_counter() - t0 < 0.5, alpha
        assert code == 2 and err.startswith("error: alpha") and not out, (alpha, err)
    # the exponent bound itself, ratios and the float path are accepted
    for argv in (["--exact", "--alpha", "1e-100"], ["--exact", "--alpha", "1/3,0.25"],
                 ["--alpha", "1e-10000000"]):
        code, out, err = run_cli(capsys, ["expect", "--n", "5", "--no-timings", *argv])
        assert code == 0 and not err, argv


def test_oracle_check_takes_x_from_monte_carlo(capsys, monkeypatch):
    # X is the coverage transform simulate runs: the per-d loop is not
    # called, and a transform off by one disagrees on every set
    argv = ["oracle-check", "--n", "30", "--trials", "25", "--seed", "3", "--no-timings"]

    def refuse(*args):
        raise AssertionError("degree_statistic called")

    monkeypatch.setattr(model, "degree_statistic", refuse)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out[0])["agree_count"] == 25
    block_degrees = model._block_degrees
    monkeypatch.setattr(model, "_block_degrees", lambda *a: block_degrees(*a) + 1)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out[0])["disagree_count"] == 25


def test_oracle_check_sees_a_fault_in_the_planes(capsys, monkeypatch):
    # the oracles read each set as sample_set draws it, not from the planes
    # the degrees come from: toggling element n of trial 0 in its block's
    # planes moves that trial's degree by at least phi(n), and no other
    argv = ["oracle-check", "--n", "30", "--trials", "25", "--seed", "3", "--no-timings"]
    draw_block = model._draw_block

    def toggled(params, start, stop):
        planes = draw_block(params, start, stop)
        if start == 0:
            planes[0, params.n] ^= 1
        return planes

    monkeypatch.setattr(model, "_draw_block", toggled)
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out[0])["disagree_count"] == 1


def test_oracle_check_timing_counters(capsys):
    # Euclid runs once per pair (k, m) of elements, and the pairs are shared
    # by every set of the run and by later runs in the same process
    qpoly._q_gcd.cache_clear()
    argv = ["oracle-check", "--n", "30", "--trials", "25", "--seed", "3"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and len(out) == 3
    rec, _, tm = (json.loads(ln) for ln in out)
    assert not {"sets", "elements", "gcd_pairs", "gcd_pair_hits"} & set(rec)
    params = model.ModelParams(n=30, alpha=0.5, seed=3, trials=25)
    sizes = [int(model.sample_set(params, t).sum()) for t in range(25)]
    assert tm["sets"] == 25 and tm["elements"] == sum(sizes)
    assert tm["gcd_pairs"] == qpoly._q_gcd.cache_info().currsize <= 30 * 29 // 2
    assert tm["gcd_pair_hits"] > tm["gcd_pairs"] > 0
    code, out, _ = run_cli(capsys, argv)
    again = json.loads(out[2])
    assert again["gcd_pairs"] == 0
    assert again["gcd_pair_hits"] == tm["gcd_pair_hits"] + tm["gcd_pairs"]


def test_precedence_cli_env_config(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\ntrials = 33  # comment\ntail-tol = 1e-10\n")
    for var in ("QLCM_SEED", "QLCM_TRIALS", "QLCM_CONFIG"):
        monkeypatch.delenv(var, raising=False)

    base = ["simulate", "--n", "10", "--alpha", "0.5", "--config", str(cfg)]
    s = spec_for(base)
    assert s.seed == 5 and s.trials == 33
    s = spec_for(["vfun", "--alpha", "0.5", "--config", str(cfg)])
    assert s.truncation.beta_tail_tol == 1e-10

    monkeypatch.setenv("QLCM_TRIALS", "44")
    s = spec_for(base)
    assert s.trials == 44 and s.seed == 5  # env beats config, config still fills seed

    s = spec_for(base + ["--trials", "7"])
    assert s.trials == 7  # CLI beats env

    monkeypatch.setenv("QLCM_CONFIG", str(cfg))
    s = spec_for(["simulate", "--n", "10", "--alpha", "0.5"])
    assert s.seed == 5  # config discovered through the environment


def test_options_scoped_to_their_command(tmp_path, monkeypatch, capsys):
    # a setting for an option a command does not read changes nothing
    for var in ("QLCM_EXACT", "QLCM_C1_PAIR", "QLCM_TRIALS", "QLCM_SEED", "QLCM_J3_MAX",
                "QLCM_CONFIG"):
        monkeypatch.delenv(var, raising=False)
    for var, value, argv in (
        ("QLCM_EXACT", "1", ["simulate", "--n", "50", "--alpha", "0.5", "--trials", "20"]),
        ("QLCM_C1_PAIR", "1,1", ["expect", "--n", "10", "--alpha", "0.5"]),
        ("QLCM_TRIALS", "0", ["vfun", "--alpha", "0.5"]),
        ("QLCM_SEED", "9", ["expect", "--n", "10", "--alpha", "0.5"]),
        ("QLCM_J3_MAX", "2", ["simulate", "--n", "50", "--alpha", "0.5", "--trials", "20"]),
    ):
        argv = argv + ["--no-timings"]
        code, plain, _ = run_cli(capsys, argv)
        monkeypatch.setenv(var, value)
        code_env, with_env, err = run_cli(capsys, argv)
        monkeypatch.delenv(var)
        assert code == code_env == 0 and not err, (var, err)
        assert with_env == plain and plain, var

    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 0\n")
    code, out, err = run_cli(
        capsys, ["expect", "--n", "5", "--alpha", "0.5", "--config", str(cfg), "--no-timings"]
    )
    assert code == 0 and not err and len(out) == 1

    # a command has no flag for an option it does not read
    for argv in (["expect", "--n", "5", "--alpha", "0.5", "--trials", "5"],
                 ["vfun", "--alpha", "0.5", "--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


# a base run of each command, a valid non-default value of every option it
# reads (None for a flag that takes no value), and what an option needs
# beside it
_BASE = {
    "expect": ["--n", "10", "--alpha", "0.5"],
    "variance": ["--n", "10", "--alpha", "0.5"],
    "simulate": ["--n", "30", "--alpha", "0.5", "--trials", "20"],
    "vfun": ["--alpha", "0.5"],
    "oracle-check": ["--n", "20", "--trials", "10"],
    "bench": ["--suite", "sieve", "--repeat", "1"],
}
_OTHER = {
    "n": "12", "exact": None, "alpha": "0.3", "seed": "9", "trials": "7", "workers": "2",
    "dev_eps": "0.2", "c1_pair": "1,2", "c1_x": "100", "format": "csv", "timings": None,
    "j3_max": "20", "tail_tol": "1e-10", "c1_cutoff": "1000", "dilog_tol": "1e-4",
}
_NEEDS = {"c1_x": ["--c1-pair", "1,1"]}
# keys that echo an option the command may not read, or vary from run to
# run within one process
_UNCOMPARED = ("seed", "truncation", "seconds", "gcd_pairs", "gcd_pair_hits",
               "c1_inner_evals", "c1_cache_hits")


def _with_option(command, name):
    """The base run of command with option name set to its _OTHER value."""
    argv = [command, *_BASE[command], *_NEEDS.get(name, [])]
    flag, value = OPTIONS[name].flag, _OTHER[name]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag] if value is None else [flag, value]
    return argv


def _output(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and not err, (argv, err)
    recs = []
    for ln in out:
        if not ln.startswith("{"):
            recs.append(ln)  # a csv line
            continue
        rec = json.loads(ln)
        recs.append({k: v for k, v in rec.items() if k not in _UNCOMPARED})
    return recs


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "bench"])
def test_every_flag_changes_the_output(capsys, command):
    # a command takes only the flags that change its output: each option in
    # its row, set to another valid value, changes the records once the
    # seed and truncation echo is removed (oracle-check's seed shows in its
    # timing record's elements); workers by design does not
    for name in COMMANDS[command].options:
        if name == "timings":
            continue
        base = [command, *_BASE[command], *_NEEDS.get(name, [])]
        changed = _output(capsys, _with_option(command, name))
        if name == "workers":
            assert changed == _output(capsys, base), command
        else:
            assert changed != _output(capsys, base), (command, name)


# the flags each command took before its row listed only the options it reads
_REMOVED = {
    "expect": ("--seed", "--j3-max", "--tail-tol", "--c1-cutoff", "--dilog-tol"),
    "variance": ("--seed", "--j3-max", "--tail-tol", "--c1-cutoff", "--dilog-tol"),
    "simulate": ("--j3-max", "--tail-tol", "--c1-cutoff", "--dilog-tol"),
    "vfun": ("--seed",),
    "oracle-check": ("--format", "--j3-max", "--tail-tol", "--c1-cutoff", "--dilog-tol"),
    "bench": ("--format", "--no-timings"),
}


@pytest.mark.parametrize(
    "command,flag", [(c, f) for c, flags in _REMOVED.items() for f in flags]
)
def test_flags_a_command_does_not_read_are_refused(capsys, command, flag):
    name = next(k for k, opt in OPTIONS.items() if opt.flag == flag)
    assert name not in COMMANDS[command].options
    with pytest.raises(SystemExit) as exc:
        main(_with_option(command, name))
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 3\n")
    code, _, err = run_cli(
        capsys, ["expect", "--n", "5", "--alpha", "0.5", "--config", str(bad)]
    )
    assert code == 2 and "unknown key" in err

    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("seed 5\n")
    code, _, err = run_cli(
        capsys, ["expect", "--n", "5", "--alpha", "0.5", "--config", str(noeq)]
    )
    assert code == 2 and "key = value" in err

    code, _, err = run_cli(
        capsys, ["expect", "--n", "5", "--alpha", "0.5", "--config", str(tmp_path / "none.cfg")]
    )
    assert code == 2 and "cannot read" in err


def test_readme_commands_and_variables_match_the_cli(monkeypatch):
    # every qlcm line of the README's Examples block and of its acceptance
    # criteria parses and passes its command's pre-flight, and the README
    # lists exactly the QLCM_* variables of the option table and each
    # command's flags
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    for var in [v for v in os.environ if v.startswith("QLCM_")]:
        monkeypatch.delenv(var)
    examples = readme.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [ln for ln in examples.splitlines() if ln.startswith("qlcm ")]
    criteria = readme.split("## Acceptance criteria as CLI runs", 1)[1]
    runs = re.findall(r"`(qlcm [^`]*)`", criteria)
    assert len(lines) >= 8 and len(runs) >= 12, (lines, runs)
    for line in lines + runs:
        argv = shlex.split(line, comments=True)[1:]
        spec = build_spec(_make_parser().parse_args(argv))
        assert spec.command == argv[0], line

    listed = readme.split("\nEnvironment variables are", 1)[1].split("\n\n", 1)[0]
    names = set(re.findall(r"`(QLCM_\w+)`", listed))
    assert names == {"QLCM_" + name.upper() for name in OPTIONS}

    # the options table lists each command's flags, as its COMMANDS row does
    table = readme.split("| command | its flags |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", table, flags=re.M)
    documented = {command: re.findall(r"`(--[\w-]+)`", flags) for command, flags in rows}
    assert documented == {
        name: [OPTIONS[opt].flag for opt in cmd.options] for name, cmd in COMMANDS.items()
    }


def test_simulate_alpha_one_degenerate(capsys):
    code, out, _ = run_cli(
        capsys,
        ["simulate", "--n", "12", "--alpha", "1.0", "--trials", "30", "--no-timings"],
    )
    assert code == 0
    rec = json.loads(out[0])
    assert rec["mc_var"] == 0.0
    assert rec["mc_mean"] == rec["e_exact"]
    assert rec["dev_frac"] == 0.0


def test_expect_exact_mode_agrees_with_enumeration(capsys):
    code, out, _ = run_cli(
        capsys,
        ["expect", "--exact", "--n", "1:12", "--alpha", "1/4,1/3,1/2,3/4", "--no-timings"],
    )
    assert code == 0
    recs = [json.loads(ln) for ln in out]
    assert len(recs) == 48
    for rec in recs:
        assert rec["enum_agrees"] is True
        assert rec["e_exact_rational"] == rec["enum_mean"]


def test_variance_exact_mode_agrees_with_enumeration(capsys):
    code, out, _ = run_cli(
        capsys,
        ["variance", "--exact", "--n", "2:10:2", "--alpha", "1/3", "--no-timings"],
    )
    assert code == 0
    for ln in out:
        rec = json.loads(ln)
        assert rec["enum_agrees"] is True


def test_exact_variance_walks_each_n_once(capsys):
    # the subset counts do not depend on alpha: four alphas, one walk per n
    model._subset_counts.cache_clear()
    code, out, _ = run_cli(
        capsys,
        ["variance", "--exact", "--n", "1:12", "--alpha", "1/4,1/3,1/2,3/4", "--no-timings"],
    )
    assert code == 0 and len(out) == 48
    info = model._subset_counts.cache_info()
    assert (info.misses, info.hits) == (12, 36)


def test_oracle_check_all_agree(capsys):
    code, out, _ = run_cli(
        capsys,
        ["oracle-check", "--n", "30", "--trials", "25", "--seed", "3", "--no-timings"],
    )
    assert code == 0
    rec = json.loads(out[0])
    assert rec["alpha"] == 0.5  # default membership probability
    assert rec["agree_count"] == 25 and rec["disagree_count"] == 0
    assert rec["all_agree"] is True


def test_vfun_records(capsys):
    code, out, _ = run_cli(
        capsys,
        ["vfun", "--alpha", "0.5", "--c1-pair", "1,1", "--c1-x", "10000", "--no-timings"],
    )
    assert code == 0 and len(out) == 2
    vrec = json.loads(out[0])
    assert abs(vrec["v_alpha"] - 0.0398292) < 1e-6
    assert vrec["v_alpha_error"] > 0.0 and vrec["v_alpha_terms"] > 1000
    assert abs(vrec["dilog_beta"] - 0.5822405264650125) < 1e-12
    crec = json.loads(out[1])
    assert crec["c1_a1"] == 1 and crec["c1_a2"] == 1
    assert abs(crec["c1_value"] - 0.1427) < 1e-3
    assert crec["phi_pair_x"] == 10000
    assert crec["c1_rel_diff"] < 0.01


def test_vfun_timing_counters(capsys, monkeypatch):
    # from empty C1 caches, whatever ran before in this process
    for name in ("_c1_prefix_cache", "_c1_inner_cache"):
        monkeypatch.setattr(moments, name, {})
    code, out, _ = run_cli(capsys, ["vfun", "--alpha", "0.5"])
    assert code == 0 and len(out) == 2
    rec, tm = (json.loads(ln) for ln in out)
    assert not {"triples", "members", "c1_inner_evals", "c1_cache_hits"} & set(rec)
    assert tm["type"] == "timing" and tm["phase"] == "vfun alpha=0.5"
    assert tm["members"] == rec["v_alpha_terms"] == 6939 and tm["triples"] == 835
    # one inner sum per distinct prime set of the pairs; cold, none cached
    assert (tm["c1_inner_evals"], tm["c1_cache_hits"]) == (94, 0)
    # a second run in the same process finds every inner sum cached
    code, out, _ = run_cli(capsys, ["vfun", "--alpha", "0.5"])
    again = json.loads(out[1])
    assert code == 0 and (again["c1_inner_evals"], again["c1_cache_hits"]) == (0, 94)
    assert again["triples"] == 835


def test_vfun_c1_pair_above_one(capsys):
    # the paired sum reads phi up to max(a1, a2) * x
    code, out, _ = run_cli(capsys, ["vfun", "--c1-pair", "2,3", "--c1-x", "1000"])
    assert code == 0 and len(out) == 3
    rec, _, tm = (json.loads(ln) for ln in out)
    assert rec["phi_pair_x"] == 1000
    assert math.isfinite(rec["c1_rel_diff"]) and rec["c1_rel_diff"] < 0.01
    assert tm["phase"] == "phi_pair x=1000" and tm["segment_bytes"] == 1001 * 4


@pytest.mark.parametrize("n,alpha", [(10000, "0.1"), (1000, "0.9")])
def test_simulate_reports_exact_variance_and_self_checks(capsys, n, alpha):
    # criterion 7's points: v_exact is qlcm variance's value, bit for bit,
    # and the deviation mass lies under the record's Chebyshev bound
    common = ["--n", str(n), "--alpha", alpha, "--no-timings"]
    _, sout, _ = run_cli(
        capsys, ["simulate", *common, "--trials", "2000", "--seed", "20260814", "--dev-eps", "0.05"]
    )
    _, vout, _ = run_cli(capsys, ["variance", *common])
    srec, vrec = json.loads(sout[0]), json.loads(vout[0])
    assert srec["v_exact"] == vrec["v_exact"]
    assert srec["z_mean"] == (srec["mc_mean"] - srec["e_exact"]) / srec["mc_stderr"]
    assert srec["var_ratio"] == srec["mc_var"] / srec["v_exact"]
    assert abs(srec["z_mean"]) < 4 and abs(srec["var_ratio"] - 1) < 0.127
    assert srec["cheb_bound"] == srec["v_exact"] / (0.05 * srec["e_exact"]) ** 2
    assert srec["dev_frac"] <= srec["cheb_bound"]
    keys = list(srec)
    assert keys[keys.index("dev_frac") + 1] == "cheb_bound"


def test_simulate_self_checks_zero_when_degenerate(capsys):
    # n = 1 has X = 0 always: every denominator is 0
    code, out, _ = run_cli(
        capsys, ["simulate", "--n", "1", "--alpha", "0.5", "--trials", "10", "--no-timings"]
    )
    assert code == 0
    rec = json.loads(out[0])
    assert rec["v_exact"] == rec["z_mean"] == rec["var_ratio"] == rec["cheb_bound"] == 0.0


def test_workers_do_not_change_output(capsys):
    argv = ["simulate", "--n", "500", "--alpha", "0.3", "--trials", "400", "--no-timings"]
    code1, out1, _ = run_cli(capsys, argv + ["--workers", "1"])
    code8, out8, _ = run_cli(capsys, argv + ["--workers", "8"])
    assert code1 == code8 == 0
    assert out1 == out8


def test_bench_smoke(capsys):
    for suite in ("oracle", "valpha"):
        code, out, _ = run_cli(capsys, ["bench", "--suite", suite, "--repeat", "1"])
        assert code == 0
        for ln in out:
            rec = json.loads(ln)
            assert rec["type"] == "bench" and rec["suite"] == suite
            assert rec["runs"] == 1 and rec["median_s"] > 0.0
            assert len(rec["times_s"]) == 1


def test_bench_oracle_repeats_start_cold(capsys, monkeypatch):
    # each repeat clears the suite's caches first: three repeats end with the
    # cache state of one, not with two repeats of cached lookups on top.  The
    # C1 caches are dicts, whose sizes a warm repeat would leave as they are,
    # so their state also counts the prime sets whose C1 inner sums are
    # evaluated per repeat
    inner_sums = []
    sweep = moments._inner_sums

    def counted(limit, prime_sets):
        inner_sums.extend(prime_sets)
        return sweep(limit, prime_sets)

    monkeypatch.setattr(moments, "_inner_sums", counted)

    def oracle_caches(repeat):
        return [f.cache_info() for f in (qpoly._q_gcd, qpoly._divisor_lcm, qpoly.cyclotomic)]

    def c1_caches(repeat):
        caches = (moments._c1_prefix_cache, moments._c1_inner_cache)
        return [len(c) for c in caches] + [len(inner_sums) / repeat]

    for suite, state, cold in (
        ("oracle", oracle_caches, lambda infos: all(info.misses > 0 for info in infos)),
        ("valpha", c1_caches, lambda sizes: sizes[-1] > 0),
    ):
        counts = []
        for repeat in (1, 3):
            inner_sums.clear()
            code, out, _ = run_cli(capsys, ["bench", "--suite", suite, "--repeat", str(repeat)])
            assert code == 0 and len(json.loads(out[0])["times_s"]) == repeat
            counts.append(state(repeat))
        assert counts[0] == counts[1] and cold(counts[0]), (suite, counts)


def test_bench_variance_sum_scales_near_linearly(capsys):
    # the pair walk visits ~n log^2 n pairs, not n^2
    code, out, _ = run_cli(capsys, ["bench", "--suite", "variance-sum", "--repeat", "3"])
    assert code == 0
    med = {json.loads(ln)["size"]: json.loads(ln)["median_s"] for ln in out}
    exponent = math.log(med[100000] / med[25000]) / math.log(4)
    assert 0.7 <= exponent <= 1.5, f"measured exponent {exponent:.3f}"
