"""CLI: option precedence, record schemas, serialization, exit codes."""

import importlib.util
import json
import math
import os
import re
import shlex
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qlcm import arith, cli, model, moments, qpoly
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


@pytest.fixture
def variance_walks(monkeypatch):
    """The (n, alphas) of every pair walk variance_exact makes, in order."""
    walks = []
    real = moments._variance_walk

    def spy(n, alphas, *args):
        walks.append((n, alphas))
        return real(n, alphas, *args)

    monkeypatch.setattr(moments, "_variance_walk", spy)
    return walks


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


def row_budget(n, alpha_min, further):
    """A V[X] byte budget with room at n for one walk of an alpha no smaller
    than alpha_min and for `further` more alphas (their tables and sums)."""
    z = moments._underflow(1.0 - alpha_min, n)
    one = moments._variance_bytes(n, z)
    return one + further * (moments._variance_bytes(n, z, 2) - one)


def test_variance_row_split_by_the_budget(capsys, monkeypatch, variance_calls, variance_walks):
    # a budget that leaves room for two more alphas at n = 2000 splits the
    # five alphas of the row's one variance_exact call into walks of three
    # and two, and changes no record but the times and the pairs of the two
    # walks
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9)
    argv = ["variance", "--n", "10,2000", "--alpha", "0.1,0.3,0.5,0.7,0.9"]
    _, whole, _ = run_cli(capsys, argv)
    assert variance_walks == [(10, alphas), (2000, alphas)]
    variance_calls.clear()
    variance_walks.clear()
    monkeypatch.setattr(moments, "VARIANCE_BYTES", row_budget(2000, 0.1, 2.5))
    code, split, _ = run_cli(capsys, argv)
    assert code == 0
    assert variance_calls == [(10, alphas), (2000, alphas)]
    assert variance_walks[1:] == [(2000, (0.1, 0.3, 0.5)), (2000, (0.7, 0.9))]
    assert len(variance_walks[0][1]) == 5  # n = 10: room for every alpha

    def timeless(lines):
        recs = [json.loads(ln) for ln in lines]
        for r in recs:
            r.pop("seconds", None)
            r.pop("peak_rss_kib", None)
        return recs

    split, whole = timeless(split), timeless(whole)
    assert split[-1].pop("pairs") == 2 * whole[-1].pop("pairs")
    assert split == whole


def test_variance_pairs_count_every_walk_of_a_row(capsys, monkeypatch):
    # room for one alpha beside the first splits the five alphas at n = 2000
    # into three walks, whose pairs the row's timing adds up
    argv = ["variance", "--n", "2000", "--alpha", "0.1,0.2,0.3,0.4,0.5"]
    d = np.arange(2, 2001)
    one_walk = sum(int((np.lcm(d1, d) <= 2000).sum()) for d1 in d.tolist())
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out[-1])["pairs"] == one_walk == 48691
    monkeypatch.setattr(moments, "VARIANCE_BYTES", row_budget(2000, 0.1, 1.5))
    assert moments._alpha_group_size(2000, moments._underflow(0.9, 2000)) == 2
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and json.loads(out[-1])["pairs"] == 3 * one_walk


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


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (["expect", "--n", "5"], {}, "alpha: required"),
        (["vfun"], {}, "alpha: required"),
        (["bench"], {}, "suite: required"),
        (["expect", "--n", "1:2:3:4", "--alpha", "0.5"], {}, "n: range must be a:b or a:b:step"),
        (["expect", "--n", "1:5:0", "--alpha", "0.5"], {}, "n: range step must be >= 1"),
        (["vfun", "--c1-pair", "1,2,3"], {}, "c1_pair: expected a1,a2"),
        (["expect", "--n", "5", "--alpha", "0.5"], {"QLCM_EXACT": "maybe"},
         "exact (environment variable QLCM_EXACT): expected a boolean"),
        (["vfun", "--alpha", "0.5", "--j3-max", "0"], {}, "truncation: j3_max must be positive"),
    ],
)
def test_spec_errors_name_their_field(capsys, monkeypatch, argv, env, message):
    for var in [v for v in os.environ if v.startswith("QLCM_")]:
        monkeypatch.delenv(var)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and not out and err.startswith(f"error: {message}"), err


@pytest.mark.parametrize(
    "argv",
    [
        ["expect", "--n", "5"],
        ["variance", "--n", "5"],
        ["variance", "--n", "5", "--format", "csv"],
    ],
)
def test_negative_zero_alpha_prints_as_zero(capsys, argv):
    # -0.0 is normalized where alpha is parsed, so no record carries a -0
    # (alpha, e_grouped and v_upper did)
    _, zero, _ = run_cli(capsys, [*argv, "--alpha", "0", "--no-timings"])
    code, negative, _ = run_cli(capsys, [*argv, "--alpha=-0.0", "--no-timings"])
    assert code == 0 and negative == zero
    alphas = spec_for(["expect", "--n", "5", "--alpha=-0.0,-0/1"]).alphas
    assert [math.copysign(1.0, a) for a in alphas] == [1.0, 1.0]


def test_oracle_check_alpha_default_comes_last(tmp_path, monkeypatch):
    # oracle-check's pre-flight fills alpha 0.5 only when no flag,
    # QLCM_ALPHA or config key gave one
    for var in ("QLCM_ALPHA", "QLCM_CONFIG"):
        monkeypatch.delenv(var, raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.75\n")
    argv = ["oracle-check", "--n", "10", "--trials", "5"]
    assert spec_for(argv).alphas == (0.5,)
    assert spec_for([*argv, "--config", str(cfg)]).alphas == (0.75,)
    monkeypatch.setenv("QLCM_ALPHA", "0.25")
    assert spec_for([*argv, "--config", str(cfg)]).alphas == (0.25,)
    assert spec_for([*argv, "--alpha", "0.125", "--config", str(cfg)]).alphas == (0.125,)


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


def test_simulate_preflight_accepts_v_at_the_table_cap():
    # pre-flight alone: one trial at n = 10^7 is 0.36% of the draw cap, one
    # E point 2.5% of its cap and one V[X] walk 94% of the walk cap, which
    # simulate sums; V holds 5.7 MB beside the tables.  A second row at
    # 10^7 is refused by its walks alone
    spec_for(["simulate", "--n", "10000000", "--alpha", "0.5", "--trials", "1"])
    with pytest.raises(ResourceLimitError, match="V\\[X\\] walks"):
        spec_for(["simulate", "--n", "10000000,10000000", "--alpha", "0.5", "--trials", "1"])


def test_variance_preflight_accepts_the_table_cap():
    # the byte budget admits one alpha at every n up to the table cap, even
    # with Z past n (tables of n + 1 floats); 10^6 and 10^7 pass the
    # pre-flight (nothing is run)
    assert moments._variance_bytes(TABLE_LIMIT, TABLE_LIMIT + 1) <= moments.VARIANCE_BYTES
    spec_for(["variance", "--n", "10000000", "--alpha", "0.5"])
    spec_for(["variance", "--n", str(TABLE_LIMIT), "--alpha", "0"])
    spec_for(["variance", "--n", "1000000", "--alpha", "0.5"])


@pytest.mark.parametrize(
    "argv,layer",
    [
        (["simulate", "--n", "1:70000", "--alpha", "0.5", "--trials", "1"], "V[X] walks"),
        (["vfun", "--alpha", ",".join(["0.05"] * 100000)], "v(alpha)"),  # about 14 hours
        # 10^6 points whose walks are 0.2% of the cap: about 44 s of points
        (["variance", "--n", "2:11", "--alpha", ",".join(["0.5"] * 100000)], "V[X] walks"),
    ],
)
def test_layer_work_refused_before_any_work(capsys, monkeypatch, argv, layer):
    # simulate sums its trials, E points and V[X] walks (about 102 times
    # the walk cap here), vfun its alphas' S_inf member bounds, and a V[X]
    # row prices each of its points: refused before any table is built or
    # any v(alpha) runs
    def called(*args, **kwargs):
        raise AssertionError("ran past the pre-flight")

    monkeypatch.setattr(arith, "build_tables", called)
    monkeypatch.setattr(moments, "v_alpha", called)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err.startswith("resource limit:") and not out, err
    assert layer in err and "--alpha" in err, err
    assert peak < 2**24, f"peak {peak} bytes"


@pytest.mark.parametrize(
    "argv",
    [
        ["expect", "--n", "1:1000000", "--alpha", "0.001"],  # about nine hours
        ["variance", "--n", "2:1000000", "--alpha", "0.5"],  # more than a week
    ],
)
def test_grid_work_refused_before_any_table(capsys, monkeypatch, argv):
    def no_tables(limit):
        raise AssertionError(f"build_tables({limit}) ran")

    monkeypatch.setattr(arith, "build_tables", no_tables)
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and err.startswith("resource limit:") and not out, err
    assert "--n" in err and "--alpha" in err, err


def test_grid_work_caps_accept_grids_up_to_the_cap():
    # pre-flight alone: 40 expect points at n = 9,999,000 are exactly the cap
    n = cli.EXPECT_WORK_LIMIT // 40 - cli.EXPECT_POINT_WORK
    spec_for(["expect", "--n", ",".join([str(n)] * 40), "--alpha", "0.5"])
    with pytest.raises(ResourceLimitError, match="--alpha"):
        spec_for(["expect", "--n", ",".join([str(n + 1)] * 40), "--alpha", "0.5"])
    # one walk at the largest n the old byte budget admitted passes, as does
    # one at the table cap; a walk at n = 10^6 is about 7.6e7, so 14 of
    # them pass and 15 do not
    spec_for(["variance", "--n", "9747872", "--alpha", "0.5"])
    spec_for(["variance", "--n", str(TABLE_LIMIT), "--alpha", "0.5"])
    spec_for(["variance", "--n", ",".join(["1000000"] * 14), "--alpha", "0.5"])
    with pytest.raises(ResourceLimitError, match="--n"):
        spec_for(["variance", "--n", ",".join(["1000000"] * 15), "--alpha", "0.5"])
    # a row's alphas share a walk while their beta^k tables of min(Z, n) + 1
    # floats and their chunk sums fit the byte budget: more than 300 at
    # n = 10^6 and Z = 74141 (alpha = 0.01), 31 at Z > n (alpha = 10^-4)
    assert moments._alpha_group_size(10**6, moments._underflow(0.99, 10**6)) > 300
    assert moments._alpha_group_size(10**6, moments._underflow(1 - 1e-4, 10**6)) == 31
    # each further alpha of a walk costs 0.2 of its pairs: two rows of the
    # 31 alphas 0.01-0.31 at n = 10^6 pass (one walk each), three do not
    alphas = ",".join(f"0.{k:02d}" for k in range(1, 32))
    spec_for(["variance", "--n", "1000000,1000000", "--alpha", alphas])
    with pytest.raises(ResourceLimitError, match="--alpha"):
        spec_for(["variance", "--n", ",".join(["1000000"] * 3), "--alpha", alphas])


def test_benchmark_workloads_pass_the_preflight():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for argv in workloads.commands(name, workloads.DEFAULT_SEED, 2):
            assert spec_for(argv).command == argv[0], argv

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


def test_c1_caps_refused_where_the_value_is_made(capsys, monkeypatch):
    # the pair by its parser, the cutoff by the truncation config; either
    # message names the flag, through the flag and the environment alike
    assert cli._parse_pair(f"{TABLE_LIMIT},1") == (TABLE_LIMIT, 1)
    with pytest.raises(ResourceLimitError, match="--c1-pair"):
        cli._parse_pair(f"{TABLE_LIMIT + 1},1")
    want = f"c1_cutoff {TABLE_LIMIT + 1} exceeds the table cap {TABLE_LIMIT}; lower --c1-cutoff"
    argv = ["vfun", "--alpha", "0.5", "--c1-cutoff", str(TABLE_LIMIT + 1)]
    code, out, err = run_cli(capsys, argv)
    assert code == 3 and not out and err.strip() == f"resource limit: {want}", err
    monkeypatch.setenv("QLCM_C1_CUTOFF", str(TABLE_LIMIT + 1))
    code, out, err = run_cli(capsys, ["bench", "--suite", "valpha"])
    assert code == 3 and not out and err.strip() == f"resource limit: {want}", err


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


def test_one_command_parser_prints_what_the_full_parser_prints(capsys, monkeypatch):
    # main builds the subparser of the command argv names alone; help, an
    # unknown flag and a missing value print the same bytes and exit with
    # the same code as under the parser of every command
    def parse(argv, command):
        try:
            _make_parser(command).parse_args(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return captured.out, captured.err, code

    for name in COMMANDS:
        # every subparser has --config, which takes a value
        for argv in ([name, "--help"], [name, "--bogus"], [name, "--config"]):
            full = parse(argv, None)
            assert full[2] == (0 if argv[1] == "--help" else 2) and full[0] + full[1]
            assert parse(argv, name) == full, argv
    # no command first, or an unknown one: the full parser
    built = []

    def record(command=None):
        built.append(command)
        raise LookupError("parser recorded")

    monkeypatch.setattr(cli, "_make_parser", record)
    for argv, want in [(["vfun", "--alpha", "0.5"], "vfun"), ([], None), (["--help"], None),
                       (["nope"], None), (["--n", "5", "expect"], None)]:
        with pytest.raises(LookupError, match="parser recorded"):
            main(argv)
        assert built.pop() == want, argv


def test_simulate_timing_record_counts_workers_and_plane_bytes(capsys):
    # the pool size run (capped by blocks and cores) and the bytes of one
    # block's planes go in the timing record only: 300 trials at n = 1000
    # are three blocks of 128 rows or fewer, 16 planes of 1001 bytes.  The
    # row's V[X] walk has its own record before it, with its pairs
    argv = ["simulate", "--n", "1000", "--alpha", "0.5", "--trials", "300", "--seed", "3"]
    records = {}
    for workers in ("1", "2", "8"):
        code, out, _ = run_cli(capsys, argv + ["--workers", workers])
        assert code == 0 and len(out) == 4
        rec, _, row, tm = (json.loads(ln) for ln in out)
        assert row["phase"] == "variance n=1000 alpha=0.5" and row["pairs"] == 20503
        assert tm["phase"] == "simulate n=1000 alpha=0.5"
        assert tm["workers"] == min(int(workers), 3, os.cpu_count() or 1)
        assert tm["plane_bytes"] == 16 * 1001
        assert not {"workers", "plane_bytes"} & set(rec)
        records[workers] = out[0]
    assert len(set(records.values())) == 1


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
    cfg.write_text("# a run\n\nseed = 5\ntrials = 33  # comment\n  \ntail-tol = 1e-10\n")
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


def _readme_value(text: str) -> float:
    """A README number: a·10^b, 10^b, digits with commas and a decimal
    point, or N MiB."""
    if text.endswith(" MiB"):
        return float(text[:-4]) * 2**20
    if "10^" in text:
        mantissa, _, exponent = text.rpartition("10^")
        return float(mantissa.rstrip("·") or 1) * 10 ** int(exponent)
    return float(text.replace(",", ""))


def test_readme_names_resolve_to_the_code():
    # every `qlcm.<module>.<NAME>` the README names exists, and a value it
    # gives right after one (`= 10^7`, `= 2.8·10^9`, `= 30,000`, `= 4 MiB`)
    # is the code's: a deleted helper or a changed constant fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    number = r"\d+(?:\.\d+)?·10\^\d+|10\^\d+|\d+(?:,\d{3})*(?:\.\d+)?(?: MiB)?"
    found = re.findall(rf"`qlcm\.(\w+)\.(\w+)`(?:\s*=\s*({number}))?", readme)
    assert len(found) >= 20, found
    for module, name, text in found:
        value = getattr(importlib.import_module(f"qlcm.{module}"), name)
        if text:
            assert math.isclose(_readme_value(text), value, rel_tol=1e-12), (name, text, value)


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


def test_vfun_alpha_factor_follows_the_dilog_tolerance(capsys, monkeypatch):
    # alpha_factor is alpha Li2(beta) / beta from the record's own dilog_beta:
    # moments.alpha_factor bit for bit at the default tolerance, and at
    # alpha = 1/2, where beta = alpha, dilog_beta itself at any tolerance
    no_walk = moments.VAlphaEstimate(0.0, 0.0, 0, 0, 0, 0)
    monkeypatch.setattr(moments, "v_alpha", lambda *a: no_walk)
    alphas = [k / 20 for k in range(1, 20)]
    argv = ["vfun", "--alpha", ",".join(map(str, alphas)), "--no-timings"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    want = [moments.alpha_factor(a) for a in alphas]
    assert [json.loads(ln)["alpha_factor"] for ln in out] == want
    code, out, _ = run_cli(capsys, ["vfun", "--alpha", "0.5", "--dilog-tol", "1e-3"])
    rec = json.loads(out[0])
    assert code == 0 and rec["alpha_factor"] == rec["dilog_beta"] != moments.alpha_factor(0.5)


def test_vfun_timing_counters(capsys, monkeypatch):
    # from empty C1 caches, whatever ran before in this process
    moments._c1_weight_prefix.cache_clear()
    monkeypatch.setattr(moments, "_c1_inner_cache", {})
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
    for suite in ("oracle", "valpha", "sieve"):
        code, out, _ = run_cli(capsys, ["bench", "--suite", suite, "--repeat", "1"])
        assert code == 0
        for ln in out:
            rec = json.loads(ln)
            assert rec["type"] == "bench" and rec["suite"] == suite
            assert rec["runs"] == 1 and rec["median_s"] > 0.0
            assert len(rec["times_s"]) == 1


@pytest.mark.parametrize("repeat", [2, 3])
def test_bench_median_of_its_times(capsys, repeat):
    # the middle time of an odd count, the mean of the middle two of an even
    code, out, _ = run_cli(capsys, ["bench", "--suite", "valpha", "--repeat", str(repeat)])
    rec = json.loads(out[0])
    assert code == 0 and len(rec["times_s"]) == repeat
    assert rec["median_s"] == statistics.median(rec["times_s"])


def test_bench_oracle_repeats_start_cold(capsys, monkeypatch):
    # each repeat clears the suite's caches first: three repeats end with the
    # cache state of one, not with two repeats of cached lookups on top.  The
    # C1 caches are dicts, whose sizes a warm repeat would leave as they are,
    # so their state also counts the prime sets whose C1 inner sums are
    # evaluated per repeat; the S_inf cofactor lists are recomputed too
    inner_sums = []
    sweep = moments._inner_sums

    def counted(limit, prime_sets):
        inner_sums.extend(prime_sets)
        return sweep(limit, prime_sets)

    monkeypatch.setattr(moments, "_inner_sums", counted)

    def oracle_caches(repeat):
        return [f.cache_info() for f in (qpoly._q_gcd, qpoly._divisor_lcm, qpoly.cyclotomic)]

    def c1_caches(repeat):
        prefixes = moments._c1_weight_prefix.cache_info().currsize
        cofactors = moments._coprime_cofactors.cache_info()
        return [prefixes, len(moments._c1_inner_cache), len(inner_sums) / repeat, cofactors]

    for suite, state, cold in (
        ("oracle", oracle_caches, lambda infos: all(info.misses > 0 for info in infos)),
        ("valpha", c1_caches, lambda sizes: sizes[2] > 0 and sizes[3].misses > 0),
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


def test_closed_output_pipe_ends_quietly():
    # a reader that takes one line and closes the pipe, as `| head -1` does,
    # while the run still has about 0.8 MB to print: exit 0, no traceback
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "qlcm.cli", "expect", "--n", "1:2000", "--alpha", "0.5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0, err
    assert json.loads(first)["type"] == "report"
    assert err == b"", err

