"""Spans around the qlcm layers, recorded from outside the package.

``Tracer.install`` replaces module attributes of ``qlcm`` with timing
wrappers.  The CLI and ``moments.v_alpha`` look these functions up as module
attributes at call time, so the wrappers see every call a workload makes
without any change to the package.  Spans (name, start, end, parent,
attributes) stay in memory until the command ends.  The hot leaves ``c1_constant``
(once per S_inf term) and the ``s_infinity_members`` generator are aggregated
per parent span into a count and a total instead.

``calibrate`` measures what each kind of wrapper adds to one call, on a
no-op; the tracer's overhead is those costs times the calls it wrapped.
``merge_traces`` joins the traces of a workload's commands, each run in its
own interpreter, and ``summarize`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time
import types

import numpy as np

# n above which a float variance call counts as "large"
LARGE_VARIANCE_N = 2000

EXPECTATION_SPANS = (
    "moments.expectation_exact",
    "moments.expectation_grouped",
    "moments.expectation_asymptotic",
)


def _table_bytes(tables) -> int:
    return sum(v.nbytes for v in vars(tables).values() if isinstance(v, np.ndarray))


def _c1_key(args, kwargs):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    return args[0], args[1], getattr(config, "c1_cutoff", None)


def _oracle_attrs(a, result):
    return {"method": a["method"], "elements": len(a["elements"])}


def _monte_carlo_attrs(a, result):
    p = a["params"]
    return {"n": p.n, "alpha": p.alpha, "seed": p.seed, "trials": p.trials,
            "workers": a["workers"]}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self.leaves: dict[tuple[int, str], list] = {}  # (parent, name) -> [count, total]
        self.keys: dict[str, set] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else -1

    def _add_leaf(self, parent: int, name: str, seconds: float):
        cell = self.leaves.get((parent, name))
        if cell is None:
            cell = self.leaves[(parent, name)] = [0, 0.0]
        cell[0] += 1
        cell[1] += seconds

    def wrap_span(self, module, attr, name, attrs=None):
        """One span per call; ``attrs(bound_args, result)`` adds attributes."""
        fn = getattr(module, attr)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = attrs(bound.arguments, result)
            return result

        setattr(module, attr, wrapper)

    def wrap_leaf(self, module, attr, name, key=None):
        """Aggregated per parent; ``key(args, kwargs)`` collects distinct calls."""
        fn = getattr(module, attr)
        seen = self.keys.setdefault(name, set())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._parent()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add_leaf(parent, name, time.perf_counter() - t0)
                if key is not None:
                    seen.add(key(args, kwargs))

        setattr(module, attr, wrapper)

    def wrap_generator(self, module, attr, name):
        """Aggregated per parent: the time spent inside each ``next``."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = self._parent()
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    self._add_leaf(parent, name, time.perf_counter() - t0)
                    return
                self._add_leaf(parent, name, time.perf_counter() - t0)
                yield item

        setattr(module, attr, wrapper)

    def install(self):
        """Wrap every public qlcm function a CLI path calls."""
        from qlcm import arith, cli, model, moments, qpoly

        self.wrap_span(cli, "main", "cli.main")
        self.wrap_span(arith, "build_tables", "arith.build_tables",
                       lambda a, r: {"limit": a["limit"], "bytes": _table_bytes(r)})
        self.wrap_span(arith, "phi_pair_summatory", "arith.phi_pair_summatory")
        for name in EXPECTATION_SPANS:
            self.wrap_span(moments, name.split(".")[1], name)
        self.wrap_span(moments, "variance_exact", "moments.variance_exact",
                       lambda a, r: {"n": a["n"], "exact": bool(a["exact"])})
        self.wrap_span(moments, "v_alpha", "moments.v_alpha", lambda a, r: {"terms": r.terms})
        self.wrap_generator(moments, "s_infinity_members", "moments.s_infinity_members")
        self.wrap_leaf(moments, "c1_constant", "moments.c1_constant", key=_c1_key)
        self.wrap_span(model, "enumerate_exact", "model.enumerate_exact",
                       lambda a, r: {"n": a["n"]})
        self.wrap_span(model, "monte_carlo", "model.monte_carlo", _monte_carlo_attrs)
        self.wrap_span(model, "sample_set", "model.sample_set")
        self.wrap_span(model, "degree_statistic", "model.degree_statistic")
        self.wrap_span(qpoly, "lcm_degree_oracle", "qpoly.lcm_degree_oracle", _oracle_attrs)

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[p, name, c, t] for (p, name), (c, t) in self.leaves.items()],
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }


def calibrate(calls: int = 20000, repeats: int = 5) -> dict:
    """Seconds each kind of wrapper adds to one call (median of ``repeats``):
    a span with and without attributes, an aggregated leaf, and one item of a
    wrapped generator."""

    def noop(x, y=None):
        return x

    def items(x, y=None):
        yield from range(calls)

    def per_call(fn, consume) -> float:
        t0 = time.perf_counter()
        consume(fn)
        return (time.perf_counter() - t0) / calls

    def call_all(fn):
        for i in range(calls):
            fn(i)

    def drain(fn):
        for _ in fn(0):
            pass

    kinds = {
        "span": (lambda t, m: t.wrap_span(m, "f", "calibrate.span"), noop, call_all),
        "span_attrs": (lambda t, m: t.wrap_span(m, "f", "calibrate.span",
                                                lambda a, r: {"x": a["x"]}), noop, call_all),
        "leaf": (lambda t, m: t.wrap_leaf(m, "f", "calibrate.leaf"), noop, call_all),
        "item": (lambda t, m: t.wrap_generator(m, "f", "calibrate.item"), items, drain),
    }
    costs = {}
    for kind, (wrap, fn, consume) in kinds.items():
        samples = []
        for _ in range(repeats):
            module = types.SimpleNamespace(f=fn)
            wrap(Tracer(), module)
            samples.append(per_call(module.f, consume) - per_call(fn, consume))
        costs[kind] = statistics.median(samples)
    return costs


def merge_traces(traces: list[dict]) -> dict:
    """The traces of several interpreters as one: span and leaf parents are
    shifted past the spans before them, and distinct-key counts add up,
    because every interpreter starts with empty caches."""
    spans, leaves, distinct = [], [], {}
    for t in traces:
        base = len(spans)
        spans += [[n, t0, t1, p + base if p >= 0 else -1, a] for n, t0, t1, p, a in t["spans"]]
        leaves += [[p + base if p >= 0 else -1, n, c, s] for p, n, c, s in t["leaves"]]
        for name, count in t["distinct"].items():
            distinct[name] = distinct.get(name, 0) + count
    return {"spans": spans, "leaves": leaves, "distinct": distinct}


def tracer_overhead(trace: dict, costs: dict) -> float:
    """Seconds the wrappers added to a traced pass: calls times cost."""
    spans = trace["spans"]
    with_attrs = sum(1 for s in spans if s[4] is not None)
    items = sum(c for _, name, c, _ in trace["leaves"] if name == "moments.s_infinity_members")
    leaves = sum(c for _, name, c, _ in trace["leaves"]) - items
    return (with_attrs * costs["span_attrs"] + (len(spans) - with_attrs) * costs["span"]
            + leaves * costs["leaf"] + items * costs["item"])


def rng_probe(sample_set, monte_carlo_spans) -> float:
    """Seconds to draw, through the unwrapped ``sample_set``, every set that
    the single-worker ``monte_carlo`` calls drew; the rest of their time is
    coverage."""
    from qlcm.model import ModelParams

    total = 0.0
    for _, _, _, _, a in monte_carlo_spans:
        if a["workers"] != 1:
            continue
        params = ModelParams(n=a["n"], alpha=a["alpha"], seed=a["seed"], trials=a["trials"])
        t0 = time.perf_counter()
        for t in range(params.trials):
            sample_set(params, t)
        total += time.perf_counter() - t0
    return total


@functools.lru_cache(maxsize=None)
def _pairs_prefix(limit: int) -> np.ndarray:
    """prefix[n] = number of (d1, d2) in [1, n]^2 with lcm(d1, d2) <= n,
    i.e. the sum of tau(m^2) over m <= n."""
    tau_sq = np.ones(limit + 1, dtype=np.int64)
    tau_sq[0] = 0
    exponent = np.zeros(limit + 1, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, limit + 1):
        if not is_prime[p]:
            continue
        is_prime[p * p :: p] = False
        pk = p
        while pk <= limit:
            exponent[pk::pk] += 1
            pk *= p
        tau_sq[p::p] *= 2 * exponent[p::p] + 1
        exponent[p::p] = 0
    return np.cumsum(tau_sq)


def useful_pairs(n: int, limit: int) -> int:
    """Pairs 1 < d1, d2 <= n with lcm(d1, d2) <= n: the only pairs that add
    to V[X].  Drops the 2n - 1 pairs with d1 = 1 or d2 = 1."""
    if n < 2:
        return 0
    return int(_pairs_prefix(limit)[n]) - (2 * n - 1)


def summarize(trace: dict, probe_s: float, records: int, traced_wall: float,
              costs: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) of one traced pass of a
    workload: ``trace`` is the merged trace of its commands."""
    spans = trace["spans"]
    leaves = trace["leaves"]

    def dur(s):
        return s[2] - s[1]

    def named(name, pred=None):
        return [s for s in spans if s[0] == name and (pred is None or pred(s[4]))]

    def seconds(name, pred=None):
        return sum((dur(s) for s in named(name, pred)), 0.0)

    def leaf(name, field):
        return sum(x[2 + field] for x in leaves if x[1] == name)

    child_s = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_s[s[3]] += dur(s)
    for parent, _, _, total in leaves:
        if parent >= 0:
            child_s[parent] += total

    def self_s(name):
        return sum(dur(s) - child_s[i] for i, s in enumerate(spans) if s[0] == name)

    tables = named("arith.build_tables")
    variance = named("moments.variance_exact")
    floats = [s[4]["n"] for s in variance if not s[4]["exact"]]
    pairs = sum(useful_pairs(n, max(floats)) for n in floats) if floats else 0
    large_s = seconds("moments.variance_exact", lambda a: not a["exact"] and a["n"] > LARGE_VARIANCE_N)
    small_s = seconds("moments.variance_exact", lambda a: not a["exact"] and a["n"] <= LARGE_VARIANCE_N)

    c1_calls = leaf("moments.c1_constant", 0)
    c1_evals = trace["distinct"].get("moments.c1_constant", 0)

    mc = named("model.monte_carlo")
    w1_s = sum((dur(s) for s in mc if s[4]["workers"] == 1), 0.0)
    w2_s = sum((dur(s) for s in mc if s[4]["workers"] > 1), 0.0)
    # scaling efficiency over the parameter sets run at both worker counts
    by_params: dict = {}
    for s in mc:
        key = tuple(s[4][k] for k in ("n", "alpha", "seed", "trials"))
        by_params.setdefault(key, {}).setdefault(s[4]["workers"] == 1, []).append(dur(s))
    m1 = sum((sum(v[True]) for v in by_params.values() if len(v) == 2), 0.0)
    m2 = sum((sum(v[False]) for v in by_params.values() if len(v) == 2), 0.0)

    oracle = named("qpoly.lcm_degree_oracle")

    return {
        "arith.build_tables.s": (seconds("arith.build_tables"), "s"),
        "arith.build_tables.calls": (len(tables), "count"),
        "arith.phi_pair_summatory.s": (seconds("arith.phi_pair_summatory"), "s"),
        "arith.table_bytes": (max((s[4]["bytes"] for s in tables), default=0), "bytes"),
        "moments.variance_exact.large_s": (large_s, "s"),
        "moments.variance_exact.small_s": (small_s, "s"),
        "moments.variance_exact.rational_s": (
            seconds("moments.variance_exact", lambda a: a["exact"]), "s"),
        "moments.variance_exact.calls": (len(variance), "count"),
        "moments.variance_exact.useful_pairs": (pairs, "count"),
        "moments.variance_exact.ns_per_useful_pair": (
            (large_s + small_s) * 1e9 / pairs if pairs else 0.0, "ns"),
        "moments.v_alpha.s": (seconds("moments.v_alpha"), "s"),
        "moments.v_alpha.self_s": (self_s("moments.v_alpha"), "s"),
        "moments.v_alpha.terms": (sum(s[4]["terms"] for s in named("moments.v_alpha")), "count"),
        "moments.s_infinity_members.s": (leaf("moments.s_infinity_members", 1), "s"),
        "moments.c1_constant.s": (leaf("moments.c1_constant", 1), "s"),
        "moments.c1_constant.calls": (c1_calls, "count"),
        "moments.c1_constant.evals": (c1_evals, "count"),
        "moments.c1_constant.hit_ratio": (
            (c1_calls - c1_evals) / c1_calls if c1_calls else 0.0, "ratio"),
        "moments.expectation.s": (sum(seconds(n) for n in EXPECTATION_SPANS), "s"),
        "model.enumerate_exact.s": (seconds("model.enumerate_exact"), "s"),
        "model.enumerate_exact.sets": (
            sum(2 ** s[4]["n"] for s in named("model.enumerate_exact")), "count"),
        "model.monte_carlo.w1_s": (w1_s, "s"),
        "model.monte_carlo.w2_s": (w2_s, "s"),
        "model.monte_carlo.trials": (sum(s[4]["trials"] for s in mc), "count"),
        "model.rng_probe.s": (probe_s, "s"),
        "model.coverage.s": (w1_s - probe_s, "s"),
        "model.scaling_eff": (m1 / (2 * m2) if m2 else 0.0, "ratio"),
        "model.sample_set.s": (seconds("model.sample_set"), "s"),
        "model.degree_statistic.s": (seconds("model.degree_statistic"), "s"),
        "qpoly.lcm_degree_oracle.cyclotomic_s": (
            seconds("qpoly.lcm_degree_oracle", lambda a: a["method"] == "cyclotomic"), "s"),
        "qpoly.lcm_degree_oracle.gcd_s": (
            seconds("qpoly.lcm_degree_oracle", lambda a: a["method"] == "gcd"), "s"),
        "qpoly.lcm_degree_oracle.calls": (len(oracle), "count"),
        "qpoly.lcm_degree_oracle.elements": (sum(s[4]["elements"] for s in oracle), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.records": (records, "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (tracer_overhead(trace, costs), "s"),
    }
