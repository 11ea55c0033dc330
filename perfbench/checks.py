"""Output checks of a workload's commands against the captured reference.

Tolerances follow the repository's tests:

- numbers agree within 1e-12 relative (``max(1, |ref|)`` scale); rationals,
  booleans and strings match exactly;
- ``enum_agrees`` and ``all_agree`` are true, ``envelope_ratio <= 1`` and
  ``c1_rel_diff < 5e-4``;
- v(0.5) = 0.039829164382 +- 1e-9; every other v(alpha) lies within the
  reference's reported truncation error, and the reported error is no larger
  than the reference's (the term count is not compared: it describes the
  enumeration, not the result);
- the two criterion-9 runs print byte-identical output;
- at the reference seed the sampling records are bit-identical to the
  reference; at other seeds the seed-independent fields are compared and
  |mc_mean - e_exact| <= 6 mc_stderr.  Criterion 7's 0.05 threshold is not a
  check: it fails by design.

Every comparison is one check; a command that exits non-zero fails its check.
"""

from __future__ import annotations

import json

REL_TOL = 1e-12
V_HALF = 0.039829164382
V_HALF_TOL = 1e-9
STDERR_BAND = 6.0
SEED_DEPENDENT = ("seed", "mc_mean", "mc_var", "mc_stderr", "dev_frac",
                  "agree_count", "disagree_count")


def science_lines(stdout: str) -> list[str]:
    """Report records (json-lines) or the header and rows (csv); no timings."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if lines and not lines[0].startswith("{"):
        return lines
    return [ln for ln in lines if json.loads(ln).get("type") == "report"]


def _records(lines: list[str]) -> list[dict]:
    if lines and not lines[0].startswith("{"):
        header = lines[0].split(",")
        return [{"csv_header": lines[0]}] + [
            {k: float(v) if v else None for k, v in zip(header, row.split(","))}
            for row in lines[1:]
        ]
    return [json.loads(ln) for ln in lines]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def field(self, where: str, key: str, got, ref, exact: bool):
        if _is_number(got) and _is_number(ref) and not exact:
            ok = abs(got - ref) <= REL_TOL * max(1.0, abs(ref))
        else:
            ok = got == ref and type(got) is type(ref)
        self.check(ok, f"{where} {key}: {got!r} vs reference {ref!r}")

    def record(self, where: str, rec: dict, ref: dict, exact: bool, other_seed: int | None):
        """Compare one record; ``other_seed`` is set when a seeded workload
        ran at a seed other than the reference's."""
        vfun = ref.get("command") == "vfun"
        for key, rv in ref.items():
            got = rec.get(key)
            if (vfun and key == "v_alpha_terms") or (other_seed is not None and key in SEED_DEPENDENT):
                continue
            if vfun and key == "v_alpha":
                if ref["alpha"] == 0.5:
                    ok = got is not None and abs(got - V_HALF) <= V_HALF_TOL
                else:
                    ok = got is not None and abs(got - rv) <= ref["v_alpha_error"]
                self.check(ok, f"{where} v_alpha {got!r} vs reference {rv!r}")
            elif vfun and key == "v_alpha_error":
                ok = got is not None and got <= rv * (1 + REL_TOL)
                self.check(ok, f"{where} v_alpha_error {got!r} above reference {rv!r}")
            else:
                self.field(where, key, got, rv, exact)
        if other_seed is not None:
            self.check(rec.get("seed") == other_seed,
                       f"{where} seed {rec.get('seed')!r} != {other_seed}")
            if rec.get("command") == "simulate":
                try:
                    z = abs(rec["mc_mean"] - rec["e_exact"]) / rec["mc_stderr"]
                except (KeyError, TypeError, ZeroDivisionError):
                    z = None
                self.check(z is not None and z <= STDERR_BAND,
                           f"{where} |mc_mean - e_exact| = {z!r} stderr > {STDERR_BAND}")
        if "enum_agrees" in rec:
            self.check(rec["enum_agrees"] is True, f"{where} enum_agrees false")
        if "envelope_ratio" in rec:
            self.check(rec["envelope_ratio"] <= 1.0, f"{where} envelope_ratio > 1")
        if "c1_rel_diff" in rec:
            self.check(rec["c1_rel_diff"] < 5e-4, f"{where} c1_rel_diff >= 5e-4")
        if "all_agree" in rec:
            self.check(rec["all_agree"] is True, f"{where} oracles disagree")


def check_workload(workload: str, seed: int, samples: list[list[dict]],
                   reference: dict) -> Checker:
    """Check every output of a run: ``samples[i]`` holds the outputs of the
    workload's command ``i``, one per time it ran.  ``reference`` holds the
    workload's science lines at ``reference["seed"]``; only ``sampling``
    depends on the seed."""
    c = Checker()
    refs = reference["workloads"][workload]
    c.check(len(samples) == len(refs), f"{len(samples)} commands vs {len(refs)} in reference")
    seeded = workload == "sampling"
    exact = seeded and seed == reference["seed"]
    other_seed = seed if seeded and not exact else None
    for outs, ref in zip(samples, refs):
        for out in outs:
            where = " ".join(out["argv"])
            c.check(out["rc"] == 0, f"{where}: exit code {out['rc']}")
            if out["rc"] != 0:
                continue
            got = _records(science_lines(out["stdout"]))
            want = _records(ref["science"])
            c.check(len(got) == len(want), f"{where}: {len(got)} records vs {len(want)}")
            for j, (rec, rref) in enumerate(zip(got, want)):
                c.record(f"{where} [{j}]", rec, rref, exact, other_seed)
    if seeded and len(samples) >= 2:
        for a, b in zip(samples[-2], samples[-1]):
            c.check(a["rc"] == 0 and a["stdout"] == b["stdout"],
                    "criterion 9: worker counts changed the output")
    return c
