"""Output checks for the benchmark workloads.

Two kinds of check, both raising `CheckError`:

* invariants that hold at any seed (row counts, probability ranges,
  shares summing to one, the alarms file agreeing with the periods);
* at a workload's default seed, agreement with the reference output kept
  in `bench/reference/`. Row keys, row counts and alarm sets must match
  exactly. Floats may differ by last-digit drift between numpy/scipy
  builds, so they are compared to a relative tolerance of `REL_TOL`.
"""

from __future__ import annotations

import csv
import io
import json
import math

__all__ = [
    "CheckError",
    "REL_TOL",
    "check_power_csv",
    "check_semisynth_csv",
    "check_federation",
]

REL_TOL = 1e-9

POWER_HEADER = ["theta_alt", "method", "power"]
POWER_ROWS = 88  # 11 methods x 8 alternatives
SEMISYNTH_HEADER = ["sweep", "setting", "entropy", "method", "recall_at_fdr", "f1"]
SEMISYNTH_ROWS = 132  # 12 sweep points x 11 methods
FEDERATION_PERIODS = 396  # 400 weeks less the 4-week baseline
SHARE_SUM_TOL = 1e-9


class CheckError(Exception):
    """An output that a correct run cannot produce."""


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-300)


def _expect_close(what: str, got: float, want: float) -> None:
    if not _close(got, want):
        raise CheckError(f"{what}: {got!r} differs from the reference {want!r}")


def _csv_rows(text: str, header: list[str], n_rows: int) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise CheckError(f"header is {rows[0] if rows else None}, expected {header}")
    body = rows[1:]
    if len(body) != n_rows:
        raise CheckError(f"{len(body)} rows, expected {n_rows}")
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise CheckError(f"line {i} has {len(row)} fields, expected {len(header)}")
    return body


def _float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CheckError(f"{where}: {text!r} is not a number") from None


def _unique_keys(keys: list[tuple]) -> None:
    if len(set(keys)) != len(keys):
        raise CheckError("duplicate row keys")


def check_power_csv(text: str, reference: str | None = None) -> None:
    """`fedsurv power-curve` on the default config."""
    body = _csv_rows(text, POWER_HEADER, POWER_ROWS)
    keys = [(r[0], r[1]) for r in body]
    _unique_keys(keys)
    powers = [_float(r[2], f"power of {k}") for r, k in zip(body, keys)]
    for key, power in zip(keys, powers):
        if not 0.0 <= power <= 1.0:
            raise CheckError(f"power {power!r} of {key} outside [0, 1]")
    if reference is None:
        return
    ref = _csv_rows(reference, POWER_HEADER, POWER_ROWS)
    ref_keys = [(r[0], r[1]) for r in ref]
    if keys != ref_keys:
        raise CheckError("row keys differ from the reference")
    for key, power, r in zip(keys, powers, ref):
        _expect_close(f"power of {key}", power, float(r[2]))


def check_semisynth_csv(text: str, reference: str | None = None) -> None:
    """`fedsurv semisynth` on the default config."""
    body = _csv_rows(text, SEMISYNTH_HEADER, SEMISYNTH_ROWS)
    keys = [(r[0], r[1], r[3]) for r in body]
    _unique_keys(keys)
    values = [[_float(r[i], f"{keys[j]}") for i in (2, 4, 5)] for j, r in enumerate(body)]
    for key, (_, recall, f1) in zip(keys, values):
        for name, v in (("recall_at_fdr", recall), ("f1", f1)):
            if not 0.0 <= v <= 1.0:
                raise CheckError(f"{name} {v!r} of {key} outside [0, 1]")
        # F1 is scored against the centralized alarms, so centralized is 1
        if key[2] == "centralized" and f1 != 1.0:
            raise CheckError(f"centralized f1 is {f1!r} at {key}, expected 1.0")
    if reference is None:
        return
    ref = _csv_rows(reference, SEMISYNTH_HEADER, SEMISYNTH_ROWS)
    if keys != [(r[0], r[1], r[3]) for r in ref]:
        raise CheckError("row keys differ from the reference")
    for key, got, r in zip(keys, values, ref):
        for name, g, w in zip(("entropy", "recall_at_fdr", "f1"), got, (r[2], r[4], r[5])):
            _expect_close(f"{name} of {key}", g, float(w))


def _federation_doc(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("periods"), list):
        raise CheckError("report has no periods list")
    return doc


def check_federation(
    report: str, alarms: str, reference: tuple[str, str] | None = None
) -> None:
    """`fedsurv federation` on the built-in fixture: the JSON report and
    its alarms CSV."""
    doc = _federation_doc(report)
    periods = doc["periods"]
    if len(periods) != FEDERATION_PERIODS:
        raise CheckError(f"{len(periods)} periods, expected {FEDERATION_PERIODS}")
    alpha = doc["config"]["alpha"]
    for e in periods:
        p = e["p"]
        if not 0.0 <= p <= 1.0:
            raise CheckError(f"period {e['period']}: p {p!r} outside [0, 1]")
        if e["alarm"] != (p < alpha):
            raise CheckError(f"period {e['period']}: alarm flag disagrees with p < alpha")
        if e["shares"] is not None and abs(math.fsum(e["shares"]) - 1.0) > SHARE_SUM_TOL:
            raise CheckError(f"period {e['period']}: shares sum to {math.fsum(e['shares'])!r}")
    expected_alarms = [[str(e["period"]), e["date"], e["p"]] for e in periods if e["p"] < alpha]
    rows = list(csv.reader(io.StringIO(alarms)))
    if not rows or rows[0] != ["period", "date", "p"]:
        raise CheckError("alarms CSV header is wrong")
    got_alarms = [[r[0], r[1], _float(r[2], f"alarm p at {r[0]}")] for r in rows[1:]]
    if got_alarms != expected_alarms:
        raise CheckError("alarms CSV differs from the periods with p < alpha")
    summary = doc["summary"]
    if summary != {"n_periods": len(periods), "n_alarms": len(expected_alarms)}:
        raise CheckError(f"summary {summary} disagrees with the periods")
    if reference is None:
        return
    ref = _federation_doc(reference[0])
    if doc["config"] != ref["config"] or doc["sites"] != ref["sites"]:
        raise CheckError("config or sites differ from the reference")
    ref_periods = ref["periods"]
    if [(e["period"], e["date"]) for e in periods] != [
        (e["period"], e["date"]) for e in ref_periods
    ]:
        raise CheckError("periods differ from the reference")
    if [e["alarm"] for e in periods] != [e["alarm"] for e in ref_periods]:
        raise CheckError("alarm set differs from the reference")
    for e, r in zip(periods, ref_periods):
        _expect_close(f"p of period {e['period']}", e["p"], r["p"])
        if (e["shares"] is None) != (r["shares"] is None) or len(e["shares"] or ()) != len(
            r["shares"] or ()
        ):
            raise CheckError(f"period {e['period']}: share vector differs from the reference")
        for s, rs in zip(e["shares"] or (), r["shares"] or ()):
            _expect_close(f"share in period {e['period']}", s, rs)
