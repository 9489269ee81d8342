"""Output checks, run after each op and outside its timed interval.

Each check returns ``None`` when the op's output is correct, or a short
reason code.  A failed check counts the op as failed; it never ends the run.
``KNOWN_DEFECTS`` lists the (op kind, reason) pairs that the current code is
known to produce; any other failure makes the run's ``correct`` flag false.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath as mp
from seqrac.schedule import DEFAULT_DPS, lambda_sequence

EXIT_OK = 0
EXIT_USAGE = 64

MC_SE_LIMIT = 5.0
SEQUENCE_TOL = 1e-12
ESTIMATE_RTOL = 1e-9
REFERENCE_DPS = 60
POLY_POINTS = (Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4))

KNOWN_DEFECTS = {
    # find_omega gives up at OMEGA_FLOOR and the CLI maps that to exit 64.
    ("schedule", "search_exhausted"),
    # omega_dec is printed to 30 digits; rounding can cross the boundary.
    ("schedule", "omega_dec_infeasible_2x_dps"),
    # omega_estimate returns a float, which underflows for K=10 and small r.
    ("estimate", "estimate_not_normal"),
    # These malformed inputs end in a traceback instead of exit 64.
    ("malformed_omega_abc", "exception:ValueError"),
    ("malformed_seed_negative", "exception:OverflowError"),
    ("malformed_omega_xyz", "exception:ValueError"),
}


@dataclass
class Outcome:
    """What one op produced: exit code or escaped exception, captured text,
    the value of a library call, and the directory given as ``--out``."""

    rc: int | None
    exception: str | None
    stdout: str
    stderr: str
    value: object
    out: Path


def _read_csv(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def check_simulate(op, res: Outcome) -> str | None:
    data = json.loads((res.out / "simulate.json").read_text())
    receivers = data["receivers"]
    if len(receivers) != op.params["n"]:
        return "mc_receiver_count"
    for rec in receivers:
        se = rec["standard_error"]
        if rec["shots_counted"] != op.params["shots"] or not se > 0:
            return "mc_tally"
        if abs(rec["empirical_success"] - rec["analytic_success"]) > MC_SE_LIMIT * se:
            return "mc_outside_5se"
    return None


def check_schedule(op, res: Outcome) -> str | None:
    data = json.loads((res.out / "schedule.json").read_text())
    if not data["feasible"] or len(data["receivers"]) != op.params["n"]:
        return "schedule_infeasible"
    if not all(mp.mpf(rec["success_margin_dec"]) > 0 for rec in data["receivers"]):
        return "margin_nonpositive"
    p = op.params
    # The string is parsed inside lambda_sequence at the doubled precision.
    if not lambda_sequence(data["omega_dec"], p["r"], p["epsilon"], p["n"], dps=2 * DEFAULT_DPS).feasible:
        return "omega_dec_infeasible_2x_dps"
    return None


def poly_value(k: int, x: Fraction) -> Fraction:
    """P_k(x) from the O(k) value recurrence."""
    p = Fraction(1)
    for j in range(2, k + 1):
        p = 1 + x / 2 if j == 2 else p + 2 ** (2 * j - 5) * x * p * p
    return p


def check_poly(op, res: Outcome) -> str | None:
    k = op.params["k"]
    head = f"P_{k}(x) = "
    line = res.stdout.splitlines()[0]
    if not line.startswith(head):
        return "poly_format"
    coeffs = []
    for n, term in enumerate(line[len(head):].split(" + ")):
        if n == 0:
            coeffs.append(Fraction(term))
            continue
        coeff, _, power = term.partition(")*x^")
        if int(power) != n:
            return "poly_format"
        coeffs.append(Fraction(coeff.lstrip("(")))
    if len(coeffs) != 2 ** (k - 1):
        return "poly_degree"
    for x in POLY_POINTS:
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        if acc != poly_value(k, x):
            return "poly_mismatch"
    return None


def estimate_reference(k: int, r: float, epsilon: float):
    """``1 / (c_k(c0) + eps*c0*c_k'(c0))`` with ``c0 = 1/(2r)``; the
    derivative is carried through the value recurrence in forward mode."""
    with mp.workdps(REFERENCE_DPS):
        c = 1 / (2 * mp.mpf(r))
        x, dx = c * c, 2 * c
        p, dp = mp.mpf(1), mp.mpf(0)
        for j in range(2, k + 1):
            if j == 2:
                p, dp = 1 + x / 2, dx / 2
            else:
                s = mp.mpf(2) ** (2 * j - 5)
                p, dp = p + s * x * p * p, dp + s * (dx * p * p + 2 * x * p * dp)
        scale = mp.mpf(2) ** (k - 1)
        ck, dck = scale * c * p, scale * (p + c * dp)
        return 1 / (ck + mp.mpf(epsilon) * c * dck)


def check_estimate(op, res: Outcome) -> str | None:
    value = float(res.value)
    if not (math.isfinite(value) and value >= sys.float_info.min):
        return "estimate_not_normal"
    p = op.params
    ref = estimate_reference(p["k"], p["r"], p["epsilon"])
    if abs(mp.mpf(value) / ref - 1) > ESTIMATE_RTOL:
        return "estimate_mismatch"
    return None


def check_sequence(op, res: Outcome) -> str | None:
    rows = _read_csv(res.out / "sequence.csv")
    lams = op.params["lambdas"]
    if len(rows) != len(lams):
        return "sequence_rows"
    for row, lam in zip(rows, lams):
        d1e, d2e, d1r, d2r, success = (float(v) for v in row[2:7])
        if abs(d1e - d1r) > SEQUENCE_TOL or abs(d2e - d2r) > SEQUENCE_TOL:
            return "sequence_discrepancy"
        if abs(success - (0.5 + (d1e + lam * d2e) / 4)) > SEQUENCE_TOL:
            return "sequence_success"
    return None


def check_thresholds(op, res: Outcome) -> str | None:
    rows = _read_csv(res.out / "thresholds.csv")
    if len(rows) != op.params["grid"]:
        return "thresholds_rows"
    for row in rows:
        d1, d2, sym = float(row[0]), float(row[1]), float(row[2])
        if abs(d1 * d1 + d2 * d2 - 1) > SEQUENCE_TOL or abs(sym * (d1 + d2) - 1) > SEQUENCE_TOL:
            return "thresholds_value"
    return None


def check_region(op, res: Outcome) -> str | None:
    rows = _read_csv(res.out / "region.csv")
    if len(rows) != op.params["resolution"] ** 2:
        return "region_rows"
    for row in rows:
        d1, d2 = float(row[0]), float(row[1])
        if row[2] != ("true" if d1 * d1 + d2 * d2 <= 1 else "false"):
            return "region_value"
    return None


def check_verify(op, res: Outcome) -> str | None:
    lines = res.stdout.splitlines()
    if not lines or not all(line.startswith("PASS ") for line in lines):
        return "verify_fail_line"
    return None


_CHECKS = {
    "simulate": check_simulate,
    "schedule": check_schedule,
    "poly": check_poly,
    "estimate": check_estimate,
    "sequence": check_sequence,
    "thresholds": check_thresholds,
    "region": check_region,
    "verify": check_verify,
}


def check(op, res: Outcome) -> str | None:
    """Reason the op failed, or None."""
    if res.exception is not None:
        return f"exception:{res.exception}"
    if op.kind.startswith("malformed"):
        return None if res.rc == EXIT_USAGE else f"exit:{res.rc}"
    if op.kind == "schedule" and res.rc == EXIT_USAGE and "no feasible omega" in res.stderr:
        return "search_exhausted"
    if op.argv is not None and res.rc != EXIT_OK:
        return f"exit:{res.rc}"
    try:
        return _CHECKS[op.kind](op, res)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable_output:{type(exc).__name__}"
