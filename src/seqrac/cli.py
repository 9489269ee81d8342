"""Command-line interface: emits thresholds, region scans, schedules,
sequential traces, Monte Carlo runs, and polynomial tables as CSV/JSON.

Each ``cmd_*`` handler only computes: it returns its exit code, manifest
parameters and data files as text, and ``main`` alone writes them. Every run
that writes files also writes a manifest recording the command, parameters,
tool version and the sha256 of the bytes of each data file (``simulate.json``
records the RNG algorithm); re-running with the same parameters reproduces
the data files byte for byte.  A ``*_dec`` field is its value to DEC_DIGITS
significant digits, rounded half up, at a cost that does not grow with the exponent.
mpmath is imported on first use, so ``sequence``, ``thresholds``, ``region``
and ``simulate`` never load it; only ``simulate`` and ``verify`` load numpy.

Exit codes: 0 success, 1 a failed verify check, 2 infeasible schedule, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .bloch import SharpObservable
from .channel import SequentialChannelStep
from .errors import DomainError, SearchExhausted, SeqracError
from .montecarlo import (
    RNG_ALGORITHM,
    SimulationConfig,
    analytic_reference,
    run as run_simulation,
)
from .rac import QUANTUM_DISC_TOL, DistinguishabilityPair, square_preparations, thresholds
from .schedule import feasibility_report, find_omega, lambda_sequence
from .sequential import propagate
# small_angle_poly only for the benchmark's tracer, which wraps ``seqrac.cli.small_angle_poly``
from .smallangle import odd_power_expansion, small_angle_poly  # noqa: F401

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64

DEC_DIGITS = 30  # decimal-string precision for thin-margin quantities
_GUARD = 10  # digits past DEC_DIGITS that decide how _dec rounds them

# What a command handler returns: exit code, manifest params, {file name: text}.
Output = tuple[int, dict, dict[str, str]]

B1 = SharpObservable.from_axis((1.0, 0.0, 0.0))
B2 = SharpObservable.from_axis((0.0, 0.0, 1.0))
_FLAG = ("false", "true")  # a bool cell's text, indexed by the bool


@functools.cache
def _log_constants(k: int) -> tuple[int, int, int]:
    # log2 10, log10 2 and ln 2, each an int within 2 of 2^k times it
    from mpmath.libmp import ln2_fixed, ln10_fixed

    ln2, ln10 = ln2_fixed(k + 16), ln10_fixed(k + 16)
    return (ln10 << k) // ln2, (ln2 << k) // ln10, ln2 >> 16


def _dec(value) -> str:
    """The mpf ``value`` to DEC_DIGITS significant digits, rounded half up.

    Laid out as mpmath's to_str lays out 30 digits: fixed for a decimal
    exponent in (-10, 30), else ``d.ddd...e+-N``; zeros stripped to ``x.0``.
    10^-b = 2^-q * 2^f with b*log2(10) = q - f, 0 <= f < 1.  Errors, at every
    binary exponent e (e <= 0 and b = 0 too): the constants are within
    2^(1-k) and |b| <= 2^bitlen(e) + 1, so f is within 2^(bitlen(e) + 2 - k)
    <= 2^-(prec + 6), f*ln 2 within 3 * 2^-k and mpf_exp within 2^(2 - prec)
    relative: under 2^-40 of y = |x| * 10^(width - b) < 2 * 10^(width + 3).
    So n is floor(y) or floor(y) +- 1, y's guard digits lie in (tail,
    tail + 2) widened by 2^-40, and |tail - half| > 2 decides the rounding
    with a unit to spare.  Else it reads again 64 bits and 19 digits finer;
    undecided at 143 guard digits, it rounds up: right for an exact tie (a
    short dyadic), wrong only less than 2 units of that digit below a tie.
    """
    from mpmath.libmp import from_man_exp, mpf_exp

    sign, man, exp, bc = value._mpf_
    if not man:
        return str(value) if exp else "0.0"  # mpmath's +inf, -inf or nan, or zero
    e, prec, guard = exp + bc, 192, _GUARD
    for reading in range(8):
        k = -(-(e.bit_length() + prec + 8) // 64) * 64
        log2_10, log10_2, ln2 = _log_constants(k)
        b = ((e - 1) * log10_2 >> k) - 1  # 10^b <= 2^(e-1) <= |x| < 2000 * 10^b
        t = b * log2_10
        q = -(-t >> k)
        _, m, m_exp, _ = mpf_exp(from_man_exp(((q << k) - t) * ln2 >> k, -k), prec)
        width, shift = DEC_DIGITS + guard, q - exp - m_exp  # shift < 0: an even integer, b = 0
        n = man * m * 10**width << max(-shift, 0) >> max(shift, 0)
        extra = len(str(n)) - width
        head, tail = divmod(n // 10**extra, 10**guard)
        if abs(2 * tail - 10**guard) > 4 or reading == 7:  # |tail - half| > 2, or the last
            break
        prec, guard = prec + 64, guard + 19
    head += 2 * tail >= 10**guard - 4
    digits = str(head)  # DEC_DIGITS digits, or a carry to 10^DEC_DIGITS
    point = b + extra - 1 + len(digits) - DEC_DIGITS
    if -10 < point < 30:  # fixed; a point < 0 puts zeros before the digits
        digits, split, suffix = "0" * -point + digits, max(point, 0) + 1, ""
    else:
        split, suffix = 1, f"e{point:+d}"
    return f"{'-' * sign}{digits[:split]}.{digits[split:].rstrip('0') or '0'}{suffix}"


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(str, row)))  # a float's str is its shortest repr
    return "\n".join(lines) + "\n"


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def cmd_thresholds(args) -> Output:
    rows = []
    grid = args.grid
    if grid < 2:
        raise DomainError("grid must be >= 2")
    for i in range(grid):
        if args.delta2 is not None:
            d2 = args.delta2
            d1_max = math.sqrt(max(0.0, 1.0 - d2 * d2))
            d1 = d1_max * i / (grid - 1)
        else:
            d1 = i / (grid - 1)
            d2 = math.sqrt(max(0.0, 1.0 - d1 * d1))
        sym, asym, violated = thresholds(DistinguishabilityPair(d1, d2))
        rows.append((d1, d2, sym, asym, _FLAG[violated]))
    text = _csv(
        ["delta1", "delta2", "lambda_sym_critical", "lambda_asym_critical", "simplex_violated"],
        rows,
    )
    return EXIT_OK, {"grid": grid, "delta2": args.delta2}, {"thresholds.csv": text}


def cmd_region(args) -> Output:
    res = args.resolution
    if res < 2:
        raise DomainError("resolution must be >= 2")
    # The same text _csv makes of the rows (d1, d2, _FLAG[disc], _FLAG[simplex]), with
    # each coordinate's repr taken once instead of once per cell, joined per
    # d1 block so that the R^2 rows are never all held as separate strings.
    coords = [(i / (res - 1), repr(i / (res - 1))) for i in range(res)]
    blocks = ["delta1,delta2,inside_quantum_disc,inside_classical_simplex\n"]
    for d1, text1 in coords:
        sq1 = d1 * d1
        blocks.append("".join([
            f"{text1},{text2},{_FLAG[sq1 + d2 * d2 <= 1.0]},{_FLAG[d1 + d2 <= 1.0]}\n"
            for d2, text2 in coords
        ]))
    return EXIT_OK, {"resolution": res}, {"region.csv": "".join(blocks)}


def _schedule_payload(s) -> dict:
    feasible, monotone, first_failure = feasibility_report(s)
    return {
        "schema": "seqrac/schedule/1",
        "omega": float(s.omega),
        "omega_dec": _dec(s.omega),
        "r": float(s.r),
        "epsilon": float(s.epsilon),
        "n": s.n,
        "feasible": feasible,
        "monotone_doubling": monotone,
        "first_failure": first_failure,
        "receivers": [
            {
                "k": k + 1,
                "lambda": float(s.lambdas[k]),
                "lambda_dec": _dec(s.lambdas[k]),
                "m_product": float(s.m_products[k]),
                "delta1": float(s.deltas[k].delta1),
                "delta2": float(s.deltas[k].delta2),
                "success": float(s.successes[k]),
                "success_margin_dec": _dec(s.success_margins[k]),
            }
            for k in range(len(s.lambdas))
        ],
    }


def cmd_schedule(args) -> Output:
    try:
        s = (find_omega(args.n, args.r, args.epsilon) if args.omega == "auto"
             else lambda_sequence(args.omega, args.r, args.epsilon, args.n))
    except SearchExhausted as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE, {}, {}
    except (MemoryError, OverflowError) as exc:  # digits Python cannot allocate, or an int it cannot build
        raise DomainError(str(exc) or type(exc).__name__) from exc
    payload = _schedule_payload(s)
    keys = ("k", "lambda", "m_product", "delta1", "delta2", "success", "success_margin_dec")
    rows = [[rec[key] for key in keys] for rec in payload["receivers"]]
    files = {
        "schedule.json": _json(payload),
        "schedule.csv": _csv(
            ["k", "lambda", "m_product", "delta1", "delta2", "success", "success_margin"],
            rows,
        ),
    }
    params = {"n": args.n, "r": args.r, "epsilon": args.epsilon, "omega": args.omega}
    if not payload["feasible"]:
        print(f"infeasible at receiver {payload['first_failure']}", file=sys.stderr)
        return EXIT_INFEASIBLE, params, files
    return EXIT_OK, params, files


def _parse_lambdas(text: str) -> list[float]:
    try:
        lams = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise DomainError(f"bad lambda list {text!r}") from exc
    if not lams:
        raise DomainError("empty lambda list")
    if not all(map(math.isfinite, lams)):
        raise DomainError(f"non-finite lambda in {text!r}")
    return lams


def cmd_sequence(args) -> Output:
    lams = _parse_lambdas(args.lambdas)
    prep = square_preparations(args.omega, args.r)
    steps = [SequentialChannelStep(B1, B2, lam) for lam in lams]
    trace = propagate(prep, steps)
    rows = []
    for k, e in enumerate(trace.entries[: len(steps)]):
        rows.append(
            (
                k + 1,
                lams[k],
                e.exact.delta1,
                e.exact.delta2,
                e.recursion.delta1,
                e.recursion.delta2,
                e.success_probability,
            )
        )
    text = _csv(
        ["k", "lambda", "delta1_exact", "delta2_exact", "delta1_recursion", "delta2_recursion", "success"],
        rows,
    )
    return EXIT_OK, {"omega": args.omega, "r": args.r, "lambdas": lams}, {"sequence.csv": text}


def _parse_config(path: Path) -> dict:
    """key=value lines; '#' starts a comment."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:  # else the last value would run and the first be lost
            raise DomainError(f"{path}:{lineno}: repeated config key {key!r}")
        values[key] = val.strip()
    return values


def cmd_simulate(args) -> Output:
    cfg_path = Path(args.config)
    raw = _parse_config(cfg_path)
    for key in raw:  # a misspelt key would otherwise run at its default
        if key not in ("omega", "r", "lambdas", "shots", "seed"):
            raise DomainError(f"{cfg_path}: unknown config key {key!r}")
    try:
        omega = float(raw["omega"])
        r = float(raw.get("r", "1.0"))
        lambdas = raw["lambdas"]
        shots = int(raw["shots"])
        seed = int(raw["seed"])
    except KeyError as exc:
        raise DomainError(f"config missing key {exc.args[0]!r}") from exc
    except ValueError as exc:
        raise DomainError(f"{cfg_path}: {exc}") from exc
    lams = _parse_lambdas(lambdas)
    for lam in lams:
        if not 0.0 < lam <= 1.0:
            print(f"rejected: lambda {lam} outside (0, 1]", file=sys.stderr)
            return EXIT_INFEASIBLE, {}, {}

    prep = square_preparations(omega, r)
    steps = tuple(SequentialChannelStep(B1, B2, lam) for lam in lams)
    config = SimulationConfig(prep, steps, shots, seed)
    result = run_simulation(config, threads=args.threads)
    ana_succ, ana_states = analytic_reference(config)

    receivers = [
        {
            "k": k + 1,
            "empirical_success": st.empirical_success,
            "standard_error": st.standard_error,
            "shots_counted": shots,
            "analytic_success": ana_succ[k],
            "mean_post_bloch": list(result.mean_post_bloch[k]),
            "analytic_post_bloch": list(ana_states[k]),
        }
        for k, st in enumerate(result.per_receiver)
    ]
    payload = {
        "schema": "seqrac/simulation/1",
        "seed": seed,
        "shots": shots,
        "omega": omega,
        "r": r,
        "lambdas": lams,
        "rng_algorithm": RNG_ALGORITHM,
        "receivers": receivers,
    }
    header = ["k", "empirical_success", "analytic_success", "standard_error", "shots_counted"]
    rows = [[rec[key] for key in header] for rec in receivers]
    files = {"simulate.json": _json(payload), "simulate.csv": _csv(header, rows)}
    return EXIT_OK, {"config": str(cfg_path), **raw}, files


def cmd_poly(args) -> Output:
    k = args.k
    expansion = odd_power_expansion(k)  # Q_k; P_k's coefficients are Q_k's over 2^(k-1)
    terms, den = [], len(expansion)
    for n, b in enumerate(expansion):
        low = (b | den) & -(b | den)  # 2^z, z = b's trailing zero bits but at most k - 1
        z = low.bit_length() - 1  # b / den in lowest terms, as Fraction prints it
        c = f"{b >> z}" if low == den else f"{b >> z}/{den >> z}"
        terms.append(f"({c})*x^{n}" if n else c)
    lines = [f"P_{k}(x) = " + " + ".join(terms)]
    lines.append(
        f"c_{k} = "
        + " + ".join(f"({b})*c1^{2 * n + 1}" for n, b in enumerate(expansion))
    )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    return EXIT_OK, {"k": k}, {"poly.txt": text}


def cmd_verify(args) -> Output:
    """Quick invariant suite; one pass/fail line per check.  A disc-bound line needs the family
    that saturates the bound to meet it to 1e-12, and its stratum's maximum over 2,000 random
    families, which never reach the bound, to lie between 1 + QUANTUM_DISC_TOL and a floor far
    above the stratum's mean (0.3 in the ball, 0.5 on the sphere) that a correct sampler's
    maximum misses with probability under 1e-17: a sampler that returns the mean fails."""
    from .rac import delta_pair, theorem1_sampler
    from .sequential import lemma2_violation_probe
    from . import kraus_pair

    checks = []

    sat = delta_pair(square_preparations(math.pi / 4, 1))
    saturated = abs(sat.delta1**2 + sat.delta2**2 - 1.0) < 1e-12
    for name, seed, pure, floor in (("distinguishability disc bound", 7, False, 0.6),
                                    ("disc bound, pure stratum", 8, True, 0.9)):
        max_sq = theorem1_sampler(2000, seed=seed, pure=pure)
        checks.append((name, saturated and floor <= max_sq <= 1.0 + QUANTUM_DISC_TOL))

    prep = square_preparations(0.3, 0.9)
    steps = [SequentialChannelStep(B1, B2, lam) for lam in (0.3, 0.5, 0.8)]
    checks.append(
        ("recursion matches trace norms", lemma2_violation_probe(prep, steps) < 1e-12)
    )
    tilted = SharpObservable.from_axis((0.5, 0.0, math.sqrt(3) / 2))
    tilted_steps = [SequentialChannelStep(B1, tilted, 0.8)] * 3
    checks.append(
        ("tilted axes break recursion", lemma2_violation_probe(prep, tilted_steps) > 1e-6)
    )

    complete = True
    for i in range(101):
        kp = kraus_pair(B2, i / 100.0)
        s = kp.k_plus.trace_part**2 + sum(c * c for c in kp.k_plus.bloch)
        complete &= abs(2 * s - 1.0) < 1e-12  # K+^2 + K-^2 = I
    checks.append(("Kraus completeness on lambda grid", complete))

    sched = lambda_sequence(0.03125, 1, 1e-4, 4)
    ok, doubling, _ = feasibility_report(sched)
    checks.append(("four-receiver schedule near 2^-5", ok and doubling))
    checks.append(
        ("schedule margins positive", all(m > 0 for m in sched.success_margins))
    )

    # Q_4 = 2^3 P_4, and P_4's linear coefficient is 21/2
    checks.append(("quartic polynomial table", odd_power_expansion(4)[1] == 84))

    failures = 0
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        failures += 0 if passed else 1
    return (EXIT_OK if failures == 0 else 1), {}, {}


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False on every parser: a prefix such as --r is a usage
    # error, not silently --resolution
    parser = argparse.ArgumentParser(
        prog="seqrac",
        description="Sequential 2->1 qubit RAC: bounds, schedules, simulation",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("thresholds", help="critical unsharpness along the unit arc")
    p.set_defaults(handler=cmd_thresholds)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--delta2", type=float, default=None)
    p.add_argument("--out", default=".")

    p = add_parser("region", help="quantum disc vs classical simplex scan")
    p.set_defaults(handler=cmd_region)
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--out", default=".")

    p = add_parser("schedule", help="synthesize an unsharpness schedule")
    p.set_defaults(handler=cmd_schedule)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0, help="read as a double: the schedule is "
                   "certified for the double nearest the decimal given")
    p.add_argument("--epsilon", type=float, default=1e-4, help="read as a double, like --r")
    p.add_argument("--omega", default="auto", help="'auto', or an opening angle read at the "
                   "working precision, any number of digits (an auto run's omega_dec re-runs it)")
    p.add_argument("--out", default=".")

    p = add_parser("sequence", help="per-receiver trace for fixed lambdas")
    p.set_defaults(handler=cmd_sequence)
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--lambdas", required=True, help="comma-separated")
    p.add_argument("--out", default=".")

    p = add_parser("simulate", help="Monte Carlo run from a config file")
    p.set_defaults(handler=cmd_simulate)
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted (an integer >= 1) but has no effect: a run is one stream")
    p.add_argument("--out", default=".")

    p = add_parser("poly", help="exact small-angle polynomial table")
    p.set_defaults(handler=cmd_poly)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)

    p = add_parser("verify", help="run the quick invariant suite")
    p.set_defaults(handler=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; remap per our contract
        if exc.code not in (0, None):
            return EXIT_USAGE
        return 0
    out = getattr(args, "out", None)
    try:
        if out is not None:
            # before the handler, so a bad --out fails before a long run
            out = Path(out)
            out.mkdir(parents=True, exist_ok=True)
        code, params, files = args.handler(args)
        if out is not None and files:
            # the only file writes: each digest is of the bytes written
            digests = {}
            for name, text in files.items():
                data = text.encode()
                (out / name).write_bytes(data)
                digests[name] = hashlib.sha256(data).hexdigest()
            manifest = {
                "schema": "seqrac/manifest/1",
                "command": args.command,
                "params": params,
                "version": __version__,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "outputs": digests,
            }
            (out / f"{args.command}_manifest.json").write_text(_json(manifest))
        return code
    except (SeqracError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
