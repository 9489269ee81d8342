"""Command-line interface: emits thresholds, region scans, schedules,
sequential traces, Monte Carlo runs, and polynomial tables as CSV/JSON.

Every run writes a manifest recording the command, parameters, tool version,
RNG algorithm, and a sha256 digest of each data file; re-running with the
same parameters reproduces the data files byte for byte.

Exit codes: 0 success, 2 infeasible schedule, 64 usage error.
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

import mpmath as mp

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
from .rac import DistinguishabilityPair, square_preparations, thresholds
from .schedule import feasibility_report, find_omega, lambda_sequence
from .sequential import propagate
from .smallangle import odd_power_expansion, small_angle_poly

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64

DEC_DIGITS = 30  # decimal-string precision for thin-margin quantities

B1 = SharpObservable.from_axis((1.0, 0.0, 0.0))
B2 = SharpObservable.from_axis((0.0, 0.0, 1.0))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest round-trip
    return str(value)


def _dec(value) -> str:
    # nstr rounds the mpf's own mantissa; mp.mpf(value) would first round
    # it to the ambient 53-bit precision.
    return mp.nstr(value, DEC_DIGITS)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _write_manifest(out: Path, command: str, params: dict, files: list[Path]) -> None:
    digests = {}
    for f in files:
        digests[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
    payload = {
        "schema": "seqrac/manifest/1",
        "command": command,
        "params": params,
        "version": __version__,
        "rng_algorithm": RNG_ALGORITHM,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "outputs": digests,
    }
    _write_json(out / f"{command}_manifest.json", payload)


def cmd_thresholds(args, out: Path) -> int:
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
        rep = thresholds(DistinguishabilityPair(d1, d2))
        rows.append(
            (
                d1,
                d2,
                rep.lambda_symmetric_critical,
                rep.lambda_asymmetric_critical,
                rep.classical_simplex_violated,
            )
        )
    _write_csv(
        out / "thresholds.csv",
        ["delta1", "delta2", "lambda_sym_critical", "lambda_asym_critical", "simplex_violated"],
        rows,
    )
    _write_manifest(out, "thresholds", {"grid": grid, "delta2": args.delta2}, [out / "thresholds.csv"])
    return EXIT_OK


def cmd_region(args, out: Path) -> int:
    res = args.resolution
    if res < 2:
        raise DomainError("resolution must be >= 2")
    # The same text _write_csv makes of the rows (d1, d2, disc, simplex),
    # with each coordinate's repr taken once instead of once per cell.
    coords = [(i / (res - 1), repr(i / (res - 1))) for i in range(res)]
    flag = ("false", "true")
    lines = ["delta1,delta2,inside_quantum_disc,inside_classical_simplex"]
    for d1, text1 in coords:
        sq1 = d1 * d1
        lines.extend(
            f"{text1},{text2},{flag[sq1 + d2 * d2 <= 1.0]},{flag[d1 + d2 <= 1.0]}"
            for d2, text2 in coords
        )
    (out / "region.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(out, "region", {"resolution": res}, [out / "region.csv"])
    return EXIT_OK


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


def cmd_schedule(args, out: Path) -> int:
    if args.omega == "auto":
        try:
            omega = find_omega(args.n, args.r, args.epsilon)
        except SearchExhausted as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
    else:
        try:
            omega = mp.mpf(args.omega)
        except ValueError as exc:
            raise DomainError(f"bad omega {args.omega!r}") from exc
    s = lambda_sequence(omega, args.r, args.epsilon, args.n)
    payload = _schedule_payload(s)
    _write_json(out / "schedule.json", payload)
    rows = [
        (
            rec["k"],
            rec["lambda"],
            rec["m_product"],
            rec["delta1"],
            rec["delta2"],
            rec["success"],
            rec["success_margin_dec"],
        )
        for rec in payload["receivers"]
    ]
    _write_csv(
        out / "schedule.csv",
        ["k", "lambda", "m_product", "delta1", "delta2", "success", "success_margin"],
        rows,
    )
    _write_manifest(
        out,
        "schedule",
        {"n": args.n, "r": args.r, "epsilon": args.epsilon, "omega": str(args.omega)},
        [out / "schedule.json", out / "schedule.csv"],
    )
    if not payload["feasible"]:
        print(f"infeasible at receiver {payload['first_failure']}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _parse_lambdas(text: str) -> list[float]:
    try:
        lams = [float(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise DomainError(f"bad lambda list {text!r}") from exc
    if not lams:
        raise DomainError("empty lambda list")
    return lams


def cmd_sequence(args, out: Path) -> int:
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
    _write_csv(
        out / "sequence.csv",
        ["k", "lambda", "delta1_exact", "delta2_exact", "delta1_recursion", "delta2_recursion", "success"],
        rows,
    )
    _write_manifest(
        out,
        "sequence",
        {"omega": args.omega, "r": args.r, "lambdas": lams},
        [out / "sequence.csv"],
    )
    return EXIT_OK


def _parse_config(path: Path) -> dict:
    """key=value lines; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def cmd_simulate(args, out: Path) -> int:
    cfg_path = Path(args.config)
    raw = _parse_config(cfg_path)
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
            return EXIT_INFEASIBLE

    prep = square_preparations(omega, r)
    steps = tuple(SequentialChannelStep(B1, B2, lam) for lam in lams)
    config = SimulationConfig(prep, steps, shots, seed)
    result = run_simulation(config, threads=args.threads)
    ana_succ, ana_states = analytic_reference(config)

    receivers = []
    rows = []
    for k, st in enumerate(result.per_receiver):
        receivers.append(
            {
                "k": k + 1,
                "empirical_success": st.empirical_success,
                "standard_error": st.standard_error,
                "shots_counted": st.shots_counted,
                "analytic_success": ana_succ[k],
                "mean_post_bloch": list(result.mean_post_bloch[k]),
                "analytic_post_bloch": list(ana_states[k]),
            }
        )
        rows.append(
            (
                k + 1,
                st.empirical_success,
                ana_succ[k],
                st.standard_error,
                st.shots_counted,
            )
        )
    payload = {
        "schema": "seqrac/simulation/1",
        "seed": seed,
        "shots": shots,
        "omega": omega,
        "r": r,
        "lambdas": lams,
        "rng_algorithm": result.rng_algorithm,
        "receivers": receivers,
    }
    _write_json(out / "simulate.json", payload)
    _write_csv(
        out / "simulate.csv",
        ["k", "empirical_success", "analytic_success", "standard_error", "shots_counted"],
        rows,
    )
    _write_manifest(
        out,
        "simulate",
        {"config": str(cfg_path), **raw},
        [out / "simulate.json", out / "simulate.csv"],
    )
    return EXIT_OK


def cmd_poly(args, out: Path | None) -> int:
    k = args.k
    p = small_angle_poly(k)
    expansion = odd_power_expansion(k)
    lines = [f"P_{k}(x) = " + " + ".join(
        f"({c})*x^{n}" if n else f"{c}" for n, c in enumerate(p.coefficients)
    )]
    lines.append(
        f"c_{k} = "
        + " + ".join(f"({b})*c1^{2 * n + 1}" for n, b in enumerate(expansion))
    )
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if out is not None:
        (out / "poly.txt").write_text(text)
        _write_manifest(out, "poly", {"k": k}, [out / "poly.txt"])
    return EXIT_OK


def cmd_verify(args, out: Path | None) -> int:
    """Quick invariant suite; one pass/fail line per check."""
    from fractions import Fraction

    from .rac import theorem1_sampler
    from .sequential import lemma2_violation_probe
    from . import kraus_pair

    checks = []

    max_sq = theorem1_sampler(20000, seed=7)
    checks.append(("distinguishability disc bound", max_sq <= 1.0 + 1e-9))
    max_sq_pure = theorem1_sampler(20000, seed=8, pure=True)
    checks.append(("disc bound, pure stratum", max_sq_pure <= 1.0 + 1e-9))

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

    p4 = small_angle_poly(4)
    checks.append(
        ("quartic polynomial table", p4.coefficients[1] == Fraction(21, 2))
    )

    failures = 0
    for name, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        failures += 0 if passed else 1
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqrac",
        description="Sequential 2->1 qubit RAC: bounds, schedules, simulation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thresholds", help="critical unsharpness along the unit arc")
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--delta2", type=float, default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("region", help="quantum disc vs classical simplex scan")
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--out", default=".")

    p = sub.add_parser("schedule", help="synthesize an unsharpness schedule")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--omega", default="auto", help="opening angle or 'auto'")
    p.add_argument("--out", default=".")

    p = sub.add_parser("sequence", help="per-receiver trace for fixed lambdas")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--lambdas", required=True, help="comma-separated")
    p.add_argument("--out", default=".")

    p = sub.add_parser("simulate", help="Monte Carlo run from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--out", default=".")

    p = sub.add_parser("poly", help="exact small-angle polynomial table")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the quick invariant suite")
    return parser


_HANDLERS = {
    "thresholds": cmd_thresholds,
    "region": cmd_region,
    "schedule": cmd_schedule,
    "sequence": cmd_sequence,
    "simulate": cmd_simulate,
    "poly": cmd_poly,
    "verify": cmd_verify,
}


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
    out = None
    try:
        if getattr(args, "out", None) is not None:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
        return _HANDLERS[args.command](args, out)
    except (SeqracError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
