"""Seeded, fixed-size op lists for the four benchmark workloads.

An op list is a pure function of ``(workload, seed)``: the same pair always
gives the same ops in the same order, and the number of ops and the share of
each op class are fixed per workload, so every run of a workload does the
same amount of work whatever the seed.  Continuous parameters are drawn by
stratified (Latin hypercube) sampling within each op class and discrete
level, which keeps the work per run and the share of known-defect failures
nearly constant across seeds.

This module imports nothing from ``seqrac``; generating inputs is part of
the measured set-up time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Placeholders in an op's argv, replaced by the runner with real paths.
OUT = "@out"
CONFIG = "@config"


@dataclass(frozen=True)
class Op:
    """One benchmark operation.

    ``argv`` is passed to ``seqrac.cli.main``; an op with ``argv`` None is a
    direct library call described by ``params``.  ``config`` is the text of
    the ``simulate`` config file written before the op.  ``params`` holds
    the drawn inputs the output checks need.
    """

    kind: str
    argv: tuple[str, ...] | None
    config: str | None = None
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int
    tail_percentile: float
    # Timed passes over the op list; an op's latency is its median pass.
    passes: int


# Op counts and passes are sized for 15-30 s of timed work on a 2-CPU
# machine, most for the noisiest workload, poly_exact.  The tail percentile is the highest of p75, p80, p90, p95, p98,
# p99 and p99.5 that leaves at least ten passed ops beyond it at the
# workload's op count and known failure rate.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_chain", 66, 80.0, 1),
        Workload("schedule_auto", 759, 98.0, 3),
        Workload("poly_exact", 72, 80.0, 3),
        Workload("scalar_mix", 800, 98.0, 3),
    )
}

MC_RECEIVER_SHOTS = 1 << 21
MC_THREADS = 2


def _strata(rng: random.Random, count: int, lo: float, hi: float, log: bool = False) -> list[float]:
    """``count`` draws from [lo, hi), one in each of ``count`` equal strata,
    in random order (log-uniform strata when ``log``)."""
    slots = list(range(count))
    rng.shuffle(slots)
    a, b = (math.log10(lo), math.log10(hi)) if log else (lo, hi)
    vals = [a + (b - a) * (s + rng.random()) / count for s in slots]
    return [10.0**v for v in vals] if log else vals


def _int_strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """Stratified integers in [lo, hi]."""
    return [lo + int(v) for v in _strata(rng, count, 0, hi - lo + 1)]


def _unit_lambdas(rng: random.Random, n: int) -> list[float]:
    """``n`` draws in (0, 1]."""
    return [1.0 - rng.random() for _ in range(n)]


def _mc_chain(rng: random.Random) -> list[Op]:
    per_shape = WORKLOADS["mc_chain"].ops // 3
    ops = []
    for n in (2, 4, 8):
        omegas = _strata(rng, per_shape, 0.05, 1.5)
        rs = _strata(rng, per_shape, 0.3, 1.0)
        for omega, r in zip(omegas, rs):
            lams = sorted(_unit_lambdas(rng, n))
            shots = MC_RECEIVER_SHOTS // n
            seed = rng.randrange(1, 1 << 32)
            config = (
                f"omega = {omega!r}\nr = {r!r}\n"
                f"lambdas = {','.join(repr(v) for v in lams)}\n"
                f"shots = {shots}\nseed = {seed}\n"
            )
            ops.append(Op(
                "simulate",
                ("simulate", "--config", CONFIG, "--threads", str(MC_THREADS), "--out", OUT),
                config,
                {"n": n, "shots": shots},
            ))
    return ops


def _schedule_auto(rng: random.Random) -> list[Op]:
    ns = range(2, 25)
    per_n = WORKLOADS["schedule_auto"].ops // len(ns)
    ops = []
    for n in ns:
        rs = _strata(rng, per_n, 0.3, 1.0)
        epsilons = _strata(rng, per_n, 1e-6, 1e-2, log=True)
        for r, eps in zip(rs, epsilons):
            ops.append(Op(
                "schedule",
                ("schedule", "--n", str(n), "--r", repr(r), "--epsilon", repr(eps),
                 "--omega", "auto", "--out", OUT),
                None,
                {"n": n, "r": r, "epsilon": eps},
            ))
    return ops


# Share of each K within both poly_exact op classes.  The median op falls
# inside the K = 8 ops and the tail inside the K = 9 ops, each away from the
# edge between two K, whose costs differ about fourfold.  K = 10 ops are
# fewest: each costs as much as fourteen K = 8 ops.
POLY_K_SHARES = {8: 4, 9: 1, 10: 1}


def _poly_exact(rng: random.Random) -> list[Op]:
    unit = WORKLOADS["poly_exact"].ops // (2 * sum(POLY_K_SHARES.values()))
    ops = []
    for k, share in POLY_K_SHARES.items():
        count = share * unit
        ops.extend(Op("poly", ("poly", "--k", str(k)), None, {"k": k}) for _ in range(count))
        rs = _strata(rng, count, 0.3, 1.0)
        epsilons = _strata(rng, count, 1e-6, 1e-2, log=True)
        ops.extend(
            Op("estimate", None, None, {"k": k, "r": r, "epsilon": eps})
            for r, eps in zip(rs, epsilons)
        )
    return ops


# Malformed invocations, each expected to end in exit 64 (usage).
_SIM_OK = "r = 1.0\nlambdas = 0.5\nshots = 1000\n"
MALFORMED = (
    ("malformed_omega_abc", ("simulate", "--config", CONFIG, "--out", OUT),
     "omega = abc\n" + _SIM_OK + "seed = 1\n"),
    ("malformed_seed_negative", ("simulate", "--config", CONFIG, "--out", OUT),
     "omega = 0.3\n" + _SIM_OK + "seed = -1\n"),
    ("malformed_omega_xyz", ("schedule", "--n", "3", "--omega", "xyz", "--out", OUT), None),
    ("malformed_sequence_omega", ("sequence", "--omega", "2", "--lambdas", "0.5", "--out", OUT), None),
    ("malformed_poly_k", ("poly", "--k", "25"), None),
)


def _scalar_mix(rng: random.Random) -> list[Op]:
    unit = WORKLOADS["scalar_mix"].ops // 100  # shares below are in percent
    ops = []
    count = 70 * unit
    lengths = _int_strata(rng, count, 2, 32)
    omegas = _strata(rng, count, 0.05, 1.5)
    rs = _strata(rng, count, 0.3, 1.0)
    for length, omega, r in zip(lengths, omegas, rs):
        lams = _unit_lambdas(rng, length)
        ops.append(Op(
            "sequence",
            ("sequence", "--omega", repr(omega), "--r", repr(r),
             "--lambdas", ",".join(repr(v) for v in lams), "--out", OUT),
            None,
            {"lambdas": lams},
        ))
    for grid in _int_strata(rng, 10 * unit, 50, 400):
        ops.append(Op("thresholds", ("thresholds", "--grid", str(grid), "--out", OUT),
                      None, {"grid": grid}))
    for res in _int_strata(rng, 10 * unit, 21, 101):
        ops.append(Op("region", ("region", "--resolution", str(res), "--out", OUT),
                      None, {"resolution": res}))
    ops.extend(Op("verify", ("verify",)) for _ in range(5 * unit))
    for i in range(5 * unit):
        kind, argv, config = MALFORMED[i % len(MALFORMED)]
        ops.append(Op(kind, argv, config))
    return ops


_GENERATORS = {
    "mc_chain": _mc_chain,
    "schedule_auto": _schedule_auto,
    "poly_exact": _poly_exact,
    "scalar_mix": _scalar_mix,
}


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of ``workload`` for ``seed``, in execution order."""
    rng = random.Random(f"{workload}/{seed}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops
