"""Acceptance gate: one pass/fail line per criterion, pinned tolerances.

Each test records a summary line (shown in the terminal summary section)
and then asserts, so a red criterion is visible both ways.
"""

import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

from seqrac import (
    DistinguishabilityPair,
    SequentialChannelStep,
    SharpObservable,
    SimulationConfig,
    UnsharpBinaryMeasurement,
    analytic_reference,
    avg_success,
    delta_pair,
    feasibility_report,
    find_omega,
    helstrom_observable,
    lambda_sequence,
    lemma2_violation_probe,
    marginals,
    odd_power_expansion,
    omega_estimate,
    propagate,
    run,
    small_angle_poly,
    square_preparations,
    theorem1_sampler,
    thresholds,
)
from seqrac.cli import EXIT_INFEASIBLE, main
from seqrac.smallangle import leading_coefficient

X = SharpObservable.from_axis((1.0, 0.0, 0.0))
Z = SharpObservable.from_axis((0.0, 0.0, 1.0))


@pytest.fixture
def record(request):
    start = time.perf_counter()

    def _record(num, desc, ok):
        elapsed = time.perf_counter() - start
        line = (
            f"criterion {num:02d} {'PASS' if ok else 'FAIL'} ({elapsed:6.2f}s)  {desc}"
        )
        request.config.acceptance_lines.append(line)
        assert ok, line

    return _record


def test_criterion_01_optimal_single_receiver(record):
    prep = square_preparations(math.pi / 4, 1.0)
    b1 = helstrom_observable(*marginals(prep, 1))
    b2 = helstrom_observable(*marginals(prep, 2))
    got = avg_success(
        prep, UnsharpBinaryMeasurement(b1, 1.0), UnsharpBinaryMeasurement(b2, 1.0)
    )
    want = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
    record(1, f"optimal success {got:.12f} vs {want:.12f}", abs(got - want) < 1e-12)


def test_criterion_02_disc_bound_property_suite(record):
    start = time.perf_counter()
    worst_ball = theorem1_sampler(100_000, seed=2024)
    worst_pure = theorem1_sampler(100_000, seed=2025, pure=True)
    saturating = delta_pair(square_preparations(math.pi / 4, 1.0))
    sat = saturating.delta1**2 + saturating.delta2**2
    elapsed = time.perf_counter() - start
    ok = (
        worst_ball <= 1.0 + 1e-9
        and worst_pure <= 1.0 + 1e-9
        and abs(sat - 1.0) < 1e-12
        and elapsed < 30.0
    )
    record(
        2,
        f"max delta-square {max(worst_ball, worst_pure):.12f}, saturation gap "
        f"{abs(sat - 1.0):.1e}",
        ok,
    )


def test_criterion_03_recursion_equivalence(record):
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(33)))
    worst = 0.0
    for _ in range(1000):
        omega = float(rng.uniform(0.02, 1.5))
        r = float(rng.uniform(0.1, 1.0))
        n = int(rng.integers(1, 9))
        lams = [float(v) for v in rng.uniform(0.0, 1.0, size=n)]
        steps = [SequentialChannelStep(X, Z, lam) for lam in lams]
        trace = propagate(square_preparations(omega, r), steps)
        worst = max(worst, trace.max_discrepancy())
    tilted = SharpObservable.from_axis((0.5, 0.0, math.sqrt(3) / 2))
    control = lemma2_violation_probe(
        square_preparations(0.3, 0.9),
        [SequentialChannelStep(X, tilted, 0.8)] * 3,
    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and control > 1e-6 and elapsed < 60.0
    record(
        3,
        f"orthogonal-axes discrepancy {worst:.1e}, tilted control {control:.1e}",
        ok,
    )


def test_criterion_04_four_receiver_headline(record):
    s = lambda_sequence(0.0315, 1.0, 1e-4, 4)
    feasible, doubling, _ = feasibility_report(s)
    ordered = all(b > a for a, b in zip(s.lambdas, s.lambdas[1:]))
    in_range = len(s.lambdas) == 4 and all(0 < v < 1 for v in s.lambdas)
    margins_positive = all(m > 0 for m in s.success_margins)
    ok = feasible and in_range and ordered and doubling and margins_positive
    lam4 = mp.nstr(s.lambdas[-1], 10) if len(s.lambdas) == 4 else "n/a"
    record(
        4,
        f"schedule at omega=0.0315: feasible={feasible}, lambda4={lam4}",
        ok,
    )


def test_criterion_05_unbounded_receiver_evidence(record):
    start = time.perf_counter()
    w10 = find_omega(10, 1.0, 1e-4).omega
    ok10 = lambda_sequence(w10, 1.0, 1e-4, 10).feasible
    w16 = find_omega(16, 1.0, 1e-4).omega
    ok16 = lambda_sequence(w16, 1.0, 1e-4, 16).feasible
    elapsed = time.perf_counter() - start
    ok = ok10 and ok16 and elapsed < 10.0
    record(
        5,
        f"feasible omegas: n=10 at {mp.nstr(w10, 5)}, n=16 at {mp.nstr(w16, 5)}",
        ok,
    )


def test_criterion_06_polynomial_oracle(record):
    from fractions import Fraction as F

    polys_ok = (
        small_angle_poly(2).coefficients == (F(1), F(1, 2))
        and small_angle_poly(3).coefficients == (F(1), F(5, 2), F(2), F(1, 2))
        and small_angle_poly(4).coefficients
        == (F(1), F(21, 2), F(42), F(165, 2), F(88), F(52), F(16), F(2))
    )
    expansions_ok = (
        odd_power_expansion(2) == (F(2), F(1))
        and odd_power_expansion(3) == (F(4), F(10), F(8), F(2))
        and odd_power_expansion(4)
        == (F(8), F(84), F(336), F(660), F(704), F(416), F(128), F(16))
    )
    eps = 1e-4
    est = omega_estimate(4, 1.0, eps)
    closed = 2048.0 / (85.0 * (765.0 + 3347.0 * eps))
    rel = abs(est - closed) / closed
    ok = polys_ok and expansions_ok and rel < 1e-9 and abs(est - 0.0315) < 5e-4
    record(
        6,
        f"exact tables ok={polys_ok and expansions_ok}, estimate {est:.10f} "
        f"(rel {rel:.1e})",
        ok,
    )


def test_criterion_07_small_angle_consistency(record):
    worst = 0.0
    ok = True
    missing = []
    for omega in (1e-3, 1e-4):
        s = lambda_sequence(omega, 1.0, 1e-12, 6)
        for k in range(1, 7):
            if k > len(s.lambdas):
                # recursion truncated: lam_{k-1} left (0,1), lam_k undefined
                missing.append((omega, k))
                ok = False
                continue
            c_k = leading_coefficient(k, 0.5)
            lam = float(s.lambdas[k - 1])
            rel = abs(lam - c_k * omega) / (c_k * omega)
            worst = max(worst, rel / (omega * omega))
            ok &= rel < 5.0 * omega * omega
    detail = f"worst relative error {worst:.2f} omega^2 (limit 5)"
    if missing:
        detail += f", undefined lambdas at {missing}"
    record(7, detail, ok)


def test_criterion_08_threshold_values(record):
    grid = 2001
    sym_min = math.inf
    for i in range(grid):
        d1 = i / (grid - 1)
        d2 = math.sqrt(max(0.0, 1.0 - d1 * d1))
        sym_min = min(sym_min, thresholds(DistinguishabilityPair(d1, d2)).lambda_symmetric_critical)
    v = 1.0 / math.sqrt(2.0)
    asym = thresholds(DistinguishabilityPair(v, v)).lambda_asymmetric_critical
    ok = abs(sym_min - v) < 1e-6 and abs(asym - (math.sqrt(2.0) - 1.0)) < 1e-9
    record(
        8,
        f"symmetric minimum {sym_min:.9f} (target 0.707...), asymmetric "
        f"{asym:.9f} (target 0.414...)",
        ok,
    )


def test_criterion_09_monte_carlo_convergence(record):
    prep = square_preparations(0.3, 1.0)
    steps = (
        SequentialChannelStep(X, Z, 0.5),
        SequentialChannelStep(X, Z, 0.8),
    )
    cfg = SimulationConfig(prep, steps, 4_000_000, 20260824)
    result = run(cfg)
    analytic, mean_states = analytic_reference(cfg)
    tol_state = 3.0 / math.sqrt(cfg.shots)
    ok = True
    gaps = []
    for stats, want, want_state, got_state in zip(
        result.per_receiver, analytic, mean_states, result.mean_post_bloch
    ):
        gap = abs(stats.empirical_success - want)
        gaps.append(gap / stats.standard_error)
        ok &= gap < 4.0 * stats.standard_error
        ok &= np.linalg.norm(np.array(got_state) - np.array(want_state)) < tol_state
    record(
        9,
        "success gaps " + ", ".join(f"{g:.2f} SE" for g in gaps) + " (limit 4 SE)",
        ok,
    )


def test_criterion_10_determinism(record, tmp_path):
    sched_bytes = []
    for tag in ("a", "b"):
        out = tmp_path / f"sched_{tag}"
        code = main(
            ["schedule", "--n", "4", "--epsilon", "1e-4", "--omega", "0.0315",
             "--out", str(out)]
        )
        assert code == EXIT_INFEASIBLE
        sched_bytes.append(
            (out / "schedule.json").read_bytes() + (out / "schedule.csv").read_bytes()
        )

    cfg = tmp_path / "sim.cfg"
    cfg.write_text("omega = 0.3\nlambdas = 0.5,0.8\nshots = 4000000\nseed = 20260824\n")
    sim_bytes = []
    for tag in ("a", "b"):
        out = tmp_path / f"sim_{tag}"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        sim_bytes.append(
            (out / "simulate.json").read_bytes() + (out / "simulate.csv").read_bytes()
        )
        data = json.loads((out / "simulate.json").read_text())
        assert data["seed"] == 20260824

    ok = sched_bytes[0] == sched_bytes[1] and sim_bytes[0] == sim_bytes[1]
    record(10, "repeated schedule and simulation outputs byte-identical", ok)
