"""Schedule synthesis: recursion values, feasibility, angle search."""

import dataclasses
import math
import random
import re
import sys
import threading

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_man_exp, mpf_add, mpf_div, mpf_mul, mpf_sqrt, mpf_sub, mpi_mid, round_ceiling,
    round_floor, round_nearest,
)

import seqrac.schedule
from seqrac import (
    DistinguishabilityPair,
    DomainError,
    Schedule,
    SearchExhausted,
    SequentialChannelStep,
    SharpObservable,
    feasibility_report,
    find_omega,
    lambda_sequence,
    propagate,
    square_preparations,
)
from seqrac.cli import _json, _schedule_payload
from seqrac.schedule import DEFAULT_DPS, GUARD_DIGITS, _add, _div, _mid, _mul, _sqrt, _sub, _working_dps
from seqrac.smallangle import leading_coefficient, leading_coefficient_numeric

X = SharpObservable.from_axis((1.0, 0.0, 0.0))
Z = SharpObservable.from_axis((0.0, 0.0, 1.0))
with mp.workdps(100):
    NEAR_HALF_PI = mp.nstr(mp.pi / 2 - mp.mpf(10) ** -60, 75)
    NEAR_HALF_PI_50 = mp.nstr(mp.pi / 2 - mp.mpf(10) ** -50, 75)


class TestLambdaSequence:
    def test_first_lambda_closed_form(self):
        s = lambda_sequence(0.2, 0.8, 1e-3, 1)
        want = (1 + 1e-3) * math.tan(0.1) / 0.8
        assert float(s.lambdas[0]) == pytest.approx(want, rel=1e-12)

    def test_cancellation_free_form_matches_direct_formula(self):
        # lam_k = (1+eps)(2^(k-1) - cos(w) M_k)/(r sin w) at moderate omega
        with mp.workdps(50):
            w, r, eps = mp.mpf("0.4"), mp.mpf("0.9"), mp.mpf("1e-3")
            s = lambda_sequence(w, r, eps, 3)
            m = mp.mpf(1)
            for k in range(2, 4):
                m *= 1 + mp.sqrt(1 - s.lambdas[k - 2] ** 2)
                direct = (1 + eps) * (2 ** (k - 1) - mp.cos(w) * m) / (r * mp.sin(w))
                assert abs(s.lambdas[k - 1] - direct) < mp.mpf("1e-45")

    def test_four_receiver_reference_values(self):
        # frozen from the recursion at omega=0.0315 (infeasible at k=4)
        s = lambda_sequence(0.0315, 1.0, 1e-4, 4)
        got = [float(v) for v in s.lambdas]
        assert got[0] == pytest.approx(0.01575287758760722, rel=1e-12)
        assert got[1] == pytest.approx(0.03544402931276483, rel=1e-12)
        assert got[2] == pytest.approx(0.11077078960904919, rel=1e-12)
        assert got[3] == pytest.approx(1.00253014606827349, rel=1e-12)
        assert got[3] > 1.0
        assert not s.feasible
        assert s.first_failure == 4

    def test_tiny_angle_frozen_value(self):
        # at omega=1e-6 the doubling cascade exhausts after five receivers
        assert lambda_sequence(1e-6, 1.0, 1e-4, 8).first_failure == 6

    def test_feasible_point_below_boundary(self):
        s = lambda_sequence(0.03125, 1.0, 1e-4, 4)
        feasible, doubling, failure = feasibility_report(s)
        assert feasible and doubling and failure is None
        assert all(0 < float(v) < 1 for v in s.lambdas)
        assert all(float(m) > 0 for m in s.success_margins)

    def test_margin_identity(self):
        # success - 3/4 equals the reported margin without cancellation
        s = lambda_sequence(0.03125, 1.0, 1e-4, 4)
        with mp.workdps(50):
            for succ, margin in zip(s.successes, s.success_margins):
                assert abs((succ - mp.mpf(3) / 4) - margin) < mp.mpf("1e-40")

    def test_deltas_match_propagated_family(self):
        s = lambda_sequence(0.05, 0.9, 1e-3, 3)
        assert s.feasible
        steps = [SequentialChannelStep(X, Z, float(v)) for v in s.lambdas]
        trace = propagate(square_preparations(0.05, 0.9), steps)
        for k in range(3):
            assert float(s.deltas[k].delta1) == pytest.approx(
                trace.entries[k].exact.delta1, abs=1e-12
            )
            assert float(s.deltas[k].delta2) == pytest.approx(
                trace.entries[k].exact.delta2, abs=1e-12
            )

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            lambda_sequence(0.0, 1.0, 1e-4, 4)
        with pytest.raises(DomainError):
            lambda_sequence(0.3, 1.5, 1e-4, 4)
        with pytest.raises(DomainError):
            lambda_sequence(0.3, 1.0, 0.0, 4)
        with pytest.raises(DomainError):
            lambda_sequence(0.3, 1.0, 1e-4, 0)

    @pytest.mark.parametrize("omega, epsilon, n", [
        pytest.param(NEAR_HALF_PI, 1e-4, 1, id="pi/2-1e-60"),
        pytest.param(NEAR_HALF_PI_50, 1e-60, 2, id="pi/2-1e-50"),
    ])
    def test_near_half_pi_against_the_m_recurrence(self, omega, epsilon, n):
        # delta1 = cos(w) M_k / 2^(k-1) and M_{k+1} = M_k (1 + sqrt(1 - lam_k^2)), with
        # lam_k from the direct formula, at 3x the working digits; cos w -> 0 and W -> 1
        s = lambda_sequence(omega, 1.0, epsilon, n)
        assert len(s.lambdas) == n
        with mp.workdps(3 * _working_dps(n, DEFAULT_DPS)):
            c, sin, m = mp.cos(s.omega), mp.sin(s.omega), mp.mpf(1)
            for k, (d, got_m) in enumerate(zip(s.deltas, s.m_products), 1):
                assert abs(got_m / m - 1) < mp.mpf("1e-30"), k
                # delta1 and M_k share the relative error that lam_1 -> 1 gives M_2 and on;
                # delta1_1 = cos w has none of it
                tol = mp.mpf("1e-50") if k == 1 else mp.mpf("1e-30")
                assert abs(d.delta1 / (c * m / 2 ** (k - 1)) - 1) < tol, k
                lam = (1 + s.epsilon) * (2 ** (k - 1) - c * m) / (s.r * sin)
                m *= 1 + mp.sqrt(1 - lam**2)

    @pytest.mark.parametrize("omega", ["xyz", "", "0.1.2"])
    def test_malformed_omega_string(self, omega):
        with pytest.raises(DomainError, match=f"bad omega {omega!r}"):
            lambda_sequence(omega, 1, 1e-4, 3)


class TestInputRules:
    """``lambda_sequence`` and ``find_omega`` read r and epsilon as they read omega,
    and take only an integer count: neither a bare ValueError nor a truncated n."""

    @pytest.mark.parametrize(
        "r, epsilon, bad", [("abc", 1e-4, "r 'abc'"), (1, "1e-4x", "epsilon '1e-4x'"),
                            (None, 1e-4, "r None")],
        ids=["r-abc", "epsilon-1e-4x", "r-None"],
    )
    @pytest.mark.parametrize("search", [False, True], ids=["lambda_sequence", "find_omega"])
    def test_malformed_r_or_epsilon(self, search, r, epsilon, bad):
        with pytest.raises(DomainError, match=f"^bad {re.escape(bad)}$"):
            find_omega(3, r, epsilon) if search else lambda_sequence(0.1, r, epsilon, 3)

    @pytest.mark.parametrize("n", [2.7, 2.9, 3.0, "3", mp.mpf(3), True], ids=repr)
    @pytest.mark.parametrize("search", [False, True], ids=["lambda_sequence", "find_omega"])
    def test_count_is_not_truncated(self, search, n):
        # find_omega(2.9, ...) returned a 2-receiver schedule
        with pytest.raises(DomainError, match=f"^n {re.escape(repr(n))} is not an integer >= 1$"):
            find_omega(n, 1, 1e-3) if search else lambda_sequence(0.1, 1, 1e-4, n)

    @pytest.mark.parametrize("dps", [2.5, 0, -100, "50", True], ids=repr)
    def test_dps_is_a_count(self, dps):
        # dps=-100 returned an unproved, infeasible schedule cut at receiver 2
        with pytest.raises(DomainError, match=f"^dps {re.escape(repr(dps))} is not an integer >= 1$"):
            lambda_sequence(0.1, 1, 1e-4, 3, dps=dps)


class TestFindOmega:
    def test_quartic_boundary_location(self):
        s = find_omega(4, 1.0, 1e-4)
        w = s.omega
        assert float(w) == pytest.approx(0.031420810912, abs=1e-9)
        assert s.feasible and lambda_sequence(w, 1.0, 1e-4, 4) == s
        assert not lambda_sequence(float(w) + 1e-7, 1.0, 1e-4, 4).feasible

    def test_returned_point_always_feasible(self):
        for n in (1, 2, 3, 5, 6):
            s = find_omega(n, 1.0, 1e-4)
            assert s.feasible and s.n == n and len(s.lambdas) == n
            assert lambda_sequence(s.omega, 1.0, 1e-4, n).feasible

    def test_deep_sequences_exist(self):
        # feasible angles shrink doubly exponentially yet remain findable
        w10 = find_omega(10, 1.0, 1e-4).omega
        assert lambda_sequence(w10, 1.0, 1e-4, 10).feasible
        assert mp.mpf("1e-160") < w10 < mp.mpf("1e-140")
        s16 = find_omega(16, 1.0, 1e-4)
        assert s16.feasible and s16.omega < mp.mpf("1e-9000")
        assert lambda_sequence(s16.omega, 1.0, 1e-4, 16).feasible
        assert print_feasible_at_double_dps(s16.omega, 1.0, 1e-4, 16)

    @pytest.mark.parametrize(
        "n, exponent",
        [(20, -157_836), (32, -646_519_160), (64, -2_776_778_686_750_077_744)],
    )
    def test_deep_closed_form_is_certified(self, n, exponent):
        s = find_omega(n, 1.0, 1e-4)
        with mp.workdps(40):
            assert int(mp.floor(mp.log10(s.omega))) == exponent
        assert s.feasible
        assert print_feasible_at_double_dps(s.omega, 1.0, 1e-4, n)
        assert float(1 - s.lambdas[-1]) == pytest.approx(1e-25, rel=1e-3, abs=0)

    def test_precision_grows_with_n(self):
        # with dps 50 as the working precision at every n, 1 - lam_100 read
        # 5.5e-23 at dps 50 against 1.4e-22 at dps 100
        w = find_omega(100, 1.0, 1e-4).omega
        runs = [lambda_sequence(w, 1.0, 1e-4, 100, dps=d) for d in (50, 100)]
        gaps = [float(1 - s.lambdas[-1]) for s in runs]
        assert gaps[0] == pytest.approx(gaps[1], rel=1e-3, abs=0)
        assert gaps[1] == pytest.approx(1e-25, rel=1e-3, abs=0)
        # every lam keeps its 50 digits; without the n term of the working
        # precision they agreed only to 2e-32
        with mp.workdps(100):
            assert all(abs(a - b) <= mp.mpf("1e-50") * b for a, b in zip(*(s.lambdas for s in runs)))

    def test_domain_checks_name_the_bad_parameter(self):
        with pytest.raises(DomainError, match=r"^r -1\.0 outside"):
            find_omega(3, -1.0, 1e-4)
        with pytest.raises(DomainError, match="r 1.5 outside"):
            find_omega(3, 1.5, 1e-4)
        with pytest.raises(DomainError, match="epsilon must be > 0"):
            find_omega(3, 1.0, 0.0)
        with pytest.raises(DomainError, match="epsilon must be > 0"):
            find_omega(3, 1.0, -1e-4)

    def test_bisects_then_halves_the_lower_end(self, monkeypatch):
        # a first point 2.5 times too far out fails at receiver 1, so the search
        # bisects while the upper end has no value, then an Illinois step halves
        # the lower end's value; it lands where the unpatched search does
        want = find_omega(2, 0.7, 1e-3).omega
        c_n = seqrac.schedule.leading_coefficient_numeric
        monkeypatch.setattr(seqrac.schedule, "leading_coefficient_numeric",
                            lambda k, c1, prec: c_n(k, c1, prec) / 2.5)
        s = find_omega(2, 0.7, 1e-3)
        assert s.feasible and 1 - s.lambdas[-1] <= mp.mpf("1e-17")
        assert abs(s.omega - want) <= mp.mpf("1e-16") * want

    def test_exhausted_search_raises(self, monkeypatch):
        monkeypatch.setattr(seqrac.schedule, "MAX_EVALS", 1)
        with pytest.raises(SearchExhausted) as info:
            find_omega(5, 1.0, 1e-4)
        assert str(info.value) == "no certified omega for n=5 after 1 evaluations"

    def test_monotone_in_receiver_count(self):
        angles = [find_omega(n, 1.0, 1e-4).omega for n in (2, 3, 4, 5)]
        assert all(b < a for a, b in zip(angles, angles[1:]))

    def test_certified_on_seeded_grid(self):
        for n, r, eps in seeded_grid(64, seed=20261018):
            s = find_omega(n, r, eps)
            assert s.feasible and len(s.lambdas) == n, (n, r, eps)
            assert print_feasible_at_double_dps(s.omega, r, eps, n), (n, r, eps)

    def test_point_evaluations_per_search(self, monkeypatch):
        calls = []
        evaluate = seqrac.schedule.lambda_sequence

        def counting(*args, **kwargs):
            calls.append(evaluate(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(seqrac.schedule, "lambda_sequence", counting)
        for n, r, eps in seeded_grid(12, seed=7, repeats=3):
            calls.clear()
            s = find_omega(n, r, eps)
            assert s is calls[-1], (n, r, eps)  # the last evaluation decided
            if n <= 6:
                assert len(calls) <= 10, (n, r, eps, len(calls))
            elif n >= 8:
                assert len(calls) == 1, (n, r, eps, len(calls))


class TestCertificate:
    def test_rejects_points_past_the_boundary(self):
        assert lambda_sequence(0.03125, 1.0, 1e-4, 4).feasible
        assert not lambda_sequence(0.0315, 1.0, 1e-4, 4).feasible
        assert not lambda_sequence(1e-6, 1.0, 1e-4, 8).feasible

    def test_undecided_interval_rejects(self):
        # at 1 - lam_n = 1e-25 the interval straddles 1 unless the
        # precision covers the 25 digits of the gap
        w = find_omega(12, 1.0, 1e-4).omega
        assert lambda_sequence(w, 1.0, 1e-4, 12).feasible
        s = lambda_sequence(w, 1.0, 1e-4, 12, dps=5)
        assert not s.feasible and s.first_failure == 12

    def test_never_sets_interval_precision(self, monkeypatch):
        # the recurrence runs on int endpoint pairs, so the process-wide
        # mp.iv precision is never written, not even to be restored
        before = mp.iv.dps
        ctx = type(mp.iv)

        def refuse(_ctx, _value):
            raise AssertionError("lambda_sequence set the mp.iv precision")

        monkeypatch.setattr(ctx, "dps", property(ctx.dps.fget, refuse))
        monkeypatch.setattr(ctx, "prec", property(ctx.prec.fget, refuse))
        lambda_sequence(0.03125, 1.0, 1e-4, 4, dps=200)
        assert mp.iv.dps == before

        def broken(*args):
            raise RuntimeError("inside the recurrence")

        monkeypatch.setattr(seqrac.schedule, "DistinguishabilityPair", broken)
        with pytest.raises(RuntimeError, match="inside the recurrence"):
            lambda_sequence(0.03125, 1.0, 1e-4, 4, dps=200)
        assert mp.iv.dps == before

    def test_ambient_interval_precision_is_ignored(self, monkeypatch):
        want = lambda_sequence(0.03125, 1.0, 1e-4, 4)
        monkeypatch.setattr(mp.iv, "dps", 5)
        assert lambda_sequence(0.03125, 1.0, 1e-4, 4) == want


def reference_lambda_sequence(omega, r, epsilon, n, dps=DEFAULT_DPS):
    """The recurrence in operator-syntax ``mp.iv`` arithmetic, at the same
    working precision and in the same operation order as
    :func:`lambda_sequence`: the oracle that its int endpoint code must
    equal bit for bit."""
    with mp.workdps(_working_dps(n, dps)):
        omega, r, epsilon = (mp.mpf(x) for x in (omega, r, epsilon))
        iv = mp.iv
        lambdas, m_products, deltas, successes, margins = [], [], [], [], []
        first_failure = None
        saved, iv.dps = iv.dps, mp.mp.dps
        try:
            w, eps = iv.mpf(omega), iv.mpf(epsilon)
            s, c = iv.sin(w), iv.cos(w)
            rs = iv.mpf(r) * s  # r sin(omega)
            w_cur = s * s / (1 + c)  # 1 - cos(omega), stable
            delta1 = c
            inflate = 1 + eps
            for k in range(1, n + 1):
                delta2 = iv.ldexp(rs, 1 - k)
                lam = inflate * w_cur / delta2
                m_cur = iv.ldexp(delta1 / c, k - 1)
                lam_k, m_k, delta1_k, delta2_k, margin = (
                    mp.mpf(x.mid) for x in (lam, m_cur, delta1, delta2, eps * w_cur / 4)
                )
                lambdas.append(lam_k)
                m_products.append(m_k)
                deltas.append(DistinguishabilityPair(delta1_k, delta2_k))
                successes.append(mp.mpf(3) / 4 + margin)
                margins.append(margin)
                if not 0 < lam < 1:  # an undecided comparison gives None
                    first_failure = k
                    break
                lam_sq = lam * lam
                v = lam_sq / (1 + iv.sqrt(1 - lam_sq))
                t = delta1 * v / 2
                w_cur = w_cur + t
                # 1 - W does not cancel while W < 1/2; past it delta1 - t does not
                delta1 = 1 - w_cur if w_cur.b < 0.5 else delta1 - t
        finally:
            iv.dps = saved
        return Schedule(
            omega, r, epsilon, n, tuple(lambdas), tuple(m_products), tuple(deltas),
            tuple(successes), tuple(margins), first_failure is None, first_failure,
        )


def assert_same_schedule(got, want):
    for field in dataclasses.fields(Schedule):
        assert getattr(got, field.name) == getattr(want, field.name), field.name


def assert_inside_the_m_recurrence(got):
    """Each m_product lies in the mp.iv enclosure of M_{k+1} = M_k (2 - v), each delta1 in
    1 - W's and in cos(w) M_k / 2^(k-1)'s: the half-angle recurrence that carries M and no
    delta1 of its own, at the working precision less its guard digits, so that the pass's
    last-place rounding stays inside."""
    iv, n = mp.iv, got.n
    saved = iv.dps
    try:
        with mp.workdps(_working_dps(n, DEFAULT_DPS)):
            iv.dps = mp.mp.dps - GUARD_DIGITS
            w, r, eps = (iv.mpf(x) for x in (got.omega, got.r, got.epsilon))
            s = iv.sin(w / 2)
            w_cur, m_cur, rs, cos = 2 * s * s, iv.mpf(1), r * iv.sin(w), iv.cos(w)
            for k, (m, d) in enumerate(zip(got.m_products, got.deltas), 1):
                delta1 = 1 - w_cur
                assert m in m_cur, (n, k)
                assert d.delta1 in delta1, (n, k)
                assert d.delta1 in cos * iv.ldexp(m_cur, 1 - k), (n, k)
                if k == len(got.lambdas):  # the last receiver: its lam may exceed 1
                    break
                lam = (1 + eps) * w_cur / iv.ldexp(rs, 1 - k)
                v = lam * lam / (1 + iv.sqrt(1 - lam * lam))
                w_cur, m_cur = w_cur + delta1 * v / 2, m_cur * (2 - v)
    finally:
        iv.dps = saved


class TestReferenceOracle:
    """``lambda_sequence`` equals the ``mp.iv`` recurrence field for field, so
    a change in its int endpoint primitives or in mpmath's interval
    primitives shows here."""

    @pytest.mark.parametrize(
        "omega, n, dps",
        [("0.03125", 4, DEFAULT_DPS), ("0.0315", 4, DEFAULT_DPS), ("1e-6", 8, DEFAULT_DPS)]
        # past W = 1/2 delta1 is delta1 - t (at 1.25 inexact); near pi/2, W_1 -> 1 and delta1 -> 0
        + [(w, n, DEFAULT_DPS) for w in ("1.0", "1.25", "1.5", "1.5707963267948966", NEAR_HALF_PI)
           for n in (1, 3)],
    )
    def test_named_points(self, omega, n, dps):
        assert_same_schedule(
            lambda_sequence(omega, 1.0, 1e-4, n, dps=dps),
            reference_lambda_sequence(omega, 1.0, 1e-4, n, dps=dps),
        )

    def test_undecided_at_low_precision(self):
        w = find_omega(12, 1.0, 1e-4).omega
        got = lambda_sequence(w, 1.0, 1e-4, 12, dps=5)
        assert got.first_failure == 12
        assert_same_schedule(got, reference_lambda_sequence(w, 1.0, 1e-4, 12, dps=5))

    @pytest.mark.parametrize("n", [8, 16, 24, 64])
    def test_closed_form_first_points(self, n):
        # for n >= 8 find_omega's one evaluation is at its closed-form point
        for r, eps in ((1.0, 1e-4), (0.7, 1e-3)):
            s = find_omega(n, r, eps)
            assert s.feasible
            assert_same_schedule(s, reference_lambda_sequence(s.omega, r, eps, n))

    @pytest.mark.parametrize(
        "n_max, spread",
        [pytest.param(12, None, id="n1-12"), pytest.param(40, None, id="n1-40"),
         pytest.param(40, "1e-20", id="boundary-1e-20")],
    )
    def test_seeded_grid(self, n_max, spread):
        # with a spread, omega is find_omega's angle times 1 +- spread: just
        # above it lam_n passes 1, just below it is proved feasible
        rng = random.Random(20261018)
        drawn = []
        for _ in range(30):
            n, r, eps = rng.randint(1, n_max), rng.uniform(0.3, 1.0), 10 ** rng.uniform(-6, -2)
            omega = mp.mpf(10) ** rng.uniform(-40, -0.2)
            if spread:
                with mp.workdps(_working_dps(n, DEFAULT_DPS)):
                    side = rng.choice((-1, 1))
                    omega = find_omega(n, r, eps).omega * (1 + side * mp.mpf(spread))
            got = lambda_sequence(omega, r, eps, n)
            if spread:
                assert got.feasible == (side < 0), (n, r, eps, side)
            # success = 3/4 + margin is the Born form 1/2 + (delta1 + lam delta2)/4, which
            # needs delta1 + W = 1 to 2^-prec
            with mp.workdps(_working_dps(n, DEFAULT_DPS)):
                for lam, d, p in zip(got.lambdas, got.deltas, got.successes):
                    born = mp.mpf(1) / 2 + (d.delta1 + lam * d.delta2) / 4
                    assert abs(p - born) <= mp.ldexp(1, 2 - mp.mp.prec), (n, r, eps)
            assert_inside_the_m_recurrence(got)
            drawn.append((omega, r, eps, n, got))
        assert {got.feasible for *_, got in drawn} == {True, False}
        # then the oracle, which mirrors the pass, so that a fault shows first in a check that does not
        for omega, r, eps, n, got in drawn:
            assert_same_schedule(got, reference_lambda_sequence(omega, r, eps, n))


@st.composite
def endpoint_pairs(draw):
    """(prec, a, b) for the int endpoint primitives: signed mantissas of up to
    ``prec`` bits, zero, or ``2^prec`` (an upward rounding that carried), and
    exponent gaps up to about 11 million bits in either direction."""
    prec = draw(st.integers(2, 300))
    mantissa = st.one_of(st.integers(1, (1 << prec) - 1), st.sampled_from([0, 1 << prec]))
    sign = st.sampled_from([1, -1])
    gap = st.one_of(
        st.integers(-3 * prec, 3 * prec),
        st.sampled_from([prec + 4, prec + 5, -prec - 4, -prec - 5]),
        st.integers(-11_000_000, 11_000_000),
    )
    a = (draw(mantissa) * draw(sign), draw(st.integers(-400, 400)))
    return prec, a, (draw(mantissa) * draw(sign), a[1] + draw(gap))


@st.composite
def sticky_gap_pairs(draw):
    """(prec, a, b) whose top bits lie ``prec - 1`` to ``prec + 6`` bits apart,
    either one the larger: the gaps around ``_add``'s sticky cutoff.  Powers of
    two, all-ones and carried mantissas put the sum next to a binade's edge."""
    prec = draw(st.one_of(st.sampled_from([53, 100, 200]), st.integers(2, 300)))
    mantissa = st.one_of(
        st.integers(1, (1 << prec) - 1), st.sampled_from([1, (1 << prec) - 1, 1 << prec])
    )
    sign = st.sampled_from([1, -1])
    am, bm = draw(mantissa) * draw(sign), draw(mantissa) * draw(sign)
    ae = draw(st.integers(-400, 400))
    gap = draw(st.integers(prec - 1, prec + 6)) * draw(sign)
    return prec, (am, ae), (bm, ae + am.bit_length() - bm.bit_length() - gap)


class TestEndpointPrimitives:
    """Each int primitive equals the libmp operation that rounds the same way
    at the same precision, so the recurrence's endpoints are libmp's."""

    @given(endpoint_pairs())
    @settings(max_examples=400, deadline=None)
    @example((200, (1, 0), ((1 << 200) - 1, -11_000_000)))  # 1 - W_k, W_k ~ 2^-11e6
    @example((200, (1 << 200, -5), (3, 9_000_000)))  # carried, far below the other
    @example((53, (0, 7), (12345, -9)))  # zero operand
    def test_add_sub_mul_match_libmp(self, case):
        prec, a, b = case
        x, y = from_man_exp(*a), from_man_exp(*b)
        for up, rnd in ((False, round_floor), (True, round_ceiling)):
            assert from_man_exp(*_add(a, b, prec, up)) == mpf_add(x, y, prec, rnd)
            assert from_man_exp(*_sub(a, b, prec, up)) == mpf_sub(x, y, prec, rnd)
            assert from_man_exp(*_mul(a, b, prec, up)) == mpf_mul(x, y, prec, rnd)
        assert _mid(a, b, prec) == mpi_mid((x, y), prec)

    @given(sticky_gap_pairs())
    @settings(max_examples=600, deadline=None)
    # 1 less just over half the spacing below it: a sticky bit in its place
    # would round to nearest at 1, not at 1 - 2^-53
    @example((53, (1, 0), (-((1 << 53) - 1), -106)))
    @example((53, (-((1 << 53) - 1), -106), (1, 0)))
    def test_add_around_the_sticky_cutoff(self, case):
        prec, a, b = case
        x, y = from_man_exp(*a), from_man_exp(*b)
        for up, rnd in ((True, round_ceiling), (False, round_floor), (None, round_nearest)):
            assert from_man_exp(*_add(a, b, prec, up)) == mpf_add(x, y, prec, rnd)

    @given(endpoint_pairs())
    @settings(max_examples=400, deadline=None)
    @example((200, (1 << 200, 3), (1 << 200, -11_000_000)))  # carried operands
    @example((53, (0, 7), (12345, -9)))  # zero numerator and radicand
    def test_div_sqrt_match_libmp(self, case):
        prec, (am, ae), (bm, be) = case
        a, b = (abs(am), ae), (abs(bm) or 1, be)  # a >= 0 and b > 0
        x, y = from_man_exp(*a), from_man_exp(*b)
        for up, rnd in ((False, round_floor), (True, round_ceiling)):
            assert from_man_exp(*_div(a, b, prec, up)) == mpf_div(x, y, prec, rnd)
            assert from_man_exp(*_sqrt(a, prec, up)) == mpf_sqrt(x, prec, rnd)


def seeded_grid(n_max, seed, repeats=1):
    """(n, r, epsilon) for n = 1..n_max, r in [0.3, 1], epsilon log-uniform
    in [1e-6, 1e-2]."""
    rng = random.Random(seed)
    return [
        (n, rng.uniform(0.3, 1.0), 10 ** rng.uniform(-6, -2))
        for n in range(1, n_max + 1)
        for _ in range(repeats)
    ]


def print_feasible_at_double_dps(w, r, eps, n):
    """Whether the 30-digit print of ``w`` is feasible at twice the dps."""
    return lambda_sequence(mp.nstr(w, 30), r, eps, n, dps=2 * DEFAULT_DPS).feasible


def reference_search(n, r, epsilon):
    """find_omega's search in mpf arithmetic under ``mp.workdps``: the reference
    for its raw libmp steps, which must give the same bits."""
    with mp.workdps(_working_dps(n, DEFAULT_DPS)):
        r, epsilon = mp.mpf(r), mp.mpf(epsilon)
        target = 1 - mp.mpf(10) ** -seqrac.schedule.TARGET_DIGITS
        stop = mp.mpf(10) ** (8 - seqrac.schedule.TARGET_DIGITS)
        if n == 1:
            x = 2 * mp.atan(target * r / (1 + epsilon))
        else:
            x = target / leading_coefficient_numeric(n, (1 + epsilon) / (2 * r), mp.mp.prec)
        lo, hi, side = (mp.mpf(0), -target), (mp.pi / 2, None), 0
        while True:
            s = lambda_sequence(x, r, epsilon, n)
            full = len(s.lambdas) == n
            close = full and 0 < 1 - s.lambdas[-1] <= stop
            if close and s.feasible:
                return s.omega
            f = s.lambdas[-1] - target if full and not close else None
            if s.feasible:
                if side < 0 and hi[1] is not None:
                    hi = (hi[0], hi[1] / 2)
                lo, side = (x, f), -1
            else:
                if side > 0:
                    lo = (lo[0], lo[1] / 2)
                hi, side = (x, f), 1
            x = ((lo[0] + hi[0]) / 2 if hi[1] is None
                 else (lo[0] * hi[1] - hi[0] * lo[1]) / (hi[1] - lo[1]))


class TestScheduleStructure:
    def test_doubling_monotonicity(self):
        s = find_omega(6, 1.0, 1e-4)
        _, doubling, _ = feasibility_report(s)
        assert doubling

    def test_doubling_is_compared_exactly(self):
        # 2 lam_1 and lam_2 differ at 2^-200, far below the caller's mp.prec, which
        # 2 lam_1 was rounded to; lam_2 = 2 lam_1 is no doubling
        s = lambda_sequence(0.03125, 1.0, 1e-4, 2)
        for two_a, b, doubling in ((2**200 - 2, 2**200 - 1, True), (2**200 + 2, 2**200 + 1, False),
                                   (2**200, 2**200, False)):
            lams = mp.make_mpf(from_man_exp(two_a, -201)), mp.make_mpf(from_man_exp(b, -200))
            assert feasibility_report(dataclasses.replace(s, lambdas=lams))[1] is doubling

    def test_search_gives_the_bits_of_the_mpf_search(self):
        # n <= 7 take several evaluations, so the bisection and Illinois steps count too
        for n, r, eps in seeded_grid(9, seed=20261020, repeats=3):
            assert find_omega(n, r, eps).omega._mpf_ == reference_search(n, r, eps)._mpf_, (n, r, eps)

    def test_delta2_halves_each_step(self):
        s = lambda_sequence(0.03125, 1.0, 1e-4, 4)
        for a, b in zip(s.deltas, s.deltas[1:]):
            assert float(b.delta2) == pytest.approx(float(a.delta2) / 2.0, rel=1e-12)


class TestPrecisionIsAnArgument:
    """No result depends on mpmath's process-wide context, which any thread may set."""

    CALLS = ((lambda: _json(_schedule_payload(lambda_sequence("0.001", 0.9, 1e-3, 8))), 20),
             (lambda: _json(_schedule_payload(find_omega(6, 0.7, 1e-3))), 10),
             (lambda: leading_coefficient(30, 0.6)._mpf_, 20))

    def test_a_thread_entering_workdps_changes_no_result(self):
        want = [call() for call, _ in self.CALLS]
        done, interval, prec = threading.Event(), sys.getswitchinterval(), mp.mp.prec

        def meddle():
            while not done.is_set():
                with mp.workdps(8):
                    pass

        meddler = threading.Thread(target=meddle)
        sys.setswitchinterval(1e-6)
        meddler.start()
        try:
            got = [[call() for _ in range(count)] for call, count in self.CALLS]
        finally:
            done.set()
            meddler.join(timeout=10)
            sys.setswitchinterval(interval)
            mp.mp.prec = prec  # two threads' workdps blocks may restore each other's precision
        assert not meddler.is_alive()
        assert [sum(g != w for g in results) for w, results in zip(want, got)] == [0, 0, 0]
