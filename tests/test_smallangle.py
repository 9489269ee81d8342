"""Exact-rational polynomial recurrence and the small-angle estimate."""

import math
import random
import re
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath.libmp import dps_to_prec

from seqrac import (
    DomainError,
    RationalPolynomial,
    lambda_sequence,
    leading_coefficient,
    odd_power_expansion,
    omega_estimate,
    small_angle_poly,
)
from seqrac.schedule import DEFAULT_DPS, _working_dps
from seqrac.smallangle import POLY_CAP, _float_if_normal, leading_coefficient_numeric

F = Fraction
PREC_40 = dps_to_prec(40)
# Units of 2^-prec, relative, that the closed form may lie from its oracle.  sinh and cosh
# come within 2^-(prec+19) of exact before their rounding to nearest, and libmp's own
# error is below 2^-(prec+10), so each is off by at most 1.01 units; each later rounding
# adds 1.  c_k = 2*sinh^2/(N*c1): 2*1.01 + 1 + 1 <= 5.  The estimate, for eps <= 1, adds
# two positive terms: (1 - eps)*c_k, 1 + 4.02 + 1 = 6.02, and eps*4*sinh*cosh/sqrt(2 + c0^2),
# 3.02 for sinh*cosh, 2 for the root, 1 for their quotient and 1 for eps: 7.02; the sum
# and the reciprocal give 7.02 + 1 + 1 <= 10.
C_K_ULPS, ESTIMATE_ULPS = 5, 10


def assert_close(got, want, ulps, prec, *where):
    """``got`` within ``ulps`` units of 2^-prec of ``want``, relative, plus a double's own
    rounding (2^-53) when it came back as a float."""
    with mp.workprec(prec + 64):
        err = abs(mp.mpf(got) / want - 1)
        bound = ulps * mp.ldexp(1, -prec) + (mp.ldexp(1, -53) if isinstance(got, float) else 0)
        assert err <= bound, (got, want, err / mp.ldexp(1, -prec), *where)


def mpf_loop_coefficient(k, c1):
    """c_k from the value recurrence in high-level mpf arithmetic at the caller's precision:
    the oracle for :func:`leading_coefficient_numeric`'s closed form.  A rounding at step j
    reaches c_k amplified up to 2^(k-j), so run it at k + 200 bits above the closed form's."""
    x = c1 * c1
    p = mp.mpf(1)
    for j in range(2, k + 1):
        p = p + mp.mpf(2) ** (2 * j - 5) * x * p * p
    return 2 ** (k - 1) * c1 * p


def mpf_loop_estimate(k, r, epsilon):
    """omega_estimate's value from the value recurrence, its epsilon-derivative in forward
    mode, in high-level mpf arithmetic: the oracle for its closed form.  c0 = 1/(2r) is
    rounded to 40 digits, as omega_estimate reads it, since c_k moves up to 2^k times as
    much; the rest runs at k + 200 bits more."""
    with mp.workdps(40):
        c = mp.mpf(0.5) / r
    with mp.workprec(PREC_40 + k + 200):
        x, dx = c * c, 2 * c
        p, dp = mp.mpf(1), mp.mpf(0)
        for j in range(2, k + 1):
            s = mp.mpf(2) ** (2 * j - 5)
            p, dp = p + s * x * p * p, dp + s * (dx * p * p + 2 * x * p * dp)
        scale = mp.mpf(2) ** (k - 1)
        ck, dck = scale * c * p, scale * (p + c * dp)
        return 1 / (ck + epsilon * c * dck)


def schoolbook_square(coeffs):
    out = [0] * (2 * len(coeffs) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs):
            out[i + j] += a * b
    return out


def kronecker_square(coeffs):
    """Square of the polynomial with nonnegative integer ``coeffs`` by Kronecker substitution:
    each coefficient gets a byte slot of one packed int, wide enough for any coefficient of
    the square (a sum of at most ``len(coeffs)`` products), and the square's slots are read back."""
    n = len(coeffs)
    width = -(-(2 * max(coeffs).bit_length() + n.bit_length()) // 8)
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")
    data = (packed * packed).to_bytes(width * (2 * n - 1), "little")
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def q_recurrence_table(k):
    """Q_k from its own recurrence Q_k = 2*Q_{k-1} + 2^(k-2) * x * Q_{k-1}^2:
    the oracle for the tables, which are T_k's closed form."""
    q = [1]
    for j in range(2, k + 1):
        nxt = [0] + [c << (j - 2) for c in kronecker_square(q)]
        for i, c in enumerate(q):
            nxt[i] += c << 1
        q = nxt
    return q


def t_recurrence_table(k):
    """T_1 = 1, T_k = 4*T_{k-1} + y*T_{k-1}^2, squared by the schoolbook."""
    t = [1]
    for _ in range(k - 1):
        nxt = [0] + schoolbook_square(t)
        for i, c in enumerate(t):
            nxt[i] += 4 * c
        t = nxt
    return t


class TestRationalPolynomial:
    def test_ring_operations(self):
        p = RationalPolynomial((F(1), F(2)))
        q = RationalPolynomial((F(3), F(0), F(1)))
        assert (p * q).coefficients == (F(3), F(6), F(1), F(2))


class TestRecurrence:
    @pytest.mark.parametrize("k", [2.7, 3.0, "3", True], ids=repr)
    @pytest.mark.parametrize(
        "call",
        [small_angle_poly, odd_power_expansion, lambda k: leading_coefficient(k, 0.5),
         lambda k: leading_coefficient_numeric(k, 0.5, 53), lambda k: omega_estimate(k, 1.0, 1e-4)],
        ids=["small_angle_poly", "odd_power_expansion", "leading_coefficient",
             "leading_coefficient_numeric", "omega_estimate"],
    )
    def test_order_is_not_truncated(self, call, k):
        # small_angle_poly(2.7) returned P_2
        with pytest.raises(DomainError, match=f"^order {re.escape(repr(k))} is not an integer >= 1$"):
            call(k)

    @pytest.mark.parametrize("k", range(1, POLY_CAP + 1))
    def test_table_matches_q_recurrence(self, k):
        assert odd_power_expansion(k) == tuple(q_recurrence_table(k))

    def test_power_of_two_free_polynomial(self):
        # T_2 = 4 + y gives P_2(x) = T_2(2x)/4 = 1 + x/2
        assert t_recurrence_table(2) == [4, 1]
        for k in range(1, 8):
            # P_k(x) = T_k(2x) / 4^(k-1), coefficient by coefficient
            want = [F(c << i, 4 ** (k - 1)) for i, c in enumerate(t_recurrence_table(k))]
            assert list(small_angle_poly(k).coefficients) == want

    def test_first_polynomials_exact(self):
        assert small_angle_poly(1).coefficients == (F(1),)
        assert small_angle_poly(2).coefficients == (F(1), F(1, 2))
        # P3 = P2 + 2*x*P2^2
        assert small_angle_poly(3).coefficients == (
            F(1), F(5, 2), F(2), F(1, 2),
        )
        assert small_angle_poly(4).coefficients == (
            F(1), F(21, 2), F(42), F(165, 2), F(88), F(52), F(16), F(2),
        )

    def test_degree_growth(self):
        for k in range(1, 9):
            assert len(small_angle_poly(k).coefficients) == 2 ** (k - 1)

    def test_matches_rational_product_recurrence(self):
        # P_k = P_{k-1} + 2^(2k-5) * x * P_{k-1}^2, squared with __mul__
        p = RationalPolynomial((F(1),))
        for k in range(1, 9):
            if k > 1:
                coeffs = [F(0)] + [F(2) ** (2 * k - 5) * c for c in (p * p).coefficients]
                for i, c in enumerate(p.coefficients):
                    coeffs[i] += c
                p = RationalPolynomial(tuple(coeffs))
            assert small_angle_poly(k).coefficients == p.coefficients

    def test_order_cap(self):
        with pytest.raises(DomainError):
            small_angle_poly(0)
        with pytest.raises(DomainError):
            small_angle_poly(POLY_CAP + 1)


class TestOddPowerExpansion:
    def test_reference_integer_tables(self):
        assert odd_power_expansion(2) == (F(2), F(1))
        assert odd_power_expansion(3) == (F(4), F(10), F(8), F(2))
        assert odd_power_expansion(4) == (
            F(8), F(84), F(336), F(660), F(704), F(416), F(128), F(16),
        )

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_plain_ints_scaling_the_poly(self, k):
        expansion = odd_power_expansion(k)
        assert {type(b) for b in expansion} == {int}
        assert [F(b, 2 ** (k - 1)) for b in expansion] == list(small_angle_poly(k).coefficients)

    def test_leading_coefficient_consistent_with_expansion(self):
        c1 = 0.37
        val = sum(float(b) * c1 ** (2 * n + 1) for n, b in enumerate(odd_power_expansion(4)))
        assert leading_coefficient(4, c1) == pytest.approx(val, rel=1e-13)

    def test_unit_values(self):
        assert leading_coefficient(1, 1.0) == pytest.approx(2 ** 0 * 1.0)
        assert leading_coefficient(2, 1.0) == pytest.approx(3.0)

    def test_numeric_recurrence_matches_exact(self):
        for k in range(1, 9):
            # c_k = 2^(k-1) * c1 * P_k(c1^2) in exact rationals at c1 = 1/2
            p_k = sum(c * F(1, 4) ** i for i, c in enumerate(small_angle_poly(k).coefficients))
            exact = float(2 ** (k - 1) * F(1, 2) * p_k)
            assert leading_coefficient(k, 0.5) == pytest.approx(exact, rel=1e-15)
            numeric = leading_coefficient_numeric(k, mp.mpf("0.5"), 53)
            assert float(numeric) == pytest.approx(exact, rel=1e-12)

    def test_numeric_recurrence_matches_mpf_loop(self):
        # the closed form at find_omega's working precision, the c_n of its first point,
        # is within C_K_ULPS of the value recurrence run at n + 200 bits more
        rng = random.Random(20261018)
        for _ in range(300):
            n, r, eps = rng.randint(1, 70), rng.uniform(0.3, 1.0), 10 ** rng.uniform(-6, -2)
            prec = dps_to_prec(_working_dps(n, DEFAULT_DPS))
            with mp.workprec(prec):
                c1 = (1 + mp.mpf(eps)) / (2 * mp.mpf(r))
            got = leading_coefficient_numeric(n, c1, prec)
            with mp.workprec(prec + n + 200):
                assert_close(got, mpf_loop_coefficient(n, c1), C_K_ULPS, prec, n, r, eps)

    def test_precision_is_an_argument(self):
        # leading_coefficient works at 40 digits, and prec sets the bits, not mp.prec,
        # which stays at 53 here: a 53-bit result would miss the bound by 2^80
        rng = random.Random(20261020)
        for _ in range(100):
            k, c1 = rng.randint(16, 40), rng.uniform(0.5, 1.5)
            with mp.workprec(PREC_40 + k + 200):
                want = mpf_loop_coefficient(k, mp.mpf(c1))
            assert_close(leading_coefficient(k, c1), want, C_K_ULPS, PREC_40, k, c1)
            assert_close(leading_coefficient_numeric(k, c1, PREC_40), want, C_K_ULPS, PREC_40, k, c1)

    @pytest.mark.parametrize("c1", [1e-6, 0.5005, 0.6, 1.3, 50.0])
    def test_high_order_at_40_digits(self, c1):
        # at find_omega's precision, which carries n*log10(2) digits of its own, the
        # guard's k term could go unseen; at 40 digits k = 200 needs it
        for k in (1, 2, 3, 7, 20, 64, 130, 200):
            with mp.workprec(PREC_40 + k + 200):
                want = mpf_loop_coefficient(k, mp.mpf(c1))
            assert_close(leading_coefficient(k, c1), want, C_K_ULPS, PREC_40, k)

    def test_float_for_the_least_normal_double(self):
        # the smallest normal double is one; only a subnormal one stays an mpf
        assert type(_float_if_normal(mp.mpf(sys.float_info.min))) is float
        assert type(_float_if_normal(mp.mpf(sys.float_info.min) / 2)) is mp.mpf

    def test_numeric_recurrence_has_no_cap(self):
        # doubly exponential growth: far beyond double range, still finite
        big = leading_coefficient_numeric(16, mp.mpf("0.50005"), 53)
        assert big > mp.mpf("1e9000")
        assert leading_coefficient(16, 0.50005) > mp.mpf("1e9000")
        with pytest.raises(DomainError):
            leading_coefficient(0, 0.5)
        for c1 in (math.nan, math.inf):  # these used to return nan and +inf
            with pytest.raises(DomainError, match="c1 must be positive and finite"):
                leading_coefficient(4, c1)

    def test_numeric_recurrence_domain_checks(self):
        with pytest.raises(DomainError, match="order 0"):
            leading_coefficient_numeric(0, 0.5, 53)
        for c1 in ("abc", None):  # "abc" raised a bare ValueError from mpmath
            with pytest.raises(DomainError, match=f"^bad c1 {re.escape(repr(c1))}$"):
                leading_coefficient(3, c1)
        for c1 in (-0.5, 0.0):
            with pytest.raises(DomainError, match="c1 must be positive"):
                leading_coefficient_numeric(3, c1, 53)
        for prec in (-5, 0, 2.5, "64", True):  # -5 ran without end
            with pytest.raises(DomainError, match=f"^prec {re.escape(repr(prec))} is not an integer"):
                leading_coefficient_numeric(3, 0.5, prec)


class TestOmegaEstimate:
    def test_reduces_to_quartic_closed_form(self):
        eps = 1e-4
        want = 2048.0 / (85.0 * (765.0 + 3347.0 * eps))
        assert omega_estimate(4, 1.0, eps) == pytest.approx(want, rel=1e-9)
        assert omega_estimate(4, 1.0, eps) == pytest.approx(0.0315, abs=5e-4)

    def test_matches_exact_inverse_coefficient(self):
        # the epsilon-linearised estimate tracks 1/c_k to first order
        eps = 1e-4
        exact = 1.0 / leading_coefficient(4, (1.0 + eps) / 2.0)
        assert omega_estimate(4, 1.0, eps) == pytest.approx(exact, rel=1e-6)

    def test_zero_epsilon_is_exact_inverse(self):
        for k in (2, 3, 4, 5):
            want = 1.0 / leading_coefficient(k, 0.5)
            assert omega_estimate(k, 1.0, 0.0) == pytest.approx(want, rel=1e-12)

    def test_underflow_returns_arbitrary_precision(self):
        k, r, eps = 10, 0.35, 1e-2
        est = omega_estimate(k, r, eps)
        # reference: the odd-power expansion of c_k, linearised in eps
        with mp.workdps(60):
            c0, e = 1 / (2 * mp.mpf(r)), mp.mpf(eps)
            den = sum(
                mp.mpf(b.numerator) * (1 + (2 * n + 1) * e) * c0 ** (2 * n + 1)
                for n, b in enumerate(odd_power_expansion(k))
            )
            assert isinstance(est, mp.mpf) and est > 0
            assert abs(est * den - 1) < 1e-9

    def test_no_order_cap(self):
        est = omega_estimate(POLY_CAP + 4, 1.0, 1e-4)
        assert isinstance(est, mp.mpf) and 0 < est < mp.mpf("1e-1000")

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            omega_estimate(0, 1.0, 1e-4)
        with pytest.raises(DomainError):
            omega_estimate(4, 0.0, 1e-4)
        with pytest.raises(DomainError):
            omega_estimate(4, 1.0, -1e-4)
        # nan returned nan and inf returned 0.0, both silently
        with pytest.raises(DomainError, match="epsilon nan must be finite"):
            omega_estimate(8, 0.5, math.nan)
        with pytest.raises(DomainError, match="epsilon inf must be finite"):
            omega_estimate(8, 0.5, math.inf)

    @pytest.mark.parametrize(
        "r, epsilon, bad", [("0.5", 1e-3, "r '0.5'"), (1, "x", "epsilon 'x'"), (None, 1e-3, "r None")],
        ids=["r-text", "epsilon-text", "r-None"],
    )
    def test_malformed_r_or_epsilon(self, r, epsilon, bad):
        # these raised a bare TypeError from the comparisons; the numeric
        # paths take numbers, not decimal strings
        with pytest.raises(DomainError, match=f"^bad {re.escape(bad)}$"):
            omega_estimate(4, r, epsilon)

    @pytest.mark.parametrize("k, r, eps, estimate, c_k", [
        (4, 1.0, 1e-4, "0.03148180481958916", "2352.0"),
        (6, 0.8, 1e-3, "4.7425813763362754e-11", "18928548714278.496"),
        (10, 0.35, 1e-2, "mpf('1.2619174609963105e-393')", "2.59384904492932e+106"),
    ])
    def test_double_and_its_mpf_give_the_same_bits(self, k, r, eps, estimate, c_k):
        for conv in (float, mp.mpf):
            assert repr(omega_estimate(k, conv(r), conv(eps))) == estimate
            assert repr(leading_coefficient(k, conv(r))) == c_k

    def test_closed_form_matches_the_mpf_loop(self):
        # k up to 16 reaches estimates far below the doubles, which come back as mpfs
        # with all 136 bits; an mpf r or epsilon keeps its bits, also past 40 digits
        rng = random.Random(20261020)
        underflowed = 0
        for _ in range(600):
            k, r, eps = rng.randint(1, 16), rng.uniform(0.2, 1.0), 10 ** rng.uniform(-12, 0)
            for r, eps in ((r, eps), (mp.mpf(r) / 3, mp.mpf(eps) / 7)):
                got = omega_estimate(k, r, eps)
                underflowed += isinstance(got, mp.mpf)
                assert_close(got, mpf_loop_estimate(k, r, eps), ESTIMATE_ULPS, PREC_40, k, r, eps)
        with mp.workdps(60):
            r, eps = mp.mpf(1) / 3, mp.mpf(1) / 7000
        assert_close(omega_estimate(14, r, eps), mpf_loop_estimate(14, r, eps), ESTIMATE_ULPS, PREC_40)
        assert underflowed > 300

    def test_reading_keeps_every_bit_of_an_mpf(self):
        # r, epsilon and c1 are not rounded to doubles on the way in: at 40 digits,
        # 0.35 and 1e-2 give results within the bound of the oracle at those values,
        # and about 2^-44 away, relative, from what their nearest doubles give
        with mp.workdps(40):
            r, eps = mp.mpf("0.35"), mp.mpf("1e-2")
        est = omega_estimate(10, r, eps)
        assert_close(est, mpf_loop_estimate(10, r, eps), ESTIMATE_ULPS, PREC_40)
        assert abs(est / omega_estimate(10, 0.35, 1e-2) - 1) > mp.mpf(2) ** -60
        c_10 = leading_coefficient(10, r)
        with mp.workprec(PREC_40 + 210):
            assert_close(c_10, mpf_loop_coefficient(10, r), C_K_ULPS, PREC_40)
        assert c_10 != leading_coefficient(10, 0.35)


class TestSmallAngleConsistency:
    # lam_k = c_k*omega*(1 + g_k*omega^2 + ...); the measured second-order
    # constants g_k are ~0.08, 0.06, 0.06, 2.0, 248, 4.6e6 for k = 1..6,
    # growing with c_k^2, so a fixed multiple of omega^2 only bounds the
    # error for small k
    @pytest.mark.parametrize("omega", [1e-3, 1e-4])
    def test_recursion_approaches_polynomial_prediction(self, omega):
        s = lambda_sequence(omega, 1.0, 1e-12, 6)
        for k in range(1, 5):
            c_k = leading_coefficient(k, 0.5)
            lam = float(s.lambdas[k - 1])
            rel = abs(lam - c_k * omega) / (c_k * omega)
            assert rel < 5.0 * omega * omega

    def test_second_order_constant_growth(self):
        omega = 1e-4
        s = lambda_sequence(omega, 1.0, 1e-12, 6)
        constants = []
        for k in range(1, 6):
            c_k = leading_coefficient(k, 0.5)
            lam = float(s.lambdas[k - 1])
            constants.append(abs(lam - c_k * omega) / (c_k * omega) / omega**2)
        assert constants[3] == pytest.approx(1.95, rel=0.05)
        assert constants[4] == pytest.approx(248.0, rel=0.05)

    def test_fifth_receiver_leaves_unit_interval_at_milli_angle(self):
        # c_5 ~ 4095, so omega=1e-3 already pushes lam_5 above 1 and the
        # recursion truncates there: lam_6 is undefined, not just inaccurate
        s = lambda_sequence(1e-3, 1.0, 1e-12, 6)
        assert not s.feasible
        assert s.first_failure == 5
        assert len(s.lambdas) == 5
        assert float(s.lambdas[4]) > 4.0
