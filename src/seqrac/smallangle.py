"""Exact-rational small-angle polynomials for the unsharpness sequence.

For opening angle ``omega -> 0`` the k-th unsharpness parameter behaves as
``lam_k ~ c_k * omega`` where ``c_k = 2^(k-1) * c1 * P_k(c1^2)`` with
``c1 = (1+eps)/(2r)``.  The polynomials obey the quadratic recurrence

    P_1 = 1,  P_k = P_{k-1} + 2^(2k-5) * x * P_{k-1}^2   (k >= 2),

so ``P_2 = 1 + x/2``; P_k has degree ``2^(k-1) - 1``, and expanding ``c_k``
in ``c1`` produces only odd powers.  Scaled by ``2^(k-1)`` the polynomials
have nonnegative integer coefficients,

    Q_1 = 1,  Q_k = 2*Q_{k-1} + 2^(k-2) * x * Q_{k-1}^2   (k >= 2),

and Q_k's coefficients are those of the odd-power expansion of ``c_k``.  Q_k
carries a factor 2^(i-k+1) in coefficient i that each squaring would multiply
through; with ``P_k(x) = T_k(2x) / 4^(k-1)`` the recurrence sheds it,

    T_1 = 1,  T_k = 4*T_{k-1} + y * T_{k-1}^2   (k >= 2),

whose largest coefficient is about a quarter shorter (707 bits against 959
at k = 10).  The exact tables are built on T_k, squaring by Kronecker
substitution: the coefficients are packed into one number, which is squared
once and sliced back into coefficients.  Below ``NTT_BYTES`` packed bytes the
number is a Python int in byte slots, squared by CPython's Karatsuba; from
there on, at T_9 -> T_10 and later steps, it is a ``decimal.Decimal`` in
decimal-digit slots, squared by libmpdec's number-theoretic transform in a
context that traps any rounding, so the product is exact.  Both give the same
ints.  Q_k's coefficients are then ``q_i = t_i * 2^(i-k+1)``, an exact shift.
``odd_power_expansion`` owns that table and ``small_angle_poly`` divides it by
``2^(k-1)``; each is built once per call, and nothing is cached.  Numeric
values of ``c_k`` and of the opening-angle estimate come from the O(k) value
recurrence, in raw libmp operations, and build no polynomial.  mpmath,
``fractions`` and ``decimal`` are imported on first use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, check_count, check_r, read, real

# On one shared Xeon core, in process, P_12 builds in 0.09-0.15 s and P_13 in
# 0.44-0.62 s; from k = 14 on the numerators pass Python's 4300-digit int->str limit.
POLY_CAP = 12

# Packed size in bytes from which ``_kronecker_square`` squares in decimal slots.
# On one Xeon core, squaring random polynomials of 64 to 512 coefficients in
# decimal took 0.53-0.97 times as long as in bytes from 21,500 to 48,000 bytes,
# and 0.7-2.2 times from 3,500 to 20,000, where the two trade places as
# libmpdec's transform length steps.  T_8 packs into 5,760 bytes, T_9 into 23,040.
NTT_BYTES = 20_000


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, index = power of x."""

    coefficients: tuple[Fraction, ...]

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        from fractions import Fraction

        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return RationalPolynomial(tuple(out))


def _kronecker_square(coeffs: list[int]) -> list[int]:
    """Square of the polynomial with nonnegative integer ``coeffs``, by Kronecker substitution.

    Each coefficient gets a fixed-width slot of one packed number, wide enough to
    hold any coefficient of the square (a sum of at most ``len(coeffs)``
    products), so the slots of the squared number are the squared polynomial's
    coefficients.  Below ``NTT_BYTES`` packed bytes the slots are whole bytes of
    a Python int, which CPython squares by Karatsuba (``_square_in_bytes``); from
    there on they are decimal digits of a ``decimal.Decimal``, which libmpdec
    squares by number-theoretic transform (``_square_in_decimal``).  Both return
    the same ints.
    """
    if len(coeffs) * _byte_slot(coeffs) < NTT_BYTES:
        return _square_in_bytes(coeffs)
    return _square_in_decimal(coeffs)


def _byte_slot(coeffs: list[int]) -> int:
    """Whole bytes that hold any coefficient of the square of ``coeffs``."""
    return -(-(2 * max(coeffs).bit_length() + len(coeffs).bit_length()) // 8)


def _square_in_bytes(coeffs: list[int]) -> list[int]:
    """``_kronecker_square`` in byte slots of a Python int.

    Packing and unpacking go through bytes: shifting and masking the product
    slot by slot would take quadratic time.
    """
    n, width = len(coeffs), _byte_slot(coeffs)
    packed = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in coeffs), "little")
    data = (packed * packed).to_bytes(width * (2 * n - 1), "little")
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def _square_in_decimal(coeffs: list[int]) -> list[int]:
    """``_kronecker_square`` in decimal-digit slots of a ``decimal.Decimal``.

    A coefficient below 10^d squares below 10^(2d), and ``len(coeffs)`` such
    products sum below 10^(2d + digits of len(coeffs)): that is the slot width.
    The slots are the coefficients' zero-padded decimal strings, highest power
    first, and the product's string is cut back into them.  The context's
    precision is MAX_PREC and its Inexact and Rounded signals are traps, so the
    product is exact or the call raises; the Decimal constructor never rounds.
    """
    import decimal

    n = len(coeffs)
    digits = [str(c) for c in coeffs]
    width = 2 * max(map(len, digits)) + len(str(n))
    packed = decimal.Decimal("".join([s.zfill(width) for s in reversed(digits)]))
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                            traps=[decimal.Inexact, decimal.Rounded])
    square = str(exact.multiply(packed, packed)).zfill(width * (2 * n - 1))
    return [int(square[i - width:i]) for i in range(len(square), 0, -width)]


def odd_power_expansion(k: int) -> tuple[int, ...]:
    """Integer coefficients of ``c_k`` on the odd powers ``c1^1, c1^3, ...``.

    These are Q_k's, ``2^(k-1)`` times the P_k coefficients, read off T_k as
    ``t_i * 2^(i-k+1)``; every even power of ``c1`` has coefficient zero exactly.
    """
    k = check_count(k, "order")
    if k > POLY_CAP:
        raise DomainError(f"polynomial order {k} outside [1, {POLY_CAP}]")
    t = [1]
    for _ in range(k - 1):
        nxt = [0] + _kronecker_square(t)
        for i, c in enumerate(t):
            nxt[i] += c << 2
        t = nxt
    return tuple((c << i) >> (k - 1) for i, c in enumerate(t))


def small_angle_poly(k: int) -> RationalPolynomial:
    """The exact polynomial P_k of the quadratic recurrence: Q_k over ``2^(k-1)``, its length."""
    from fractions import Fraction

    q = odd_power_expansion(k)
    return RationalPolynomial(tuple(Fraction(c, len(q)) for c in q))


def _float_if_normal(value):
    """``value`` as a float when that is a normal double, else unchanged."""
    f = float(value)
    return f if math.isfinite(f) and abs(f) >= sys.float_info.min else value


def leading_coefficient(k: int, c1: float):
    """``c_k = 2^(k-1) * c1 * P_k(c1^2)`` from the value recurrence at 40 digits.

    Returns a float when it is a normal double, otherwise an mpmath value
    (the coefficients grow doubly exponentially in k).
    """
    from mpmath.libmp import dps_to_prec

    return _float_if_normal(leading_coefficient_numeric(k, c1, dps_to_prec(40)))


def leading_coefficient_numeric(k: int, c1, prec=None) -> mp.mpf:
    """Numeric ``c_k`` via the value recurrence at ``prec`` bits; no order cap.

    ``c1`` is read at ``prec`` too, rounded to nearest; ``prec`` None is the
    caller's ``mp.prec``.  Used to bracket feasible opening angles for large
    receiver counts, where the exact polynomial would be astronomically large.
    """
    import mpmath as mp
    from mpmath.libmp import fone, mpf_add, mpf_mul, mpf_shift, round_nearest as rn

    k, prec = check_count(k, "order"), mp.mp.prec if prec is None else check_count(prec, "prec")
    c1 = read("c1", c1, lambda v: mp.mpf(real(v), prec=prec, rounding="n"))
    if not 0 < c1 < mp.inf:  # nan and +inf fail too, instead of returning themselves
        raise DomainError(f"c1 must be positive and finite, not {c1}")
    # raw libmp calls at prec, rounded to nearest, in the operation order of
    # p = p + 2^(2j-5) * x * p * p, with the powers of two exact shifts
    x = mpf_mul(c1._mpf_, c1._mpf_, prec, rn)
    p = fone  # P_1
    for j in range(2, k + 1):
        t = mpf_mul(mpf_mul(mpf_shift(x, 2 * j - 5), p, prec, rn), p, prec, rn)
        p = mpf_add(p, t, prec, rn)
    return mp.make_mpf(mpf_mul(mpf_shift(c1._mpf_, k - 1), p, prec, rn))


def omega_estimate(k: int, r: float, epsilon: float):
    """First-order estimate of the largest workable opening angle.

    Inverts ``lam_k ~ c_k * omega = 1`` with ``c_k`` linearised in
    ``epsilon`` about ``c0 = 1/(2r)``: ``1 / (c_k(c0) + eps*c0*c_k'(c0))``,
    with the derivative carried through the value recurrence in forward
    mode.  For k=4, r=1 this is the closed form
    ``2048/(85*(765 + 3347*eps))``.  Returns a float when it is a normal
    double, otherwise an mpmath value.
    """
    import mpmath as mp
    from mpmath.libmp import dps_to_prec, fhalf, fone, from_float, from_int, fzero
    from mpmath.libmp import mpf_add, mpf_div, mpf_mul, mpf_shift, round_nearest

    k = check_count(k, "order")
    r, epsilon = check_r(read("r", r, real)), read("epsilon", epsilon, real)
    if not 0 <= epsilon < math.inf:  # also rejects nan
        raise DomainError(f"epsilon {epsilon} must be finite and >= 0")
    # an mpf keeps its bits and an int is exact, as mpf arithmetic takes them; any
    # other real number is read as its nearest double
    r, epsilon = (v._mpf_ if isinstance(v, mp.mpf) else from_int(v) if isinstance(v, int)
                  else from_float(float(v)) for v in (r, epsilon))
    # raw libmp calls at 40 digits, rounded to nearest, giving the bits of the mpf loop
    # c = 1/2 / r; p, dp = p + s*x*p*p, dp + s*(dx*p*p + 2*x*p*dp) with s = 2^(2j-5);
    # 1 / (2^(k-1)*c*p + eps*c*(2^(k-1)*(p + c*dp))): a power of two is an exact shift,
    # taken before or after a rounding alike, so s*x*p and 2*x*p share the product x*p
    prec, rn = dps_to_prec(40), round_nearest
    c = mpf_div(fhalf, r, prec, rn)
    x, dx = mpf_mul(c, c, prec, rn), mpf_shift(c, 1)
    p, dp = fone, fzero
    for j in range(2, k + 1):
        xp = mpf_mul(x, p, prec, rn)
        dxpp = mpf_mul(mpf_mul(dx, p, prec, rn), p, prec, rn)
        dsum = mpf_add(dxpp, mpf_shift(mpf_mul(xp, dp, prec, rn), 1), prec, rn)
        p, dp = (mpf_add(p, mpf_shift(mpf_mul(xp, p, prec, rn), 2 * j - 5), prec, rn),
                 mpf_add(dp, mpf_shift(dsum, 2 * j - 5), prec, rn))
    ck = mpf_mul(mpf_shift(c, k - 1), p, prec, rn)
    dck = mpf_shift(mpf_add(p, mpf_mul(c, dp, prec, rn), prec, rn), k - 1)
    den = mpf_add(ck, mpf_mul(mpf_mul(epsilon, c, prec, rn), dck, prec, rn), prec, rn)
    return _float_if_normal(mp.make_mpf(mpf_div(fone, den, prec, rn)))
