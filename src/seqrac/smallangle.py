"""Exact-rational small-angle polynomials for the unsharpness sequence.

For opening angle ``omega -> 0`` the k-th unsharpness parameter behaves as
``lam_k ~ c_k * omega`` where ``c_k = 2^(k-1) * c1 * P_k(c1^2)`` with
``c1 = (1+eps)/(2r)``.  The polynomials obey the quadratic recurrence

    P_1 = 1,  P_k = P_{k-1} + 2^(2k-5) * x * P_{k-1}^2   (k >= 2),

so ``P_2 = 1 + x/2``; P_k has degree ``2^(k-1) - 1``, and expanding ``c_k``
in ``c1`` produces only odd powers.  Scaled by ``2^(k-1)`` the polynomials
have nonnegative integer coefficients, Q_k's, which are those of the
odd-power expansion of ``c_k``.  With ``P_k(x) = T_k(2x) / 4^(k-1)``,

    T_1 = 1,  T_k = 4*T_{k-1} + y * T_{k-1}^2   (k >= 2),

and w = -y*T/4 turns this into the logistic map w -> 4w(1 - w), whose
iterates are sin^2(2^(k-1) theta) for sin^2 theta = -y/4 (Schroeder, Math.
Ann. 3 (1870) 296-322).  Expanding sin^2(N theta) in sin^2 theta gives T_k's
coefficients in closed form, ``t_i = N/(i+1) * C(N+i, 2i+1)`` with
``N = 2^(k-1)``, so ``t_0 = N^2`` and each next one is an exact integer
ratio of the last; Q_k's are the shifts ``t_i * 2^(i-k+1)``.
``odd_power_expansion`` owns that table and ``small_angle_poly`` divides it by
``2^(k-1)``; each is built once per call, and nothing is cached.  At an imaginary theta
the conjugacy gives c_k = 2*sinh(N*phi)^2/(N*c1) with sinh(phi) = c1/sqrt(2), and
c*c_k'(c) = 4*sinh*cosh/sqrt(2 + c^2) - c_k (of N*phi) linearises the opening-angle
estimate, both from one raw-libmp ``_sinh_cosh``; mpmath and fractions load on first use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, check_count, check_r, read, real

# Caps what poly prints, not build time: on one shared Xeon core, in process, the
# k = 12 table builds in about 2 ms and prints as 3.8 MB of text, k = 13 would print
# 15.2 MB, and from k = 14 on the numerators pass Python's 4300-digit int->str limit.
POLY_CAP = 12


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


def odd_power_expansion(k: int) -> tuple[int, ...]:
    """Integer coefficients of ``c_k`` on the odd powers ``c1^1, c1^3, ...``.

    These are Q_k's, ``2^(k-1)`` times the P_k coefficients, read off T_k as
    ``t_i * 2^(i-k+1)``; every even power of ``c1`` has coefficient zero exactly.
    """
    k = check_count(k, "order")
    if k > POLY_CAP:
        raise DomainError(f"polynomial order {k} outside [1, {POLY_CAP}]")
    n = 1 << (k - 1)
    t = [n * n]
    for i in range(n - 1):  # t_{i+1} = t_i * (N+i+1)(N-i-1) / (2(i+2)(2i+3)), an integer
        t.append(t[-1] * ((n + i + 1) * (n - i - 1)) // (2 * (i + 2) * (2 * i + 3)))
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


def _sinh_cosh(k: int, c, prec: int):
    """Raw sinh(N*phi) and cosh(N*phi), N = 2^(k-1), sinh(phi) = c/sqrt(2), at ``prec`` bits.

    phi = ln(x + sqrt(1 + x^2)), x = c/sqrt(2), at ``wp`` bits is off by d <= 8*max(1, phi)*2^-wp,
    so sinh(N*phi) by a relative N*d*coth(N*phi) <= (N + 1/phi)*d, cosh by less.  With
    2^(e-1) <= c < 2^e, phi < e + 1 <= 2^e if phi >= 1 (large c) and 1/phi < 2^(2-e) if not
    (small c), so the guard k + |e| + 24 keeps both within 2^-(prec+19) before rounding.
    """
    from mpmath.libmp import fone, ftwo, mpf_add, mpf_cosh_sinh, mpf_div, mpf_log, mpf_mul
    from mpmath.libmp import mpf_shift, mpf_sqrt, round_nearest as rn

    wp = prec + k + abs(c[2] + c[3]) + 24
    x = mpf_div(c, mpf_sqrt(ftwo, wp, rn), wp, rn)
    u = mpf_add(x, mpf_sqrt(mpf_add(fone, mpf_mul(x, x, wp, rn), wp, rn), wp, rn), wp, rn)
    ch, sh = mpf_cosh_sinh(mpf_shift(mpf_log(u, wp, rn), k - 1), prec, rn)
    return sh, ch


def leading_coefficient(k: int, c1: float):
    """``c_k = 2^(k-1) * c1 * P_k(c1^2)`` at 40 digits: a float when it is a normal double,
    otherwise an mpmath value (the coefficients grow doubly exponentially in k)."""
    from mpmath.libmp import dps_to_prec

    return _float_if_normal(leading_coefficient_numeric(k, c1, dps_to_prec(40)))


def leading_coefficient_numeric(k: int, c1, prec: int) -> mp.mpf:
    """``c_k = 2*sinh(N*phi)^2 / (N*c1)`` within a few ulps at ``prec`` bits, ``c1`` read at
    ``prec`` too, rounded to nearest; no order cap, for receiver counts past any polynomial."""
    import mpmath as mp
    from mpmath.libmp import mpf_div, mpf_mul, mpf_shift, round_nearest as rn

    k, prec = check_count(k, "order"), check_count(prec, "prec")
    c1 = read("c1", c1, lambda v: mp.mpf(real(v), prec=prec, rounding="n"))
    if not 0 < c1 < mp.inf:  # nan and +inf fail too, instead of returning themselves
        raise DomainError(f"c1 must be positive and finite, not {c1}")
    sh, _ = _sinh_cosh(k, c1._mpf_, prec)
    return mp.make_mpf(mpf_div(mpf_shift(mpf_mul(sh, sh, prec, rn), 2 - k), c1._mpf_, prec, rn))


def omega_estimate(k: int, r: float, epsilon: float):
    """First-order estimate of the largest workable opening angle.

    Inverts ``lam_k ~ c_k * omega = 1`` with ``c_k`` linearised in ``epsilon`` about
    ``c0 = 1/(2r)``: ``1 / (c_k + eps*c0*c_k') = 1 / ((1 - eps)*c_k + eps*dcck)`` at 40
    digits, where ``dcck = (c*c_k)' = 4*sinh*cosh/sqrt(2 + c0^2)``.  For k=1 it is
    ``2r/(1 + eps)``, for k=4, r=1 ``2048/(85*(765 + 3347*eps))``.  Returns a float
    when it is a normal double, otherwise an mpmath value.
    """
    import mpmath as mp
    from mpmath.libmp import dps_to_prec, fhalf, fone, from_float, from_int, ftwo, round_nearest as rn
    from mpmath.libmp import mpf_add, mpf_div, mpf_mul, mpf_shift, mpf_sqrt, mpf_sub

    k = check_count(k, "order")
    r, epsilon = check_r(read("r", r, real)), read("epsilon", epsilon, real)
    if not 0 <= epsilon < math.inf:  # also rejects nan
        raise DomainError(f"epsilon {epsilon} must be finite and >= 0")
    # an mpf keeps its bits and an int is exact, as mpf arithmetic takes them; any
    # other real number is read as its nearest double
    r, epsilon = (v._mpf_ if isinstance(v, mp.mpf) else from_int(v) if isinstance(v, int)
                  else from_float(float(v)) for v in (r, epsilon))
    prec = dps_to_prec(40)
    c = mpf_div(fhalf, r, prec, rn)
    sh, ch = _sinh_cosh(k, c, prec)
    ck = mpf_div(mpf_shift(mpf_mul(sh, sh, prec, rn), 2 - k), c, prec, rn)
    root = mpf_sqrt(mpf_add(ftwo, mpf_mul(c, c, prec, rn), prec, rn), prec, rn)
    dcck = mpf_div(mpf_shift(mpf_mul(sh, ch, prec, rn), 2), root, prec, rn)
    den = mpf_add(mpf_mul(mpf_sub(fone, epsilon, prec, rn), ck, prec, rn),
                  mpf_mul(epsilon, dcck, prec, rn), prec, rn)
    return _float_if_normal(mp.make_mpf(mpf_div(fone, den, prec, rn)))
