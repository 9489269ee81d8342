"""Synthesis of feasible unsharpness schedules for N sequential receivers.

Starting from distinguishabilities ``(cos w, r sin w)``, the k-th receiver
needs

    lam_1 = (1+eps) tan(w/2) / r
    lam_k = (1+eps) (2^(k-1) - cos(w) M_k) / (r sin w),   k >= 2

with ``M_k`` the running product of ``1 + sqrt(1 - lam_l^2)`` over earlier
receivers.  A schedule is feasible when every lam lies strictly in (0, 1);
feasible schedules are strictly increasing with ``lam_{k+1} > 2 lam_k`` and
give every receiver success strictly above 3/4.

Everything here runs in arbitrary precision, and the recurrence only in interval arithmetic:
add, sub, mul and div (ends paired as for nonnegative intervals, all that the pass multiplies or
divides) and sqrt, each written once on int ``(mantissa, exponent)`` ends and rounding each end outward
once to the working ``prec`` bits, bit-identical to libmp's and ``mp.iv``'s: every decision is proved.
The numerator above suffers catastrophic cancellation for small ``w`` (the
interesting regime: the feasible opening angle shrinks doubly exponentially
with N, far below double range already for ~12 receivers), so the recursion
is evaluated in the algebraically identical cancellation-free form

    W_1 = 1 - cos w = sin^2 w / (1 + cos w),   lam_k = (1+eps) 2^(k-1) W_k/(r sin w)
    W_{k+1} = W_k + t_k,   t_k = delta1_k v_k / 2,   v_k = 1 - sqrt(1 - lam_k^2)

beside delta1_k = cos(w) M_k / 2^(k-1) = 1 - W_k from delta1_1 = cos w: 1 - W_{k+1} while W_{k+1} < 1/2, so
delta1 + W = 1 to 2^-prec as P_k's Born form needs, else delta1_k - t_k, as 1 - W cancels when w -> pi/2.
One interval cos/sin of w starts it.  The proof runs first; the report, built after it, holds
interval midpoints and M_k = 2^(k-1) delta1_k / cos w, but each success P_k is 3/4 + its margin
eps W_k / 4, rounded to nearest, not a midpoint.  Each step squares a doubly-exponential quantity,
so the relative error doubles per receiver; the working precision is ``dps`` plus
``ceil(n log10 2)`` digits to cover that loss, plus guard digits.  One reader converts
omega, r and epsilon at that precision, strings to every digit.  Each call passes its ``prec`` down
and reads no precision from mpmath's process-wide context.  mpmath loads on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .errors import DomainError, SearchExhausted, check_count, check_omega, check_r, read
from .rac import DistinguishabilityPair
from .smallangle import leading_coefficient_numeric

DEFAULT_DPS = 50
GUARD_DIGITS = 10
# find_omega aims at lam_n = 1 - 10^-TARGET_DIGITS and stops at the first
# certified point with 1 - lam_n <= 10^-(TARGET_DIGITS - 8).  Its first
# point is (1 - 10^-TARGET_DIGITS)/c_n; below an angle of
# 10^-(TARGET_DIGITS + 5), lam_n = c_n w (1 + O(w)) meets the target there
# to within a 10^-5 share of its gap to 1, so that first point stops it.
TARGET_DIGITS = 25
# The search needs at most a handful of evaluations at the default precision;
# this bound only ends it when the precision is too low to meet the target.
MAX_EVALS = 200


@dataclass(frozen=True)
class Schedule:
    """A synthesized unsharpness sequence and its per-receiver quantities.

    Numeric entries are mpmath reals, built after the proof (which starts from
    one interval cos/sin of omega) as the midpoints of its intervals, except
    ``successes``: 3/4 + each ``success_margins`` entry P_k - 3/4, not a midpoint.
    ``first_failure`` is the 1-based index of the first lam outside (0, 1).
    """

    omega: mp.mpf
    r: mp.mpf
    epsilon: mp.mpf
    n: int
    lambdas: tuple
    m_products: tuple
    deltas: tuple
    successes: tuple
    success_margins: tuple
    feasible: bool
    first_failure: Optional[int]


def _read_inputs(dps: int, r, epsilon, *omega) -> tuple:
    """(omega when given, r, epsilon) read as ``mp.mpf`` reads them at ``mp.dps = dps``, to nearest;
    a message prints the value as ``str`` does there, to ``dps`` digits."""
    import mpmath as mp
    from mpmath.libmp import dps_to_prec, mpf_pi, mpf_shift, to_str

    prec = dps_to_prec(dps)
    convert, show = lambda v: mp.mpf(v, prec=prec, rounding="n"), lambda x: to_str(x._mpf_, dps)
    half_pi = mp.make_mpf(mpf_shift(mpf_pi(prec, "n"), -1))
    omega = [check_omega(read("omega", w, convert), half_pi, show) for w in omega]
    r, epsilon = check_r(read("r", r, convert), show), read("epsilon", epsilon, convert)
    if not epsilon > 0:
        raise DomainError("epsilon must be > 0")
    if not epsilon < math.inf:
        raise DomainError(f"epsilon {epsilon} is not finite")
    return (*omega, r, epsilon)


def _working_dps(n: int, dps: int) -> int:
    """Decimal digits that leave ``dps`` correct after ``n`` receivers."""
    return dps + math.ceil(n * math.log10(2)) + GUARD_DIGITS


def _round(m: int, e: int, prec: int, up) -> tuple:
    """``m * 2^e``, ``m`` of any sign, to ``prec`` bits: up or down for ``up`` True or False
    (error < 1 ulp), to nearest even for None (error <= 1/2 ulp).  Up may carry to prec + 1 bits."""
    drop = m.bit_length() - prec
    if drop <= 0:
        return m, e
    if up is None:  # add half an ulp, less one unless the kept part is odd; any sign
        return (m + (1 << drop - 1) - 1 + ((m >> drop) & 1)) >> drop, e + drop
    return (-(-m >> drop) if up else m >> drop), e + drop


def _add(a: tuple, b: tuple, prec: int, up) -> tuple:
    """``a + b`` for operands of ``prec`` bits, rounded as by :func:`_round`.  As in
    ``mpf_add``, one whose top bit lies over ``prec + 4`` bits below the other's is a sticky bit.
    Any cutoff from ``prec + 1`` up is equivalent: past it the smaller lies within half the
    ``prec``-bit spacing next to the larger, so it and a sticky bit round the sum alike."""
    (am, ae), (bm, be) = a, b
    if not (am and bm):
        return _round(am or bm, ae if am else be, prec, up)
    gap = ae + am.bit_length() - be - bm.bit_length()
    if gap > prec + 4:
        am, ae, bm, be = am << prec + 4, ae - prec - 4, (bm > 0) - (bm < 0), ae - prec - 4
    elif gap < -prec - 4:
        am, ae, bm, be = (am > 0) - (am < 0), be - prec - 4, bm << prec + 4, be - prec - 4
    e = min(ae, be)
    return _round((am << ae - e) + (bm << be - e), e, prec, up)


def _sub(a: tuple, b: tuple, prec: int, up) -> tuple:
    """``a - b`` rounded as by :func:`_add`; it may be zero or negative."""
    return _add(a, (-b[0], b[1]), prec, up)


def _mul(a: tuple, b: tuple, prec: int, up) -> tuple:
    """``a * b`` rounded as by :func:`_round`, from the exact product."""
    return _round(a[0] * b[0], a[1] + b[1], prec, up)


def _div(a: tuple, b: tuple, prec: int, up) -> tuple:
    """``a / b`` for ``a >= 0 < b``, rounded as by :func:`_round` (sticky last bit)."""
    shift = prec + 2 - a[0].bit_length() + b[0].bit_length()
    q, rem = divmod(a[0] << shift, b[0])
    return _round(q | (rem > 0), a[1] - b[1] - shift, prec, up)


def _sqrt(a: tuple, prec: int, up) -> tuple:
    """``sqrt(a)`` for ``a >= 0``, rounded as by :func:`_round` (sticky last bit)."""
    shift = 2 * prec + 2 - a[0].bit_length() + (a[1] + a[0].bit_length() & 1)  # a[1] - shift even
    root = math.isqrt(a[0] << shift)
    return _round(root | (root * root != a[0] << shift), (a[1] - shift) >> 1, prec, up)


def _mid(a: tuple, b: tuple, prec: int) -> tuple:
    """``mpi_mid`` of [a, b] as a raw mpf: ``a + b`` rounded to nearest even, halved."""
    m, e = _add(a, b, prec, None)
    if m <= 0:
        from mpmath.libmp import from_man_exp
        return from_man_exp(m, e - 1)
    zeros = (m & -m).bit_length() - 1  # stripped, as the canonical form has an odd mantissa
    return 0, m >> zeros, e + zeros - 1, m.bit_length() - zeros


def lambda_sequence(omega, r, epsilon, n: int, dps: int = DEFAULT_DPS) -> Schedule:
    """Build the schedule for ``n`` receivers at opening angle ``omega``.

    ``omega``, ``r`` and ``epsilon`` are read at the working precision, not as doubles.
    From one interval cos/sin of ``omega`` the recurrence runs on int endpoint
    pairs at ``_working_dps(n, dps)`` digits, without ``mp.iv``, and only proves:
    the schedule is infeasible at, and cut after, the first receiver whose lam is
    not certainly in (0, 1), an undecided comparison included.  The report, built
    after the proof, holds interval midpoints; a success is 3/4 + its margin instead.
    """
    import mpmath as mp
    from mpmath.libmp import dps_to_prec, mpf_add, mpi_cos_sin

    n = check_count(n, "n")
    dps = _working_dps(n, check_count(dps, "dps"))
    omega, r, epsilon = _read_inputs(dps, r, epsilon, omega)
    prec = dps_to_prec(dps)
    # An interval is a (lo, hi) pair of (mantissa, exponent) int ends, each rounded outward once;
    # mul and div bound the lower end by lo * lo and lo / hi, outward for the nonnegative
    # intervals they get: delta1 > 0 while lam < 1, and t <= delta1 / 2
    def add(a, b): return _add(a[0], b[0], prec, False), _add(a[1], b[1], prec, True)
    def sub(a, b): return _sub(a[0], b[1], prec, False), _sub(a[1], b[0], prec, True)
    def mul(a, b): return _mul(a[0], b[0], prec, False), _mul(a[1], b[1], prec, True)
    def div(a, b): return _div(a[0], b[1], prec, False), _div(a[1], b[0], prec, True)
    def sqrt(a): return _sqrt(a[0], prec, False), _sqrt(a[1], prec, True)
    def shift(a, k): return (a[0][0], a[0][1] + k), (a[1][0], a[1][1] + k)  # a 2^k, exact

    c, s = (tuple(x[1:3] for x in iv) for iv in mpi_cos_sin((omega._mpf_,) * 2, prec))
    one, rm, eps = ((1, 0),) * 2, (r._mpf_[1:3],) * 2, (epsilon._mpf_[1:3],) * 2
    # delta1 = cos w, W_1 = 1 - cos w = sin^2 w / (1 + cos w), both stable, r sin w and 1 + eps
    d1, w, rs, inf = c, div(mul(s, s), add(one, c)), mul(rm, s), add(one, eps)
    ends, first_failure = [], None  # per receiver: lam, delta1, delta2 and W
    for k in range(1, n + 1):
        d2 = shift(rs, 1 - k)  # r sin(w) / 2^(k-1)
        lam = div(mul(inf, w), d2)
        ends.append((lam, d1, d2, w))
        # lam_k must lie certainly in (0, 1); an undecided comparison fails
        if not (lam[0][0] > 0 and lam[1][0].bit_length() + lam[1][1] <= 0):
            first_failure = k
            break
        # v = lam^2 / (1 + sqrt(1 - lam^2)) = 1 - sqrt(1 - lam^2), t = delta1 v / 2, W_{k+1} = W_k + t
        sq = mul(lam, lam)
        t = mul(d1, shift(div(sq, add(one, sqrt(sub(one, sq)))), -1))
        w = add(w, t)
        # delta1 read as 1 - W while W < 1/2, else as delta1 - t
        d1 = sub(one, w) if w[1][0].bit_length() + w[1][1] < 0 else sub(d1, t)
    # The report: midpoints, M_k = 2^(k-1) delta1 / cos w, the margin eps W_k / 4, success 3/4 + it
    eps4, three_quarters = shift(eps, -2), (0, 3, -2, 2)  # the latter a raw mpf
    lambdas, m_products, delta1s, delta2s, margins = zip(*(
        [mp.make_mpf(_mid(lo, hi, prec))
         for lo, hi in (lam, div(shift(d1, k - 1), c), d1, d2, mul(eps4, w))]
        for k, (lam, d1, d2, w) in enumerate(ends, 1)))
    return Schedule(omega, r, epsilon, n, lambdas, m_products,
                    tuple(map(DistinguishabilityPair, delta1s, delta2s)),
                    tuple(mp.make_mpf(mpf_add(three_quarters, g._mpf_, prec, "n")) for g in margins),
                    margins, first_failure is None, first_failure)


def feasibility_report(s: Schedule) -> tuple[bool, bool, Optional[int]]:
    """(all lam in (0,1), doubling monotonicity, index of first failure)."""
    import mpmath as mp

    feasible = s.feasible
    monotone_doubling = all(
        b > mp.ldexp(a, 1) for a, b in zip(s.lambdas, s.lambdas[1:])
    )
    return feasible, monotone_doubling, s.first_failure


def find_omega(n: int, r, epsilon) -> Schedule:
    """A feasible schedule for ``n`` receivers; its ``omega`` is the angle.

    The target is lam_n = 1 - 10^-TARGET_DIGITS.  The first point is its
    closed-form inverse for n = 1 and ``target / c_n`` otherwise, with c_n
    from the value recurrence; in the small-angle regime (n >= 8) that point
    already meets the stop, so one :func:`lambda_sequence` call proves it.
    From there regula falsi with the Illinois weighting runs on ``lam_n -
    target``, bisecting while the upper end failed at an earlier receiver,
    and stops at the first feasible point with ``1 - lam_n <=
    10^-(TARGET_DIGITS - 8)``.  The returned schedule is the one that
    decided, so its ``feasible`` is proved.  For large ``n`` the angle lies
    far below double-precision range; keep it as the arbitrary-precision
    ``omega``.
    """
    import mpmath as mp
    from mpmath.libmp import (dps_to_prec, fone, from_int, fzero, mpf_add, mpf_atan, mpf_div, mpf_le,
                              mpf_mul, mpf_neg, mpf_pi, mpf_pow_int, mpf_shift, mpf_sign, mpf_sub)

    n = check_count(n, "n")
    dps = _working_dps(n, DEFAULT_DPS)
    prec = dps_to_prec(dps)
    add, sub, mul, div = (partial(f, prec=prec, rnd="n") for f in (mpf_add, mpf_sub, mpf_mul, mpf_div))
    r, epsilon = _read_inputs(dps, r, epsilon)
    # raw libmp at prec, rounded to nearest, in the operation order of mpf arithmetic on
    # target = 1 - 10^-TARGET_DIGITS, 2 atan(target r / (1 + eps)) or target / c_n((1 + eps) / (2 r))
    target = sub(fone, mpf_pow_int(from_int(10), -TARGET_DIGITS, prec, "n"))
    stop = mpf_pow_int(from_int(10), 8 - TARGET_DIGITS, prec, "n")
    if n == 1:
        x = mpf_shift(mpf_atan(div(mul(target, r._mpf_), add(epsilon._mpf_, fone)), prec, "n"), 1)
    else:
        c1 = mp.make_mpf(div(add(epsilon._mpf_, fone), mpf_shift(r._mpf_, 1)))
        x = div(target, leading_coefficient_numeric(n, c1, prec)._mpf_)

    # Bracket ends as (omega, lam_n - target); lam_n(0) = 0, and the
    # upper end's value is None while it failed before receiver n (or
    # is the domain end pi/2, never evaluated).
    lo, hi, side = (fzero, mpf_neg(target)), (mpf_shift(mpf_pi(prec, "n"), -1), None), 0
    for _ in range(MAX_EVALS):
        s = lambda_sequence(mp.make_mpf(x), r, epsilon, n)
        full = len(s.lambdas) == n
        gap = sub(fone, s.lambdas[-1]._mpf_)
        close = full and mpf_sign(gap) > 0 and mpf_le(gap, stop)
        if close and s.feasible:
            return s
        # A close point that is undecided counts as an upper end that
        # failed early, so the search moves below it.
        f = sub(s.lambdas[-1]._mpf_, target) if full and not close else None
        if s.feasible:
            if side < 0 and hi[1] is not None:
                hi = (hi[0], mpf_shift(hi[1], -1))
            lo, side = (x, f), -1
        else:
            if side > 0:
                lo = (lo[0], mpf_shift(lo[1], -1))
            hi, side = (x, f), 1
        if hi[1] is None:
            x = mpf_shift(add(lo[0], hi[0]), -1)
        else:
            x = div(sub(mul(lo[0], hi[1]), mul(hi[0], lo[1])), sub(hi[1], lo[1]))
    raise SearchExhausted(f"no certified omega for n={n} after {MAX_EVALS} evaluations")
