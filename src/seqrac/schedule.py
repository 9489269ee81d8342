"""Synthesis of feasible unsharpness schedules for N sequential receivers.

Starting from distinguishabilities ``(cos w, r sin w)``, the k-th receiver
needs

    lam_1 = (1+eps) tan(w/2) / r
    lam_k = (1+eps) (2^(k-1) - cos(w) M_k) / (r sin w),   k >= 2

with ``M_k`` the running product of ``1 + sqrt(1 - lam_l^2)`` over earlier
receivers.  A schedule is feasible when every lam lies strictly in (0, 1);
feasible schedules are strictly increasing with ``lam_{k+1} > 2 lam_k`` and
give every receiver success strictly above 3/4.

Everything here runs in arbitrary precision.  The numerator above suffers
catastrophic cancellation for small ``w`` (the interesting regime: the
feasible opening angle shrinks doubly exponentially with N, far below
double range already for ~12 receivers), so the recursion is evaluated in
the algebraically identical cancellation-free form

    W_1 = 1 - cos w = 2 sin^2(w/2),       lam_k = (1+eps) 2^(k-1) W_k/(r sin w)
    W_{k+1} = W_k + (1 - W_k) v_k / 2,    v_k = 1 - sqrt(1 - lam_k^2)

which also yields the success margin exactly: P_k - 3/4 = eps * W_k / 4.
Each step squares a doubly-exponential quantity, so the relative error
doubles per receiver; the working precision is ``dps`` plus
``ceil(n log10 2)`` digits to cover that loss, plus guard digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import mpmath as mp

from .errors import DomainError, SearchExhausted
from .rac import DistinguishabilityPair
from .smallangle import leading_coefficient_numeric

DEFAULT_DPS = 50
GUARD_DIGITS = 10
# find_omega aims at lam_n = 1 - 10^-TARGET_DIGITS.  Below an angle of
# 10^-(TARGET_DIGITS + 5), lam_n = c_n w (1 + O(w)) meets that target to
# within a 10^-5 share of its gap to 1, so (1 - 10^-TARGET_DIGITS)/c_n is
# the answer; above it the search stops at the first certified point with
# 1 - lam_n <= 10^-(TARGET_DIGITS - 8).
TARGET_DIGITS = 25
# The search needs at most a handful of evaluations at the default precision;
# this bound only ends it when the precision is too low to meet the target.
MAX_EVALS = 200


@dataclass(frozen=True)
class Schedule:
    """A synthesized unsharpness sequence and its per-receiver quantities.

    Numeric entries are mpmath reals; ``first_failure`` is the 1-based index
    of the first lam outside (0, 1), at which the sequence is truncated.
    ``success_margins[k]`` is ``P_k - 3/4`` computed without cancellation.
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


def _check_r_epsilon(r: mp.mpf, epsilon: mp.mpf) -> None:
    if not 0 < r <= 1:
        raise DomainError(f"r {r} outside (0, 1]")
    if not epsilon > 0:
        raise DomainError("epsilon must be > 0")
    if not mp.isfinite(epsilon):
        raise DomainError(f"epsilon {epsilon} is not finite")


def _check_n(n) -> int:
    n = int(n)
    if n < 1:
        raise DomainError("n must be >= 1")
    return n


def _working_dps(n: int, dps: int) -> int:
    """Decimal digits that leave ``dps`` correct after ``n`` receivers."""
    return dps + math.ceil(n * math.log10(2)) + GUARD_DIGITS


def _receivers(ctx, omega, r, epsilon, n: int):
    """Yield ``(lam_k, W_k, M_k, Delta2_k)`` for k = 1..n in the mpmath
    context ``ctx``: ``mp`` for a point schedule, ``mp.iv`` for intervals.

    ``Delta2_k = r sin(w) / 2^(k-1)``, so ``lam_k = (1+eps) W_k / Delta2_k``.
    The caller stops at the first lam outside (0, 1): the next step takes
    ``sqrt(1 - lam^2)``.
    """
    rs = r * ctx.sin(omega)
    w_cur = 2 * ctx.sin(omega / 2) ** 2  # 1 - cos(omega), stable
    inflate = 1 + epsilon
    m_cur = ctx.mpf(1)
    for k in range(1, n + 1):
        delta2 = ctx.ldexp(rs, 1 - k)
        lam = inflate * w_cur / delta2
        yield lam, w_cur, m_cur, delta2
        lam_sq = lam * lam
        v = lam_sq / (1 + ctx.sqrt(1 - lam_sq))  # 1 - sqrt(1-lam^2)
        w_cur = w_cur + (1 - w_cur) * v / 2
        m_cur = m_cur * (2 - v)


def lambda_sequence(
    omega, r, epsilon, n: int, dps: int = DEFAULT_DPS
) -> Schedule:
    """Build the schedule for ``n`` receivers at opening angle ``omega``.

    Marks the schedule infeasible at the first receiver whose lam leaves
    (0, 1) and truncates there (the offending value is kept for reporting).
    Runs at ``_working_dps(n, dps)`` digits.
    """
    n = _check_n(n)
    with mp.workdps(_working_dps(n, dps)):
        omega = mp.mpf(omega)
        r = mp.mpf(r)
        epsilon = mp.mpf(epsilon)
        if not 0 < omega < mp.pi / 2:
            raise DomainError(f"omega {omega} outside (0, pi/2)")
        _check_r_epsilon(r, epsilon)

        lambdas, m_products, deltas, successes, margins = [], [], [], [], []
        first_failure = None
        for k, (lam, w_cur, m_cur, delta2) in enumerate(
            _receivers(mp, omega, r, epsilon, n), 1
        ):
            delta1 = 1 - w_cur  # cos(w) M_k / 2^(k-1)
            lambdas.append(lam)
            m_products.append(m_cur)
            deltas.append(DistinguishabilityPair(delta1, delta2))
            successes.append(mp.mpf(1) / 2 + (delta1 + lam * delta2) / 4)
            margins.append(epsilon * w_cur / 4)  # == success - 3/4, exactly
            if not 0 < lam < 1:
                first_failure = k
                break

        return Schedule(
            omega=omega,
            r=r,
            epsilon=epsilon,
            n=n,
            lambdas=tuple(lambdas),
            m_products=tuple(m_products),
            deltas=tuple(deltas),
            successes=tuple(successes),
            success_margins=tuple(margins),
            feasible=first_failure is None,
            first_failure=first_failure,
        )


def feasibility_report(s: Schedule) -> tuple[bool, bool, Optional[int]]:
    """(all lam in (0,1), doubling monotonicity, index of first failure)."""
    feasible = s.feasible
    monotone_doubling = all(
        b > 2 * a for a, b in zip(s.lambdas, s.lambdas[1:])
    )
    return feasible, monotone_doubling, s.first_failure


def certified(omega, r, epsilon, n: int, dps: int = DEFAULT_DPS) -> bool:
    """Whether interval arithmetic at ``_working_dps(n, dps)`` digits proves
    every lam_k in (0, 1) at ``omega`` (and with it every margin above 0).

    An interval comparison that cannot be decided gives ``None``, which
    rejects the point.
    """
    n = _check_n(n)
    iv = mp.iv
    saved = iv.dps
    iv.dps = _working_dps(n, dps)
    try:
        points = [iv.mpf(x) for x in (omega, r, epsilon)]
        return all(0 < lam < 1 for lam, _, _, _ in _receivers(iv, *points, n))
    finally:
        iv.dps = saved


def find_omega(n: int, r, epsilon, dps: int = DEFAULT_DPS) -> mp.mpf:
    """A certified feasible opening angle for ``n`` receivers.

    The target is lam_n = 1 - 10^-TARGET_DIGITS.  For n = 1 it inverts in
    closed form.  In the small-angle regime it is ``target / c_n`` with
    c_n from the value recurrence, which needs no point evaluation.
    Otherwise regula falsi with the Illinois weighting runs on
    ``lam_n - target``, bisecting while the upper end failed at an earlier
    receiver, and stops at the first point with ``1 - lam_n <=
    10^-(TARGET_DIGITS - 8)``.  Every returned point passes
    :func:`certified`.  For large ``n`` the result lies far below
    double-precision range; keep it as the returned arbitrary-precision
    value.
    """
    n = _check_n(n)
    with mp.workdps(_working_dps(n, dps)):
        r = mp.mpf(r)
        epsilon = mp.mpf(epsilon)
        _check_r_epsilon(r, epsilon)
        target = 1 - mp.mpf(10) ** -TARGET_DIGITS
        stop = mp.mpf(10) ** (8 - TARGET_DIGITS)
        if n == 1:
            x = 2 * mp.atan(target * r / (1 + epsilon))
        else:
            x = target / leading_coefficient_numeric(n, (1 + epsilon) / (2 * r))
            if x < mp.mpf(10) ** -(TARGET_DIGITS + 5) and certified(x, r, epsilon, n, dps):
                return x

        # Bracket ends as (omega, lam_n - target); lam_n(0) = 0, and the
        # upper end's value is None while it failed before receiver n (or
        # is the domain end pi/2, never evaluated).
        lo, hi = (mp.mpf(0), -target), (mp.pi / 2, None)
        side = 0
        for _ in range(MAX_EVALS):
            s = lambda_sequence(x, r, epsilon, n, dps=dps)
            close = s.feasible and 1 - s.lambdas[-1] <= stop
            if close and certified(x, r, epsilon, n, dps):
                return x
            # A close point that fails the certificate counts as an upper end
            # that failed early, so the search moves below it.
            f = s.lambdas[-1] - target if len(s.lambdas) == n and not close else None
            if s.feasible and not close:
                if side < 0 and hi[1] is not None:
                    hi = (hi[0], hi[1] / 2)
                lo, side = (x, f), -1
            else:
                if side > 0:
                    lo = (lo[0], lo[1] / 2)
                hi, side = (x, f), 1
            if hi[1] is None:
                x = (lo[0] + hi[0]) / 2
            else:
                x = (lo[0] * hi[1] - hi[0] * lo[1]) / (hi[1] - lo[1])
    raise SearchExhausted(f"no certified omega for n={n} after {MAX_EVALS} evaluations")
