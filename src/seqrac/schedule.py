"""Synthesis of feasible unsharpness schedules for N sequential receivers.

Starting from distinguishabilities ``(cos w, r sin w)``, the k-th receiver
needs

    lam_1 = (1+eps) tan(w/2) / r
    lam_k = (1+eps) (2^(k-1) - cos(w) M_k) / (r sin w),   k >= 2

with ``M_k`` the running product of ``1 + sqrt(1 - lam_l^2)`` over earlier
receivers.  A schedule is feasible when every lam lies strictly in (0, 1);
feasible schedules are strictly increasing with ``lam_{k+1} > 2 lam_k`` and
give every receiver success strictly above 3/4.

Everything here runs in arbitrary precision, and the recurrence only in
interval arithmetic (``libmp`` endpoint pairs), so every decision is proved.
The numerator above suffers catastrophic cancellation for small ``w`` (the
interesting regime: the feasible opening angle shrinks doubly exponentially
with N, far below double range already for ~12 receivers), so the recursion
is evaluated in the algebraically identical cancellation-free form

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
from mpmath.libmp import from_int, mpf_shift, mpi_add, mpi_div, mpi_lt, mpi_mid, mpi_mul
from mpmath.libmp import mpi_pow_int, mpi_sin, mpi_sqrt, mpi_sub

from .errors import DomainError, SearchExhausted
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


def lambda_sequence(omega, r, epsilon, n: int, dps: int = DEFAULT_DPS) -> Schedule:
    """Build the schedule for ``n`` receivers at opening angle ``omega``.

    A string ``omega`` is read at the working precision, not as a double.
    The recurrence runs in interval arithmetic on ``libmp`` endpoint pairs
    at ``_working_dps(n, dps)`` digits, without the ``mp.iv`` context, and
    each reported quantity is the midpoint of its interval, so ``feasible``
    is proved.  The schedule is marked infeasible at the first receiver
    whose lam is not certainly in (0, 1), an undecided comparison included,
    and truncated there (the offending value is kept for reporting).
    """
    n = _check_n(n)
    with mp.workdps(_working_dps(n, dps)):
        try:
            omega = mp.mpf(omega)
        except ValueError as exc:
            raise DomainError(f"bad omega {omega!r}") from exc
        r, epsilon = mp.mpf(r), mp.mpf(epsilon)
        if not 0 < omega < mp.pi / 2:
            raise DomainError(f"omega {omega} outside (0, pi/2)")
        _check_r_epsilon(r, epsilon)

        prec = mp.mp.prec
        zero, one, two, four = ((c, c) for c in map(from_int, (0, 1, 2, 4)))
        w, eps = (omega._mpf_, omega._mpf_), (epsilon._mpf_, epsilon._mpf_)
        rs = mpi_mul((r._mpf_, r._mpf_), mpi_sin(w, prec), prec)
        # 1 - cos(omega) = 2 sin^2(omega/2), stable
        w_cur = mpi_mul(two, mpi_pow_int(mpi_sin(mpi_div(w, two, prec), prec), 2, prec), prec)
        inflate, m_cur = mpi_add(one, eps, prec), one
        lambdas, m_products, deltas, successes, margins, first_failure = [], [], [], [], [], None
        for k in range(1, n + 1):
            delta1 = mpi_sub(one, w_cur, prec)  # cos(w) M_k / 2^(k-1)
            delta2 = mpf_shift(rs[0], 1 - k), mpf_shift(rs[1], 1 - k)  # r sin(w) / 2^(k-1)
            lam = mpi_div(mpi_mul(inflate, w_cur, prec), delta2, prec)
            margin = mpi_div(mpi_mul(eps, w_cur, prec), four, prec)
            lam_k, m_k, delta1_k, delta2_k, margin = (
                mp.make_mpf(mpi_mid(x, prec)) for x in (lam, m_cur, delta1, delta2, margin)
            )
            lambdas.append(lam_k)
            m_products.append(m_k)
            deltas.append(DistinguishabilityPair(delta1_k, delta2_k))
            successes.append(mp.mpf(1) / 2 + (delta1_k + lam_k * delta2_k) / 4)
            margins.append(margin)  # == success - 3/4, exactly
            if not (mpi_lt(zero, lam) and mpi_lt(lam, one)):  # undecided gives None
                first_failure = k
                break
            lam_sq = mpi_mul(lam, lam, prec)
            root = mpi_sqrt(mpi_sub(one, lam_sq, prec), prec)
            v = mpi_div(lam_sq, mpi_add(one, root, prec), prec)  # 1 - sqrt(1-lam^2)
            w_cur = mpi_add(w_cur, mpi_div(mpi_mul(delta1, v, prec), two, prec), prec)
            m_cur = mpi_mul(m_cur, mpi_sub(two, v, prec), prec)

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
    n = _check_n(n)
    with mp.workdps(_working_dps(n, DEFAULT_DPS)):
        r = mp.mpf(r)
        epsilon = mp.mpf(epsilon)
        _check_r_epsilon(r, epsilon)
        target = 1 - mp.mpf(10) ** -TARGET_DIGITS
        stop = mp.mpf(10) ** (8 - TARGET_DIGITS)
        if n == 1:
            x = 2 * mp.atan(target * r / (1 + epsilon))
        else:
            x = target / leading_coefficient_numeric(n, (1 + epsilon) / (2 * r))

        # Bracket ends as (omega, lam_n - target); lam_n(0) = 0, and the
        # upper end's value is None while it failed before receiver n (or
        # is the domain end pi/2, never evaluated).
        lo, hi = (mp.mpf(0), -target), (mp.pi / 2, None)
        side = 0
        for _ in range(MAX_EVALS):
            s = lambda_sequence(x, r, epsilon, n)
            full = len(s.lambdas) == n
            close = full and 0 < 1 - s.lambdas[-1] <= stop
            if close and s.feasible:
                return s
            # A close point that is undecided counts as an upper end that
            # failed early, so the search moves below it.
            f = s.lambdas[-1] - target if full and not close else None
            if s.feasible:
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
