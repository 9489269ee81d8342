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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import mpmath as mp

from .errors import DomainError, SearchExhausted
from .rac import DistinguishabilityPair
from .smallangle import leading_coefficient_numeric

DEFAULT_DPS = 50
OMEGA_FLOOR = mp.mpf("1e-100000")
BOUNDARY_TOL = 1e-12


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


def lambda_sequence(
    omega, r, epsilon, n: int, dps: int = DEFAULT_DPS
) -> Schedule:
    """Build the schedule for ``n`` receivers at opening angle ``omega``.

    Marks the schedule infeasible at the first receiver whose lam leaves
    (0, 1) and truncates there (the offending value is kept for reporting).
    """
    n = int(n)
    if n < 1:
        raise DomainError("n must be >= 1")
    with mp.workdps(dps):
        omega = mp.mpf(omega)
        r = mp.mpf(r)
        epsilon = mp.mpf(epsilon)
        if not 0 < omega < mp.pi / 2:
            raise DomainError(f"omega {omega} outside (0, pi/2)")
        _check_r_epsilon(r, epsilon)

        sin_w = mp.sin(omega)
        half = omega / 2
        w_cur = 2 * mp.sin(half) ** 2  # 1 - cos(omega), stable
        inflate = 1 + epsilon

        lambdas, m_products, deltas, successes, margins = [], [], [], [], []
        feasible = True
        first_failure = None
        m_cur = mp.mpf(1)
        for k in range(1, n + 1):
            if k == 1:
                lam = inflate * mp.tan(half) / r
            else:
                lam = inflate * mp.mpf(2) ** (k - 1) * w_cur / (r * sin_w)
            delta1 = 1 - w_cur  # cos(w) M_k / 2^(k-1)
            delta2 = r * sin_w / mp.mpf(2) ** (k - 1)
            success = mp.mpf(1) / 2 + (delta1 + lam * delta2) / 4
            margin = epsilon * w_cur / 4  # == success - 3/4, exactly

            lambdas.append(lam)
            m_products.append(m_cur)
            deltas.append(DistinguishabilityPair(delta1, delta2))
            successes.append(success)
            margins.append(margin)

            if not 0 < lam < 1:
                feasible = False
                first_failure = k
                break

            v = lam**2 / (1 + mp.sqrt(1 - lam**2))  # 1 - sqrt(1-lam^2)
            w_cur = w_cur + (1 - w_cur) * v / 2
            m_cur = m_cur * (2 - v)

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
            feasible=feasible,
            first_failure=first_failure,
        )


def feasibility_report(s: Schedule) -> tuple[bool, bool, Optional[int]]:
    """(all lam in (0,1), doubling monotonicity, index of first failure)."""
    feasible = s.feasible
    monotone_doubling = all(
        b > 2 * a for a, b in zip(s.lambdas, s.lambdas[1:])
    )
    return feasible, monotone_doubling, s.first_failure


def find_omega(
    n: int, r, epsilon, dps: int = DEFAULT_DPS, floor=OMEGA_FLOOR
) -> mp.mpf:
    """A feasible opening angle for ``n`` receivers.

    Brackets the feasibility boundary by geometric halving/doubling from the
    small-angle estimate, then bisects; the returned value is a verified
    feasible point (feasibility, not maximality, is the contract).  For
    large ``n`` the result lies far below double-precision range; keep it
    as the returned arbitrary-precision value.
    """
    n = int(n)
    if n < 1:
        raise DomainError("n must be >= 1")
    with mp.workdps(dps):
        r = mp.mpf(r)
        epsilon = mp.mpf(epsilon)
        _check_r_epsilon(r, epsilon)
        upper_limit = (mp.pi / 2) * (1 - mp.mpf("1e-12"))

        def ok(w) -> bool:
            return lambda_sequence(w, r, epsilon, n, dps=dps).feasible

        c1 = (1 + epsilon) / (2 * r)
        start = 1 / leading_coefficient_numeric(n, c1)
        lo = min(start, upper_limit)
        while not ok(lo):
            lo = lo / 2
            if lo < floor:
                raise SearchExhausted(
                    f"no feasible omega above {mp.nstr(mp.mpf(floor), 5)}"
                )
        hi = lo * 2
        while hi < upper_limit and ok(hi):
            lo = hi
            hi = hi * 2
        if hi >= upper_limit:
            return lo
        while hi - lo > BOUNDARY_TOL and (hi - lo) > lo * mp.mpf("1e-15"):
            mid = (lo + hi) / 2
            if ok(mid):
                lo = mid
            else:
                hi = mid
        return lo
