"""Euler factors, Dirichlet coefficients, and the local zeta identities.

Exact objects throughout: Euler factors are integer polynomials in
T = p^{-s}, the Weil zeta checks run in rational power-series arithmetic,
and the region-of-convergence evaluators are the only places floating
point appears.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from . import powerseries as ps
from .curves import WeierstrassCurve
from .errors import BadReduction, OutsideConvergenceRegion
from .localdata import (
    LocalData,
    ReductionType,
    ap,
    ap_table,
    bad_primes,
    conductor,
    count_points,
)
from .numtheory import primes_up_to, smallest_prime_factors


@dataclass(frozen=True)
class EulerFactor:
    """Denominator polynomial of the local factor, in T = p^{-s}."""

    p: int
    coeffs: tuple[int, ...]  # constant term first; always starts with 1

    def __call__(self, t: complex) -> complex:
        return sum(c * t**k for k, c in enumerate(self.coeffs))


def local_euler_factor(local: LocalData) -> EulerFactor:
    """1 - a_p T + eps(p) p T^2, with eps = 1 at good p and 0 at bad p.

    At bad p, a_p in {1, -1, 0} leaves 1 - T (split), 1 + T (non-split) or
    1 (additive); trailing zero coefficients are dropped.
    """
    eps = 1 if local.reduction is ReductionType.GOOD else 0
    coeffs = [1, -local.a_p, eps * local.p]
    while coeffs[-1] == 0:
        coeffs.pop()
    return EulerFactor(local.p, tuple(coeffs))


@dataclass(frozen=True)
class DirichletCoefficients:
    """a_1..a_N with the conductor and bad-prime set they came from."""

    coeffs: tuple[int, ...]  # coeffs[n] = a_n, coeffs[0] unused
    conductor: int
    bad_primes: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def to_text(self) -> str:
        return "\n".join(f"{n} {self.coeffs[n]}" for n in range(1, self.n_max + 1))

    def to_json(self) -> str:
        return json.dumps(list(self.coeffs[1:]))


def dirichlet_coefficients(
    curve: WeierstrassCurve, n_max: int, known: DirichletCoefficients | None = None
) -> DirichletCoefficients:
    """a_n for n <= n_max via the Hecke recurrences.

    a_{p^{k+1}} = a_p a_{p^k} - eps(p) p a_{p^{k-1}} with eps = 1 at good p
    and 0 at bad p (so a_{p^k} = a_p^k there), extended multiplicatively.
    Each a_n is read off smaller n, so `known`, a table of the same curve,
    is extended past its n_max without recomputing any of its entries.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a = list(known.coeffs) if known is not None else [0, 1]
    start = len(a)
    primes, aps = ap_table(curve, n_max)
    bad = set(bad_primes(curve))
    spf = smallest_prime_factors(start, n_max)
    new = bisect.bisect_left(primes, start)
    new_aps = dict(zip(primes[new:], aps[new:]))
    for n in range(start, n_max + 1):
        p = spf[n - start]
        if p == n:
            a.append(new_aps[p])
            continue
        m, q = n // p, p
        while m % p == 0:
            m //= p
            q *= p
        if m > 1:
            a.append(a[q] * a[m])
        else:  # n = p^k, k >= 2
            a.append(a[p] * a[n // p] - (0 if p in bad else p * a[n // (p * p)]))
    return DirichletCoefficients(tuple(a[: n_max + 1]), conductor(curve), tuple(sorted(bad)))


# -- region-of-convergence evaluators ------------------------------------------


def _require_convergent(s: complex) -> complex:
    s = complex(s)
    if s.real <= 1.5:
        raise OutsideConvergenceRegion(
            f"Re(s) = {s.real} is not inside Re(s) > 3/2"
        )
    return s


def eval_euler(curve: WeierstrassCurve, s: complex, p_max: int) -> complex:
    """Truncated Euler product of L(E, s), for Re(s) > 3/2.

    Each factor is 1 - a_p t + eps(p) p t^2 with t = p^{-s}, as in
    `local_euler_factor`.
    """
    s = _require_convergent(s)
    result = 1.0 + 0.0j
    bad = set(bad_primes(curve))
    for p, a in zip(*ap_table(curve, p_max)):
        t = cmath.exp(-s * math.log(p))
        den = 1 - a * t
        if p not in bad:
            den += p * t * t
        result /= den
    return result


def eval_dirichlet(curve: WeierstrassCurve, s: complex, n_max: int) -> complex:
    """Truncated Dirichlet series with a tail bound from |a_n| <= sigma0(n) sqrt(n).

    Returns the partial sum; `dirichlet_tail_bound` reports the truncation
    error separately.
    """
    s = _require_convergent(s)
    coeffs = dirichlet_coefficients(curve, n_max)
    return sum(
        coeffs[n] * cmath.exp(-s * math.log(n)) for n in range(1, n_max + 1)
    )


def dirichlet_tail_bound(s: complex, n_max: int) -> float:
    """Bound for |sum_{n > n_max} a_n n^{-s}| using |a_n| <= sigma0(n) sqrt(n).

    sigma0(n) <= 2 sqrt(n), so |a_n n^{-s}| <= 2 n^{1 - Re(s)}; the tail is
    compared with the integral of 2 x^{1 - sigma}.
    """
    sigma = complex(s).real
    if sigma <= 2.0:
        raise OutsideConvergenceRegion("tail bound needs Re(s) > 2")
    power = 2.0 - sigma
    return 2.0 * n_max**power / (sigma - 2.0)


def incomplete_zeta(s: complex, excluded_primes=(), p_max: int = 10**5) -> complex:
    """zeta_S(s): Riemann zeta Euler product with the S-factors removed."""
    s = complex(s)
    if s.real <= 1.0:
        raise OutsideConvergenceRegion("zeta Euler product needs Re(s) > 1")
    excluded = set(excluded_primes)
    result = 1.0 + 0.0j
    for p in primes_up_to(p_max):
        if p in excluded:
            continue
        result /= 1 - cmath.exp(-s * math.log(p))
    return result


# -- Weil zeta power series and the trace-formula identities -------------------


def weil_zeta_from_counts(counts: list[int], k: int) -> list[Fraction]:
    """exp(sum_j N_j T^j / j) truncated at order k (rational coefficients)."""
    log_series = [Fraction(0)] * (k + 1)
    for j in range(1, min(len(counts), k) + 1):
        log_series[j] = Fraction(counts[j - 1], j)
    return ps.exp(log_series)


def _good_ap(curve: WeierstrassCurve, p: int) -> int:
    if p in bad_primes(curve):
        raise BadReduction(f"{p} is a prime of bad reduction")
    return ap(curve, p)


def frobenius_power_sums(a_p: int, p: int, k_max: int) -> list[int]:
    """alpha^k + beta^k for the roots of X^2 - a_p X + p, k = 1..k_max."""
    sums = []
    prev, cur = 2, a_p  # s_0, s_1
    for _ in range(k_max):
        sums.append(cur)
        prev, cur = cur, a_p * cur - p * prev
    return sums


def trace_formula_check(curve: WeierstrassCurve, p: int, k_max: int) -> bool:
    """N_{p^k} == p^k + 1 - (alpha^k + beta^k) exactly, for all k <= k_max."""
    a_p = _good_ap(curve, p)
    power_sums = frobenius_power_sums(a_p, p, k_max)
    for k in range(1, k_max + 1):
        if count_points(curve, p, k) != p**k + 1 - power_sums[k - 1]:
            return False
    return True


def zeta_factorization_check(curve: WeierstrassCurve, p: int, k_max: int) -> bool:
    """Z(E_p) == (1 - a_p T + p T^2) / ((1 - T)(1 - pT)) to O(T^{k_max+1})."""
    a_p = _good_ap(curve, p)
    counts = [count_points(curve, p, k) for k in range(1, k_max + 1)]
    lhs = weil_zeta_from_counts(counts, k_max)
    rhs = ps.from_rational(
        [1, -a_p, p], [1, -(1 + p), p], k_max
    )  # (1-T)(1-pT) = 1 - (1+p)T + pT^2
    return lhs == rhs
