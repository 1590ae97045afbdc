"""Neron-Tate canonical heights.

Normalization: hhat(P) = lim 4^{-k} log H(x(2^k P)) with H(a/b) =
max(|a|, |b|), the convention under which the BSD leading-coefficient
formula balances on the reference curves.

Two evaluators:

* `height_doubling_exact`, the definition, run in exact big-integer
  arithmetic with the error bounded by observed increment sizes.  Cost
  grows like 4^k digits, so it is the oracle, not the workhorse.

* `canonical_height`, the same limit split into local heights on the
  minimal model: hhat(P) = lambda_oo(P) + sum_p lambda_p(P).  The
  archimedean part is the same x-only doubling walked in integer fixed
  point, the pair cut to a fixed bit length each step with the cut kept
  as an exact power of 2, and one logarithm at the end; each finite part
  is a closed form in a few p-adic valuations, nonzero only at the bad primes
  and the primes of x's denominator (Silverman, "Computing heights on
  elliptic curves", Math. Comp. 51 (1988); Cremona, "Algorithms for
  Modular Elliptic Curves", 3.4).  It exposes the per-place breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .curves import CurvePoint, WeierstrassCurve
from .errors import PrecisionExhausted
from .localdata import bad_primes
from .numtheory import factorize, valuation

GUARD_DIGITS = 10


def _duplication_forms(curve: WeierstrassCurve):
    """Integer quartic forms F, G with x(2P) = F(a, b)/G(a, b) for x = a/b.

    F = x^4 - b4 x^2 - 2 b6 x - b8,  G = 4x^3 + b2 x^2 + 2 b4 x + b6
    (homogenized with b), both times the common denominator of b2, ..., b8,
    which is 1 on an integral model.
    """
    inv = curve.invariants()
    b2, b4, b6, b8 = (Fraction(v) for v in (inv.b2, inv.b4, inv.b6, inv.b8))
    d = math.lcm(b2.denominator, b4.denominator, b6.denominator, b8.denominator)
    F = (1, 0, -b4, -2 * b6, -b8)  # coefficients of a^4, a^3 b, ..., b^4
    G = (0, 4, b2, 2 * b4, b6)
    return tuple(int(c * d) for c in F), tuple(int(c * d) for c in G)


def _eval_form(coeffs, a, b):
    """sum_i coeffs[i] a^(4-i) b^i by homogeneous Horner, b^i carried along: exact
    on the integer pairs both evaluators pass."""
    total, power = 0, 1
    for c in coeffs:
        total = total * a + c * power
        power *= b
    return total


def naive_height(a: int, b: int) -> float:
    """log max(|a|, |b|) of x = a/b in lowest terms."""
    return float(mp.log(max(abs(a), abs(b))))


def height_doubling_exact(
    curve: WeierstrassCurve, P: CurvePoint, iterations: int = 10
) -> tuple[float, float]:
    """(value, error bound) for hhat(P) by exact repeated doubling.

    x = a/b doubles through the integer duplication forms, one gcd per
    step; the first doubling is checked against the group law `curve.add`.
    Error bound: the increments delta_k = h_{k+1} - 4 h_k are bounded in
    magnitude; the truncated tail is sum_{k >= K} delta_k / 4^{k+1}, bounded
    by max|delta| / (3 * 4^K) with an observed-increment estimate of
    max|delta| (doubled for safety).
    """
    curve._require_on_curve(P)
    if P.is_infinity:
        return 0.0, 0.0
    double = curve.add(P, P)
    F, G = _duplication_forms(curve)
    a, b = P.x.numerator, P.x.denominator
    heights = [naive_height(a, b)]
    for _ in range(iterations):
        f, g = _eval_form(F, a, b), _eval_form(G, a, b)
        # x(2P) both ways, None for the point at infinity
        if len(heights) == 1 and (Fraction(f, g) if g else None) != (
                None if double.is_infinity else double.x):
            raise ArithmeticError(f"duplication forms disagree with the group law at {P}")
        if not g:  # 2Q = O
            return 0.0, 0.0
        d = math.gcd(f, g) * (1 if g > 0 else -1)
        a, b = f // d, g // d
        heights.append(naive_height(a, b))
    deltas = [
        heights[k + 1] - 4 * heights[k] for k in range(len(heights) - 1)
    ]
    value = heights[0] + sum(d / 4 ** (k + 1) for k, d in enumerate(deltas))
    delta_bound = 2 * max(1.0, max(abs(d) for d in deltas))
    error = delta_bound / (3 * 4**iterations)
    return value, error


@dataclass(frozen=True)
class HeightBreakdown:
    """hhat split into the archimedean local height and the finite ones, mpf at
    digits + GUARD_DIGITS."""

    total: mp.mpf
    archimedean: mp.mpf
    finite: dict[int, mp.mpf]  # prime -> contribution (multiple of log p)


def canonical_height(
    curve: WeierstrassCurve,
    P: CurvePoint,
    digits: int = 25,
) -> mp.mpf:
    """hhat(P) to roughly the requested number of digits, an mpf at digits + GUARD_DIGITS."""
    return canonical_height_breakdown(curve, P, digits).total


def canonical_height_breakdown(
    curve: WeierstrassCurve, P: CurvePoint, digits: int = 25
) -> HeightBreakdown:
    """hhat(P) = lambda_oo(P) + sum_p lambda_p(P) on the minimal model.

    lambda_oo = lim 4^-K log max(|a_K|, |b_K|) - log den(x), where (a_0, b_0)
    = (num x, den x) and (a_{k+1}, b_{k+1}) = (F, G)(a_k, b_k) over the integer
    duplication forms.  The walk scales each pair to `bits` bits by a power of
    2 kept in an exact base-2 exponent e, which the degree-4 forms multiply by 4,
    so after K steps lambda_oo = (e log 2 + log max(|a|, |b|)) / 4^K - log den,
    one logarithm; the tail left out is at most 4^-K sup|log max(|F|, |G|)| / 3
    over pairs of max-norm 1.  lambda_p is `_local_height` times log p, at the
    bad primes and the primes of x's denominator, summed in sorted order.  The
    point at infinity and every torsion point are exactly 0, by the exact order
    test `order_of_point` (Mazur bounds the order by 12; its early stop is
    Nagell-Lutz on the integral minimal model).
    """
    curve._require_on_curve(P)
    minimal, iso = curve.minimal_model()
    P = iso.apply_point(P)
    if minimal.order_of_point(P) is not None:
        return HeightBreakdown(mp.mpf(0), mp.mpf(0), {})

    F, G = _duplication_forms(minimal)
    iterations = max(12, int(digits * math.log2(10) / 2) + 8)
    bits = math.ceil((digits + GUARD_DIGITS) * math.log2(10))
    lost = math.ceil((digits + GUARD_DIGITS - 8) * math.log2(10))
    x = P.x
    a, b, e = x.numerator, x.denominator, 0
    for _ in range(iterations):
        s = max(abs(a), abs(b)).bit_length() - bits
        a, b = (a >> s, b >> s) if s > 0 else (a << -s, b << -s)
        e = 4 * (e + s)
        a, b = _eval_form(F, a, b), _eval_form(G, a, b)
        # max(|F|, |G|) of a pair of max-norm 1 below 2^-lost: too few bits left
        if max(abs(a), abs(b)).bit_length() <= 4 * bits - lost:
            raise PrecisionExhausted("catastrophic cancellation in height recursion")
    primes = set(bad_primes(curve)) | set(factorize(x.denominator))
    with mp.workdps(digits + GUARD_DIGITS):
        arch = (mp.ldexp(e * mp.ln2 + mp.log(max(abs(a), abs(b))), -2 * iterations)
                - mp.log(x.denominator))
        finite = {}
        for q in sorted(primes):
            v = _local_height(minimal, P, q)
            if v:
                finite[q] = mp.log(q) * v.numerator / v.denominator
        return HeightBreakdown(arch + mp.fsum(finite.values()), arch, finite)


def _ord(v: Fraction, p: int) -> float:
    """ord_p of a rational; infinite at 0."""
    if v == 0:
        return math.inf
    return valuation(v.numerator, p) - valuation(v.denominator, p)


def _local_height(minimal: WeierstrassCurve, P: CurvePoint, p: int) -> Fraction:
    """lambda_p(P) / log p on a model minimal at p (Silverman 1988; Cremona 3.4).

    max(0, -ord_p x) unless P reduces to the singular point, where the
    correction depends on ord_p of the discriminant, psi_2 and psi_3.
    """
    a1, a2, a3, a4, _ = minimal.ainvs()
    inv = minimal.invariants()
    x, y = P.x, P.y
    N = _ord(inv.disc, p)
    A = _ord(3 * x * x + 2 * a2 * x + a4 - a1 * y, p)
    B = _ord(2 * y + a1 * x + a3, p)
    if N == 0 or A <= 0 or B <= 0:
        return Fraction(max(0, -_ord(x, p)))
    if _ord(inv.c4, p) == 0:
        M = min(Fraction(B), Fraction(N, 2))
        return M * (M - N) / N
    C = _ord(
        3 * x**4 + inv.b2 * x**3 + 3 * inv.b4 * x * x + 3 * inv.b6 * x + inv.b8, p
    )
    return Fraction(-2 * B, 3) if C >= 3 * B else Fraction(-C, 4)
