"""Neron-Tate canonical heights.

Normalization: hhat(P) = lim 4^{-k} log H(x(2^k P)) with H(a/b) =
max(|a|, |b|), the convention under which the BSD leading-coefficient
formula balances on the reference curves.

Two evaluators:

* `height_doubling_exact`, the definition, run in exact big-integer
  arithmetic with the error bounded by observed increment sizes.  Cost
  grows like 4^k digits, so it is the oracle, not the workhorse.

* `canonical_height`, the same limit, evaluated through the x-only
  duplication recursion with floating renormalization plus exact modular
  tracking of the gcd cancellations (each step's gcd divides the fixed
  resultant of the duplication forms).  Converges to any practical
  tolerance at bounded cost, and exposes a per-place breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .curves import CurvePoint, WeierstrassCurve
from .errors import PrecisionExhausted
from .intlinalg import det
from .numtheory import factorize, valuation

GUARD_DIGITS = 10


def _duplication_forms(curve: WeierstrassCurve):
    """Integer quartic forms F, G with x(2P) = F(a, b)/G(a, b) for x = a/b.

    F = x^4 - b4 x^2 - 2 b6 x - b8,  G = 4x^3 + b2 x^2 + 2 b4 x + b6
    (homogenized with b).  Valid on any integral model.
    """
    inv = curve.invariants()
    b2, b4, b6, b8 = (int(inv.b2), int(inv.b4), int(inv.b6), int(inv.b8))
    F = (1, 0, -b4, -2 * b6, -b8)  # coefficients of a^4, a^3 b, ..., b^4
    G = (0, 4, b2, 2 * b4, b6)
    return F, G


def _resultant_of_forms(curve: WeierstrassCurve) -> int:
    """|Res(F(x,1), G(x,1))|, every step gcd divides this."""
    F, G = _duplication_forms(curve)
    f = list(reversed(F))  # low-to-high in x
    g = list(reversed(G))[:4]  # G(x,1) has degree 3
    return abs(_poly_resultant_int(f, g))


def _poly_resultant_int(f: list[int], g: list[int]) -> int:
    """Resultant of two integer polynomials via the Sylvester determinant."""
    while f and f[-1] == 0:
        f = f[:-1]
    while g and g[-1] == 0:
        g = g[:-1]
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    return det(rows)


def naive_height(x: Fraction) -> float:
    """log max(|numerator|, denominator)."""
    return float(
        mp.log(max(abs(x.numerator), x.denominator))
    )


def height_doubling_exact(
    curve: WeierstrassCurve, P: CurvePoint, iterations: int = 10
) -> tuple[float, float]:
    """(value, error bound) for hhat(P) by exact repeated doubling.

    Error bound: the increments delta_k = h_{k+1} - 4 h_k are bounded in
    magnitude; the truncated tail is sum_{k >= K} delta_k / 4^{k+1}, bounded
    by max|delta| / (3 * 4^K) with an observed-increment estimate of
    max|delta| (doubled for safety).
    """
    curve._require_on_curve(P)
    if P.is_infinity:
        return 0.0, 0.0
    Q = P
    heights = [naive_height(Q.x)]
    for _ in range(iterations):
        Q = curve.add(Q, Q)
        if Q.is_infinity:
            return 0.0, 0.0
        heights.append(naive_height(Q.x))
    deltas = [
        heights[k + 1] - 4 * heights[k] for k in range(len(heights) - 1)
    ]
    value = heights[0] + sum(d / 4 ** (k + 1) for k, d in enumerate(deltas))
    delta_bound = 2 * max(1.0, max(abs(d) for d in deltas))
    error = delta_bound / (3 * 4**iterations)
    return value, error


@dataclass(frozen=True)
class HeightBreakdown:
    """hhat split into an archimedean series and per-prime gcd corrections."""

    total: float
    archimedean: float
    finite: dict[int, float]  # prime -> contribution (multiple of log p)


def canonical_height(
    curve: WeierstrassCurve,
    P: CurvePoint,
    digits: int = 25,
) -> float:
    """hhat(P) to roughly the requested number of digits."""
    return canonical_height_breakdown(curve, P, digits).total


def canonical_height_breakdown(
    curve: WeierstrassCurve, P: CurvePoint, digits: int = 25
) -> HeightBreakdown:
    """Accelerated doubling limit with exact gcd accounting.

    With x(2^k P) = a_k / b_k in lowest terms and (F, G) the duplication
    forms, a_{k+1} = F(a_k, b_k) / g_k and likewise for b, where g_k =
    gcd(F, G) divides the fixed resultant R.  Hence

        hhat(P) = h(x) + sum_k 4^{-(k-1)} log(normalized form size)
                       - sum_k 4^{-(k+1)} log g_k,

    where the first series needs only floating point (renormalizing both
    coordinates each step) and the g_k come from arithmetic mod a power
    of R.  The point at infinity and 2-power torsion short-circuit to 0.
    """
    curve._require_on_curve(P)
    minimal, iso = curve.minimal_model()
    P = iso.apply_point(P)
    if P.is_infinity:
        return HeightBreakdown(0.0, 0.0, {})
    # 2-power torsion reaches O under doubling; other torsion cycles and
    # the series below correctly converges to 0 for it.
    Q = P
    for _ in range(4):
        Q = minimal.add(Q, Q)
        if Q.is_infinity:
            return HeightBreakdown(0.0, 0.0, {})

    F, G = _duplication_forms(minimal)
    R = _resultant_of_forms(minimal)
    iterations = max(12, int(digits * math.log2(10) / 2) + 8)
    modulus = R ** (iterations + 3)
    factors = factorize(R)

    # log max(|a|, b) = log b + log max(|x|, 1): denominator primes are the
    # finite part of the starting height, the rest is archimedean
    x = P.x
    den = x.denominator
    den_part = {q: valuation(den, q) for q in factorize(den)} if den > 1 else {}

    a_mod, b_mod = x.numerator % modulus, x.denominator % modulus
    with mp.workdps(digits + GUARD_DIGITS):
        af, bf = mp.mpf(x.numerator), mp.mpf(x.denominator)
        scale = max(abs(af), abs(bf))
        af, bf = af / scale, bf / scale
        arch_series = mp.log(max(abs(mp.mpf(x.numerator) / den), mp.mpf(1)))
        gcd_series: dict[int, Fraction] = {q: Fraction(0) for q in factors}
        pow4 = mp.mpf(4)
        for k in range(iterations):
            # float step on the renormalized pair
            Fv = _eval_form_mp(F, af, bf)
            Gv = _eval_form_mp(G, af, bf)
            m = max(abs(Fv), abs(Gv))
            if m == 0 or abs(m) < mp.mpf(10) ** (-(digits + GUARD_DIGITS - 8)):
                raise PrecisionExhausted(
                    "catastrophic cancellation in height recursion"
                )
            arch_series += mp.log(m) / pow4
            af, bf = Fv / m, Gv / m
            # exact gcd step through the modular shadow
            Fm = _eval_form_mod(F, a_mod, b_mod, modulus)
            Gm = _eval_form_mod(G, a_mod, b_mod, modulus)
            g = 1
            for q, cap in factors.items():
                vq = min(_val_mod(Fm, q, cap), _val_mod(Gm, q, cap))
                if vq:
                    gcd_series[q] += Fraction(vq, 4 ** (k + 1))
                    g *= q**vq
            a_mod = Fm // g % modulus
            b_mod = Gm // g % modulus
            pow4 *= 4
        finite: dict[int, float] = {}
        for q in sorted(set(den_part) | set(gcd_series)):
            e = Fraction(den_part.get(q, 0)) - gcd_series.get(q, Fraction(0))
            if e:
                finite[q] = float(
                    mp.log(q) * mp.mpf(e.numerator) / e.denominator
                )
        arch = float(arch_series)
        return HeightBreakdown(arch + sum(finite.values()), arch, finite)


def _eval_form_mp(coeffs, a, b):
    total = mp.mpf(0)
    for i, c in enumerate(coeffs):
        total += c * a ** (4 - i) * b**i
    return total


def _eval_form_mod(coeffs, a, b, modulus):
    total = 0
    pa = [1] * 5
    for i in range(1, 5):
        pa[i] = pa[i - 1] * a % modulus
    pb = [1] * 5
    for i in range(1, 5):
        pb[i] = pb[i - 1] * b % modulus
    for i, c in enumerate(coeffs):
        total = (total + c * pa[4 - i] * pb[i]) % modulus
    return total


def _val_mod(x: int, q: int, cap: int) -> int:
    """q-adic valuation of x read from a modular representative, capped."""
    v = 0
    while v < cap and x % q == 0:
        x //= q
        v += 1
    return v
