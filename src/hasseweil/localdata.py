"""Per-prime data for elliptic curves over Q.

Point counts over F_{p^k}, traces a_p, reduction classification, the full
Tate algorithm (Kodaira type, conductor exponent f_p, Tamagawa number c_p,
geometric component count m), and the global conductor.

Tate's algorithm follows Silverman, Advanced Topics, IV 9, with Cremona's
closed-form coordinate changes (Algorithms for Modular Elliptic Curves,
3.2): each step moves the model by one (r, s, t) read off its coefficients
mod p (the singular point to (0, 0); the I0* normalization p | a1, a2,
p^2 | a3, a4, p^3 | a6; the double or triple root of T^3 + bT^2 + cT + d,
which two discriminants tell apart; the roots in the I_n* loop).  Nothing
is searched.  A model found non-minimal is divided by p^i in a_i and run
again.

Counting rule: a_p at a good prime comes from the kernel's enumeration sweep
up to BSGS_SWEEP_THRESHOLD and from baby-step giant-step order finding in
the Hasse interval above it; at a bad prime it comes from Tate's algorithm.
#E(F_p) is p + 1 - a_p at every prime.  #E(F_{p^k}) for k > 1 enumerates
the field, up to p^k = ENUM_LIMIT.

Each curve's facts here (bad primes, Tate's algorithm per prime, the
conductor, the a_p table) are computed once and kept on the curve.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
from dataclasses import dataclass
from enum import Enum

from . import kernels
from .curves import WeierstrassCurve, _binvs, _translate
from .errors import BadReduction
from .finitefield import GaloisField, _poly_gcd_mod, _poly_pow_mod
from .numtheory import legendre_symbol, primes_up_to, require_prime, valuation

ENUM_LIMIT = 10**6  # largest field counted by enumerating its elements


class ReductionType(str, Enum):
    GOOD = "good"
    SPLIT_MULTIPLICATIVE = "split_multiplicative"
    NONSPLIT_MULTIPLICATIVE = "nonsplit_multiplicative"
    ADDITIVE = "additive"

    @property
    def is_multiplicative(self) -> bool:
        return self in (
            ReductionType.SPLIT_MULTIPLICATIVE,
            ReductionType.NONSPLIT_MULTIPLICATIVE,
        )


@dataclass(frozen=True)
class LocalData:
    """Everything the L-series and BSD layers need at one prime."""

    p: int
    reduction: ReductionType
    kodaira: str
    a_p: int
    f_p: int
    c_p: int
    m: int  # geometric components of the special fiber
    ord_disc: int

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "reduction": self.reduction.value,
            "kodaira": self.kodaira,
            "a_p": self.a_p,
            "f_p": self.f_p,
            "c_p": self.c_p,
            "m": self.m,
            "ord_disc": self.ord_disc,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# -- per-curve facts ----------------------------------------------------------


class _CurveData:
    """Facts about one curve's minimal model, kept on the curve as `_local`.

    `local` memoizes Tate's algorithm per prime and `counts` the field
    counts #E(F_{p^k}), k > 1, by (p, k).  `primes` and `aps` are the a_p
    table: every prime up to `bound`, in order, and its a_p.
    """

    def __init__(self, curve: WeierstrassCurve):
        minimal, _ = curve.minimal_model()
        inv = minimal.invariants()
        self.coeffs = tuple(int(a) for a in minimal.ainvs())
        self.disc, self.c4, self.c6 = int(inv.disc), int(inv.c4), int(inv.c6)
        self.bad = sorted(curve.minimal_disc_factors())
        self.conductor: int | None = None
        self.local: dict[int, LocalData] = {}
        self.counts: dict[tuple[int, int], int] = {}
        self.bound = 1
        self.primes: list[int] = []
        self.aps: list[int] = []


def _data(curve: WeierstrassCurve) -> _CurveData:
    if curve._local is None:
        curve._local = _CurveData(curve)
    return curve._local


# -- point counting -----------------------------------------------------------


def count_points(curve: WeierstrassCurve, p: int, k: int = 1) -> int:
    """#E(F_{p^k}) of the reduced minimal model, point at infinity included.

    k = 1 is p + 1 - a_p at every prime, which at a bad prime counts the
    singular reduction as-is (p, p + 2 or p + 1 for split, non-split and
    additive reduction); k > 1 requires good reduction and p^k <= ENUM_LIMIT.
    """
    require_prime(p)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return p + 1 - ap(curve, p)
    data = _data(curve)
    if p in data.bad:
        raise BadReduction(f"good reduction required at {p} for k > 1")
    require_enumerable(p, k)
    if (p, k) not in data.counts:
        data.counts[p, k] = _count_points_gf(data.coeffs, p, k)
    return data.counts[p, k]


def require_enumerable(p: int, k: int) -> None:
    """ValueError unless p^k <= ENUM_LIMIT.

    k is capped at the limit's bit length, where 2^k already exceeds it, so
    a huge k costs nothing."""
    if p ** min(k, ENUM_LIMIT.bit_length()) > ENUM_LIMIT:
        raise ValueError(f"field size {p}^{k} exceeds enumeration limit")


def _count_points_gf(coeffs, p: int, k: int, seed: int = 0) -> int:
    """#E(F_{p^k}) by enumerating the field.

    Odd p: y^2 + (a1 x + a3) y = x^3 + a2 x^2 + a4 x + a6 has 1 + chi(D)
    solutions y, with D = 4x^3 + b2 x^2 + 2 b4 x + b6 and chi the quadratic
    character, read from a q-byte table of squares indexed by the base-p
    code of an element.  p = 2: the trace test of `solve_quadratic_y`.
    """
    gf = GaloisField(p, k, seed)
    if p == 2:
        A1, A2, A3, A4, A6 = (gf.from_int(a) for a in coeffs)
        count = 1
        for x in gf.elements():
            x2 = gf.mul(x, x)
            rhs = gf.add(
                gf.add(gf.mul(x2, x), gf.mul(A2, x2)),
                gf.add(gf.mul(A4, x), A6),
            )
            count += gf.solve_quadratic_y(gf.add(gf.mul(A1, x), A3), rhs)
        return count
    b2, b4, b6 = _binvs(coeffs)[:3]
    b2, b4x2, b6 = b2 % p, 2 * b4 % p, b6 % p
    weights = [p**i for i in range(k)]

    def code(a) -> int:
        return sum(map(operator.mul, a, weights))

    square = bytearray(gf.q)
    for y in gf.elements():
        square[code(gf.mul(y, y))] = 1
    count = 1
    for x in gf.elements():
        x2 = gf.mul(x, x)
        d = [(4 * u + b2 * v + b4x2 * w) % p for u, v, w in zip(gf.mul(x2, x), x2, x)]
        d[0] = (d[0] + b6) % p
        c = code(d)
        count += 1 if c == 0 else 2 * square[c]
    return count


# -- Tate's algorithm -----------------------------------------------------------


def _count_roots_cubic(c2: int, c1: int, c0: int, p: int) -> int:
    """Number of distinct roots of x^3 + c2 x^2 + c1 x + c0 in F_p."""
    if p <= 3:
        return sum(
            1 for x in range(p) if (((x + c2) * x + c1) * x + c0) % p == 0
        )
    # degree of gcd(x^p - x, f)
    f = (c0 % p, c1 % p, c2 % p, 1)
    xp_minus_x = list(_poly_pow_mod((0, 1, 0), p, f, p))
    xp_minus_x[1] -= 1
    return max(0, len(_poly_gcd_mod(xp_minus_x, f, p)) - 1)


def _quad_has_root(alpha: int, beta: int, gamma: int, p: int) -> bool:
    if p == 2:
        return any((alpha * y * y + beta * y + gamma) % 2 == 0 for y in (0, 1))
    disc = (beta * beta - 4 * alpha * gamma) % p
    return disc == 0 or legendre_symbol(disc, p) == 1


def _tate_at_prime(a, p):
    """Tate's algorithm on integral coefficients, p-minimal or not.

    Returns (kodaira, f, c, m, reduction, n_min, restarts) where n_min is
    ord_p of the discriminant of the p-minimal model reached and restarts
    counts the divisions by p^i in a_i that reached it.
    """
    restarts = 0
    while True:
        result = _tate_once(a, p)
        if result[0] != "non-minimal":
            return (*result, restarts)
        a = result[1]
        restarts += 1


def _tate_once(a, p):
    """One pass of Tate's algorithm (Silverman, Advanced Topics, IV 9;
    Cremona, Algorithms for Modular Elliptic Curves, 3.2).

    Each step is one closed-form coordinate change.  Returns the first six
    entries of `_tate_at_prime`, or ("non-minimal", the model reached
    divided by p^i in a_i).
    """
    b2, b4, b6, b8, c4, c6, disc = _binvs(a)
    if disc % p:
        return ("I0", 0, 1, 1, ReductionType.GOOD, 0)
    n = valuation(disc, p)
    h = (p + 1) // 2  # 1/2 mod p at odd p
    # step 2: the singular point of the reduction to (0, 0)
    a1, a2, a3, a4, a6 = a
    if p == 2:
        r = (a4 if b2 % 2 == 0 else a3) % 2
        t = r * (1 + a2 + a4) + a6 if b2 % 2 == 0 else r + a4
    else:
        if p == 3:
            r = -b6 if b2 % 3 == 0 else -b2 * b4
        elif c4 % p == 0:
            r = -b2 * pow(12, -1, p)
        else:
            r = -(c6 + b2 * c4) * pow(12 * c4, -1, p)
        r %= p
        t = -(a1 * r + a3) * h
    a = a1, a2, a3, a4, a6 = _translate(a, r, 0, t % p)
    if a3 % p or a4 % p or a6 % p:
        raise AssertionError("the reduction is not singular at (0, 0)")
    b2, b4, b6, b8 = _binvs(a)[:4]

    if b2 % p:  # multiplicative: the tangents at the node are T^2 + a1 T - a2
        if _quad_has_root(1, a1, -a2, p):
            return (f"I{n}", 1, n, n, ReductionType.SPLIT_MULTIPLICATIVE, n)
        return (f"I{n}", 1, 2 - n % 2, n, ReductionType.NONSPLIT_MULTIPLICATIVE, n)

    red = ReductionType.ADDITIVE
    if a6 % p**2:
        return ("II", n, 1, 1, red, n)
    if b8 % p**3:
        return ("III", n - 1, 2, 2, red, n)
    if b6 % p**3:
        c = 3 if _quad_has_root(1, a3 // p, -(a6 // p**2), p) else 1
        return ("IV", n - 2, c, 3, red, n)

    # step 6: p | a1, a2; p^2 | a3, a4; p^3 | a6
    if p == 2:
        s, t = a2 % 2, 2 * (a6 // 4 % 2)
    else:
        s, t = -a1 * h, -a3 * h
    a = a1, a2, a3, a4, a6 = _translate(a, 0, s, t)
    if a1 % p or a2 % p or a3 % p**2 or a4 % p**2 or a6 % p**3:
        raise AssertionError("the additive model is not normalized")

    # steps 6-8: the cubic T^3 + b T^2 + c T + d, by its discriminant -w
    b, c, d = a2 // p, a4 // p**2, a6 // p**3
    w = 27 * d * d - b * b * c * c + 4 * b**3 * d - 18 * b * c * d + 4 * c**3
    x = 3 * c - b * b
    if w % p:  # distinct roots
        return ("I0*", n - 4, 1 + _count_roots_cubic(b, c, d, p), 5, red, n)

    if x % p:  # a double root, moved to 0; the loop raises my | a3 and p mx | a4 in turn
        if p == 2:
            r = c
        elif p == 3:
            r = b * c
        else:
            r = (b * c - 9 * d) * pow(2 * x, -1, p)
        a = a1, a2, a3, a4, a6 = _translate(a, p * (r % p))
        mx = my = p * p
        nu = 1
        while True:
            xa2, xa3, xa4, xa6 = a2 // p, a3 // my, a4 // (p * mx), a6 // (mx * my)
            if nu % 2:  # Y^2 + xa3 Y - xa6
                if (xa3 * xa3 + 4 * xa6) % p:
                    c = 4 if _quad_has_root(1, xa3, -xa6, p) else 2
                    return (f"I{nu}*", n - 4 - nu, c, nu + 5, red, n)
                t = my * (xa6 % 2 if p == 2 else -xa3 * h % p)
                a = _translate(a, 0, 0, t)
                my *= p
            else:  # xa2 X^2 + xa4 X + xa6
                if (xa4 * xa4 - 4 * xa2 * xa6) % p:
                    c = 4 if _quad_has_root(xa2, xa4, xa6, p) else 2
                    return (f"I{nu}*", n - 4 - nu, c, nu + 5, red, n)
                r = xa6 * xa2 % 2 if p == 2 else -xa4 * pow(2 * xa2, -1, p) % p
                a = _translate(a, mx * r)
                mx *= p
            a1, a2, a3, a4, a6 = a
            nu += 1

    # a triple root, moved to 0
    r = -d if p == 3 else -b * pow(3, -1, p)
    a = a1, a2, a3, a4, a6 = _translate(a, p * (r % p))
    x3, x6 = a3 // p**2, a6 // p**4
    if (x3 * x3 + 4 * x6) % p:
        c = 3 if _quad_has_root(1, x3, -x6, p) else 1
        return ("IV*", n - 6, c, 7, red, n)
    t = p * p * (x6 % 2 if p == 2 else -x3 * h % p)
    a = a1, a2, a3, a4, a6 = _translate(a, 0, 0, t)
    if a4 % p**4:
        return ("III*", n - 7, 2, 8, red, n)
    if a6 % p**6:
        return ("II*", n - 8, 1, 9, red, n)
    return "non-minimal", tuple(ai // p**i for ai, i in zip(a, (1, 2, 3, 4, 6)))


# -- public per-prime operations -----------------------------------------------


_BAD_AP = {
    ReductionType.SPLIT_MULTIPLICATIVE: 1,
    ReductionType.NONSPLIT_MULTIPLICATIVE: -1,
    ReductionType.ADDITIVE: 0,
}


def tate_local(curve: WeierstrassCurve, p: int) -> LocalData:
    """Kodaira type, f_p, c_p, and component count at p via Tate's algorithm."""
    data = _data(curve)
    if p not in data.local:
        require_prime(p)
        kodaira, f, c, m, red, n, restarts = _tate_at_prime(data.coeffs, p)
        if restarts:
            raise AssertionError("global minimal model was not p-minimal")
        a_p = ap(curve, p) if red is ReductionType.GOOD else _BAD_AP[red]
        data.local[p] = LocalData(p, red, kodaira, a_p, f, c, m, n)
    return data.local[p]


def reduction_type(curve: WeierstrassCurve, p: int) -> ReductionType:
    """GOOD when p does not divide the minimal discriminant, else Tate's."""
    require_prime(p)
    if _data(curve).disc % p != 0:
        return ReductionType.GOOD
    return tate_local(curve, p).reduction


def ap(curve: WeierstrassCurve, p: int) -> int:
    """Trace of Frobenius at good p; the standard {1, -1, 0} at bad p."""
    require_prime(p)
    data = _data(curve)
    if p in data.bad:
        return tate_local(curve, p).a_p
    return _good_aps(data, [p])[0]


BSGS_SWEEP_THRESHOLD = 457
"""Largest prime whose a_p is counted by enumerating F_p.

457 is Mestre's bound, not a tuning: for p > 457 the curve or its quadratic
twist has a point whose order has exactly one multiple in the Hasse
interval, which is what lets `kernels.ap_bsgs` isolate #E(F_p).
"""


def _good_aps(data: _CurveData, primes: list[int]) -> list[int]:
    """a_p at good primes, given in increasing order: the enumeration sweep
    up to BSGS_SWEEP_THRESHOLD, BSGS order finding above it."""
    cut = bisect.bisect_right(primes, BSGS_SWEEP_THRESHOLD)
    swept = kernels.ap_sweep(*data.coeffs, primes[:cut]) if cut else []
    return swept + [kernels.ap_bsgs(data.c4, data.c6, p) for p in primes[cut:]]


def ap_table(curve: WeierstrassCurve, p_max: int) -> tuple[list[int], list[int]]:
    """Every prime p <= p_max, in order, and the list of their a_p.

    Read from the curve's a_p table, which covers every prime up to the
    largest bound asked so far; a larger bound counts only the primes above
    the current one.  Good primes are counted by `_good_aps`; bad primes
    come from Tate's algorithm.
    """
    data = _data(curve)
    if p_max > data.bound:
        new = primes_up_to(p_max)
        del new[: len(data.primes)]
        good = iter(_good_aps(data, [p for p in new if data.disc % p]))
        data.aps += [next(good) if data.disc % p else tate_local(curve, p).a_p
                     for p in new]
        data.primes += new
        data.bound = p_max
    cut = bisect.bisect_right(data.primes, p_max)
    return data.primes[:cut], data.aps[:cut]


def ap_sweep(curve: WeierstrassCurve, primes: list[int]) -> dict[int, int]:
    """a_p for many primes at once, read from the curve's a_p table.

    A non-prime in `primes` raises NotPrime.
    """
    table = dict(zip(*ap_table(curve, max(primes, default=1))))
    return {p: table[p] for p in map(require_prime, primes)}


def bad_primes(curve: WeierstrassCurve) -> list[int]:
    return list(_data(curve).bad)


def conductor(curve: WeierstrassCurve) -> int:
    """N = product of p^{f_p} over bad primes of the minimal model."""
    data = _data(curve)
    if data.conductor is None:
        data.conductor = math.prod(p ** tate_local(curve, p).f_p for p in data.bad)
    return data.conductor
