"""Exact arithmetic on Weierstrass models over Q.

Curves are y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 with rational
coefficients; all arithmetic is exact (Fraction), no floating point enters
this module.  Singular input is rejected at construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

from .errors import PointNotOnCurve, SingularCurve
from .numtheory import factorize, valuation

INF = 10**9  # stand-in for an infinite p-adic valuation


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class InvariantSet(NamedTuple):
    b2: Fraction
    b4: Fraction
    b6: Fraction
    b8: Fraction
    c4: Fraction
    c6: Fraction
    disc: Fraction
    j: Fraction


@dataclass(frozen=True)
class CurvePoint:
    """Point on a Weierstrass curve: infinity or exact affine coordinates."""

    x: Fraction | None = None
    y: Fraction | None = None

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(None, None)

    @classmethod
    def affine(cls, x, y) -> "CurvePoint":
        return cls(_fr(x), _fr(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"


O = CurvePoint.infinity()


@dataclass(frozen=True)
class IsomorphismData:
    """Standard coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""

    u: Fraction
    r: Fraction = Fraction(0)
    s: Fraction = Fraction(0)
    t: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("u", "r", "s", "t"):
            object.__setattr__(self, name, _fr(getattr(self, name)))
        if self.u == 0:
            raise ValueError("scaling factor u must be nonzero")

    def apply(self, curve: "WeierstrassCurve") -> "WeierstrassCurve":
        u, r, s, t = self.u, self.r, self.s, self.t
        a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
        return WeierstrassCurve(
            (a1 + 2 * s) / u,
            (a2 - s * a1 + 3 * r - s * s) / u**2,
            (a3 + r * a1 + 2 * t) / u**3,
            (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t)
            / u**4,
            (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1)
            / u**6,
        )

    def apply_point(self, point: CurvePoint) -> CurvePoint:
        if point.is_infinity:
            return point
        u, r, s, t = self.u, self.r, self.s, self.t
        x_new = (point.x - r) / u**2
        y_new = (point.y - s * (point.x - r) - t) / u**3
        return CurvePoint(x_new, y_new)

    def compose(self, other: "IsomorphismData") -> "IsomorphismData":
        """Transformation equal to applying self first, then other."""
        u1, r1, s1, t1 = self.u, self.r, self.s, self.t
        u2, r2, s2, t2 = other.u, other.r, other.s, other.t
        return IsomorphismData(
            u1 * u2,
            r1 + u1**2 * r2,
            s1 + u1 * s2,
            t1 + u1**3 * t2 + s1 * u1**2 * r2,
        )

    def inverse(self) -> "IsomorphismData":
        u, r, s, t = self.u, self.r, self.s, self.t
        return IsomorphismData(
            1 / u, -r / u**2, -s / u, (s * r - t) / u**3
        )


class WeierstrassCurve:
    """Immutable nonsingular Weierstrass model with exact invariants.

    Derived facts are computed on first use and kept on the instance: the
    invariants, the minimal model, and the per-prime data that `localdata`
    attaches as `_local`.  They live and die with the curve.
    """

    _local = None

    def __init__(self, a1, a2, a3, a4, a6):
        self.a1, self.a2, self.a3, self.a4, self.a6 = (
            _fr(a1),
            _fr(a2),
            _fr(a3),
            _fr(a4),
            _fr(a6),
        )
        if self.invariants().disc == 0:
            raise SingularCurve(f"discriminant vanishes for {self.ainvs()}")

    # -- basic data ---------------------------------------------------------

    def ainvs(self) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeierstrassCurve) and self.ainvs() == other.ainvs()

    def __hash__(self) -> int:
        return hash(self.ainvs())

    def __repr__(self) -> str:
        return f"WeierstrassCurve{tuple(str(a) for a in self.ainvs())}"

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.ainvs())

    def invariants(self) -> InvariantSet:
        """b-, c-invariants, discriminant and j, all exact (computed once)."""
        return self._inv

    @cached_property
    def _inv(self) -> InvariantSet:
        a1, a2, a3, a4, a6 = self.ainvs()
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        c4 = b2 * b2 - 24 * b4
        c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
        disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        j = c4**3 / disc if disc != 0 else Fraction(0)
        return InvariantSet(b2, b4, b6, b8, c4, c6, disc, j)

    @property
    def discriminant(self) -> Fraction:
        return self._inv.disc

    @property
    def j_invariant(self) -> Fraction:
        return self._inv.j

    # -- point predicates and the group law ---------------------------------

    def equation_lhs_minus_rhs(self, x: Fraction, y: Fraction) -> Fraction:
        a1, a2, a3, a4, a6 = self.ainvs()
        return y * y + a1 * x * y + a3 * y - (x**3 + a2 * x * x + a4 * x + a6)

    def contains(self, point: CurvePoint) -> bool:
        if point.is_infinity:
            return True
        return self.equation_lhs_minus_rhs(point.x, point.y) == 0

    def _require_on_curve(self, point: CurvePoint) -> None:
        if not self.contains(point):
            raise PointNotOnCurve(f"{point} not on {self}")

    def point(self, x, y) -> CurvePoint:
        p = CurvePoint.affine(x, y)
        self._require_on_curve(p)
        return p

    def neg(self, point: CurvePoint) -> CurvePoint:
        if point.is_infinity:
            return point
        self._require_on_curve(point)
        return CurvePoint(point.x, -point.y - self.a1 * point.x - self.a3)

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        """Chord-tangent addition."""
        self._require_on_curve(P)
        self._require_on_curve(Q)
        if P.is_infinity:
            return Q
        if Q.is_infinity:
            return P
        a1, a2, a3, a4, a6 = self.ainvs()
        x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
        if x1 == x2:
            if y1 + y2 + a1 * x2 + a3 == 0:
                return O
            # tangent line at a doubling
            lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (
                2 * y1 + a1 * x1 + a3
            )
            nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) / (
                2 * y1 + a1 * x1 + a3
            )
        else:
            lam = (y2 - y1) / (x2 - x1)
            nu = y1 - lam * x1
        x3 = lam * lam + a1 * lam - a2 - x1 - x2
        y3 = -(lam + a1) * x3 - nu - a3
        return CurvePoint(x3, y3)

    def mul(self, n: int, P: CurvePoint) -> CurvePoint:
        """Scalar multiple nP by double-and-add."""
        self._require_on_curve(P)
        if n < 0:
            return self.mul(-n, self.neg(P))
        result, addend = O, P
        while n:
            if n & 1:
                result = self.add(result, addend)
            addend = self.add(addend, addend)
            n >>= 1
        return result

    def order_of_point(self, P: CurvePoint, cap: int = 12) -> int | None:
        """Exact order of P if at most cap, else None."""
        Q = P
        for n in range(1, cap + 1):
            if Q.is_infinity:
                return n
            Q = self.add(Q, P)
        return None

    # -- minimal model (Laska-Kraus-Connell) --------------------------------

    def integral_model(self) -> tuple["WeierstrassCurve", IsomorphismData]:
        """Clear denominators with a pure scaling."""
        d = 1
        for a in self.ainvs():
            d = d * a.denominator // math.gcd(d, a.denominator)
        iso = IsomorphismData(Fraction(1, d))
        return iso.apply(self), iso

    def minimal_model(self) -> tuple["WeierstrassCurve", IsomorphismData]:
        """Global minimal model and the transformation reaching it (computed once)."""
        return self._minimal

    @cached_property
    def _minimal(self) -> tuple["WeierstrassCurve", IsomorphismData]:
        integral, iso0 = self.integral_model()
        inv = integral.invariants()
        c4, c6, disc = int(inv.c4), int(inv.c6), int(inv.disc)

        def val(n: int, p: int) -> int:
            return valuation(n, p) if n != 0 else INF

        u = 1
        primes = set(factorize(disc))
        for p in sorted(primes):
            k = min(val(c4, p) // 4, val(c6, p) // 6, val(disc, p) // 12)
            if p in (2, 3):
                while k > 0 and not _kraus_ok(
                    c4 // p ** (4 * k), c6 // p ** (6 * k), p
                ):
                    k -= 1
            u *= p**k
        c4m, c6m = c4 // u**4, c6 // u**6
        minimal = curve_from_c4c6(c4m, c6m)

        # recover the translation part of (u, r, s, t) from the coefficients
        uf = Fraction(u)
        s = (uf * minimal.a1 - integral.a1) / 2
        r = (uf**2 * minimal.a2 - integral.a2 + s * integral.a1 + s * s) / 3
        t = (uf**3 * minimal.a3 - integral.a3 - r * integral.a1) / 2
        iso1 = IsomorphismData(uf, r, s, t)
        if iso1.apply(integral) != minimal:
            raise AssertionError("minimal-model transformation failed to verify")
        return minimal, iso0.compose(iso1)

    # -- rational points -----------------------------------------------------

    def point_search(self, height_bound: int) -> list[CurvePoint]:
        """All points with x = a/d^2, max(|a|, d^2) <= bound, plus O."""
        if height_bound < 0:
            raise ValueError("height bound must be >= 0")
        points = [O]
        seen = set()
        d = 1
        while d * d <= height_bound:
            for a in range(-height_bound, height_bound + 1):
                if math.gcd(a, d) != 1:
                    continue
                x = Fraction(a, d * d)
                for y in self._lift_x(x):
                    key = (x, y)
                    if key not in seen:
                        seen.add(key)
                        points.append(CurvePoint(x, y))
            d += 1
        return points

    def _lift_x(self, x: Fraction) -> list[Fraction]:
        """Rational y with (x, y) on the curve."""
        a1, a2, a3, a4, a6 = self.ainvs()
        b = a1 * x + a3
        rhs = x**3 + a2 * x * x + a4 * x + a6
        disc = b * b + 4 * rhs
        if disc < 0:
            return []
        root = _fraction_sqrt(disc)
        if root is None:
            return []
        ys = {(-b + root) / 2, (-b - root) / 2}
        return sorted(ys)

    # -- torsion --------------------------------------------------------------

    def torsion_subgroup(self) -> tuple[str, list[CurvePoint]]:
        """Torsion structure by Nagell-Lutz enumeration on the minimal model.

        Returns a structure string ("trivial", "Z/n", or "Z/2 x Z/n") and
        generators in *this* curve's coordinates.
        """
        structure, gens, _ = self._torsion_data()
        return structure, gens

    def torsion_order(self) -> int:
        return self._torsion_data()[2]

    def _torsion_data(self) -> tuple[str, list[CurvePoint], int]:
        minimal, iso = self.minimal_model()
        structure, gens_min, order = _torsion_of_minimal(minimal)
        back = iso.inverse()
        return structure, [back.apply_point(P) for P in gens_min], order


def _kraus_ok(c4: int, c6: int, p: int) -> bool:
    """Kraus's local condition for (c4, c6) to come from an integral model."""
    if p == 3:
        return c6 == 0 or valuation(c6, 3) != 2
    if p == 2:
        if c6 % 4 == 3:
            return True
        return c4 % 16 == 0 and c6 % 32 in (0, 8)
    return True


def curve_from_c4c6(c4: int, c6: int) -> WeierstrassCurve:
    """Reduced integral model with the given c-invariants.

    Valid whenever (c4, c6) satisfies Kraus's conditions; produces the
    canonical representative with a1, a3 in {0,1} and a2 in {-1,0,1}.
    """
    b2 = (-c6) % 12
    if b2 > 6:
        b2 -= 12
    b4, rem4 = divmod(b2 * b2 - c4, 24)
    b6, rem6 = divmod(-(b2**3) + 36 * b2 * b4 - c6, 216)
    if rem4 or rem6:
        raise ValueError("(c4, c6) not compatible with any integral model")
    a1 = b2 % 2
    a3 = b6 % 2
    if (b2 - a1) % 4 or (b4 - a1 * a3) % 2 or (b6 - a3) % 4:
        raise ValueError("(c4, c6) violates Kraus's conditions")
    a2 = (b2 - a1) // 4
    a4 = (b4 - a1 * a3) // 2
    a6 = (b6 - a3) // 4
    return WeierstrassCurve(a1, a2, a3, a4, a6)


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _icbrt(n: int) -> int:
    """Floor cube root of a nonnegative integer (Newton iteration)."""
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _integer_cubic_roots(c2: int, c1: int, c0: int) -> list[int]:
    """Integer roots of x^3 + c2 x^2 + c1 x + c0, exactly.

    Bisection on monotone pieces; the critical points of the cubic are
    bracketed with exact integer comparisons, so no root can be missed.
    """

    def f(x: int) -> int:
        return ((x + c2) * x + c1) * x + c0

    # Fujiwara root bound for a monic cubic, with slack
    bound = 2 + 2 * max(abs(c2), math.isqrt(abs(c1)) + 1, _icbrt(abs(c0)) + 1)
    disc = c2 * c2 - 3 * c1  # discriminant of f'/1 = 3x^2 + 2 c2 x + c1
    intervals: list[tuple[int, int]]
    if disc <= 0:
        intervals = [(-bound, bound)]  # f monotone increasing
    else:
        rt = math.isqrt(disc)

        def ge_crit_lo(k: int) -> bool:
            # k >= (-c2 - sqrt(disc)) / 3 ?
            m = 3 * k + c2
            return m >= 0 or m * m <= disc

        def le_crit_hi(k: int) -> bool:
            # k <= (-c2 + sqrt(disc)) / 3 ?
            m = 3 * k + c2
            return m <= 0 or m * m <= disc

        k1 = (-c2 - rt) // 3 - 1
        while not ge_crit_lo(k1):
            k1 += 1
        k2 = (-c2 + rt) // 3 + 1
        while not le_crit_hi(k2):
            k2 -= 1
        if k1 <= k2:
            intervals = [(-bound, k1 - 1), (k1, k2), (k2 + 1, bound)]
        else:
            intervals = [(-bound, bound)]
    roots = set()
    for lo, hi in intervals:
        if lo > hi:
            continue
        flo, fhi = f(lo), f(hi)
        if flo == 0:
            roots.add(lo)
        if fhi == 0:
            roots.add(hi)
        if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            continue
        a, b = lo, hi
        while b - a > 1:
            mid = (a + b) // 2
            fm = f(mid)
            if fm == 0:
                roots.add(mid)
                break
            if (fm > 0) == (fhi > 0):
                b, fhi = mid, fm
            else:
                a, flo = mid, fm
    return sorted(r for r in roots if f(r) == 0)


@lru_cache(maxsize=128)
def _torsion_points_short(A: int, B: int) -> tuple[tuple[int, int], ...]:
    """Nagell-Lutz candidates on y^2 = x^3 + Ax + B that verify as torsion."""
    D = abs(4 * A**3 + 27 * B * B)
    ys = {1}
    for d, e in factorize(D).items():
        ys = {y * d**k for y in ys for k in range(e // 2 + 1)}
    ys.add(0)
    curve = WeierstrassCurve(0, 0, 0, A, B)
    found = []
    for y in sorted(ys):
        for x in _integer_cubic_roots(0, A, B - y * y):
            for yy in {y, -y}:
                P = CurvePoint(Fraction(x), Fraction(yy))
                if curve.contains(P) and curve.order_of_point(P) is not None:
                    found.append((x, yy))
    return tuple(sorted(set(found)))


def _torsion_of_minimal(
    curve: WeierstrassCurve,
) -> tuple[str, list[CurvePoint], int]:
    inv = curve.invariants()
    A, B = int(-27 * inv.c4), int(-54 * inv.c6)
    b2, a1, a3 = inv.b2, curve.a1, curve.a3
    points: list[CurvePoint] = []
    for X, Y in _torsion_points_short(A, B):
        x = (Fraction(X) - 3 * b2) / 36
        y = (Fraction(Y) / 108 - a1 * x - a3) / 2
        P = CurvePoint(x, y)
        if curve.contains(P) and curve.order_of_point(P) is not None:
            points.append(P)
    pts = [O] + points
    orders = {P: curve.order_of_point(P) for P in pts}
    t = len(pts)
    max_order = max(orders.values())
    gen = next(P for P in pts if orders[P] == max_order)
    if t == 1:
        return "trivial", [], 1
    if max_order == t:
        return f"Z/{t}", [gen], t
    # nontrivial 2-part: Z/2 x Z/max_order, of size 2 * max_order
    cyc = {curve.mul(k, gen) for k in range(max_order)}
    extra = next(P for P in pts if orders[P] == 2 and P not in cyc)
    return f"Z/2 x Z/{max_order}", [gen, extra], 2 * max_order


def parse_curve(tokens: Iterable[str] | str) -> WeierstrassCurve:
    """Parse 'a1 a2 a3 a4 a6' tokens or a JSON array of five literals."""
    if isinstance(tokens, str):
        text = tokens.strip()
        if text.startswith("["):
            tokens = json.loads(text)
        else:
            tokens = text.split()
    values = [Fraction(str(tok)) for tok in tokens]
    if len(values) != 5:
        raise ValueError("expected exactly five coefficients a1 a2 a3 a4 a6")
    return WeierstrassCurve(*values)
