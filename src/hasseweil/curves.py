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
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import PointNotOnCurve, SingularCurve
from .numtheory import factorize, iroot, valuation

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


def _binvs(a):
    """b2, b4, b6, b8, c4, c6 and the discriminant of the coefficients a1..a6."""
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, disc


def _translate(a, r=0, s=0, t=0):
    """The coefficients a1..a6 after x = x' + r, y = y' + s x' + t (u = 1)."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


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
        a = _translate(curve.ainvs(), self.r, self.s, self.t)
        return WeierstrassCurve(*(ai / self.u**i for ai, i in zip(a, (1, 2, 3, 4, 6))))

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
    invariants, the minimal model with its discriminant's factorization, the
    torsion subgroup, and the per-prime data that `localdata` attaches as
    `_local`.  They live and die with the curve.
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
        b2, b4, b6, b8, c4, c6, disc = _binvs(self.ainvs())
        j = c4**3 / disc if disc != 0 else Fraction(0)
        return InvariantSet(b2, b4, b6, b8, c4, c6, disc, j)

    @property
    def discriminant(self) -> Fraction:
        return self._inv.disc

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
        return self._chord_tangent(P, Q)

    def _chord_tangent(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        """P + Q for points known to lie on the curve (unchecked)."""
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
        """Scalar multiple nP by double-and-add, P checked once."""
        if n < 0:
            n, P = -n, self.neg(P)
        else:
            self._require_on_curve(P)
        result, addend = O, P
        while n:
            if n & 1:
                result = self._chord_tangent(result, addend)
            addend = self._chord_tangent(addend, addend)
            n >>= 1
        return result

    def order_of_point(self, P: CurvePoint, cap: int = 12) -> int | None:
        """Exact order of P if at most cap, else None.

        On an integral model each multiple of a torsion point is O, of order 2
        (2y + a1 x + a3 = 0) or integral (Nagell-Lutz), so any other multiple
        with fractional x ends the walk.
        """
        self._require_on_curve(P)
        integral = self.is_integral()
        Q = P
        for n in range(1, cap + 1):
            if Q.is_infinity:
                return n
            if integral and Q.x.denominator != 1 and 2 * Q.y + self.a1 * Q.x + self.a3:
                return None
            Q = self._chord_tangent(Q, P)
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
        return self._minimal[0]

    def minimal_disc_factors(self) -> dict[int, int]:
        """{p: ord_p} of the minimal discriminant, from the minimal model's factorization."""
        return self._minimal[1]

    @cached_property
    def _minimal(self) -> tuple[tuple["WeierstrassCurve", IsomorphismData], dict[int, int]]:
        integral, iso0 = self.integral_model()
        inv = integral.invariants()
        c4, c6, disc = int(inv.c4), int(inv.c6), int(inv.disc)

        def val(n: int, p: int) -> int:
            return valuation(n, p) if n != 0 else INF

        u = 1
        factors = {}
        for p, e in factorize(disc).items():
            k = min(val(c4, p) // 4, val(c6, p) // 6, e // 12)
            if p in (2, 3):
                while k > 0 and not _kraus_ok(
                    c4 // p ** (4 * k), c6 // p ** (6 * k), p
                ):
                    k -= 1
            u *= p**k
            if e > 12 * k:
                factors[p] = e - 12 * k
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
        return (minimal, iso0.compose(iso1)), factors

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
        structure, gens, _ = self._torsion_data
        return structure, gens

    def torsion_order(self) -> int:
        return self._torsion_data[2]

    @cached_property
    def _torsion_data(self) -> tuple[str, list[CurvePoint], int]:
        # psi2 = 2y + a1 x + a3 has psi2^2 = 4x^3 + b2 x^2 + 2 b4 x + b6.  On the
        # integral minimal model a torsion point has psi2 = 0 (order 2, 4x in Z)
        # or integral x and psi2^2 | 2^4 3^6 disc (Nagell-Lutz on the model
        # (36x + 3 b2, 108 psi2)); X = 4x is an integer root of
        # X^3 + b2 X^2 + 8 b4 X + 16 (b6 - psi2^2).
        minimal, iso = self.minimal_model()
        b2, b4, b6 = (int(b) for b in minimal.invariants()[:3])
        exponents = dict(self.minimal_disc_factors())
        exponents[2] = exponents.get(2, 0) + 4
        exponents[3] = exponents.get(3, 0) + 6
        divisors = {1}
        for p, e in exponents.items():
            divisors = {d * p**k for d in divisors for k in range(e // 2 + 1)}
        found = []
        for d in [0, *divisors]:
            for X in _integer_cubic_roots(b2, 8 * b4, 16 * (b6 - d * d)):
                if d and X % 4:
                    continue  # not 2-torsion, so x must be integral
                x = Fraction(X, 4)
                n = minimal.order_of_point(CurvePoint(x, (d - minimal.a1 * x - minimal.a3) / 2))
                if n is not None:  # -P, at psi2 = -d, has the same order
                    found += [(x, psi, CurvePoint(x, (psi - minimal.a1 * x - minimal.a3) / 2), n)
                              for psi in {d, -d}]
        found.sort(key=lambda f: f[:2])
        t = len(found) + 1
        if t == 1:
            return "trivial", [], 1
        max_order = max(n for *_, n in found)
        gens = [next(P for *_, P, n in found if n == max_order)]
        if max_order < t:
            # nontrivial 2-part: Z/2 x Z/max_order, of size 2 * max_order
            cyc = {minimal.mul(k, gens[0]) for k in range(max_order)}
            gens.append(next(P for *_, P, n in found if n == 2 and P not in cyc))
        structure = f"Z/{t}" if max_order == t else f"Z/2 x Z/{max_order}"
        back = iso.inverse()
        return structure, [back.apply_point(P) for P in gens], t


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


def _integer_cubic_roots(c2: int, c1: int, c0: int) -> list[int]:
    """Integer roots of x^3 + c2 x^2 + c1 x + c0, exactly: its one-point brackets."""
    return [lo for lo, hi in _cubic_brackets(c2, c1, c0) if lo == hi]


def _cubic_brackets(c2: int, c1: int, c0: int) -> list[tuple[int, int]]:
    """Sorted integer brackets [lo, hi], hi - lo <= 1, of the real roots of
    x^3 + c2 x^2 + c1 x + c0, exactly.

    Cuts on either side of each critical point split the line into monotone
    pieces and the unit cells that hold a critical point.  An integer root is
    its own bracket [r, r]; each other sign change is bisected to a unit cell.
    Two roots in one critical cell show no sign change: a caller that knows
    the root count checks it.
    """

    def f(x: int) -> int:
        return ((x + c2) * x + c1) * x + c0

    # Fujiwara root bound for a monic cubic, with slack
    bound = 2 + 2 * max(abs(c2), math.isqrt(abs(c1)) + 1, iroot(abs(c0), 3) + 1)
    disc = c2 * c2 - 3 * c1  # discriminant of f'/1 = 3x^2 + 2 c2 x + c1
    cuts = {-bound, bound}
    if disc > 0:  # n <= sqrt(disc) iff n <= isqrt(disc) for an integer n, so
        rt = math.isqrt(disc)  # k1 = ceil(crit_lo) and k2 = floor(crit_hi) exactly
        k1, k2 = -((c2 + rt) // 3), (rt - c2) // 3
        cuts |= {k1 - 1, k1, k2, k2 + 1}
    cuts = sorted(cuts)
    values = [f(x) for x in cuts]
    brackets = []
    for lo, hi, flo, fhi in zip(cuts, cuts[1:], values, values[1:]):
        if flo == 0:
            brackets.append((lo, lo))
        elif fhi != 0 and (flo > 0) != (fhi > 0):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                fm = f(mid)
                if fm == 0:
                    lo = hi = mid
                elif (fm > 0) == (fhi > 0):
                    hi = mid
                else:
                    lo = mid
            brackets.append((lo, hi))
    return brackets


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
