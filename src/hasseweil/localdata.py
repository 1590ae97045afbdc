"""Per-prime data for elliptic curves over Q.

Point counts over F_{p^k}, traces a_p, reduction classification, the full
Tate algorithm (Kodaira type, conductor exponent f_p, Tamagawa number c_p,
geometric component count m), and the global conductor.

Counting strategy: exhaustive enumeration through the kernel module for
p^k up to ENUM_LIMIT, baby-step giant-step order finding inside the Hasse
interval for larger primes (k = 1, good reduction).

Each curve's facts here (bad primes, Tate's algorithm per prime, the
conductor, the a_p table) are computed once and kept on the curve.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from enum import Enum

from . import kernels
from .curves import WeierstrassCurve
from .errors import BadReduction
from .finitefield import GaloisField
from .numtheory import factorize, legendre_symbol, primes_up_to, require_prime, valuation

ENUM_LIMIT = 10**6


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

    `local` memoizes Tate's algorithm per prime.  `primes` and `aps` are the
    a_p table: every prime up to `bound`, in order, and its a_p.
    """

    def __init__(self, curve: WeierstrassCurve):
        minimal, _ = curve.minimal_model()
        inv = minimal.invariants()
        self.coeffs = tuple(int(a) for a in minimal.ainvs())
        self.disc, self.c4, self.c6 = int(inv.disc), int(inv.c4), int(inv.c6)
        self.bad = sorted(factorize(self.disc))
        self.conductor: int | None = None
        self.local: dict[int, LocalData] = {}
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

    k = 1 counts the (possibly singular) reduction as-is; k > 1 requires
    good reduction.
    """
    require_prime(p)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return _count_points_k1(curve, p)
    if reduction_type(curve, p) is not ReductionType.GOOD:
        raise BadReduction(f"good reduction required at {p} for k > 1")
    if p**k > ENUM_LIMIT:
        raise ValueError(f"field size {p}^{k} exceeds enumeration limit")
    return _count_points_gf(_data(curve).coeffs, p, k)


def _count_points_k1(curve, p: int) -> int:
    data = _data(curve)
    if p <= ENUM_LIMIT:
        return kernels.count_points_mod_p(*data.coeffs, p)
    red = reduction_type(curve, p)
    if red is ReductionType.GOOD:
        return p + 1 - kernels.ap_bsgs(data.c4, data.c6, p)
    # singular reductions have p - 1, p + 1, or p nonsingular points,
    # plus the one singular point
    if red is ReductionType.SPLIT_MULTIPLICATIVE:
        return p
    if red is ReductionType.NONSPLIT_MULTIPLICATIVE:
        return p + 2
    return p + 1


def _count_points_gf(coeffs, p: int, k: int, seed: int = 0) -> int:
    a1, a2, a3, a4, a6 = coeffs
    gf = GaloisField(p, k, seed)
    A1, A2, A3, A4, A6 = (gf.from_int(a) for a in coeffs)
    count = 1
    for x in gf.elements():
        x2 = gf.mul(x, x)
        rhs = gf.add(
            gf.add(gf.mul(x2, x), gf.mul(A2, x2)),
            gf.add(gf.mul(A4, x), A6),
        )
        b = gf.add(gf.mul(A1, x), A3)
        count += gf.solve_quadratic_y(b, rhs)
    return count


# -- mod-p polynomial helpers for Tate's algorithm ----------------------------


def _poly_gcd_mod(f: list[int], g: list[int], p: int) -> list[int]:
    """Monic gcd of dense low-to-high polynomials over F_p."""

    def norm(h):
        while h and h[-1] % p == 0:
            h.pop()
        return h

    f, g = norm([x % p for x in f]), norm([x % p for x in g])
    while g:
        inv = pow(g[-1], p - 2, p)
        # f mod g
        f = f[:]
        while len(f) >= len(g):
            c = f[-1] * inv % p
            if c:
                off = len(f) - len(g)
                for i, gc in enumerate(g):
                    f[off + i] = (f[off + i] - c * gc) % p
            f.pop()
            f = norm(f)
            if not f:
                break
        f, g = g, f
    if not f:
        return []
    inv = pow(f[-1], p - 2, p)
    return [c * inv % p for c in f]


def _count_roots_cubic(c2: int, c1: int, c0: int, p: int) -> int:
    """Number of distinct roots of x^3 + c2 x^2 + c1 x + c0 in F_p."""
    if p <= 3:
        return sum(
            1 for x in range(p) if (((x + c2) * x + c1) * x + c0) % p == 0
        )
    # gcd(x^p - x, f) degree
    f = [c0 % p, c1 % p, c2 % p, 1]
    xp = _poly_powmod_x(p, f, p)
    xp_minus_x = xp[:]
    while len(xp_minus_x) < 2:
        xp_minus_x.append(0)
    xp_minus_x[1] = (xp_minus_x[1] - 1) % p
    return max(0, len(_poly_gcd_mod(xp_minus_x, f, p)) - 1)


def _poly_powmod_x(e: int, modpoly: list[int], p: int) -> list[int]:
    """x^e mod (modpoly, p), dense low-to-high."""

    def mulmod(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        # reduce
        k = len(modpoly) - 1
        inv = pow(modpoly[-1], p - 2, p)
        for i in range(len(out) - 1, k - 1, -1):
            c = out[i] * inv % p
            if c:
                for j in range(k + 1):
                    out[i - k + j] = (out[i - k + j] - c * modpoly[j]) % p
        out = out[:k]
        while len(out) < k:
            out.append(0)
        return out

    result = [1] + [0] * (len(modpoly) - 2)
    base = [0, 1] + [0] * (len(modpoly) - 3) if len(modpoly) > 3 else [0, 1]
    while e:
        if e & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        e >>= 1
    return result


def _cubic_analysis(c2: int, c1: int, c0: int, p: int):
    """Multiplicity structure of a monic cubic mod p.

    Returns ("distinct", n_roots_in_Fp), ("double", r), or ("triple", r).
    """
    c2, c1, c0 = c2 % p, c1 % p, c0 % p
    if p <= 3:
        roots = [x for x in range(p) if (((x + c2) * x + c1) * x + c0) % p == 0]
        for r in roots:
            # multiplicity via exact division
            q2 = (c2 + r) % p
            q1 = (c1 + r * q2) % p
            # f = (x - r)(x^2 + q2 x + q1); check multiplicity of r in quadratic
            if (r * r + q2 * r + q1) % p == 0:
                q0 = (q2 + r) % p
                if (r + q0) % p == 0:
                    return ("triple", r)
                return ("double", r)
        return ("distinct", len(roots))
    f = [c0, c1, c2, 1]
    fp = [c1 % p, 2 * c2 % p, 3 % p]
    g = _poly_gcd_mod(f, fp, p)
    if len(g) <= 1:
        return ("distinct", _count_roots_cubic(c2, c1, c0, p))
    if len(g) == 2:  # linear: one double root
        return ("double", (-g[0]) % p)
    # g quadratic: triple root, g = (x - r)^2
    r = (-g[1] * pow(2, p - 2, p)) % p
    return ("triple", r)


def _quad_separable(alpha: int, beta: int, gamma: int, p: int) -> bool:
    """Is alpha Y^2 + beta Y + gamma separable mod p (alpha nonzero mod p)?"""
    if p == 2:
        return beta % 2 == 1
    return (beta * beta - 4 * alpha * gamma) % p != 0


def _quad_has_root(alpha: int, beta: int, gamma: int, p: int) -> bool:
    if p == 2:
        return any((alpha * y * y + beta * y + gamma) % 2 == 0 for y in (0, 1))
    disc = (beta * beta - 4 * alpha * gamma) % p
    return disc == 0 or legendre_symbol(disc, p) == 1


def _quad_double_root(alpha: int, beta: int, gamma: int, p: int) -> int:
    """The double root of an inseparable quadratic mod p."""
    if p == 2:
        # beta even: alpha Y^2 + gamma = alpha (Y^2 + gamma/alpha)
        return (gamma * alpha) % 2
    return (-beta) * pow(2 * alpha, p - 2, p) % p


# -- Tate's algorithm ----------------------------------------------------------


def _binvs(a):
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, disc


def _translate(a, r=0, s=0, t=0):
    """Integral coordinate change with u = 1."""
    a1, a2, a3, a4, a6 = a
    return (
        a1 + 2 * s,
        a2 - s * a1 + 3 * r - s * s,
        a3 + r * a1 + 2 * t,
        a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
        a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1,
    )


def _move_singular_point_to_origin(a, p):
    a1, a2, a3, a4, a6 = a
    if p == 2:
        for x0 in (0, 1):
            for y0 in (0, 1):
                eq = (y0 * y0 + a1 * x0 * y0 + a3 * y0
                      - x0**3 - a2 * x0 * x0 - a4 * x0 - a6) % 2
                fx = (a1 * y0 + x0 * x0 + a4) % 2
                fy = (a1 * x0 + a3) % 2
                if eq == 0 and fx == 0 and fy == 0:
                    return _translate(a, r=x0, t=y0)
        raise AssertionError("no singular point found mod 2")
    # odd p: the singular x is the repeated root of 4x^3 + b2x^2 + 2b4x + b6
    b2, b4, b6, _, _ = _binvs(a)
    inv4 = pow(4, -1, p)
    inv2 = pow(2, -1, p)
    kind, data = _cubic_analysis(b2 * inv4 % p, b4 * inv2 % p, b6 * inv4 % p, p)
    if kind == "distinct":
        raise AssertionError("reduction not singular at p")
    x0 = data
    y0 = (-(a1 * x0 + a3) * inv2) % p
    return _translate(a, r=x0, t=y0)


def _normalize_additive(a, p):
    """Arrange p|a1,a2, p^2|a3,a4, p^3|a6 (entry conditions of the I0*
    branch); assumes the singular point sits at the origin and p | b2."""
    if p == 2:
        for s in range(8):
            for r in range(0, 16, 2):
                for t in range(0, 16, 2):
                    cand = _translate(a, r=r, s=s, t=t)
                    if _additive_normalized(cand, p):
                        return cand
        raise AssertionError("step-6 normalization failed at p=2")
    inv2 = pow(2, -1, p * p)
    s = (-a[0] * inv2) % (p * p)
    a = _translate(a, s=s)
    t = (-a[2] * inv2) % (p * p)
    a = _translate(a, t=t)
    if not _additive_normalized(a, p):
        raise AssertionError("step-6 normalization failed")
    return a


def _additive_normalized(a, p):
    a1, a2, a3, a4, a6 = a
    return (
        a1 % p == 0
        and a2 % p == 0
        and a3 % p**2 == 0
        and a4 % p**2 == 0
        and a6 % p**3 == 0
    )


def _tate_at_prime(a, p):
    """Tate's algorithm on integral coefficients, p-minimal or not.

    Returns (kodaira, f, c, m, reduction, n_min, restarts) where n_min is
    ord_p of the discriminant of the p-minimal model reached.
    """
    restarts = 0
    while True:
        result = _tate_once(a, p)
        if result == "non-minimal":
            a1, a2, a3, a4, a6 = a
            a = (
                a1 // p,
                a2 // p**2,
                a3 // p**3,
                a4 // p**4,
                a6 // p**6,
            )
            restarts += 1
            continue
        kodaira, f, c, m, reduction, n = result
        return kodaira, f, c, m, reduction, n, restarts


def _tate_once(a, p):
    b2, b4, b6, b8, disc = _binvs(a)
    if disc % p != 0:
        return ("I0", 0, 1, 1, ReductionType.GOOD, 0)
    n = valuation(disc, p)
    a = _move_singular_point_to_origin(a, p)
    a1, a2, a3, a4, a6 = a
    b2, b4, b6, b8, disc = _binvs(a)

    if b2 % p != 0:
        # multiplicative: tangent directions from T^2 + a1 T - a2
        split = _quad_has_root(1, a1, -a2, p)
        if split:
            c = n
            red = ReductionType.SPLIT_MULTIPLICATIVE
        else:
            c = 2 if n % 2 == 0 else 1
            red = ReductionType.NONSPLIT_MULTIPLICATIVE
        return (f"I{n}", 1, c, n, red, n)

    red = ReductionType.ADDITIVE
    if _val(a6, p) < 2:
        return ("II", n, 1, 1, red, n)
    if _val(b8, p) < 3:
        return ("III", n - 1, 2, 2, red, n)
    if _val(b6, p) < 3:
        c = 3 if _quad_has_root(1, a3 // p, -(a6 // p**2), p) else 1
        return ("IV", n - 2, c, 3, red, n)

    a = _normalize_additive(a, p)
    a1, a2, a3, a4, a6 = a
    kind, data = _cubic_analysis(a2 // p, a4 // p**2, a6 // p**3, p)
    if kind == "distinct":
        c = 1 + _count_roots_cubic(
            (a2 // p) % p, (a4 // p**2) % p, (a6 // p**3) % p, p
        )
        return ("I0*", n - 4, c, 5, red, n)

    if kind == "double":
        a = _translate(a, r=p * data)
        a1, a2, a3, a4, a6 = a
        nu = 1
        while True:
            if nu % 2 == 1:
                k = (nu + 3) // 2
                A3, A6 = a3 // p**k, a6 // p ** (nu + 3)
                if _quad_separable(1, A3, -A6, p):
                    c = 4 if _quad_has_root(1, A3, -A6, p) else 2
                    return (f"I{nu}*", n - 4 - nu, c, nu + 5, red, n)
                y1 = _quad_double_root(1, A3, -A6, p)
                a = _translate(a, t=p**k * y1)
            else:
                k = (nu + 4) // 2
                A2, A4, A6 = a2 // p, a4 // p**k, a6 // p ** (nu + 3)
                if _quad_separable(A2, A4, A6, p):
                    c = 4 if _quad_has_root(A2, A4, A6, p) else 2
                    return (f"I{nu}*", n - 4 - nu, c, nu + 5, red, n)
                x1 = _quad_double_root(A2, A4, A6, p)
                a = _translate(a, r=p ** (k - 1) * x1)
            a1, a2, a3, a4, a6 = a
            nu += 1

    # triple root
    a = _translate(a, r=p * data)
    a1, a2, a3, a4, a6 = a
    A3, A6 = a3 // p**2, a6 // p**4
    if _quad_separable(1, A3, -A6, p):
        c = 3 if _quad_has_root(1, A3, -A6, p) else 1
        return ("IV*", n - 6, c, 7, red, n)
    y1 = _quad_double_root(1, A3, -A6, p)
    a = _translate(a, t=p**2 * y1)
    a1, a2, a3, a4, a6 = a
    if _val(a4, p) < 4:
        return ("III*", n - 7, 2, 8, red, n)
    if _val(a6, p) < 6:
        return ("II*", n - 8, 1, 9, red, n)
    return "non-minimal"


def _val(x: int, p: int) -> int:
    return valuation(x, p) if x != 0 else 10**9


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
    """Classification by minimal discriminant, c4, and nonsingular counts."""
    require_prime(p)
    data = _data(curve)
    if data.disc % p != 0:
        return ReductionType.GOOD
    if data.c4 % p == 0:
        return ReductionType.ADDITIVE
    # multiplicative: the singular reduction has p - a_p nonsingular points,
    # a_p = +1 split / -1 non-split; total count (with the node) is p or p+2
    if p <= ENUM_LIMIT:
        total = kernels.count_points_mod_p(*data.coeffs, p)
        return (
            ReductionType.SPLIT_MULTIPLICATIVE
            if total == p
            else ReductionType.NONSPLIT_MULTIPLICATIVE
        )
    # large p: fall back on the tangent-direction test inside Tate
    return tate_local(curve, p).reduction


def ap(curve: WeierstrassCurve, p: int) -> int:
    """Trace of Frobenius at good p; the standard {1, -1, 0} at bad p."""
    require_prime(p)
    if p in _data(curve).bad:
        return tate_local(curve, p).a_p
    return p + 1 - count_points(curve, p, 1)


BSGS_SWEEP_THRESHOLD = 10**4


def ap_table(curve: WeierstrassCurve, p_max: int) -> tuple[list[int], list[int]]:
    """Every prime p <= p_max, in order, and the list of their a_p.

    Read from the curve's a_p table, which covers every prime up to the
    largest bound asked so far; a larger bound sweeps only the primes above
    the current one.  Good primes go through the enumeration kernel up to
    BSGS_SWEEP_THRESHOLD and through BSGS order finding above it (the Mestre
    twist argument needs p > 457, amply satisfied); bad primes come from
    Tate's algorithm.
    """
    data = _data(curve)
    if p_max > data.bound:
        new = primes_up_to(p_max)
        del new[: len(data.primes)]
        small = [p for p in new if data.disc % p and p <= BSGS_SWEEP_THRESHOLD]
        swept = iter(kernels.ap_sweep(*data.coeffs, small))
        aps = []
        for p in new:
            if data.disc % p == 0:
                aps.append(tate_local(curve, p).a_p)
            elif p <= BSGS_SWEEP_THRESHOLD:
                aps.append(next(swept))
            else:
                aps.append(kernels.ap_bsgs(data.c4, data.c6, p))
        data.primes += new
        data.aps += aps
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
