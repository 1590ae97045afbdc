"""BSD right-hand side: real period, regulator, and the consistency report.

The period Omega is the integral of |dx / (2y + a1 x + a3)| over every real
component of the minimal model (two components for positive discriminant).
`real_period` encloses it by the arithmetic-geometric mean alone (Cremona,
*Algorithms for Modular Elliptic Curves*, ch. 3; Cohen, GTM 138, 7.4), in
interval arithmetic on exactly bracketed roots; direct quadrature,
`real_period_quadrature`, is the tests' independent check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import mpmath as mp
from mpmath import iv
from mpmath.libmp import dps_to_prec

from .analytic import AnalyticContext, analytic_rank, l_from_lambda
from .curves import CurvePoint, WeierstrassCurve, _cubic_brackets
from .errors import DependentGenerators, PrecisionExhausted
from .heights import GUARD_DIGITS as HEIGHT_GUARD_DIGITS
from .heights import canonical_height
from .localdata import bad_primes, tate_local

PERIOD_GUARD = 10


def _cubic_roots(curve: WeierstrassCurve):
    """Roots of 4x^3 + b2 x^2 + 2 b4 x + b6 at working precision."""
    inv = curve.invariants()
    coeffs = [4, int(inv.b2), 2 * int(inv.b4), int(inv.b6)]
    return mp.polyroots([mp.mpf(c) for c in coeffs], maxsteps=200, extraprec=80)


def real_period_quadrature(curve: WeierstrassCurve, digits: int = 30):
    """Omega by direct integration of dx / sqrt(4x^3 + b2x^2 + 2b4x + b6)."""
    minimal, _ = curve.minimal_model()
    disc = minimal.discriminant
    with mp.workdps(digits + PERIOD_GUARD):
        roots = _cubic_roots(minimal)
        if disc > 0:
            e1, e2, e3 = sorted((r.real for r in roots), reverse=True)

            # unbounded component: x = e1 + t^2 regularizes the endpoint
            def unbounded(t):
                return 2 / mp.sqrt(4 * (t * t + e1 - e2) * (t * t + e1 - e3))

            part1 = 2 * mp.quad(unbounded, [0, mp.inf])

            # bounded component [e3, e2]: x = e3 + (e2 - e3) sin^2
            def bounded(theta):
                x = e3 + (e2 - e3) * mp.sin(theta) ** 2
                return 1 / mp.sqrt(e1 - x)

            part2 = 2 * mp.quad(bounded, [0, mp.pi / 2])
            return part1 + part2
        e1 = next(r.real for r in roots if abs(r.imag) < mp.mpf(10) ** (-digits))
        z = next(r for r in roots if abs(r.imag) > mp.mpf(10) ** (-digits))
        a, b = z.real, abs(z.imag)

        def integrand(t):
            return 2 / mp.sqrt(4 * ((t * t + e1 - a) ** 2 + b * b))

        # split where t^2 = a - e1: the poles sit b / (2 sqrt(a - e1)) off the axis there
        return 2 * mp.quad(integrand, [0, mp.sqrt(abs(a - e1)), mp.inf])


def _agm(a, b):
    """[b_n, a_n] in `iv`, which holds AGM(a, b) for a >= b > 0, once it stops narrowing."""
    width = iv.inf
    while (a.b - b.a).b < width:
        width = (a.b - b.a).b
        a, b = (a + b) / 2, iv.sqrt(a * b)
    return iv.mpf([b.a, a.b])


def _period_enclosure(curve: WeierstrassCurve, digits: int = 30):
    """Exact mpf ends (lo, hi) of an interval holding Omega: the AGM on bracketed roots.

    The real roots e of 4x^3 + b2 x^2 + 2 b4 x + b6 are the sign changes, in
    cells of 2^-(k+2), of its monic form in Y = 2^k 4x: three when disc > 0,
    one when disc < 0, or the roots are too close to separate.
    """
    minimal, _ = curve.minimal_model()
    b2, b4, b6 = (int(b) for b in minimal.invariants()[:3])
    k = dps_to_prec(digits + PERIOD_GUARD)
    brackets = _cubic_brackets(b2 << k, 8 * b4 << 2 * k, 16 * b6 << 3 * k)
    if len(brackets) != (3 if minimal.discriminant > 0 else 1):
        raise PrecisionExhausted(f"{len(brackets)} real roots bracketed at 2^-{k + 2}")
    saved = iv.prec
    iv.prec = max(k, *(abs(y).bit_length() for b in brackets for y in b)) + 8  # ends exact
    try:
        e = [iv.mpf(list(b)) / 2 ** (k + 2) for b in reversed(brackets)]  # e1 > e2 > e3
        if len(e) == 3:
            omega = 2 * iv.pi / _agm(iv.sqrt(e[0] - e[2]), iv.sqrt(e[0] - e[1]))
        else:
            e1 = e[0]
            a = -(iv.mpf(b2) / 4 + e1) / 2  # Vieta: e1 + 2a = -b2/4, 2a e1 + |z|^2 = b4/2
            A = iv.sqrt((e1 - a) ** 2 + iv.mpf(b4) / 2 - 2 * a * e1 - a * a)  # |e1 - a - bi|
            omega = iv.pi / _agm(iv.sqrt(A), iv.sqrt((A + e1 - a) / 2))
        with mp.workprec(iv.prec):
            return mp.mpf(omega.a), mp.mpf(omega.b)
    finally:
        iv.prec = saved


def _double(mid, radius) -> tuple[float, float]:
    """(value, err): the double nearest `mid`, and `radius` plus the double's distance
    to `mid`, rounded up, so that value +- err holds what mid +- radius holds."""
    value = float(mid)
    gap = mp.fsub(value, mid, exact=True)
    total = mp.fsub(radius, gap, exact=True) if gap < 0 else mp.fadd(radius, gap, exact=True)
    return value, float(mp.fadd(total, 0, prec=53, rounding="u"))


def real_period(curve: WeierstrassCurve, digits: int = 30) -> tuple[float, float]:
    """(Omega, err) by `_double` from the midpoint and radius of its AGM enclosure
    (radius at most 10^-digits Omega)."""
    lo, hi = _period_enclosure(curve, digits)
    mid = mp.ldexp(mp.fadd(lo, hi, exact=True), -1)
    radius = mp.fsub(mid, lo, exact=True)
    if not radius <= mid * mp.mpf(10) ** -digits:
        raise PrecisionExhausted(f"real period enclosed only to {float(radius)} at {digits} digits")
    return _double(mid, radius)


def height_pairing(
    curve: WeierstrassCurve, P: CurvePoint, Q: CurvePoint, digits: int = 25
) -> float:
    """<P, Q> = (h(P+Q) - h(P) - h(Q)) / 2 under the canonical height."""
    hs = canonical_height(curve, curve.add(P, Q), digits)
    hp = canonical_height(curve, P, digits)
    hq = canonical_height(curve, Q, digits)
    return float((hs - hp - hq) / 2)


def regulator(
    curve: WeierstrassCurve, generators: list[CurvePoint], digits: int = 25
) -> mp.mpf:
    """Gram determinant of the height pairing from r(r+1)/2 heights, an mpf at the
    heights' digits + GUARD_DIGITS; 1 if r = 0."""
    r = len(generators)
    if r == 0:
        return mp.mpf(1)
    with mp.workdps(digits + HEIGHT_GUARD_DIGITS):
        gram = mp.matrix(r, r)
        for i in range(r):
            gram[i, i] = canonical_height(curve, generators[i], digits)
        for i in range(r):
            for j in range(i + 1, r):
                hs = canonical_height(curve, curve.add(generators[i], generators[j]), digits)
                gram[i, j] = gram[j, i] = (hs - gram[i, i] - gram[j, j]) / 2
        value = abs(mp.det(gram))
        scale = mp.fprod(max(gram[i, i], mp.mpf(1e-12)) for i in range(r))
    if value < 1e-9 * max(scale, 1e-12) or value < 1e-14:
        raise DependentGenerators(
            "height Gram matrix is numerically singular; generators dependent"
        )
    return value


@dataclass
class BsdReport:
    """Everything in the leading-coefficient formula, plus consistency flags."""

    curve: tuple
    conductor: int
    root_number: int
    rank_analytic: int
    leading_coefficient: float
    leading_coefficient_err: float
    omega: float
    omega_err: float
    regulator: float
    regulator_err: float
    torsion_order: int
    tamagawa: dict[int, int]
    sha_predicted: float
    sha_predicted_err: float
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "curve": [str(a) for a in self.curve],
            "N": self.conductor,
            "w": self.root_number,
            "rank_analytic": self.rank_analytic,
            "L_leading": {"value": self.leading_coefficient, "err": self.leading_coefficient_err},
            "omega": {"value": self.omega, "err": self.omega_err},
            "regulator": {"value": self.regulator, "err": self.regulator_err},
            "torsion": self.torsion_order,
            "tamagawa": {str(p): c for p, c in sorted(self.tamagawa.items())},
            "sha_predicted": {"value": self.sha_predicted, "err": self.sha_predicted_err},
            "flags": list(self.flags),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def bsd_report(
    curve: WeierstrassCurve,
    generators: list[CurvePoint] | None = None,
    digits: int = 30,
) -> BsdReport:
    """Assemble the full numerical BSD consistency report.

    sha_predicted = L* t^2 / (Omega R prod(c_p)), with the leading Taylor
    coefficient L* = L^(r)(1)/r! = Lambda^(r)(1) 2 pi / (sqrt(N) r!) at every
    rank r, from the Lambda^(r)(1) that `analytic_rank` accepted; a generator
    count that differs from the analytic rank sets a mismatch flag instead of
    failing.
    """
    generators = list(generators or [])
    ctx = AnalyticContext(curve, digits=digits)
    flags: list[str] = []
    rank = analytic_rank(ctx)
    r = rank.rank
    if len(generators) != r:
        flags.append("generator-count-mismatch")

    with mp.workdps(ctx.dps):
        lead, lead_bound = l_from_lambda(ctx, rank.leading)
        fact = math.factorial(r)
        lead_val, lead_err = _double(lead / fact, mp.fdiv(lead_bound, fact, rounding="u"))

    omega, omega_err = real_period(curve, digits)
    try:
        reg_mid = regulator(curve, generators, digits)
        reg, reg_err = _double(reg_mid, mp.mpf(10) ** (8 - digits) * max(reg_mid, 1))
    except DependentGenerators:
        reg = float("nan")
        reg_err = float("nan")
        flags.append("dependent-generators")
    torsion = curve.torsion_order()
    tamagawa = {p: tate_local(curve, p).c_p for p in bad_primes(curve)}
    tam_prod = 1
    for c in tamagawa.values():
        tam_prod *= c

    if math.isnan(reg):
        sha = float("nan")
        sha_err = float("nan")
    else:
        sha = lead_val * torsion**2 / (omega * reg * tam_prod)
        rel = (
            lead_err / max(abs(lead_val), 1e-300)
            + omega_err / omega
            + reg_err / reg
        )
        sha_err = abs(sha) * rel + 1e-12
        root = round(math.sqrt(abs(sha)))
        if abs(sha - root * root) > 0.01 * max(1.0, abs(sha)):
            flags.append("sha-not-near-square")

    return BsdReport(
        curve=curve.ainvs(),
        conductor=ctx.N,
        root_number=ctx.w,
        rank_analytic=r,
        leading_coefficient=lead_val,
        leading_coefficient_err=lead_err,
        omega=omega,
        omega_err=omega_err,
        regulator=reg,
        regulator_err=reg_err,
        torsion_order=torsion,
        tamagawa=tamagawa,
        sha_predicted=sha,
        sha_predicted_err=sha_err,
        flags=flags,
    )