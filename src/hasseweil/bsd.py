"""BSD right-hand side: real period, regulator, and the consistency report.

The period is the integral of |dx / (2y + a1 x + a3)| over every real
component of the minimal model (two components for positive discriminant),
computed both by the arithmetic-geometric mean and by direct quadrature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import mpmath as mp

from .analytic import AnalyticContext, analytic_rank, l_from_lambda
from .curves import CurvePoint, WeierstrassCurve
from .errors import DependentGenerators, PrecisionExhausted
from .heights import canonical_height
from .localdata import bad_primes, tate_local

PERIOD_GUARD = 10


def _cubic_roots(curve: WeierstrassCurve):
    """Roots of 4x^3 + b2 x^2 + 2 b4 x + b6 at working precision."""
    inv = curve.invariants()
    coeffs = [4, int(inv.b2), 2 * int(inv.b4), int(inv.b6)]
    return mp.polyroots([mp.mpf(c) for c in coeffs], maxsteps=200, extraprec=80)


def real_period_agm(curve: WeierstrassCurve, digits: int = 30):
    """Omega over all of E(R) by AGM identities on the root configuration."""
    minimal, _ = curve.minimal_model()
    disc = minimal.discriminant
    with mp.workdps(digits + PERIOD_GUARD):
        roots = _cubic_roots(minimal)
        if disc > 0:
            e = sorted((r.real for r in roots), reverse=True)
            e1, e2, e3 = e
            omega1 = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
            return 2 * omega1
        e1 = next(r.real for r in roots if abs(r.imag) < mp.mpf(10) ** (-digits))
        z = next(r for r in roots if abs(r.imag) > mp.mpf(10) ** (-digits))
        a, b = z.real, abs(z.imag)
        A = mp.sqrt((e1 - a) ** 2 + b * b)
        # period = pi / agm(sqrt(A), sqrt((A + e1 - a)/2))
        return mp.pi / mp.agm(mp.sqrt(A), mp.sqrt((A + (e1 - a)) / 2))


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

        return 2 * mp.quad(integrand, [0, mp.inf])


def real_period(curve: WeierstrassCurve, digits: int = 30) -> tuple[float, float]:
    """(Omega, disagreement) with the AGM value as primary.

    The quadrature oracle must agree to ~1e-10 or PrecisionExhausted is
    raised; the reported disagreement doubles as an error estimate.
    """
    with mp.workdps(digits + PERIOD_GUARD):
        agm_val = real_period_agm(curve, digits)
        quad_val = real_period_quadrature(curve, min(digits, 30))
        diff = abs(agm_val - quad_val)
        if diff > mp.mpf(10) ** (-10) * max(1, abs(agm_val)):
            raise PrecisionExhausted(
                f"period methods disagree: {agm_val} vs {quad_val}"
            )
        return float(agm_val), float(diff)


def height_pairing(
    curve: WeierstrassCurve, P: CurvePoint, Q: CurvePoint, digits: int = 25
) -> float:
    """<P, Q> = (h(P+Q) - h(P) - h(Q)) / 2 under the canonical height."""
    hs = canonical_height(curve, curve.add(P, Q), digits)
    hp = canonical_height(curve, P, digits)
    hq = canonical_height(curve, Q, digits)
    return (hs - hp - hq) / 2


def regulator(
    curve: WeierstrassCurve, generators: list[CurvePoint], digits: int = 25
) -> float:
    """Gram determinant of the height pairing from r(r+1)/2 heights; 1 if r = 0."""
    r = len(generators)
    if r == 0:
        return 1.0
    gram = [[0.0] * r for _ in range(r)]
    for i in range(r):
        gram[i][i] = canonical_height(curve, generators[i], digits)
    for i in range(r):
        for j in range(i + 1, r):
            hs = canonical_height(curve, curve.add(generators[i], generators[j]), digits)
            gram[i][j] = gram[j][i] = (hs - gram[i][i] - gram[j][j]) / 2
    value = _float_det(gram)
    scale = 1.0
    for i in range(r):
        scale *= max(gram[i][i], 1e-12)
    if abs(value) < 1e-9 * max(scale, 1e-12) or abs(value) < 1e-14:
        raise DependentGenerators(
            "height Gram matrix is numerically singular; generators dependent"
        )
    return abs(value)


def _float_det(m: list[list[float]]) -> float:
    n = len(m)
    a = [row[:] for row in m]
    sign = 1.0
    for c in range(n):
        pivot = max(range(c, n), key=lambda i: abs(a[i][c]))
        if a[pivot][c] == 0:
            return 0.0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    out = sign
    for i in range(n):
        out *= a[i][i]
    return out


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
    rank_tol: float = 1e-10,
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
    rank = analytic_rank(ctx, rank_tol)
    r = rank.rank
    if len(generators) != r:
        flags.append("generator-count-mismatch")

    with mp.workdps(ctx.dps):
        lead, lead_bound = l_from_lambda(ctx, rank.leading)
        lead_val = float(lead / mp.factorial(r))
        lead_err = float(lead_bound / mp.factorial(r))

    omega, omega_err = real_period(curve, digits)
    try:
        reg = regulator(curve, generators, digits)
        reg_err = 10.0 ** (-(digits - 8)) * max(reg, 1.0)
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