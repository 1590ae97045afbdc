import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasseweil import bsd
from hasseweil.analytic import AnalyticContext, analytic_rank, l_from_lambda
from hasseweil.bsd import (
    bsd_report,
    height_pairing,
    real_period,
    real_period_quadrature,
    regulator,
)
from hasseweil.curves import CurvePoint, IsomorphismData, O, WeierstrassCurve
from hasseweil.errors import (
    DependentGenerators,
    PointNotOnCurve,
    PrecisionExhausted,
    SingularCurve,
)
from hasseweil.heights import (
    _duplication_forms,
    _eval_form,
    _local_height,
    canonical_height,
    canonical_height_breakdown,
    height_doubling_exact,
)
from hasseweil.intlinalg import det
from hasseweil.localdata import bad_primes
from hasseweil.numtheory import factorize, valuation


def _gcd_shadow_finite(curve, P, digits=25):
    """Per-prime finite heights by exact gcd accounting: the oracle of the
    closed-form local heights.

    With x(2^k P) = a_k / b_k in lowest terms on the minimal model, the
    duplication forms give a_{k+1} = F(a_k, b_k) / g_k and b_{k+1} =
    G(a_k, b_k) / g_k, where g_k = gcd(F, G) divides the resultant R of
    F(x, 1) and G(x, 1).  Carrying (a_k, b_k) modulo R^(K+3) reads each
    g_k off exactly, and the finite part at q is
    ord_q(den x) - sum_k ord_q(g_k) / 4^(k+1), truncated after K steps.
    """
    minimal, iso = curve.minimal_model()
    P = iso.apply_point(P)
    F, G = _duplication_forms(minimal)
    # Sylvester matrix of F(x, 1) (degree 4) and G(x, 1) (degree 3)
    sylvester = [[0] * i + list(F) + [0] * (2 - i) for i in range(3)]
    sylvester += [[0] * i + list(G[1:]) + [0] * (3 - i) for i in range(4)]
    R = abs(det(sylvester))
    factors = factorize(R)
    iterations = max(12, int(digits * math.log2(10) / 2) + 8)
    modulus = R ** (iterations + 3)
    x = P.x
    a, b = x.numerator % modulus, x.denominator % modulus
    e = {q: Fraction(valuation(x.denominator, q)) for q in factorize(x.denominator)}
    for k in range(iterations):
        Fm = sum(c * a ** (4 - i) * b**i for i, c in enumerate(F)) % modulus
        Gm = sum(c * a ** (4 - i) * b**i for i, c in enumerate(G)) % modulus
        g = 1
        for q, cap in factors.items():
            v = 0
            while v < cap and Fm % q ** (v + 1) == 0 and Gm % q ** (v + 1) == 0:
                v += 1
            e[q] = e.get(q, Fraction(0)) - Fraction(v, 4 ** (k + 1))
            g *= q**v
        a, b = Fm // g % modulus, Gm // g % modulus
    with mp.workdps(digits + 10):
        return {
            q: float(mp.log(q) * v.numerator / v.denominator)
            for q, v in e.items()
            if v
        }


RANK2_GENERATORS = [(-1, 1), (0, 0)]  # 389a
RANK3_GENERATORS = [(-2, 3), (-1, 3), (0, 2)]  # 5077a


def _height_by_mpmath(curve, P, dps: int):
    """hhat(P) at dps digits, no double anywhere: the archimedean doubling walk in
    mpmath on pairs scaled to max-norm 1, lambda_oo = log n_0 + sum_k 4^-k log n_k
    - log den x over the scales n_k (each |log n_k| bounded, so 4^-K below 10^-dps
    ends it), plus the exact local heights times log q."""
    minimal, iso = curve.minimal_model()
    P = iso.apply_point(P)
    F, G = _duplication_forms(minimal)
    x = P.x
    with mp.workdps(dps):
        a, b, total = mp.mpf(x.numerator), mp.mpf(x.denominator), -mp.log(x.denominator)
        for k in range(math.ceil(dps / math.log10(4)) + 4):
            norm = max(abs(a), abs(b))
            total += mp.ldexp(mp.log(norm), -2 * k)
            a, b = a / norm, b / norm
            a, b = _eval_form(F, a, b), _eval_form(G, a, b)
        for q in set(bad_primes(curve)) | set(factorize(x.denominator)):
            v = _local_height(minimal, P, q)
            total += mp.log(q) * v.numerator / v.denominator
        return total


def _random_points(rng, count):
    """Non-torsion points, their multiples and sums, on random small curves.

    a1, a2 in {-1, 0, 1}, a3 in {0, 1}, |a4|, |a6| <= 30: non-minimal
    models and additive reduction at 2 and 3 occur among them, and the
    multiples and sums give x denominators.
    """
    out = []
    while len(out) < count:
        curve = WeierstrassCurve(
            rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1)), rng.choice((0, 1)),
            rng.randint(-30, 30), rng.randint(-30, 30),
        )
        if curve.discriminant == 0:
            continue
        t = curve.torsion_order()
        base = [
            P for P in curve.point_search(12)
            if not curve.mul(t, P).is_infinity
        ][:2]
        if not base:
            continue
        pts = base + [curve.mul(2, base[0]), curve.mul(3, base[0])]
        if len(base) == 2:
            pts += [curve.add(*base), curve.add(base[0], curve.neg(base[1]))]
        out += [(curve, P) for P in pts if not curve.mul(t, P).is_infinity]
    return out


class TestCanonicalHeight:
    def test_known_value_e37(self, e37):
        h = canonical_height(e37, e37.point(0, 0))
        assert abs(h - 0.05111140823996884) < 1e-12

    def test_infinity_is_zero(self, e37):
        assert canonical_height(e37, O) == 0.0

    def test_torsion_is_zero(self, e11, e36):
        assert abs(canonical_height(e11, e11.point(5, 5))) < 1e-10
        assert abs(canonical_height(e36, e36.point(2, 3))) < 1e-10

    def test_point_must_be_on_curve(self, e37):
        with pytest.raises(PointNotOnCurve):
            canonical_height(e37, CurvePoint.affine(17, 1))

    def test_agrees_with_forty_more_digits(self):
        # the walk at 30 digits against 70, both mpf at 10 guard digits
        rank2, rank3 = WeierstrassCurve(0, 1, 1, -2, 0), WeierstrassCurve(0, 0, 1, -7, 6)
        generators = [(rank2, rank2.point(x, y)) for x, y in RANK2_GENERATORS]
        generators += [(rank3, rank3.point(x, y)) for x, y in RANK3_GENERATORS]
        for curve, P in _random_points(random.Random(13), 300) + generators:
            h = canonical_height(curve, P, 30)
            assert abs(h - canonical_height(curve, P, 70)) <= 1e-14 * max(1.0, h), (curve, P)

    def test_cancellation_is_refused(self, e37, monkeypatch):
        # forms that vanish leave the walk no bits: PrecisionExhausted, not log(0)
        from hasseweil import heights

        monkeypatch.setattr(heights, "_duplication_forms", lambda curve: ((0,) * 5, (0,) * 5))
        with pytest.raises(PrecisionExhausted, match="cancellation"):
            canonical_height(e37, e37.point(0, 0))

    def test_doubling_oracle_agrees(self, e37, e11):
        for curve, point in [
            (e37, e37.point(0, 0)),
            (e37, e37.point(2, 2)),
            (e11, e11.point(5, 5)),
        ]:
            exact, err = height_doubling_exact(curve, point, 10)
            fast = canonical_height(curve, point)
            assert abs(exact - fast) <= err + 1e-12

    def test_doubling_oracle_checks_its_forms(self, e37, monkeypatch):
        # the first doubling by the integer forms must match the group law
        from hasseweil import heights

        F, G = _duplication_forms(e37)
        monkeypatch.setattr(heights, "_duplication_forms",
                            lambda curve: (F[:-1] + (F[-1] + 1,), G))
        with pytest.raises(ArithmeticError, match="group law"):
            height_doubling_exact(e37, e37.point(2, 2), 3)

    def test_doubling_oracle_on_a_non_integral_model(self, e37):
        # u = 2 divides a3 = 1 by 8: the forms carry the common denominator
        iso = IsomorphismData(2)
        image = iso.apply(e37)
        assert not image.is_integral()
        P = e37.point(2, 2)
        exact, err = height_doubling_exact(e37, P, 8)
        scaled, scaled_err = height_doubling_exact(image, iso.apply_point(P), 8)
        assert abs(exact - scaled) <= err + scaled_err

    def test_quadraticity(self, e37):
        P = e37.point(0, 0)
        h1 = canonical_height(e37, P)
        for n in range(2, 6):
            hn = canonical_height(e37, e37.mul(n, P))
            assert abs(hn - n * n * h1) < 1e-8

    def test_parallelogram_law(self, e37):
        pts = [p for p in e37.point_search(4) if not p.is_infinity]
        rng = random.Random(2)
        for _ in range(8):
            P, Q = rng.choice(pts), rng.choice(pts)
            if e37.add(P, Q).is_infinity or e37.add(P, e37.neg(Q)).is_infinity:
                continue
            lhs = canonical_height(e37, e37.add(P, Q)) + canonical_height(
                e37, e37.add(P, e37.neg(Q))
            )
            rhs = 2 * canonical_height(e37, P) + 2 * canonical_height(e37, Q)
            assert abs(lhs - rhs) < 1e-8

    def test_invariance_under_isomorphism(self, e37):
        iso = IsomorphismData(2).inverse()
        image_curve = iso.apply(e37)
        P = e37.point(0, 0)
        h1 = canonical_height(e37, P)
        h2 = canonical_height(image_curve, iso.apply_point(P))
        assert abs(h1 - h2) < 1e-12

    def test_breakdown_sums_to_total(self, e11):
        # a point with denominator: 2 * (5,5) has x = -7/4? compute one
        P = e11.point(5, 5)
        bd = canonical_height_breakdown(e11, P)
        assert abs(bd.total - (bd.archimedean + sum(bd.finite.values()))) < 1e-14
        rank1 = WeierstrassCurve(0, 0, 1, -1, 0)
        Q = rank1.point(2, 2)
        bd2 = canonical_height_breakdown(rank1, Q)
        assert abs(bd2.total - (bd2.archimedean + sum(bd2.finite.values()))) < 1e-14
        assert abs(bd2.total - canonical_height(rank1, Q)) < 1e-14


    def test_local_heights_match_gcd_shadow(self):
        points = _random_points(random.Random(13), 300)
        assert sum(P.x.denominator > 1 for _, P in points) > 100
        assert any(c.minimal_model()[0] != c for c, _ in points)
        additive = {
            p for c, _ in points for p in (2, 3)
            if c.minimal_model()[0].discriminant % p == 0
            and c.minimal_model()[0].invariants().c4 % p == 0
        }
        assert additive == {2, 3}
        for curve, P in points:
            finite = canonical_height_breakdown(curve, P).finite
            oracle = _gcd_shadow_finite(curve, P)
            for q in set(finite) | set(oracle):
                assert abs(finite.get(q, 0.0) - oracle.get(q, 0.0)) < 1e-12, (
                    curve, P, q
                )


PERIOD_CURVES = [
    (0, -1, 1, -10, -20),  # 11a
    (0, 0, 0, 0, 1),  # 36a
    (0, 0, 1, -1, 0),  # 37a
    (0, 1, 1, -2, 0),  # 389a
    (0, 0, 1, -7, 6),  # 5077a
    (1, -1, 0, -79, 289),  # 234446a
    (0, 0, 1, -79, 342),  # 19047851a
    (1, 1, 0, -2582, 48720),  # 5187563742a
    (0, 0, 0, -11, 15),  # integrand poles 0.08 off the axis: an unsplit quadrature is 3e-16 off
]


def _small_curves(sign):
    """Nonsingular integral curves with small coefficients and sign(disc) = sign."""

    def has_sign(ainvs):
        try:
            return WeierstrassCurve(*ainvs).discriminant * sign > 0
        except SingularCurve:
            return False

    return st.tuples(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
                     st.integers(-40, 40), st.integers(-40, 40)).filter(has_sign)


class TestRealPeriod:
    def test_reference_values(self, e37, e11, e36):
        omega37, _ = real_period(e37)
        omega11, _ = real_period(e11)
        omega36, _ = real_period(e36)
        assert abs(omega37 - 5.98691729246392) < 1e-10  # two components
        assert abs(omega11 - 1.26920930427955) < 1e-10  # one component
        assert abs(omega36 - 4.20654631597559) < 1e-10

    @settings(max_examples=1, deadline=None, derandomize=True)
    @given(st.lists(_small_curves(1), min_size=20, max_size=20, unique=True),
           st.lists(_small_curves(-1), min_size=20, max_size=20, unique=True))
    def test_agm_vs_quadrature(self, positive, negative):
        # the AGM enclosure at 30 digits holds the quadrature at 70, its radius is
        # at most 10^-30 Omega, and (Omega, err) are the double nearest its midpoint
        # and the radius plus that double's distance, which holds the quadrature too
        for ainvs in [*PERIOD_CURVES, *positive, *negative]:
            curve = WeierstrassCurve(*ainvs)
            lo, hi = bsd._period_enclosure(curve, 30)
            exact = real_period_quadrature(curve, 70)
            assert lo <= exact <= hi, ainvs
            omega, err = real_period(curve, 30)
            mid = mp.fadd(lo, hi, exact=True) / 2
            assert omega == float(mid) and (hi - lo) / 2 <= 1e-30 * omega, ainvs
            with mp.workdps(70):
                assert err >= (hi - lo) / 2 + abs(omega - mid), ainvs
                assert abs(omega - exact) <= err, ainvs

    def test_wide_enclosure_is_refused(self, monkeypatch, e37):
        # an AGM stopped at its first hull [b_0, a_0] is far wider than 10^-30 Omega
        monkeypatch.setattr(bsd, "_agm", lambda a, b: mp.iv.mpf([b.a, a.b]))
        with pytest.raises(PrecisionExhausted, match="enclosed only to"):
            real_period(e37)

    def test_scaling_law(self, e37):
        # the u-image model has period u * Omega
        import mpmath as mp

        base, _ = real_period(e37)

        def raw_period(curve):
            # real_period_* minimalize internally; integrate the raw model
            with mp.workdps(40):
                inv = curve.invariants()
                roots = mp.polyroots(
                    [4, float(inv.b2), 2 * float(inv.b4), float(inv.b6)],
                    extraprec=60,
                )
                e1, e2, e3 = sorted((r.real for r in roots), reverse=True)
                return 2 * mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))

        for u in (2, 3):
            image = IsomorphismData(u).apply(e37)
            assert abs(raw_period(image) - u * base) < 1e-9
        half = IsomorphismData(2).inverse().apply(e37)
        assert abs(raw_period(half) - base / 2) < 1e-9


class TestRegulator:
    def test_rank_zero_is_one(self, e11):
        assert regulator(e11, []) == 1.0

    def test_rank_one(self, e37):
        reg = regulator(e37, [e37.point(0, 0)])
        assert abs(reg - 0.05111140823996884) < 1e-10

    def test_rank_two_known(self):
        curve = WeierstrassCurve(0, 1, 1, -2, 0)  # 389a
        reg = regulator(curve, [curve.point(0, 0), curve.point(-1, 1)])
        assert abs(reg - 0.15246017794314376) < 1e-8

    def test_rank_three_known(self):
        curve = WeierstrassCurve(0, 0, 1, -7, 6)  # 5077a
        gens = [curve.point(-2, 3), curve.point(-1, 3), curve.point(0, 2)]
        reg = regulator(curve, gens)
        assert abs(reg - 0.41714355875838397) < 1e-10

    def test_unimodular_invariance(self):
        curve = WeierstrassCurve(0, 1, 1, -2, 0)
        P1, P2 = curve.point(0, 0), curve.point(-1, 1)
        base = regulator(curve, [P1, P2])
        changed = regulator(curve, [curve.add(P1, P2), P2])
        assert abs(base - changed) < 1e-10
        negated = regulator(curve, [curve.neg(P1), P2])
        assert abs(base - negated) < 1e-10

    def test_each_height_computed_once(self, monkeypatch):
        # r(r+1)/2 heights: h(P_i) and h(P_i + P_j), none recomputed
        calls = []

        def counting(curve, P, digits=25):
            calls.append(P)
            return canonical_height(curve, P, digits)

        monkeypatch.setattr(bsd, "canonical_height", counting)
        curve = WeierstrassCurve(0, 0, 1, -7, 6)  # 5077a
        gens = [curve.point(-2, 3), curve.point(-1, 3), curve.point(0, 2)]
        reg = regulator(curve, gens)
        assert len(calls) == 6
        assert abs(reg - 0.41714355875838397) < 1e-10

    def test_agrees_with_forty_more_digits(self):
        for ainvs, points in [((0, 1, 1, -2, 0), RANK2_GENERATORS),
                              ((0, 0, 1, -7, 6), RANK3_GENERATORS)]:
            curve = WeierstrassCurve(*ainvs)
            gens = [curve.point(x, y) for x, y in points]
            reg = regulator(curve, gens, 30)
            assert abs(reg - regulator(curve, gens, 70)) <= 1e-14 * max(1.0, reg), ainvs

    def test_printed_regulator_is_the_nearest_double(self):
        # the report's R against the determinant of 80-digit heights, none of them a
        # double: R prints as the double nearest it, and lies within the printed err
        for ainvs, points in [((0, 1, 1, -2, 0), RANK2_GENERATORS),
                              ((0, 1, 1, -2, 0), RANK2_GENERATORS[::-1]),
                              ((0, 0, 1, -7, 6), RANK3_GENERATORS)]:
            curve = WeierstrassCurve(*ainvs)
            gens = [curve.point(x, y) for x, y in points]
            r = len(gens)
            with mp.workdps(80):
                heights = {(i, j): _height_by_mpmath(curve, curve.add(gens[i], gens[j])
                                                     if i != j else gens[i], 80)
                           for i in range(r) for j in range(i, r)}
                gram = mp.matrix(r, r)
                for (i, j), h in heights.items():
                    gram[i, j] = gram[j, i] = h if i == j else (
                        h - heights[i, i] - heights[j, j]) / 2
                R = mp.det(gram)
                report = bsd_report(curve, gens)
                assert report.regulator == float(R), (ainvs, points)
                assert abs(report.regulator - R) <= report.regulator_err, (ainvs, points)

    def test_dependent_generators_detected(self, e37):
        P = e37.point(0, 0)
        with pytest.raises(DependentGenerators):
            regulator(e37, [P, e37.mul(2, P)])

    def test_torsion_generator_rejected(self, e11):
        with pytest.raises(DependentGenerators):
            regulator(e11, [e11.point(5, 5)])


class TestBsdReport:
    def test_e11_closure(self, e11):
        report = bsd_report(e11, [])
        assert report.rank_analytic == 0
        assert report.torsion_order == 5
        assert report.tamagawa == {11: 5}
        assert abs(report.sha_predicted - 1) < 1e-4
        assert report.flags == []

    def test_e37_closure(self, e37):
        report = bsd_report(e37, [e37.point(0, 0)])
        assert report.rank_analytic == 1
        assert report.torsion_order == 1
        assert report.tamagawa == {37: 1}
        assert abs(report.sha_predicted - 1) < 1e-4
        assert report.flags == []

    def test_missing_generator_flagged(self, e37):
        report = bsd_report(e37, [])
        assert "generator-count-mismatch" in report.flags

    def test_closure_across_reduction_types(self):
        # rank-0 curves covering additive IV/III/II, nonsplit I6, split I3,
        # and torsion orders up to 8; sha = 1 ties every local invariant
        # together through the leading-coefficient formula
        catalog = {
            (0, 0, 0, 0, 1): (6, {2: 3, 3: 2}),
            (1, 0, 1, 4, -6): (6, {2: 2, 7: 3}),
            (1, 1, 1, -10, -10): (8, {3: 2, 5: 4}),
            (1, -1, 0, -2, -1): (2, {7: 2}),
            (0, 0, 1, 0, 0): (3, {3: 1}),
        }
        for ai, (torsion, tamagawa) in catalog.items():
            report = bsd_report(WeierstrassCurve(*ai), [])
            assert report.rank_analytic == 0
            assert report.torsion_order == torsion
            assert report.tamagawa == tamagawa
            assert abs(report.sha_predicted - 1) < 1e-6, (ai, report)

    def test_leading_term_from_the_rank(self, monkeypatch):
        # the report takes Lambda^(r)(1) from the rank's own evaluation: one
        # derivative per inspected order, none again for the leading term, and
        # order 0 (w = 1) from the one closed-form pass that also gives the scale
        from hasseweil import analytic

        orders, passes = [], []
        derivative, closed_form = analytic.lambda_derivative, analytic._lambda_at_1

        def counting(ctx, order=1):
            orders.append(order)
            return derivative(ctx, order)

        def counting_passes(ctx):
            passes.append(ctx.N)
            return closed_form(ctx)

        for module in (analytic, bsd):
            monkeypatch.setattr(module, "lambda_derivative", counting, raising=False)
        monkeypatch.setattr(analytic, "_lambda_at_1", counting_passes)
        report = bsd_report(WeierstrassCurve(0, 1, 1, -2, 0), [])  # 389a
        assert report.rank_analytic == 2
        assert (orders, passes) == ([2], [389])

    def test_leading_err_covers_its_double(self):
        # L_leading is a double: its err holds L*/r! recomputed at 40 more digits
        for ainvs in [(0, 1, 1, -2, 0), (0, 0, 1, -7, 6)]:  # 389a, 5077a
            curve = WeierstrassCurve(*ainvs)
            report = bsd_report(curve, [])
            ctx = AnalyticContext(curve, digits=70)
            rank = analytic_rank(ctx)
            with mp.workdps(ctx.dps):
                exact = l_from_lambda(ctx, rank.leading)[0] / math.factorial(rank.rank)
                miss = abs(report.leading_coefficient - exact)
                assert 0 < miss <= report.leading_coefficient_err, ainvs

    def test_json_schema(self, e11):
        import json

        payload = json.loads(bsd_report(e11, []).to_json())
        assert set(payload) == {
            "curve", "N", "w", "rank_analytic", "L_leading", "omega",
            "regulator", "torsion", "tamagawa", "sha_predicted", "flags",
        }
        assert payload["tamagawa"] == {"11": 5}
        assert {"value", "err"} <= set(payload["omega"])


class TestHeightPairing:
    def test_pairing_diagonal(self, e37):
        P = e37.point(0, 0)
        assert abs(
            height_pairing(e37, P, P) - canonical_height(e37, P)
        ) < 1e-10

    def test_bilinearity(self):
        curve = WeierstrassCurve(0, 1, 1, -2, 0)
        P, Q = curve.point(0, 0), curve.point(-1, 1)
        lhs = height_pairing(curve, curve.mul(2, P), Q)
        rhs = 2 * height_pairing(curve, P, Q)
        assert abs(lhs - rhs) < 1e-8
