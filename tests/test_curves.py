import math
import random
from fractions import Fraction

import pytest

from hasseweil.curves import (
    O,
    CurvePoint,
    IsomorphismData,
    WeierstrassCurve,
    curve_from_c4c6,
    parse_curve,
    _integer_cubic_roots,
)
from hasseweil.errors import PointNotOnCurve, SingularCurve


class TestInvariants:
    def test_e37_values(self, e37):
        inv = e37.invariants()
        assert inv.disc == 37
        assert inv.c4 == 48

    def test_e64_values(self):
        inv = WeierstrassCurve(0, 0, 0, -1, 0).invariants()
        assert inv.disc == 64
        assert inv.c4 == 48
        assert inv.b4 == -2
        assert inv.b8 == -1

    def test_c_identity_random_curves(self):
        rng = random.Random(11)
        found = 0
        while found < 40:
            ai = [rng.randint(-6, 6) for _ in range(5)]
            try:
                inv = WeierstrassCurve(*ai).invariants()
            except SingularCurve:
                continue
            found += 1
            assert inv.c4**3 - inv.c6**2 == 1728 * inv.disc
            assert 4 * inv.b8 == inv.b2 * inv.b6 - inv.b4**2

    def test_singular_rejected(self):
        with pytest.raises(SingularCurve):
            WeierstrassCurve(0, 0, 0, 0, 0)
        with pytest.raises(SingularCurve):
            WeierstrassCurve(0, 0, 0, -3, 2)  # y^2 = (x-1)^2 (x+2)


class TestGroupLaw:
    def test_chord_example(self, e37):
        P, Q = e37.point(0, 0), e37.point(1, 0)
        assert e37.add(P, Q) == CurvePoint.affine(-1, -1)

    def test_identity_and_inverse(self, e37):
        P = e37.point(0, 0)
        assert e37.add(P, O) == P
        assert e37.add(O, P) == P
        assert e37.add(P, e37.neg(P)) == O

    def test_not_on_curve_rejected(self, e37):
        with pytest.raises(PointNotOnCurve):
            e37.add(CurvePoint.affine(5, 5), O)

    def test_associativity_and_commutativity(self, e37):
        pts = [p for p in e37.point_search(6) if not p.is_infinity]
        rng = random.Random(5)
        for _ in range(25):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert e37.add(P, Q) == e37.add(Q, P)
            assert e37.add(e37.add(P, Q), R) == e37.add(P, e37.add(Q, R))

    def test_scalar_multiples(self, e37):
        P = e37.point(0, 0)
        acc = O
        for n in range(1, 8):
            acc = e37.add(acc, P)
            assert e37.mul(n, P) == acc
        assert e37.mul(-3, P) == e37.neg(e37.mul(3, P))
        assert e37.mul(0, P) == O

    def test_walks_check_the_point_once(self, e11, monkeypatch):
        # mul and order_of_point check P on the curve once, then walk unchecked
        checked = []
        require = WeierstrassCurve._require_on_curve
        monkeypatch.setattr(WeierstrassCurve, "_require_on_curve",
                            lambda self, point: checked.append(point) or require(self, point))
        P = e11.point(5, 5)  # order 5
        for n in (1, 6, 37, -11):
            expected = e11.add(e11.mul(n % 5 - 1, P), P)
            checked.clear()
            assert e11.mul(n, P) == expected
            assert len(checked) == 1, n
        checked.clear()
        assert e11.order_of_point(P) == 5
        assert len(checked) == 1
        with pytest.raises(PointNotOnCurve):
            e11.mul(3, CurvePoint.affine(5, 6))
        with pytest.raises(PointNotOnCurve):
            e11.order_of_point(CurvePoint.affine(5, 6))


class TestMinimalModel:
    def test_e37_already_minimal(self, e37):
        minimal, iso = e37.minimal_model()
        assert minimal == e37
        assert iso.u == 1

    def test_scaled_model_recovers(self, e37):
        scaled = IsomorphismData(2).inverse().apply(e37)
        minimal, iso = scaled.minimal_model()
        assert minimal == e37
        assert iso.u == 2
        assert iso.apply(scaled) == minimal

    def test_e36_minimal(self, e36):
        minimal, _ = e36.minimal_model()
        assert minimal == e36
        assert e36.discriminant == -432

    def test_idempotent(self, e11):
        scaled = IsomorphismData(Fraction(1, 3), 2, 1, 5).apply(e11)
        m1, _ = scaled.minimal_model()
        m2, iso2 = m1.minimal_model()
        assert m1 == m2
        assert iso2.u == 1

    def test_discriminant_valuations_decrease(self):
        curve = WeierstrassCurve(0, 0, 0, 0, 64)  # u = 2 image of y^2 = x^3 + 1
        minimal, _ = curve.minimal_model()
        assert minimal == WeierstrassCurve(0, 0, 0, 0, 1)
        assert curve.discriminant == 2**12 * minimal.discriminant
        # and the classical u = 4 image of y^2 + y = x^3
        other, _ = WeierstrassCurve(0, 0, 0, 0, 16).minimal_model()
        assert other == WeierstrassCurve(0, 0, 1, 0, 0)
        assert other.discriminant == -27

    def test_kraus_blocks_bad_reduction_at_2(self):
        # y^2 = x^3 + 4x has ord_2(disc) = 12 but stays minimal
        curve = WeierstrassCurve(0, 0, 0, 4, 0)
        minimal, iso = curve.minimal_model()
        assert iso.u == 1
        assert minimal == curve

    def test_rational_coefficients(self):
        curve = WeierstrassCurve(Fraction(1, 2), 0, 0, Fraction(-3, 16), 0)
        minimal, iso = curve.minimal_model()
        assert minimal.is_integral()
        assert iso.apply(curve) == minimal

    def test_curve_from_c4c6_roundtrip(self):
        rng = random.Random(23)
        built = 0
        while built < 25:
            ai = [rng.randint(-5, 5) for _ in range(5)]
            try:
                curve = WeierstrassCurve(*ai)
            except SingularCurve:
                continue
            minimal, _ = curve.minimal_model()
            inv = minimal.invariants()
            rebuilt = curve_from_c4c6(int(inv.c4), int(inv.c6))
            assert rebuilt == minimal
            built += 1


class TestIsomorphisms:
    def test_compose_inverse_identity(self, e37):
        rng = random.Random(7)
        for _ in range(20):
            iso = IsomorphismData(
                Fraction(rng.randint(1, 5)),
                Fraction(rng.randint(-4, 4)),
                Fraction(rng.randint(-4, 4)),
                Fraction(rng.randint(-4, 4)),
            )
            round_trip = iso.compose(iso.inverse())
            assert round_trip.apply(e37) == e37
            assert (round_trip.u, round_trip.r, round_trip.s, round_trip.t) == (
                1, 0, 0, 0,
            )

    def test_points_track_transformation(self, e37):
        iso = IsomorphismData(Fraction(1, 2), 1, 2, 3)
        image = iso.apply(e37)
        P = e37.point(1, 0)
        assert image.contains(iso.apply_point(P))


# One curve per torsion group Mazur's theorem allows, given minimal and as
# its image under u = 1/6, (r, s, t) = (1, 1, 1): structure, then each
# model's generators (in its own coordinates) with their orders.
MAZUR = [
    ("trivial", (0, 0, 1, -1, 0), [], [], []),
    ("Z/2", (0, -1, 0, -5, 6), [("2", "0")], [("36", "-432")], [2]),
    ("Z/3", (0, 0, 1, 0, 0), [("0", "-1")], [("-36", "-216")], [3]),
    ("Z/4", (1, 0, 0, -290, 2100), [("10", "-20")], [("324", "-6480")], [4]),
    ("Z/5", (0, -1, 1, -10, -20), [("5", "-6")], [("144", "-2376")], [5]),
    ("Z/6", (0, 0, 0, 0, 1), [("2", "-3")], [("36", "-1080")], [6]),
    ("Z/7", (1, -1, 1, -3, 3), [("-1", "-2")], [("-72", "-216")], [7]),
    ("Z/8", (1, 1, 1, 35, -28), [("2", "-9")], [("36", "-2376")], [8]),
    ("Z/9", (1, -1, 1, -14, 29), [("-3", "-5")], [("-144", "-432")], [9]),
    ("Z/10", (1, 0, 0, -45, 81), [("-6", "-9")], [("-252", "-648")], [10]),
    ("Z/12", (1, -1, 1, -122, 1721), [("-9", "-41")], [("-360", "-6912")], [12]),
    ("Z/2 x Z/2", (0, 0, 0, -1, 0), [("-1", "0"), ("0", "0")],
     [("-72", "216"), ("-36", "0")], [2, 2]),
    ("Z/2 x Z/4", (1, 1, 1, -10, -10), [("-2", "-2"), ("-13/4", "9/8")],
     [("-108", "0"), ("-153", "945")], [4, 2]),
    ("Z/2 x Z/6", (1, 0, 1, -19, 26), [("-2", "-7"), ("-5", "2")],
     [("-108", "-1080"), ("-216", "1512")], [6, 2]),
    ("Z/2 x Z/8", (1, 0, 0, -1070, 7812), [("-26", "-122"), ("-36", "18")],
     [("-972", "-20736"), ("-1332", "11664")], [8, 2]),
]


class TestTorsion:
    def test_e11_z5(self, e11):
        structure, gens = e11.torsion_subgroup()
        assert structure == "Z/5"
        assert len(gens) == 1
        assert e11.order_of_point(gens[0]) == 5
        xs = {g.x for g in gens}
        assert xs == {Fraction(5)}
        assert e11.contains(CurvePoint.affine(5, 5))

    def test_e37_trivial(self, e37):
        assert e37.torsion_subgroup() == ("trivial", [])
        assert e37.torsion_order() == 1

    def test_e36_z6(self, e36):
        structure, gens = e36.torsion_subgroup()
        assert structure == "Z/6"
        assert e36.order_of_point(gens[0]) == 6
        assert gens[0].x == 2

    def test_full_two_torsion(self):
        curve = WeierstrassCurve(0, 0, 0, -1, 0)
        structure, gens = curve.torsion_subgroup()
        assert structure == "Z/2 x Z/2"
        assert curve.torsion_order() == 4

    def test_generators_have_claimed_order(self, reference_curves):
        for curve in reference_curves.values():
            _, gens = curve.torsion_subgroup()
            for g in gens:
                n = curve.order_of_point(g)
                assert n is not None
                for k in range(1, n):
                    assert not curve.mul(k, g).is_infinity
                assert curve.mul(n, g).is_infinity

    @pytest.mark.parametrize("structure, ainvs, gens, gens_scaled, orders", MAZUR,
                             ids=[m[0] for m in MAZUR])
    def test_mazur_groups(self, structure, ainvs, gens, gens_scaled, orders):
        minimal = WeierstrassCurve(*ainvs)
        scaled = IsomorphismData(Fraction(1, 6), 1, 1, 1).apply(minimal)
        assert scaled.minimal_model()[0] == minimal
        for curve, expected in ((minimal, gens), (scaled, gens_scaled)):
            found, points = curve.torsion_subgroup()
            assert found == structure
            assert [(str(P.x), str(P.y)) for P in points] == expected
            assert [curve.order_of_point(P) for P in points] == orders
            assert curve.torsion_order() == max(1, math.prod(orders))


class TestPointSearch:
    def test_e37_small_points(self, e37):
        pts = {(p.x, p.y) for p in e37.point_search(3) if not p.is_infinity}
        for expected in [(0, 0), (1, 0), (-1, 0), (2, 2)]:
            assert (Fraction(expected[0]), Fraction(expected[1])) in pts

    def test_bound_zero(self, e37):
        assert e37.point_search(0) == [O]

    def test_e11_finds_torsion_generator(self, e11):
        pts = {(p.x, p.y) for p in e11.point_search(6) if not p.is_infinity}
        assert (Fraction(5), Fraction(5)) in pts

    def test_all_results_on_curve(self, e11):
        for p in e11.point_search(8):
            assert e11.contains(p)


class TestParsingAndHelpers:
    def test_parse_tokens(self):
        assert parse_curve("0 0 1 -1 0") == WeierstrassCurve(0, 0, 1, -1, 0)

    def test_parse_json_array(self):
        assert parse_curve('["0", "0", "1", "-1", "0"]') == WeierstrassCurve(
            0, 0, 1, -1, 0
        )
        assert parse_curve('["1/2", "0", "0", "-0.25", "0"]') == WeierstrassCurve(
            Fraction(1, 2), 0, 0, Fraction(-1, 4), 0
        )

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_curve("1 2 3")

    def test_integer_cubic_roots(self):
        rng = random.Random(3)
        for _ in range(200):
            roots = sorted(rng.sample(range(-30, 30), 3))
            c2 = -(roots[0] + roots[1] + roots[2])
            c1 = (
                roots[0] * roots[1]
                + roots[0] * roots[2]
                + roots[1] * roots[2]
            )
            c0 = -roots[0] * roots[1] * roots[2]
            assert _integer_cubic_roots(c2, c1, c0) == sorted(set(roots))
        assert _integer_cubic_roots(0, 0, 5) == []
        assert _integer_cubic_roots(0, -1, 0) == [-1, 0, 1]
        rng = random.Random(19)
        for _ in range(200):
            # double and triple roots
            r, q = rng.randint(-10**4, 10**4), rng.randint(-10**4, 10**4)
            assert _integer_cubic_roots(*_planted([r, r, q])) == sorted({r, q})
            assert _integer_cubic_roots(*_planted([r, r, r])) == [r]
            # one integer root times an irreducible quadratic
            b, c = rng.randint(-10**4, 10**4), rng.randint(-10**8, 10**8)
            disc = b * b - 4 * c
            if disc < 0 or math.isqrt(disc) ** 2 != disc:
                assert _integer_cubic_roots(*_planted([r], (b, c))) == [r]
            # no integer root: three consecutive integers multiply to 0 mod 6,
            # so f(k) = 3 or -3 mod 6; and no cube is twice a cube
            c2, c1, c0 = _planted([r, r + 1, r + 2])
            assert _integer_cubic_roots(c2, c1, c0 + rng.choice([3, -3])) == []
            n = rng.choice([1, -1]) * rng.randint(1, 10**4)
            assert _integer_cubic_roots(0, 0, 2 * n**3) == []
            # |c_i| <= 10^12, a root at the Fujiwara bound 2 max(|c2|, |c1|^(1/2), |c0|^(1/3))
            big = rng.choice([-1, 1]) * rng.randint(1, 10**12)
            m, k = big % 10**6, big % 10**4
            for roots, quadratic in (([big, 0, 0], None),  # x^3 - big x^2
                                     ([m, -m, rng.randint(-1, 1)], None),  # |c1| = m^2
                                     ([k], (k, k * k))):  # x^3 - k^3
                c2, c1, c0 = _planted(roots, quadratic)
                assert max(abs(c2), abs(c1), abs(c0)) <= 10**12
                assert _integer_cubic_roots(c2, c1, c0) == sorted(set(roots))


def _planted(roots, quadratic=None):
    """(c2, c1, c0) of prod(x - r), times x^2 + b x + c for quadratic = (b, c)."""
    poly = [1]  # coefficients from x^0 up
    factors = [[-r, 1] for r in roots]
    if quadratic is not None:
        factors.append([quadratic[1], quadratic[0], 1])
    for f in factors:
        out = [0] * (len(poly) + len(f) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(f):
                out[i + j] += a * b
        poly = out
    c0, c1, c2, _ = poly
    return c2, c1, c0
