import json
import random

import pytest

from hasseweil import kernels, _kernels_py
from hasseweil.curves import WeierstrassCurve
from hasseweil.errors import BadReduction, NotPrime
from hasseweil.finitefield import GaloisField, irreducible_polynomial
from hasseweil.localdata import (
    ReductionType,
    _count_points_gf,
    _tate_at_prime,
    ap,
    ap_sweep,
    bad_primes,
    conductor,
    count_points,
    reduction_type,
    tate_local,
)
from hasseweil.numtheory import primes_up_to


class TestCounting:
    def test_e37_small_counts(self, e37):
        assert count_points(e37, 2) == 5
        assert count_points(e37, 3) == 7
        assert count_points(e37, 5) == 8

    def test_counts_match_naive_enumeration(self, e11):
        for p in (2, 3, 5, 7, 13):
            naive = 1
            for x in range(p):
                for y in range(p):
                    if (y * y + y - (x**3 - x * x - 10 * x - 20)) % p == 0:
                        naive += 1
            assert count_points(e11, p) == naive

    def test_hasse_interval(self, e37):
        for p in primes_up_to(200):
            if p == 37:
                continue
            n = count_points(e37, p)
            assert (p + 1 - n) ** 2 <= 4 * p

    def test_requires_prime(self, e37):
        with pytest.raises(NotPrime):
            count_points(e37, 6)

    def test_extension_field_counts(self, e37):
        # q = p^k counts agree with Frobenius power sums (independent check
        # runs in test_lseries); here: irreducible-choice independence
        for seed in (0, 1, 2):
            assert _count_points_gf((0, 0, 1, -1, 0), 3, 2, seed) == 7
        assert count_points(e37, 2, 2) == 5
        assert count_points(e37, 2, 3) == 5
        assert count_points(e37, 3, 3) == 28
        assert count_points(e37, 5, 2) == 32

    def test_extension_field_requires_good_reduction(self, e37):
        with pytest.raises(BadReduction):
            count_points(e37, 37, 2)

    def test_bsgs_matches_enumeration(self, e37):
        inv = e37.invariants()
        for p in primes_up_to(400):
            if p < 5 or p == 37:
                continue
            enum = count_points(e37, p)
            assert p + 1 - kernels.ap_bsgs(int(inv.c4), int(inv.c6), p) == enum

    def test_large_prime_count(self, e37):
        p = 1000003
        n = count_points(e37, p)
        assert (p + 1 - n) ** 2 <= 4 * p


class TestKernelTwins:
    def test_count_agreement(self):
        rng = random.Random(1)
        for p in primes_up_to(60):
            ai = [rng.randint(-5, 5) for _ in range(5)]
            assert kernels.count_points_mod_p(
                *ai, p
            ) == _kernels_py.count_points_mod_p(*ai, p)

    def test_ap_bsgs_agreement(self, e37):
        inv = e37.invariants()
        c4, c6 = int(inv.c4), int(inv.c6)
        for p in (101, 1009, 4001):
            assert kernels.ap_bsgs(c4, c6, p) == _kernels_py.ap_bsgs(c4, c6, p)

    def test_backend_name(self):
        assert kernels.backend() in ("cython", "python")


class TestAp:
    def test_e37_examples(self, e37):
        assert ap(e37, 2) == -2
        assert ap(e37, 3) == -3

    def test_e37_bad_prime_table_value(self, e37):
        # nonsplit multiplicative at 37 (39 points on the reduction; the
        # split reading would contradict w = -1 through rank parity)
        assert ap(e37, 37) == -1

    def test_e11_bad_prime(self, e11):
        assert ap(e11, 11) == 1

    def test_sweep_matches_pointwise(self, e11):
        primes = primes_up_to(120)
        swept = ap_sweep(e11, primes)
        for p in primes:
            assert swept[p] == ap(e11, p)


class TestReductionType:
    def test_e37(self, e37):
        assert reduction_type(e37, 37) is ReductionType.NONSPLIT_MULTIPLICATIVE
        assert reduction_type(e37, 5) is ReductionType.GOOD

    def test_e11_split(self, e11):
        assert reduction_type(e11, 11) is ReductionType.SPLIT_MULTIPLICATIVE

    def test_e36_additive(self, e36):
        assert reduction_type(e36, 3) is ReductionType.ADDITIVE
        assert reduction_type(e36, 2) is ReductionType.ADDITIVE

    def test_nonsingular_count_convention(self, reference_curves):
        # split <=> p points total, nonsplit <=> p + 2, additive <=> p + 1
        for curve in reference_curves.values():
            for p in bad_primes(curve):
                total = count_points(curve, p)
                red = reduction_type(curve, p)
                if red is ReductionType.SPLIT_MULTIPLICATIVE:
                    assert total == p
                elif red is ReductionType.NONSPLIT_MULTIPLICATIVE:
                    assert total == p + 2
                else:
                    assert total == p + 1


class TestTate:
    def test_e37_at_37(self, e37):
        d = tate_local(e37, 37)
        assert (d.kodaira, d.f_p, d.c_p, d.m) == ("I1", 1, 1, 1)

    def test_e11_at_11(self, e11):
        d = tate_local(e11, 11)
        assert (d.kodaira, d.f_p, d.c_p, d.m) == ("I5", 1, 5, 5)

    def test_good_prime(self, e37):
        d = tate_local(e37, 5)
        assert (d.kodaira, d.f_p, d.c_p, d.m) == ("I0", 0, 1, 1)
        assert d.reduction is ReductionType.GOOD

    def test_e36_additive_types(self, e36):
        d2, d3 = tate_local(e36, 2), tate_local(e36, 3)
        assert (d2.f_p, d3.f_p) == (2, 2)
        assert d2.kodaira == "IV" and d3.kodaira == "III"
        assert (d2.c_p, d3.c_p) == (3, 2)

    def test_known_catalog(self):
        # (curve, {p: (kodaira, f, c)})
        catalog = [
            ((0, 0, 1, 0, -7), {3: ("IV*", 3, 3)}),
            ((1, -1, 0, -2, -1), {7: ("III", 2, 2)}),
            ((0, 0, 0, 4, 0), {2: ("I3*", 5, 4)}),
            ((1, 1, 1, -10, -10), {3: ("I4", 1, 2), 5: ("I4", 1, 4)}),
            ((1, 0, 1, 4, -6), {2: ("I6", 1, 2), 7: ("I3", 1, 3)}),
            ((0, -1, 1, 0, 0), {11: ("I1", 1, 1)}),  # 11a3
            ((0, 0, 1, 0, 0), {3: ("II", 3, 1)}),  # 27a3
            ((0, 0, 0, 1, 0), {2: ("II", 6, 1)}),
            ((0, 0, 0, -25, 0), {5: ("I0*", 2, 4)}),  # twist of 32a by 5
            ((0, 0, 0, 0, 3125), {5: ("II*", 2, 1)}),
        ]
        for ai, table in catalog:
            curve = WeierstrassCurve(*ai)
            for p, (kod, f, c) in table.items():
                d = tate_local(curve, p)
                assert (d.kodaira, d.f_p, d.c_p) == (kod, f, c), (ai, p, d)

    def test_ogg_relation_random_curves(self):
        rng = random.Random(17)
        seen = 0
        while seen < 30:
            ai = [rng.randint(-8, 8) for _ in range(5)]
            try:
                curve = WeierstrassCurve(*ai)
            except Exception:
                continue
            seen += 1
            for p in bad_primes(curve):
                d = tate_local(curve, p)
                assert d.f_p == d.ord_disc + 1 - d.m
                assert d.c_p >= 1 and d.m >= 1
                if d.reduction.is_multiplicative:
                    assert d.f_p == 1
                    assert d.kodaira == f"I{d.ord_disc}"
                elif d.reduction is ReductionType.ADDITIVE:
                    assert d.f_p >= 2
                    assert d.f_p <= (8 if p == 2 else 5 if p == 3 else 2)

    def test_tate_agrees_with_reduction_type(self):
        rng = random.Random(29)
        seen = 0
        while seen < 25:
            ai = [rng.randint(-6, 6) for _ in range(5)]
            try:
                curve = WeierstrassCurve(*ai)
            except Exception:
                continue
            seen += 1
            for p in bad_primes(curve):
                assert tate_local(curve, p).reduction is reduction_type(curve, p)

    def test_nonminimal_input_restarts(self):
        kodaira, f, c, m, red, n, restarts = _tate_at_prime((0, 0, 0, 0, 64), 2)
        assert restarts == 1
        assert (kodaira, f, c, m) == ("IV", 2, 3, 3)

    def test_scaling_invariance(self, e11):
        from hasseweil.curves import IsomorphismData

        scaled = IsomorphismData(2).inverse().apply(e11)
        d = tate_local(scaled, 11)
        assert (d.kodaira, d.f_p, d.c_p) == ("I5", 1, 5)

    def test_invariance_under_random_transformations(self):
        from fractions import Fraction

        from hasseweil.curves import IsomorphismData
        from hasseweil.errors import SingularCurve

        rng = random.Random(31337)
        curves = 0
        while curves < 60:
            ai = [rng.randint(-15, 15) for _ in range(5)]
            try:
                curve = WeierstrassCurve(*ai)
            except SingularCurve:
                continue
            curves += 1
            u = rng.choice([1, 2, 3])
            iso = IsomorphismData(
                Fraction(1, u),
                rng.randint(-3, 3),
                rng.randint(-3, 3),
                rng.randint(-3, 3),
            )
            image = iso.apply(curve)
            for p in bad_primes(curve):
                d1, d2 = tate_local(curve, p), tate_local(image, p)
                assert (d1.kodaira, d1.f_p, d1.c_p, d1.m) == (
                    d2.kodaira, d2.f_p, d2.c_p, d2.m,
                ), (ai, u, p)


class TestConductor:
    def test_reference_values(self, e37, e11, e36):
        assert conductor(e37) == 37
        assert conductor(e11) == 11
        assert conductor(e36) == 36

    def test_more_known_conductors(self):
        known = {
            (0, 0, 1, 0, -7): 27,
            (1, -1, 0, -2, -1): 49,
            (1, 1, 1, -10, -10): 15,
            (1, 0, 1, 4, -6): 14,
            (0, 1, 1, -2, 0): 389,
            (0, 0, 0, -1, 0): 32,
        }
        for ai, N in known.items():
            assert conductor(WeierstrassCurve(*ai)) == N


class TestPerCurveFacts:
    def test_facts_computed_once_per_curve(self):
        curve = WeierstrassCurve(0, 0, 0, 0, 64)  # u = 2 image of y^2 = x^3 + 1
        assert curve.minimal_model() is curve.minimal_model()
        assert curve.invariants() is curve.invariants()
        assert tate_local(curve, 3) is tate_local(curve, 3)
        assert conductor(curve) == conductor(curve.minimal_model()[0]) == 36

    def test_sweep_rejects_composites(self, e11):
        with pytest.raises(NotPrime):
            ap_sweep(e11, [2, 3, 4])


class TestLocalDataSerialization:
    def test_json_roundtrip(self, e11):
        d = tate_local(e11, 11)
        payload = json.loads(d.to_json())
        assert payload["p"] == 11
        assert payload["reduction"] == "split_multiplicative"
        assert payload["kodaira"] == "I5"
        assert set(payload) == {
            "p", "reduction", "kodaira", "a_p", "f_p", "c_p", "m", "ord_disc",
        }


class TestFiniteField:
    def test_irreducible_polynomials(self):
        for p, k in [(2, 3), (3, 2), (5, 3), (7, 2)]:
            poly = irreducible_polynomial(p, k)
            assert len(poly) == k + 1 and poly[-1] == 1
            gf = GaloisField(p, k)
            # field has p^k elements and Frobenius fixes exactly F_p
            fixed = sum(
                1 for a in gf.elements() if gf.pow(a, p) == a
            )
            assert fixed == p

    def test_quadratic_solver_char2(self):
        gf = GaloisField(2, 3)
        total = 0
        for x in gf.elements():
            count = gf.solve_quadratic_y(x, gf.one)
            brute = sum(
                1
                for y in gf.elements()
                if gf.add(gf.mul(y, y), gf.mul(x, y)) == gf.one
            )
            assert count == brute
            total += count
        assert total > 0
