import json
import math
import random

import pytest

from hasseweil import cli, kernels, localdata, _kernels_py
from hasseweil.curves import WeierstrassCurve
from hasseweil.analytic import AnalyticContext, analytic_rank, root_number
from hasseweil.bsd import bsd_report
from hasseweil.errors import BadReduction, BSGSFailure, HasseWeilError, NotPrime, SingularCurve
from hasseweil.finitefield import GaloisField, irreducible_polynomial
from hasseweil.localdata import (
    BSGS_SWEEP_THRESHOLD,
    ReductionType,
    _count_points_gf,
    _tate_at_prime,
    ap,
    ap_sweep,
    ap_table,
    bad_primes,
    conductor,
    count_points,
    reduction_type,
    tate_local,
)
from hasseweil.lseries import frobenius_power_sums
from hasseweil.numtheory import is_prime, legendre_symbol, primes_up_to


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
        for p in (5, 7):
            s3 = frobenius_power_sums(ap(e37, p), p, 3)[2]
            for seed in (0, 1, 2):
                assert _count_points_gf((0, 0, 1, -1, 0), p, 3, seed) == p**3 + 1 - s3

    def test_extension_field_requires_good_reduction(self, e37):
        with pytest.raises(BadReduction):
            count_points(e37, 37, 2)

    def test_bsgs_matches_enumeration(self, e37):
        # BSGS serves every good p > BSGS_SWEEP_THRESHOLD; enumerating F_p
        # is the oracle, on 37a from p = 5 and on random curves above 457
        curves = [(e37, 5)]
        rng = random.Random(11)
        while len(curves) < 4:
            try:
                curve = WeierstrassCurve(*(rng.randint(-20, 20) for _ in range(5)))
            except Exception:
                continue
            curves.append((curve, BSGS_SWEEP_THRESHOLD + 1))
        for curve, p_min in curves:
            minimal = curve.minimal_model()[0]
            ai = [int(a) for a in minimal.ainvs()]
            inv = minimal.invariants()
            c4, c6 = int(inv.c4), int(inv.c6)
            for p in primes_up_to(3000):
                if p < p_min or p in bad_primes(curve):
                    continue
                # above Mestre's bound every seed gives the one a_p; the
                # seed moves the drawn points between the curve (f(x) a
                # square) and its twist (f(x) a non-square)
                seeds = range(4) if p > BSGS_SWEEP_THRESHOLD else (0,)
                aps = {kernels.ap_bsgs(c4, c6, p, seed) for seed in seeds}
                assert aps == {p + 1 - kernels.count_points_mod_p(*ai, p)}, (ai, p)

    def test_bsgs_failure_is_a_package_error(self, monkeypatch):
        # below Mestre's bound the search may end without one order; that is
        # BSGSFailure, which the CLI reports as a precondition (exit 5)
        failing = next(
            (c4, c6, p)
            for p in primes_up_to(BSGS_SWEEP_THRESHOLD)[2:]
            for c4 in range(-8, 9)
            for c6 in range(-8, 9)
            if (c4**3 - c6**2) % p and _bsgs_fails(c4, c6, p)
        )
        with pytest.raises(BSGSFailure):
            kernels.ap_bsgs(*failing)
        assert issubclass(BSGSFailure, HasseWeilError)
        bsgs = kernels.ap_bsgs
        monkeypatch.setattr(kernels, "ap_bsgs", lambda c4, c6, p, seed=0: bsgs(*failing))
        monkeypatch.setattr(localdata, "BSGS_SWEEP_THRESHOLD", 3)
        assert cli.main(["lvalue", "0", "-1", "1", "-10", "-20", "--s", "2"]) == 5

    def test_large_prime_count(self, e37):
        p = 1000003
        n = count_points(e37, p)
        assert (p + 1 - n) ** 2 <= 4 * p


def _bsgs_fails(c4, c6, p):
    try:
        kernels.ap_bsgs(c4, c6, p)
    except BSGSFailure:
        return True
    return False


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod prime p, or None when a is a non-residue.

    Tonelli-Shanks; deterministic non-residue search.
    """
    a %= p
    if p == 2 or a == 0:
        return a
    if legendre_symbol(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


class _Short:
    """y^2 = x^3 + Ax + B over F_p, affine with None as infinity: the
    oracle of the kernel's flat BSGS arithmetic."""

    def __init__(self, A, B, p):
        self.A, self.B, self.p = A % p, B % p, p

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        p = self.p
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + self.A) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return (x3, (lam * (x1 - x3) - y1) % p)

    def mul(self, n, P):
        R, add = None, P
        while n:
            if n & 1:
                R = self.add(R, add)
            add = self.add(add, add)
            n >>= 1
        return R


def _random_curve(p, rng):
    while True:
        A, B = rng.randrange(p), rng.randrange(p)
        if (4 * A**3 + 27 * B * B) % p:
            return _Short(A, B, p)


def _random_point(curve, rng):
    p = curve.p
    while True:
        x = rng.randrange(p)
        y = sqrt_mod_prime((x * x * x + curve.A * x + curve.B) % p, p)
        if y is not None:
            return (x, y)


def _order(curve, P):
    n, Q = 1, P
    while Q is not None:
        Q = curve.add(Q, P)
        n += 1
    return n


def _hasse(p):
    w = math.isqrt(4 * p)
    return p + 1 - w, p + 1 + w


def _corner_cases(E, P):
    """The corner cases of `_bsgs_all_matches` that P meets, told by the
    oracle: the stride (2s + 1)P is O; or, in the scalar multiplication
    q(2s + 1)P of the first giant center, a doubling meets a 2-torsion
    point or an addition meets R = (2s + 1)P; or a giant center is O."""
    lo, hi = _hasse(E.p)
    s = math.isqrt((hi - lo) // 2) + 1
    step = 2 * s + 1
    n = _order(E, P)
    if n < 2 * s:
        return set()
    if n == step:
        return {"stride O"}
    found = set()
    S = E.mul(step, P)
    q = -(-(lo - s) // step)
    R = S
    for bit in bin(q)[3:]:
        if R is not None and R[1] == 0:
            found.add("2-torsion doubled")
        R = E.add(R, R)
        if bit == "1":
            if R == S:
                found.add("R = P")
            R = E.add(R, S)
    if any(c % n == 0 for c in range(q * step, hi + s + 1, step)):
        found.add("center O")
    return found


CORNER_CASES = {"stride O", "2-torsion doubled", "R = P", "center O"}


class TestKernel:
    def test_backend_name(self):
        assert kernels.backend() == "python"

    def test_count_matches_per_y_count(self):
        # the square-root table against a count of every (x, y) mod p, on
        # random coefficients, at the primes dividing the discriminant too
        rng = random.Random(17)
        singular = 0
        for _ in range(40):
            a1, a2, a3, a4, a6 = (rng.randint(-40, 40) for _ in range(5))
            b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
            b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
            disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
            primes = [p for p in primes_up_to(100) if p < 40 or disc % p == 0]
            for p in primes:
                per_y = 1 + sum(
                    1 for x in range(p) for y in range(p)
                    if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0)
                assert _kernels_py.count_points_mod_p(a1, a2, a3, a4, a6, p) == per_y, (
                    (a1, a2, a3, a4, a6), p)
                singular += disc % p == 0
        assert singular >= 40

    def test_bsgs_all_matches_brute_force(self):
        # every m in [lo, hi] with mP = O, against trying each m; the
        # multiples (n/d)P of a random point of order n give every order d
        # dividing n, among them orders below 2s (the early exits of the
        # baby steps) and the order 2s, where the baby step sP has y = 0;
        # primes above 460 are added until every corner case has been met
        matches = _kernels_py._bsgs_all_matches
        rng = random.Random(3)
        cases = []
        large = rng.sample([q for q in primes_up_to(3000) if q > 460], 12)
        small = (q for q in primes_up_to(3000) if q > 460)
        met = set()
        while len(large) or met != CORNER_CASES:
            p = large.pop() if large else next(small)
            E = _random_curve(p, rng)
            P = _random_point(E, rng)
            n = _order(E, P)
            for d in range(2, n + 1):
                if n % d == 0:
                    Q = E.mul(n // d, P)
                    cases.append((E, Q))
                    met |= _corner_cases(E, Q)
        # 37a's short model at 1777: s = 10 and P has order 20 = 2s
        E = _Short(-27 * 48, 54 * 216, 1777)
        assert _order(E, (25, 1419)) == 20
        cases.append((E, (25, 1419)))
        for E, P in cases:
            lo, hi = _hasse(E.p)
            brute = [m for m in range(lo, hi + 1) if E.mul(m, P) is None]
            assert matches(E.A, E.p, *P, lo, hi) == brute, (E.p, E.A, E.B, P)

    def test_jacobian_mul_matches_affine(self):
        # nP for every n up to twice the order, so doublings that meet a
        # 2-torsion point or O and additions that meet R = P all occur
        rng = random.Random(7)
        for p in (461, 467, 1777):
            E = _random_curve(p, rng)
            P = _random_point(E, rng)
            n = _order(E, P)
            for d in (2, 3, 4, 5, 6, 7, 9):
                if n % d == 0:
                    Q = E.mul(n // d, P)
                    for k in range(1, 2 * d + 3):
                        assert _kernels_py._mul(k, *Q, E.A, p) == E.mul(k, Q), (p, d, k)
            for k in range(1, 200):
                assert _kernels_py._mul(k, *P, E.A, p) == E.mul(k, P), (p, k)

    def test_bsgs_above_31_bits(self, e37):
        # above 2^31 - 1: a_p obeys Hasse, p + 1 - a_p kills points of the
        # short model and p + 1 + a_p kills points of its quadratic twist
        p = next(q for q in range(2**31, 2**31 + 100) if is_prime(q))
        a_p = ap(e37, p)
        assert a_p * a_p <= 4 * p
        inv = e37.invariants()
        A, B = -27 * int(inv.c4), -54 * int(inv.c6)
        g = next(g for g in range(2, p) if pow(g, (p - 1) // 2, p) == p - 1)
        rng = random.Random(5)
        for curve, order in (
            (_Short(A, B, p), p + 1 - a_p),
            (_Short(A * g * g, B * g**3, p), p + 1 + a_p),
        ):
            for _ in range(4):
                assert curve.mul(order, _random_point(curve, rng)) is None


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

    def test_pointwise_uses_the_table_rule_above_threshold(self, monkeypatch):
        # one counting rule: above BSGS_SWEEP_THRESHOLD, ap() uses BSGS just
        # as the a_p table does, and never enumerates the prime field
        curve = WeierstrassCurve(0, 0, 1, -1, 0)
        p = next(q for q in primes_up_to(2 * BSGS_SWEEP_THRESHOLD)
                 if q > BSGS_SWEEP_THRESHOLD)

        def refuse(*args):
            raise AssertionError("enumerated F_p above the switch point")

        monkeypatch.setattr(kernels, "count_points_mod_p", refuse)
        value = ap(curve, p)
        primes, aps = ap_table(WeierstrassCurve(0, 0, 1, -1, 0), p)
        assert primes[-1] == p and aps[-1] == value


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
        # split <=> p points total, nonsplit <=> p + 2, additive <=> p + 1,
        # and each total matches a direct count on the minimal model
        for curve in reference_curves.values():
            minimal = [int(a) for a in curve.minimal_model()[0].ainvs()]
            for p in bad_primes(curve):
                total = count_points(curve, p)
                assert total == _kernels_py.count_points_mod_p(*minimal, p)
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
            # one curve per additive type at p = 2 and at p = 3
            ((0, 0, 0, -1, 0), {2: ("III", 5, 2)}),  # 32a
            ((0, 0, 0, 0, 1), {2: ("IV", 2, 3), 3: ("III", 2, 2)}),  # 36a
            ((0, 0, 0, 0, -4), {2: ("I0*", 4, 2)}),
            ((0, 0, 0, 1, 2), {2: ("I1*", 3, 4)}),
            ((0, 0, 0, 0, 4), {2: ("IV*", 2, 3)}),
            ((0, -1, 0, 0, -4), {2: ("III*", 3, 2)}),
            ((0, 0, 0, 0, -16), {2: ("II*", 4, 1)}),
            ((0, 0, 1, 0, 2), {3: ("IV", 5, 3)}),
            ((0, 0, 0, 9, 0), {3: ("I0*", 2, 2)}),
            ((1, -1, 0, -18, 0), {3: ("I1*", 2, 4)}),
            ((1, -1, 0, 9, 0), {3: ("I2*", 2, 2)}),
            ((0, 0, 0, 0, -27), {3: ("III*", 2, 2)}),
            ((0, 0, 0, 54, 54), {3: ("II*", 3, 1)}),
            ((1, 1, 0, 125, 0), {5: ("I2*", 2, 4)}),
            ((0, 0, 0, 343, 0), {7: ("III*", 2, 2)}),
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
        # Tate's split / non-split / additive against a direct count on the
        # minimal model: p, p + 2 and p + 1 points, the singular one included
        expected = {
            ReductionType.SPLIT_MULTIPLICATIVE: 0,
            ReductionType.NONSPLIT_MULTIPLICATIVE: 2,
            ReductionType.ADDITIVE: 1,
        }
        rng = random.Random(29)
        seen = 0
        while seen < 25:
            ai = [rng.randint(-6, 6) for _ in range(5)]
            try:
                curve = WeierstrassCurve(*ai)
            except Exception:
                continue
            seen += 1
            minimal = [int(a) for a in curve.minimal_model()[0].ainvs()]
            for p in bad_primes(curve):
                red = tate_local(curve, p).reduction
                assert reduction_type(curve, p) is red
                total = _kernels_py.count_points_mod_p(*minimal, p)
                assert total == p + expected[red], (ai, p, red)

    def test_nonminimal_input_restarts(self):
        kodaira, f, c, m, red, n, restarts = _tate_at_prime((0, 0, 0, 0, 64), 2)
        assert restarts == 1
        assert (kodaira, f, c, m) == ("IV", 2, 3, 3)
        # y^2 + y = x^3 scaled by u = 3: the p = 3 case of the restart
        assert _tate_at_prime((0, 0, 27, 0, 0), 3) == (
            "II", 3, 1, 1, ReductionType.ADDITIVE, 3, 1)
        # (0, 0, 0, 0, 64) moved by (r, s, t) = (5, 1, 3): the restart divides
        # the model Tate's algorithm reached, not the translated input
        assert _tate_at_prime((2, 14, 6, 69, 180), 2) == (
            "IV", 2, 3, 3, ReductionType.ADDITIVE, 4, 1)

    def test_theta_involution_and_bsd_check_conductor_and_tamagawa(self):
        # Ogg's formula f_p = ord_p(disc) + 1 - m ties m, and so the Kodaira
        # family, to f_p.  The theta involution holds only for the true
        # conductor, and at rank 0 a wrong prod c_p moves Sha off a square.
        rng = random.Random(7)
        seen = 0
        while seen < 40:
            q = rng.choice((2, 3))
            ai = [rng.randint(-1, 1) for _ in range(3)] + [
                q ** rng.randint(0, 3) * rng.randint(-9, 9),
                q ** rng.randint(0, 5) * rng.randint(-9, 9),
            ]
            try:
                curve = WeierstrassCurve(*ai)
            except SingularCurve:
                continue
            additive = [p for p in (2, 3) if p in bad_primes(curve)
                        and tate_local(curve, p).reduction is ReductionType.ADDITIVE]
            if conductor(curve) > 2 * 10**4 or not additive:
                continue
            seen += 1
            ctx = AnalyticContext(curve)
            root_number(ctx)  # raises PrecisionExhausted at a wrong conductor
            if analytic_rank(ctx).rank == 0:
                assert "sha-not-near-square" not in bsd_report(curve).flags, ai

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


class TestFactorize:
    def test_planted_primes_up_to_2_50(self):
        # Brent's rho with batched gcds gives back every planted prime, as one sorted
        # dict: up to four primes of up to 32 bits, squares and cubes among them,
        # and one of up to 50 bits to the first power (rho's steps grow as the
        # square root of the prime it splits off)
        from hasseweil.numtheory import factorize

        rng = random.Random(20)
        for case in range(60):
            planted: dict[int, int] = {}
            for size in [32] * rng.randint(1, 4) + [50] * (case % 2):
                p = _random_prime(rng, rng.randint(2, size))
                planted[p] = planted.get(p, 0) + (rng.randint(1, 3) if size == 32 else 1)
            n = math.prod(p**e for p, e in planted.items())
            assert factorize(n) == dict(sorted(planted.items())), planted
            assert factorize(-2 * n) == factorize(2 * n)

    def test_powers_of_a_large_prime(self):
        # an exact power is split by its integer k-th root at once, where rho
        # would take ~sqrt(p) steps for a 50-bit p (over a minute for p^3)
        import time

        from hasseweil.numtheory import factorize

        rng = random.Random(50)
        q8, q14, q20, p = (_random_prime(rng, bits) for bits in (8, 14, 20, 50))
        start = time.perf_counter()
        assert factorize(p**3 * q8 * q14 * q20) == dict(sorted({p: 3, q8: 1, q14: 1, q20: 1}.items()))
        assert factorize(p**6 * q20**2) == dict(sorted({p: 6, q20: 2}.items()))
        assert factorize((p * q14) ** 5) == dict(sorted({p: 5, q14: 5}.items()))
        assert time.perf_counter() - start < 1

    def test_iroot_is_the_floor_root(self):
        from hasseweil.numtheory import iroot

        rng = random.Random(3)
        for _ in range(300):
            k = rng.randint(1, 12)
            n = rng.getrandbits(rng.randint(0, 300))
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
            assert iroot(r**k, k) == r
        assert [iroot(n, 3) for n in range(9)] == [0, 1, 1, 1, 1, 1, 1, 1, 2]


def _random_prime(rng: random.Random, bits: int) -> int:
    """The first prime at or above a random odd number of `bits` bits."""
    p = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    while not is_prime(p):
        p += 2
    return p
