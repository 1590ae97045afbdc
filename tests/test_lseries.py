import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from hasseweil import kernels
from hasseweil import powerseries as ps
from hasseweil.curves import WeierstrassCurve
from hasseweil.errors import BadReduction, OutsideConvergenceRegion
from hasseweil.localdata import tate_local
from hasseweil.lseries import (
    dirichlet_coefficients,
    eval_dirichlet,
    eval_euler,
    frobenius_power_sums,
    incomplete_zeta,
    local_euler_factor,
    trace_formula_check,
    weil_zeta_from_counts,
    zeta_factorization_check,
)
from hasseweil.numtheory import primes_up_to, sigma0


class TestEulerFactors:
    def test_good_factor(self, e37):
        factor = local_euler_factor(tate_local(e37, 2))
        assert factor.coeffs == (1, 2, 2)  # a_2 = -2

    def test_multiplicative_factors(self, e37, e11):
        assert local_euler_factor(tate_local(e11, 11)).coeffs == (1, -1)
        assert local_euler_factor(tate_local(e37, 37)).coeffs == (1, 1)

    def test_additive_factor(self, e36):
        assert local_euler_factor(tate_local(e36, 2)).coeffs == (1,)

    def test_nonvanishing_in_convergence_region(self, e37):
        for p in (2, 3, 5, 37):
            factor = local_euler_factor(tate_local(e37, p))
            for s in (1.51, 2.0, 3.0):
                assert abs(factor(p ** (-s))) > 0


class TestDirichletCoefficients:
    def test_first_coefficients_e37(self, e37):
        d = dirichlet_coefficients(e37, 10)
        # matches the well-known q-expansion of the level-37 newform
        assert d.coeffs[1:] == (1, -2, -3, 2, -2, 6, -1, 0, 6, 4)

    def test_recurrence_examples(self, e37):
        d = dirichlet_coefficients(e37, 10)
        assert d[4] == d[2] ** 2 - 2
        assert d[6] == d[2] * d[3]
        assert d[1] == 1

    def test_bad_prime_powers(self, e11):
        d = dirichlet_coefficients(e11, 125)
        assert d[11] == 1
        assert d[121] == 1  # a_{p^k} = a_p^k at bad p

    def test_multiplicativity_random_pairs(self, e37):
        d = dirichlet_coefficients(e37, 10**4)
        rng = random.Random(99)
        checked = 0
        while checked < 200:
            m = rng.randint(2, 99)
            n = rng.randint(2, 100)
            if math.gcd(m, n) != 1 or m * n > 10**4:
                continue
            assert d[m * n] == d[m] * d[n]
            checked += 1

    def test_ramanujan_bound(self, e11):
        d = dirichlet_coefficients(e11, 2000)
        for n in range(1, 2001):
            assert d[n] ** 2 <= sigma0(n) ** 2 * n

    def test_serialization(self, e37):
        d = dirichlet_coefficients(e37, 5)
        assert d.to_text().splitlines() == ["1 1", "2 -2", "3 -3", "4 2", "5 -2"]
        assert d.to_json() == "[1, -2, -3, 2, -2]"


class TestEvaluators:
    def test_euler_dirichlet_agreement(self, e37):
        lhs = eval_euler(e37, 2.5, 10**5)
        rhs = eval_dirichlet(e37, 2.5, 10**5)
        assert abs(lhs - rhs) < 1e-6

    def test_agreement_improves_monotonically(self, e37):
        gaps = []
        for cut in (10**2, 10**3, 10**4):
            gaps.append(
                abs(eval_euler(e37, 2.5, cut) - eval_dirichlet(e37, 2.5, cut))
            )
        assert gaps[0] > gaps[1] > gaps[2]

    def test_convergence_region_enforced(self, e37):
        with pytest.raises(OutsideConvergenceRegion):
            eval_euler(e37, 1.4, 100)
        with pytest.raises(OutsideConvergenceRegion):
            eval_dirichlet(e37, 1.5, 100)

    def test_incomplete_zeta_full(self):
        assert abs(incomplete_zeta(2.0, (), 10**5) - math.pi**2 / 6) < 1e-4

    def test_incomplete_zeta_removes_factors(self):
        full = incomplete_zeta(2.0, (), 10**4)
        without_2 = incomplete_zeta(2.0, (2,), 10**4)
        assert abs(without_2 - full * (1 - 2.0**-2)) < 1e-12

    def test_complex_argument(self, e37):
        value = eval_euler(e37, 2 + 1j, 2000)
        assert value.imag != 0

    def test_dirichlet_tail_bound_honest(self, e37):
        from hasseweil.lseries import dirichlet_tail_bound

        s = 2.5
        reference = eval_dirichlet(e37, s, 10**5)
        for n_max in (100, 1000):
            actual_tail = abs(eval_dirichlet(e37, s, n_max) - reference)
            bound = dirichlet_tail_bound(s, n_max)
            assert actual_tail < bound
        assert dirichlet_tail_bound(s, 1000) < dirichlet_tail_bound(s, 100)


class TestWeilZeta:
    def test_projective_line(self):
        p = 2
        counts = [p**j + 1 for j in range(1, 5)]
        assert weil_zeta_from_counts(counts, 4) == ps.from_rational(
            [1], [1, -(1 + p), p], 4
        )

    def test_empty_variety(self):
        assert weil_zeta_from_counts([0, 0, 0], 3) == ps.series([1], 3)

    def test_e37_mod_2_series(self, e37):
        from hasseweil.localdata import count_points

        counts = [count_points(e37, 2, k) for k in (1, 2, 3)]
        assert counts == [5, 5, 5]
        lhs = weil_zeta_from_counts(counts, 3)
        rhs = ps.from_rational([1, 2, 2], [1, -3, 2], 3)
        assert lhs == rhs


class TestTraceFormula:
    def test_reference_primes(self, e37):
        assert trace_formula_check(e37, 2, 3)
        assert frobenius_power_sums(-2, 2, 2)[1] == 0  # alpha^2 + beta^2 = 0

    def test_k1_reduces_to_definition(self, e37):
        from hasseweil.localdata import ap, count_points

        for p in (3, 5, 7):
            assert trace_formula_check(e37, p, 1)
            assert ap(e37, p) == p + 1 - count_points(e37, p, 1)

    def test_perturbed_ap_detected(self, e37):
        from hasseweil.localdata import count_points

        p = 3
        a_wrong = -3 + 1
        sums = frobenius_power_sums(a_wrong, p, 3)
        ok = all(
            count_points(e37, p, k) == p**k + 1 - sums[k - 1]
            for k in range(1, 4)
        )
        assert not ok

    def test_bad_prime_rejected(self, e37):
        with pytest.raises(BadReduction):
            trace_formula_check(e37, 37, 2)


class TestZetaFactorization:
    def test_reference_primes(self, e37):
        assert zeta_factorization_check(e37, 3, 3)
        assert zeta_factorization_check(e37, 5, 3)

    def test_all_good_small_primes_all_curves(self, reference_curves):
        for curve in reference_curves.values():
            from hasseweil.localdata import bad_primes

            bad = set(bad_primes(curve))
            for p in primes_up_to(20):
                if p in bad:
                    continue
                assert trace_formula_check(curve, p, 3)
                assert zeta_factorization_check(curve, p, 3)

    def test_bad_prime_rejected(self, e37):
        with pytest.raises(BadReduction):
            zeta_factorization_check(e37, 37, 2)


class TestPerCurveApTable:
    E37 = (0, 0, 1, -1, 0)

    def test_extending_sweeps_each_prime_once(self, monkeypatch):
        seen = []
        sweep, bsgs = kernels.ap_sweep, kernels.ap_bsgs

        def counting_sweep(*args):
            seen.extend(args[5])
            return sweep(*args)

        def counting_bsgs(c4, c6, p, *rest):
            seen.append(p)
            return bsgs(c4, c6, p, *rest)

        monkeypatch.setattr(kernels, "ap_sweep", counting_sweep)
        monkeypatch.setattr(kernels, "ap_bsgs", counting_bsgs)
        curve = WeierstrassCurve(*self.E37)
        warm = [
            dirichlet_coefficients(curve, 600),
            dirichlet_coefficients(curve, 10**4),
            eval_euler(curve, 2.5, 10**3),
            eval_euler(curve, 2.5, 10**5),
        ]
        assert len(seen) == len(set(seen)) == len(primes_up_to(10**5)) - 1
        monkeypatch.undo()
        cold = [
            dirichlet_coefficients(WeierstrassCurve(*self.E37), 600),
            dirichlet_coefficients(WeierstrassCurve(*self.E37), 10**4),
            eval_euler(WeierstrassCurve(*self.E37), 2.5, 10**3),
            eval_euler(WeierstrassCurve(*self.E37), 2.5, 10**5),
        ]
        assert warm == cold

    def test_table_dies_with_the_curve(self, monkeypatch):
        # constant a_p keep the sweep cheap under tracemalloc; what the curve
        # retains does not depend on the values
        monkeypatch.setattr(kernels, "ap_sweep", lambda *args: [0] * len(args[5]))
        monkeypatch.setattr(kernels, "ap_bsgs", lambda c4, c6, p, seed=0: 0)
        eval_euler(WeierstrassCurve(*self.E37), 2.0, 100)  # warm the code paths
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            curve = WeierstrassCurve(0, -1, 1, -10, -20)
            eval_euler(curve, 2.0, 10**5)
            del curve
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024


class TestPowerSeries:
    def test_exp_log_inverse(self):
        rng = random.Random(4)
        coeffs = [Fraction(0)] + [
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(6)
        ]
        e = ps.exp(coeffs)
        assert e[0] == 1
        assert ps.mul(e, ps.inverse(e)) == ps.series([1], 6)

    def test_from_rational(self):
        geom = ps.from_rational([1], [1, -1], 5)
        assert geom == [Fraction(1)] * 6
