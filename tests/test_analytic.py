import math
import random

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hasseweil.analytic import (
    GUARD_BITS,
    ROOT_BITS,
    ROOT_SAMPLES,
    AnalyticContext,
    _gamma_derivs_at_1,
    _lambda_at_1,
    _lambda_series,
    _Plan,
    analytic_rank,
    f_on_imaginary_axis,
    incgamma_upper_deriv_at_1,
    l_derivative,
    l_value,
    lambda_derivative,
    lambda_value,
    root_number,
)
from hasseweil.curves import WeierstrassCurve
from hasseweil.errors import PrecisionExhausted, SingularCurve
from hasseweil.localdata import conductor
from hasseweil.lseries import dirichlet_tail_bound, eval_dirichlet, eval_euler

E389 = (0, 1, 1, -2, 0)
E11 = (0, -1, 1, -10, -20)
E37 = (0, 0, 1, -1, 0)
E5077 = (0, 0, 1, -7, 6)
E234446 = (1, -1, 0, -79, 289)


def _small_conductor(ainvs) -> bool:
    """A nonsingular curve of conductor below 10^4."""
    try:
        return conductor(WeierstrassCurve(*ainvs)) < 10**4
    except SingularCurve:
        return False


class TestRootNumber:
    def test_reference_signs(self, ctx37, ctx11, ctx36):
        assert ctx37.w == -1
        assert ctx11.w == 1
        assert ctx36.w == 1

    def test_functional_equation_confirms_sign(self, ctx37):
        # with w = -1 the completed function is antisymmetric about s = 1
        a = lambda_value(ctx37, 1.2).value
        b = lambda_value(ctx37, 0.8).value
        assert abs(a + b) < 1e-8

    def test_rank2_curve(self):
        from hasseweil.curves import WeierstrassCurve

        ctx = AnalyticContext(WeierstrassCurve(0, 1, 1, -2, 0))  # 389a
        assert ctx.w == 1

    def test_rank_four_and_five(self):
        # 234446a and 19047851a: conductors far past the reach of a
        # 10^4-term Dirichlet series, whose error grows like N^2 at s = 4
        assert AnalyticContext(WeierstrassCurve(1, -1, 0, -79, 289)).w == 1
        assert AnalyticContext(WeierstrassCurve(0, 0, 1, -79, 342)).w == -1

    # N + 1 leaves the first ratio within 0.35 of +-1, and negating this a_p
    # moves the ratios by 2e-5 to 5e-5 only, so only the 1e-6 agreement of
    # the samples rejects them
    @pytest.mark.parametrize("ainvs, p", [(E11, 17), (E37, 31), (E389, 97), (E5077, 313)],
                             ids=["11a", "37a", "389a", "5077a"])
    def test_wrong_data_raises(self, ainvs, p):
        wrong_n = AnalyticContext(WeierstrassCurve(*ainvs))
        wrong_n.N += 1
        wrong_n.sqrtN = math.sqrt(wrong_n.N)
        with pytest.raises(PrecisionExhausted, match="deviates"):
            root_number(wrong_n)
        wrong_ap = AnalyticContext(WeierstrassCurve(*ainvs))
        coefficients = wrong_ap.coefficients
        assert coefficients(p)[p] != 0
        wrong_ap.coefficients = lambda n: [-a if k == p else a
                                           for k, a in enumerate(coefficients(n))]
        with pytest.raises(PrecisionExhausted, match="deviates"):
            root_number(wrong_ap)

    @pytest.mark.parametrize("ainvs", [E11, E37, E389, E5077],
                             ids=["11a", "37a", "389a", "5077a"])
    def test_dirichlet_overlap_oracle(self, ainvs):
        # deep in the convergence region the split series built with w is
        # N^{s/2} (2 pi)^{-s} Gamma(s) L(s), L summed directly to n = 10^4
        ctx = AnalyticContext(WeierstrassCurve(*ainvs))
        s0, n_dir = 4, 10**4
        coeffs = ctx.coefficients(n_dir)
        l_dir = math.fsum(coeffs[n] / float(n) ** s0 for n in range(1, n_dir + 1) if coeffs[n])
        # |a_n| <= 2n gives a tail below 2 integral_{n_dir}^inf x^{1-s0} dx
        tail = 2 * float(n_dir) ** (2 - s0) / (s0 - 2)
        with mp.workdps(ctx.dps):
            factor = mp.sqrt(ctx.N) ** s0 * (2 * mp.pi) ** (-s0) * mp.gamma(s0)
            direct = factor * l_dir
            noise = factor * (tail + 1e-12)
            assert abs(_lambda_series(ctx, s0, ctx.w) - direct) < noise
            assert abs(_lambda_series(ctx, s0, -ctx.w) - direct) > 10 * noise

    @pytest.mark.parametrize("ainvs, w", [(E11, 1), (E37, -1), (E389, 1), (E5077, -1)],
                             ids=["11a", "37a", "389a", "5077a"])
    def test_low_precision_keeps_reference_sign(self, ainvs, w, monkeypatch):
        # w is measured at one fixed accuracy, whatever the context's precision:
        # the same f(iy) calls and values at every digits, on the context
        # itself, which keeps its digits
        from hasseweil import analytic

        f = analytic.f_on_imaginary_axis
        calls = []

        def recording(ctx, y):
            value = f(ctx, y)
            calls.append((ctx, y, value))
            return value

        monkeypatch.setattr(analytic, "f_on_imaginary_axis", recording)
        curve = WeierstrassCurve(*ainvs)
        seen = []
        for digits in [*range(5, 16), 30, 60]:
            ctx = AnalyticContext(curve, digits=digits)
            calls.clear()
            assert ctx.w == w, digits
            assert ctx.digits == digits
            assert all(call[0] is ctx for call in calls), digits
            seen.append([call[1:] for call in calls])
        assert len(seen[0]) >= 4
        assert all(entry == seen[0] for entry in seen)


class TestFunctionalEquation:
    def test_residuals_reference_curves(self, ctx37, ctx11, ctx36):
        for ctx in (ctx37, ctx11, ctx36):
            worst = max(
                abs(
                    lambda_value(ctx, s).value
                    - ctx.w * lambda_value(ctx, 2 - s).value
                )
                for s in (0.6, 0.8, 1.0, 1.2, 1.4)
            )
            assert worst < 1e-8

    def test_lambda_real_for_real_s(self, ctx11):
        value = lambda_value(ctx11, 1.3).value
        assert not isinstance(value, mp.mpc) or abs(value.imag) < 1e-25


class TestLValues:
    def test_e11_at_1(self, ctx11):
        assert abs(float(l_value(ctx11, 1).value) - 0.2538418608559107) < 1e-10

    def test_e37_vanishes_at_1(self, ctx37):
        assert abs(l_value(ctx37, 1).value) < 1e-10

    def test_overlap_with_euler_product(self, ctx37, e37):
        for s in (2.5, 3.0):
            lhs = complex(l_value(ctx37, s).value)
            rhs = eval_euler(e37, s, 2 * 10**5)
            assert abs(lhs - rhs) < 1e-8

    @settings(max_examples=1, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(-1, 1), st.integers(0, 1),
                              st.integers(-20, 20), st.integers(-20, 20)).filter(_small_conductor),
                    min_size=20, max_size=20, unique=True))
    def test_matches_dirichlet_series_on_small_conductors(self, curves):
        # an independent series: L at s = 4 and 4 + 3i within the Dirichlet tail
        # bound of the sum to 10^4, on 20 curves of conductor below 10^4
        for ainvs in curves:
            curve = WeierstrassCurve(*ainvs)
            ctx = AnalyticContext(curve)
            for s in (4, 4 + 3j):
                gap = abs(complex(l_value(ctx, s).value) - eval_dirichlet(curve, s, 10**4))
                assert gap <= dirichlet_tail_bound(s, 10**4) + 1e-12, (ainvs, s)

    def test_trivial_zeros(self, ctx11, ctx37):
        # 1/Gamma(s) vanishes at s = 0, -1, -2, ...
        for ctx, s in ((ctx11, 0), (ctx37, -2)):
            value, bound = l_value(ctx, s)
            assert value == 0 and bound == 0

    def test_complex_argument(self, ctx11):
        value = l_value(ctx11, mp.mpc(1.1, 0.3)).value
        assert abs(mp.im(value)) > 0


class TestDerivatives:
    def test_e37_first_derivative(self, ctx37):
        val = float(l_derivative(ctx37, 1).value)
        assert abs(val - 0.3059997738340523) < 1e-8
        assert val > 0

    def test_crosscheck_with_bsd_product(self, ctx37, e37):
        # L'(1) = Omega * height((0,0)) on this curve (|Sha| = 1, c = t = 1)
        from hasseweil.bsd import real_period
        from hasseweil.heights import canonical_height

        omega, _ = real_period(e37)
        h = canonical_height(e37, e37.point(0, 0))
        assert abs(float(l_derivative(ctx37, 1).value) - omega * h) < 1e-8

    def test_odd_derivatives_vanish_for_even_sign(self, ctx11):
        assert lambda_derivative(ctx11, 1).value == 0

    def test_even_derivatives_vanish_for_odd_sign(self, ctx37):
        assert lambda_derivative(ctx37, 0).value == 0
        assert lambda_derivative(ctx37, 2).value == 0

    def test_termwise_matches_finite_differences(self, ctx37):
        # independent oracle: central differences on the Lambda series
        analytic_val = lambda_derivative(ctx37, 1).value
        with mp.workdps(40):
            h = mp.mpf(1) / 10**8
            fd = (
                lambda_value(ctx37, 1 + h).value
                - lambda_value(ctx37, 1 - h).value
            ) / (2 * h)
        assert abs(analytic_val - fd) < 1e-12

    def test_incgamma_derivatives_match_numerical(self):
        # oracle: d^i/da^i Gamma(a, x) at a = 1 is int_x^oo log(t)^i e^{-t} dt,
        # by quadrature with 40 extra digits; x = 75 is about x_{n_max} for 389a
        dps = 45
        for x in ("0.05", "0.7", "3", "11", "40", "75"):
            for order in (1, 2, 3, 4):
                with mp.workdps(dps):
                    series_val = incgamma_upper_deriv_at_1(order, mp.mpf(x))
                with mp.workdps(dps + 40):
                    xq = mp.mpf(x)
                    oracle = mp.e ** (-xq) * mp.quad(
                        lambda u: mp.log(xq + u) ** order * mp.e ** (-u), [0, mp.inf]
                    )
                    assert abs(series_val - oracle) < mp.mpf(10) ** -(dps - 2), (x, order)


class TestAnalyticRank:
    def test_reference_ranks(self, ctx37, ctx11, ctx36):
        assert analytic_rank(ctx11, 1e-10).rank == 0
        assert analytic_rank(ctx37, 1e-10).rank == 1
        assert analytic_rank(ctx36, 1e-10).rank == 0

    def test_rank_two(self):
        from hasseweil.curves import WeierstrassCurve

        ctx = AnalyticContext(WeierstrassCurve(0, 1, 1, -2, 0))
        assert analytic_rank(ctx, 1e-10).rank == 2

    def test_parity_matches_sign(self, ctx37, ctx11, ctx36):
        for ctx in (ctx37, ctx11, ctx36):
            rank = analytic_rank(ctx, 1e-10).rank
            assert rank % 2 == (0 if ctx.w == 1 else 1)

    def test_result_is_flagged_numerical(self, ctx11):
        estimate = analytic_rank(ctx11, 1e-10)
        assert estimate.is_numerical
        assert estimate.tol == 1e-10

    def test_bad_tolerance_rejected(self, ctx11):
        with pytest.raises(ValueError):
            analytic_rank(ctx11, 0)


class TestPrecisionControl:
    def test_tail_bound_honest(self, e11, e37, monkeypatch):
        # summing the closed form to twice its count moves Lambda(1) (11a, w = 1) and
        # the rank's scale (both curves) by less than the reported 10^-digits
        from hasseweil import analytic

        contexts = [AnalyticContext(curve, digits=20) for curve in (e11, e37)]

        def closed_forms():
            with mp.workdps(contexts[0].dps):
                return [total for ctx in contexts for total in _lambda_at_1(ctx)]

        base = closed_forms()
        q_terms = analytic._q_terms
        monkeypatch.setattr(analytic, "_q_terms", lambda x, bits: 2 * q_terms(x, bits))
        with mp.workdps(contexts[0].dps):
            for a, b in zip(base, closed_forms()):
                assert abs(a - b) < mp.mpf(10) ** -contexts[0].digits

    def test_plan_cap(self):
        # the cap of 2^35 bit operations admits rank 6 (5187563742a, k = 6, 50 digits:
        # 2^34.7) and refuses tables that run for minutes: 37a at s = 400, 19047851a
        # at s = 60 (2^36.8, a_n to 660,000)
        from types import SimpleNamespace

        from hasseweil.analytic import _plan

        def plan(N, digits, s=1.0, k=0):
            return _plan(SimpleNamespace(sqrtN=math.sqrt(N), _plans={}),
                         mp.libmp.dps_to_prec(digits + 15), s, k=k)

        assert plan(5187563742, 50, k=6) == (5, 466, 336, 272)
        assert plan(37, 70, 200).count == 1893
        for N, s in ((37, 400), (19047851, 60)):
            with pytest.raises(PrecisionExhausted, match="past the cap 2"):
                plan(N, 30, s)

    def test_refused_before_walking_as_the_walk_refuses(self, monkeypatch):
        # a walk whose first possible stop lies past the nodes the cap leaves is refused
        # before it starts, with the full walk's outcome and message: on a grid about
        # the cap, test_plan_cap's cases included
        from types import SimpleNamespace

        from hasseweil import analytic

        grid = [(N, 30, s, 0) for N in (11, 37, 389)
                for s in (1, 2.5 + 1e4j, 60 + 3e3j, 60 + 1e4j, 200, 200 + 3e3j, 200 + 1e4j,
                          400, 400 + 3e3j)]
        grid += [(5187563742, 50, 1, 6), (37, 70, 200, 0), (37, 30, 400, 0),
                 (19047851, 30, 60, 0)]
        walked = _counting(monkeypatch, "_log_bump")

        def outcomes():
            found = []
            for N, digits, s, k in grid:
                del walked[:]
                try:
                    plan = analytic._plan(SimpleNamespace(sqrtN=math.sqrt(N), _plans={}),
                                          mp.libmp.dps_to_prec(digits + 15), s.real, s.imag, k)
                except PrecisionExhausted as refusal:
                    plan = str(refusal)
                found.append((plan, len(walked)))
            return found

        early = outcomes()
        monkeypatch.setattr(analytic, "_first_stop", lambda x_1, a, h: -math.inf)
        full = outcomes()
        assert [plan for plan, _ in early] == [plan for plan, _ in full]
        assert sum(isinstance(plan, str) and steps == 0 < walk
                   for (plan, steps), (_, walk) in zip(early, full)) >= 5
        assert sum(isinstance(plan, _Plan) for plan, _ in early) >= 10

    def test_plan_kept_on_the_context(self):
        # a warm context's plan is the one a fresh context makes, refusals included
        from types import SimpleNamespace

        from hasseweil.analytic import _plan

        ctx = AnalyticContext(WeierstrassCurve(*E389))
        grid = [(prec, sigma, t, k) for prec in (60, 150, 333) for sigma in (1, 0.5, 2, -3, 400)
                for t in (0, 1 / 32, 3.7, 20, 300, 5e3) for k in (0, 1, 2, 5)]

        def outcome(context, args):
            try:
                return _plan(context, *args)
            except PrecisionExhausted as refusal:
                return str(refusal)

        fresh = [outcome(SimpleNamespace(sqrtN=ctx.sqrtN, _plans={}), args) for args in grid]
        assert sum(isinstance(plan, str) for plan in fresh) >= 10
        assert [outcome(ctx, args) for args in grid] == fresh
        assert [outcome(ctx, args) for args in grid[::-1]] == fresh[::-1]

    def test_a_new_t_walks_no_node(self, monkeypatch):
        # the second Lambda(1 + it) at the same digits and Re s reads its plan back
        ctx = AnalyticContext(WeierstrassCurve(*E389))
        lambda_value(ctx, mp.mpc(1, 2))
        walked = _counting(monkeypatch, "_log_bump")
        strips = _counting(monkeypatch, "_log_discretization")
        lambda_value(ctx, mp.mpc(1, 3.5))
        assert walked == [] and strips == []

    def test_doubling_precision_stable(self, e37):
        lo = AnalyticContext(e37, digits=30)
        hi = AnalyticContext(e37, digits=60)
        a = lambda_value(lo, 1.2)
        b = lambda_value(hi, 1.2)
        assert abs(a.value - b.value) < a.bound

    def test_f_series_positive_near_cusp(self, ctx11):
        # f(iy) > 0 for y above the involution fixed point on this curve
        assert f_on_imaginary_axis(ctx11, 1.0 / ctx11.sqrtN) > 0


# non-integer s: Re s and Im s over a box, plus points next to the poles of
# Gamma(2 - s) at 0 and -1, where the incomplete-gamma split cancels 50 to 100 bits
ENGINE_BOX = [
    complex(re, im)
    for re in (-1.5, -0.5, 0.5, 1, 1.3, 2.5, 4.7)
    for im in (0, 1e-15, 1 / 32, 3.7, 20)
    if (re, im) != (1, 0)
] + [2 + 1e-15j, 3 + 1e-12j, 2 + 1e-30j]


def _oracle_count(ctx, tol, reach: float = 0.0) -> int:
    """The n an oracle sums to: where the |a_n| <= 2n tail bound of the Lambda
    series (valid from x_n >= 2(reach + 2)) is below tol/10, not n_max.

    With c = x_1, each term is at most |a_n| 2 e^{-x_n}/x_n <= (4/c) e^{-cn},
    so the tail past M is below (4/c) e^{-c(M+1)}/(1 - e^{-c}), doubled here."""
    c, M = 2 * math.pi / ctx.sqrtN, ctx.n_max
    while (8 / c) * math.exp(-c * (M + 1)) / -math.expm1(-c) > tol / 10 or c * M < 2 * (reach + 2):
        M += M // 8 + 1
    return M


class _LowerSeriesOracle:
    """sum_{n <= M} a_n F(a, x_n), F(a, x) = x^-a Gamma(a, x), in mpmath at the
    ambient precision, by the lower-gamma series at 0 (Dokchitser, math/0207280):
    F(a, x) = x^-a Gamma(a) - e^-x sum_k x^k/(a)_{k+1}.  Summed over n first,
    the series needs only the moments S_k = sum_n a_n e^-x_n x_n^k, which every
    a shares, so each a costs one exponential per n and one pass over k.
    Independent of the package's fixed-point code, and checked against
    mp.gammainc term by term."""

    def __init__(self, ctx, M: int):
        coeffs = ctx.coefficients(M)
        ns = [n for n in range(1, M + 1) if coeffs[n]]
        self.coeffs = [coeffs[n] for n in ns]
        self.xs = [2 * mp.pi * n / mp.sqrt(ctx.N) for n in ns]
        self.logs = [mp.log(x) for x in self.xs]
        self.x_max = float(self.xs[-1])
        # a_n e^-x_n x_n^k and |a_n| e^-x_n x_n^k at the next k
        self._next = [a_n * mp.exp(-x) for a_n, x in zip(self.coeffs, self.xs)]
        self._next_abs = [abs(p) for p in self._next]
        self.moments, self.bounds = [], []

    def _moment(self, k: int):
        while len(self.moments) <= k:
            self.moments.append(mp.fsum(self._next))
            self.bounds.append(mp.fsum(self._next_abs))
            self._next = [p * x for p, x in zip(self._next, self.xs)]
            self._next_abs = [p * x for p, x in zip(self._next_abs, self.xs)]
        return self.moments[k], self.bounds[k]

    def series(self, a, tol) -> list:
        """[1/(a)_{k+1}] to the first k past 2 x_max + |a| + 10 (where the terms at
        least halve) whose term bound over all n is below tol."""
        out, c, k = [], 1 / a, 0
        while True:
            _, bound = self._moment(k)
            out.append(c)
            if k > 2 * self.x_max + abs(a) + 10 and bound * abs(c) < tol:
                return out
            k += 1
            c /= a + k

    def total(self, a, tol):
        c = self.series(a, tol)
        head = mp.fsum(a_n * mp.exp(-a * log_x) for a_n, log_x in zip(self.coeffs, self.logs))
        return mp.gamma(a) * head - mp.fsum(c_k * S_k for c_k, S_k in zip(c, self.moments))

    def term(self, a, x, tol):
        return x**-a * mp.gamma(a) - mp.exp(-x) * mp.polyval(self.series(a, tol)[::-1], x)


class TestSharedSeriesEngine:
    """Lambda at non-integer s against the lower-series oracle with 40 extra digits,
    summed to the tail, the oracle itself against mp.gammainc term by term."""

    @pytest.mark.parametrize("ainvs", [E11, E389], ids=["11a", "389a"])
    @pytest.mark.parametrize("digits", [30, 60])
    def test_terms_match_gammainc_oracle(self, ainvs, digits):
        ctx = AnalyticContext(WeierstrassCurve(*ainvs), digits=digits)
        tol = mp.mpf(10) ** -(ctx.dps - 5)
        M = _oracle_count(ctx, tol, max(max(abs(s), abs(2 - s)) for s in ENGINE_BOX))
        # 20 digits for the oracle's own cancellation and 30 for 2 - s at 1e-30 from a pole
        with mp.workdps(ctx.dps + 90):
            oracle = _LowerSeriesOracle(ctx, M)
            picks = (oracle.xs[0], oracle.xs[-1])  # the smallest and the largest x_n
        for s in ENGINE_BOX:
            with mp.workdps(ctx.dps):
                s_exact = mp.mpmathify(s)
                value = lambda_value(ctx, s_exact).value
            with mp.workdps(ctx.dps + 90):
                halves = (s_exact, mp.fsub(2, s_exact, exact=True))
                for a in halves:
                    for x in picks:
                        with mp.workdps(ctx.dps + 40):
                            exact = x**-a * mp.gammainc(a, x)
                        err = abs(oracle.term(a, x, tol / 100) - exact)
                        assert err <= tol / 100, (s, a, x, mp.nstr(err, 3))
                expected = oracle.total(halves[0], tol / 100) + ctx.w * oracle.total(halves[1], tol / 100)
                err = abs(value - expected)
                assert err <= tol, (s, mp.nstr(err, 3))

    def test_no_gammainc_at_any_s(self, ctx11, monkeypatch):
        calls = []
        gammainc = mp.gammainc

        def counting(*args, **kwargs):
            calls.append(args[0])
            return gammainc(*args, **kwargs)

        monkeypatch.setattr(mp, "gammainc", counting)
        # integer s, s = 1 among them, come from the same trapezoid
        for s in (complex(2, 0), 2, -3, 0, 7, mp.mpc(1, 0.5), 1.3, 1, mp.mpf(1),
                  mp.mpc(1, 0), mp.mpc(0.5, 2)):
            lambda_value(ctx11, s)
            l_value(ctx11, s)
        assert calls == []


class TestIntegerS:
    """Lambda at integer s against mp.gammainc with 40 extra digits, summed to the tail."""

    @pytest.mark.parametrize("ainvs", [E11, E37, E389, E5077],
                             ids=["11a", "37a", "389a", "5077a"])
    def test_matches_gammainc_oracle(self, ainvs):
        ctx = AnalyticContext(WeierstrassCurve(*ainvs))
        M = _oracle_count(ctx, mp.mpf(10) ** -ctx.digits, 12)
        coeffs = ctx.coefficients(M)
        ns = [n for n in range(1, M + 1) if coeffs[n]]
        oracles = {}

        def f(a, n):  # A^a Gamma(a, x_n), each (a, n) once for the whole sweep
            if (a, n) not in oracles:
                A = mp.sqrt(ctx.N) / (2 * mp.pi * n)
                oracles[a, n] = A**a * mp.gammainc(a, 1 / A)
            return oracles[a, n]

        for s in (-10, -5, -2, -1, 0, 2, 3, 6, 12):
            value = lambda_value(ctx, s).value
            with mp.workdps(ctx.dps + 40):
                oracle = sum(coeffs[n] * (f(s, n) + ctx.w * f(2 - s, n)) for n in ns)
                # 10^-digits, and the one rounding of a value held at dps digits:
                # 5077a's Lambda(12) is 1.8e20, so that rounding alone is ~1e-27
                tol = mp.mpf(10) ** -ctx.digits + abs(oracle) * mp.mpf(10) ** -(ctx.dps - 2)
                assert abs(value - oracle) <= tol, (s, mp.nstr(abs(value - oracle), 3))


def _incgamma_derivs_at_1(x, order: int = 4) -> list:
    """[d^i/da^i Gamma(a, x) at a = 1 for i <= order] from one pass of the alternating
    series of `incgamma_upper_deriv_at_1`, at its working precision.

    Gamma^(i)(1) less d^i/da^i of gamma(a, x) = sum_m (-1)^m x^(a+m)/(m! (a+m)),
    which is sum_j C(i, j) (log x)^(i-j) (-1)^j j! T_j with
    T_j = sum_m (-1)^m x^(m+1)/(m! (m+1)^(j+1)): each m adds one term to every T_j.
    """
    target_dps = mp.mp.dps
    with mp.workdps(target_dps + int(float(x) / math.log(10)) + 10):
        x = mp.mpf(x)
        log_x = mp.log(x)
        sums = [mp.mpf(0)] * (order + 1)
        m_min = 4 * float(x) + 20
        # below the direct sum's 10^-(dps + 5) by the largest C(i, j) j! |log x|^(i-j)
        threshold = mp.mpf(10) ** (-(target_dps + 5)) / (math.factorial(order) * 2**order
                                                           * max(1, abs(log_x)) ** order)
        weight, m = x, 0  # x^(m+1)/m!
        while True:
            term, u = weight, mp.mpf(1) / (m + 1)
            for j in range(order + 1):
                term *= u
                sums[j] += -term if m & 1 else term
            m += 1
            weight *= x / m
            if m > m_min and weight < threshold:
                break
        gammas = _gamma_derivs_at_1(order)
        derivs = [gammas[i] - mp.fsum(math.comb(i, j) * log_x ** (i - j) * (-1) ** j
                                      * math.factorial(j) * sums[j] for j in range(i + 1))
                  for i in range(order + 1)]
    return [+d for d in derivs]


def _counting(monkeypatch, name: str) -> list:
    """Record the arguments of each call of analytic.<name>."""
    from hasseweil import analytic

    calls = []
    function = getattr(analytic, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(analytic, name, counting)
    return calls


class TestDerivativeTable:
    """Lambda^(k)(1) from the trapezoid against the series oracle with 40 extra digits."""

    @pytest.mark.parametrize("ainvs", [E11, E37, E389, E5077],
                             ids=["11a", "37a", "389a", "5077a"])
    @pytest.mark.parametrize("digits", [30, 60])
    def test_matches_series_oracle_at_every_x(self, ainvs, digits):
        ctx = AnalyticContext(WeierstrassCurve(*ainvs), digits=digits)
        values = {k: lambda_derivative(ctx, k).value for k in range(1, 5)}
        tol = mp.mpf(10) ** -(ctx.dps - 5)
        sums = dict.fromkeys(values, 0)
        M = _oracle_count(ctx, tol)
        coeffs = ctx.coefficients(M)
        with mp.workdps(ctx.dps + 40):
            for n in range(1, M + 1):
                a_n = coeffs[n]
                if not a_n:
                    continue
                x = 2 * mp.pi * n / mp.sqrt(ctx.N)
                minus_log = -mp.log(x)
                derivs = _incgamma_derivs_at_1(x)
                for k in sums:  # d^k/da^k x^{-a} Gamma(a, x) at a = 1
                    sums[k] += a_n * mp.fsum(math.comb(k, i) * minus_log ** (k - i) * derivs[i]
                                             for i in range(k + 1)) / x
            for k, total in sums.items():
                err = abs(values[k] - (1 + ctx.w * (-1) ** k) * total)
                assert err <= tol, (k, mp.nstr(err, 3))

    def test_rebuilt_only_when_more_is_asked(self, e37, monkeypatch):
        from hasseweil.analytic import _node_table, _q_terms

        ctx = AnalyticContext(e37)
        first = lambda_derivative(ctx, 1).value
        level, width, nodes = ctx._nodes
        assert lambda_derivative(ctx, 1).value == first
        assert ctx._nodes[2] is nodes
        calls = _counting(monkeypatch, "_q_series")
        # fewer bits, fewer nodes or a coarser step: read off the table
        assert _node_table(ctx, level, len(nodes), width - 10) == (width, nodes)
        assert _node_table(ctx, level, 5, width) == (width, nodes[:5])
        assert _node_table(ctx, level - 1, 5, width) == (width, nodes[:9:2])
        assert ctx._nodes[2] is nodes and calls == []
        # a finer step computes only the nodes between
        finer = _node_table(ctx, level + 1, 2 * len(nodes) - 1, width)[1]
        assert finer[::2] == nodes and len(calls) == len(nodes) - 1
        # more bits rebuild the table, with headroom
        rebuilt_width, rebuilt = _node_table(ctx, level, len(nodes), width + 1)
        assert rebuilt_width > width + 1 and len(calls) == 2 * len(nodes) - 1
        units = 2 * (_q_terms(2 * math.pi / ctx.sqrtN, width) + 1) ** 3 + 1  # a node's budget
        assert all(abs((a >> rebuilt_width - width) - b) <= 2 * units
                   for a, b in zip(rebuilt, nodes))

    def test_one_q_series_per_node(self, monkeypatch):
        ctx = AnalyticContext(WeierstrassCurve(*E5077))
        assert ctx.w == -1
        calls = _counting(monkeypatch, "_q_series")
        lambda_derivative(ctx, 3)
        assert len(calls) == len(ctx._nodes[2])
        lambda_derivative(ctx, 3)
        assert len(calls) == len(ctx._nodes[2])

    @pytest.mark.parametrize("ainvs, w", [(E389, 1), (E37, -1)], ids=["389a", "37a"])
    def test_critical_line_builds_only_the_kept_part(self, ainvs, w, monkeypatch):
        # 2 - s = conj(s) on Re s = 1: one progression e^{sjh}, of which w keeps
        # only the real part (w = +1) or the imaginary part
        ctx = AnalyticContext(WeierstrassCurve(*ainvs))
        assert ctx.w == w
        calls = _counting(monkeypatch, "_powers")
        value = lambda_value(ctx, mp.mpc(1, 3.7)).value
        assert len(calls) == 1
        assert (value.imag if w == 1 else value.real) == 0

    def test_s1_shares_one_column(self, e11):
        # analytic_rank's scale and order 0, then the BSD report's L(E, 1): the
        # closed form at s = 1, with no node table built
        ctx = AnalyticContext(e11)
        assert ctx.w == 1
        assert analytic_rank(ctx).rank == 0
        assert lambda_derivative(ctx, 0).value == lambda_value(ctx, 1).value
        l_value(ctx, 1)
        assert ctx._nodes is None


class TestFixedPointOracles:
    """The fixed-point sums against closed forms and mpmath sums, 40 digits up."""

    @pytest.mark.parametrize("ainvs", [E11, E37, E389, E5077, E234446],
                             ids=["11a", "37a", "389a", "5077a", "234446a"])
    @pytest.mark.parametrize("digits", [30, 60])
    def test_low_orders_match_exponential_integrals(self, ainvs, digits):
        # Lambda(1) is 2 sum_n a_n e^{-x}/x (w = 1), and with x^{-a} Gamma(a, x) = E1(x) at a = 0,
        # (1 + x) e^{-x}/x^2 at a = 2, and E1(x)/x for [e] at a = 1 + e, Lambda(0)
        # and Lambda'(1) are sums of exponential integrals, to the tail
        ctx = AnalyticContext(WeierstrassCurve(*ainvs), digits=digits)
        w = ctx.w
        at_1, at_0, slope = (lambda_value(ctx, 1).value, lambda_value(ctx, 0).value,
                             lambda_derivative(ctx, 1).value)
        tol = mp.mpf(10) ** -(ctx.dps - 5)
        sums = [0, 0, 0]
        M = _oracle_count(ctx, tol, 2)
        coeffs = ctx.coefficients(M)
        with mp.workdps(ctx.dps + 40):
            for n in range(1, M + 1):
                a_n = coeffs[n]
                if a_n:
                    x = 2 * mp.pi * n / mp.sqrt(ctx.N)
                    e1, exp_x = mp.e1(x), mp.exp(-x)
                    sums[0] += a_n * exp_x / x
                    sums[1] += a_n * (e1 + w * (1 + x) * exp_x / x**2)
                    sums[2] += a_n * e1 / x
            assert abs(at_1 - (1 + w) * sums[0]) <= tol
            assert abs(at_0 - sums[1]) <= tol
            assert abs(slope - (1 - w) * sums[2]) <= tol

    @pytest.mark.parametrize("ainvs", [E11, E37, E389, E5077, E234446],
                             ids=["11a", "37a", "389a", "5077a", "234446a"])
    @pytest.mark.parametrize("digits", [30, 60])
    def test_f_matches_mpmath_sum_at_involution_samples(self, ainvs, digits):
        # the eight points of the involution, each f(iy) within 2^-ROOT_BITS
        # whatever the context's digits
        ctx = AnalyticContext(WeierstrassCurve(*ainvs), digits=digits)
        with mp.workprec(ROOT_BITS + GUARD_BITS):
            ys = [z for y in (mp.mpf(t) / ctx.sqrtN for t in ROOT_SAMPLES)
                  for z in (y, 1 / (ctx.N * y))]
        for y in ys:
            value = f_on_imaginary_axis(ctx, y)
            with mp.workdps(mp.libmp.prec_to_dps(ROOT_BITS) + 40):
                oracle = _f_by_mpmath(ctx, y)
                assert abs(value - oracle) <= mp.ldexp(1, -ROOT_BITS), y

    def test_no_mpmath_exp_or_log_per_term(self, monkeypatch):
        # a rank-3 run: one exp per node of the trapezoid and a few fixed ones, none
        # per term, fewer than one per prime <= n_max
        from hasseweil.numtheory import primes_up_to

        ctx = AnalyticContext(WeierstrassCurve(*E5077))
        calls = {"exp": 0, "log": 0}
        for name in calls:
            function = getattr(mp, name)

            def counting(*args, _name=name, _function=function, **kwargs):
                calls[_name] += 1
                return _function(*args, **kwargs)

            monkeypatch.setattr(mp, name, counting)
        assert analytic_rank(ctx).rank == 3
        assert calls["exp"] + calls["log"] <= len(primes_up_to(ctx.n_max)) + 16, calls


@pytest.fixture(scope="module")
def box_contexts():
    """Contexts at digits and digits + 40 shared by the examples, so each node table
    grows once."""
    return {}


class TestErrorBound:
    """The reported bound against the same value at 40 more digits, out to the reach of
    the former n_max domain guard and far past it."""

    @pytest.mark.parametrize("ainvs", [E11, E389, E5077], ids=["11a", "389a", "5077a"])
    def test_bound_holds_to_the_domain_guard(self, ainvs):
        curve = WeierstrassCurve(*ainvs)
        ctx, ref = AnalyticContext(curve), AnalyticContext(curve, digits=70)
        # max(|s|, |2 - s|) the guard x_{n_max} >= 2(max(|s|, |2 - s|) + 2) allowed
        reach = math.pi * ctx.n_max / ctx.sqrtN - 2
        r = 0.98 * reach
        box = [complex(1, math.sqrt(r * r - 1)), complex(r, 0), complex(2 - r, 0),
               complex(0.69, 0.69) * reach, 2 - complex(0.69, 0.69) * reach,
               complex(0.5, 0.7 * reach), complex(1.3, 1 / 32)]
        for s in box:
            value, bound = lambda_value(ctx, s)
            exact = lambda_value(ref, s).value
            with mp.workdps(ref.dps):
                assert abs(value - exact) <= bound, (s, mp.nstr(abs(value - exact), 3))
        for k in range(6):
            value, bound = lambda_derivative(ctx, k)
            exact = lambda_derivative(ref, k).value
            with mp.workdps(ref.dps):
                assert abs(value - exact) <= bound, (k, mp.nstr(abs(value - exact), 3))

    def test_one_bound_at_s_1(self):
        # Lambda(1), L(1) and Lambda^(0)(1) by the closed form, whose count the 2^-prec
        # budget sets: each bound is 10^-digits min(1, |F|) (F = 1 for Lambda), and holds
        # against 40 more digits on 11a, 389a, 234446a and 20 seeded curves with w = +1
        contexts = [AnalyticContext(WeierstrassCurve(*ainvs)) for ainvs in (E11, E389, E234446)]
        seed = 0
        while len(contexts) < 23:
            ctx = AnalyticContext(_random_curve(seed, 10**4 - 1))
            seed += 1
            if ctx.w == 1:
                contexts.append(ctx)
        for ctx in contexts:
            ref = AnalyticContext(ctx.curve, digits=70)
            assert ctx.w == 1
            with mp.workdps(ctx.dps):
                one = mp.mpmathify(1)
                F = abs((2 * mp.pi) ** one * mp.rgamma(one) / mp.sqrt(ctx.N) ** one)
            for evaluate, scale in ((lambda_value, 1), (l_value, F),
                                    (lambda c, _: lambda_derivative(c, 0), 1)):
                value, bound = evaluate(ctx, 1)
                with mp.workdps(ctx.dps):
                    assert bound == mp.mpf(10) ** -ctx.digits * min(1, scale)
                exact = evaluate(ref, 1).value
                with mp.workdps(ref.dps):
                    assert abs(value - exact) <= bound, (ctx.curve, mp.nstr(abs(value - exact), 3))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([E11, E37, E389]), st.floats(-40, 60), st.floats(-300, 300),
           st.sampled_from([lambda_value, l_value]))
    @example(E389, -40.0, 300.0, l_value)
    @example(E37, 60.0, -300.0, l_value)
    @example(E11, -39.5, -300.0, l_value)
    @example(E389, 60.0, 0.0, lambda_value)
    def test_bound_holds_far_past_the_guard(self, box_contexts, ainvs, re, im, evaluate):
        # Lambda and L, whose factor (2 pi)^s/(Gamma(s) N^{s/2}) reaches 2^1000 here
        if ainvs not in box_contexts:
            curve = WeierstrassCurve(*ainvs)
            box_contexts[ainvs] = (AnalyticContext(curve, digits=20),
                                   AnalyticContext(curve, digits=60))
        ctx, ref = box_contexts[ainvs]
        s = complex(re, im)
        value, bound = evaluate(ctx, s)
        exact = evaluate(ref, s).value
        with mp.workdps(ref.dps):
            assert abs(value - exact) <= bound, (s, mp.nstr(abs(value - exact), 3))


def _f_by_mpmath(ctx, y):
    """f(iy) summed in mpmath at the ambient precision, q^n by one product per n,
    until the tail bound sum_{m > n} 2m q^m <= 2(n + 1) q^(n + 1)/(1 - q)^2 is below
    10^-dps: past the count `f_on_imaginary_axis` takes for 2^-ROOT_BITS."""
    y = mp.mpf(y)
    q = mp.exp(-2 * mp.pi * y)
    threshold = mp.mpf(10) ** -mp.mp.dps * (1 - q) ** 2 / 2
    powers = [mp.mpf(1)]
    while len(powers) * powers[-1] * q >= threshold:
        powers.append(powers[-1] * q)
    coeffs = ctx.coefficients(len(powers) - 1)
    return mp.fsum(a_n * q_n for a_n, q_n in zip(coeffs[1:], powers[1:]) if a_n)


def _random_curve(seed: int, max_conductor: int = 3000):
    """A nonsingular curve with small a-invariants and conductor <= max_conductor."""
    from hasseweil.curves import WeierstrassCurve
    from hasseweil.errors import SingularCurve
    from hasseweil.localdata import conductor

    rng = random.Random(seed)
    while True:
        ai = [rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
              rng.randint(-12, 12), rng.randint(-12, 12)]
        try:
            curve = WeierstrassCurve(*ai)
        except SingularCurve:
            continue
        if conductor(curve) <= max_conductor:
            return curve


class TestLambdaSymmetries:
    """Properties of Lambda at non-integer s on seeded random curves."""

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(-1.0, 3.0),
        st.floats(0.01, 6.0),
    )
    def test_conjugate_and_functional_equation(self, seed, re, im):
        ctx = AnalyticContext(_random_curve(seed))
        s = mp.mpc(re, im)
        with mp.workdps(ctx.dps):  # conj and 2 - s round to the ambient precision
            value = lambda_value(ctx, s).value
            tol = mp.mpf(10) ** -(ctx.digits - 5) * (1 + abs(value))
            assert abs(lambda_value(ctx, mp.conj(s)).value - mp.conj(value)) < tol
            assert abs(value - ctx.w * lambda_value(ctx, 2 - s).value) < tol

    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.floats(0.01, 8.0))
    def test_critical_line_exactly_real_or_imaginary(self, seed, t):
        ctx = AnalyticContext(_random_curve(seed))
        value = lambda_value(ctx, mp.mpc(1, t)).value
        assert (value.imag if ctx.w == 1 else value.real) == 0

    def test_critical_line_on_both_signs(self, ctx11, ctx37):
        for t in (1 / 32, 3.7, 8):
            assert lambda_value(ctx11, mp.mpc(1, t)).value.imag == 0
            assert lambda_value(ctx37, mp.mpc(1, t)).value.real == 0

    @pytest.mark.parametrize("ainvs, w", [(E389, 1), (E37, -1)], ids=["389a", "37a"])
    def test_critical_line_matches_gammainc_oracle(self, ainvs, w):
        # Lambda(1+it) = sum a_n [f_n(s) + w conj f_n(s)], f_n(s) = A^s Gamma(s, x_n),
        # by mp.gammainc with 40 extra digits, summed to the tail
        ctx = AnalyticContext(WeierstrassCurve(*ainvs))
        assert ctx.w == w
        tol = mp.mpf(10) ** -(ctx.dps - 5)
        M = _oracle_count(ctx, tol, 8)
        coeffs = ctx.coefficients(M)
        for t in (1 / 32, 2.5, 7.75):
            s = mp.mpc(1, t)
            value = lambda_value(ctx, s).value
            assert (value.imag if w == 1 else value.real) == 0
            with mp.workdps(ctx.dps + 40):
                oracle = mp.mpf(0)
                for n in range(1, M + 1):
                    if coeffs[n]:
                        A = mp.sqrt(ctx.N) / (2 * mp.pi * n)
                        f = A**s * mp.gammainc(s, 1 / A)
                        oracle += coeffs[n] * (f + w * mp.conj(f))
                assert abs(value - oracle) <= tol, (t, mp.nstr(abs(value - oracle), 3))


class TestCoefficientTable:
    def test_growing_context_computes_each_n_once(self, monkeypatch):
        from hasseweil import analytic
        from hasseweil.curves import WeierstrassCurve
        from hasseweil.lseries import dirichlet_coefficients

        asked = []
        build = analytic.dirichlet_coefficients

        def recording(curve, n_max, known=None):
            asked.append((known.n_max if known is not None else 0, n_max))
            return build(curve, n_max, known)

        monkeypatch.setattr(analytic, "dirichlet_coefficients", recording)
        ctx = AnalyticContext(WeierstrassCurve(*E389))
        for n in (600, 601, 1200, 5000, 10**4):
            ctx.coefficients(n)
        grown = ctx.coefficients(10**4)
        computed = [n for lo, hi in asked for n in range(lo + 1, hi + 1)]
        assert sorted(computed) == list(range(1, 10**4 + 1))
        monkeypatch.undo()
        assert grown == dirichlet_coefficients(WeierstrassCurve(*E389), 10**4).coeffs
