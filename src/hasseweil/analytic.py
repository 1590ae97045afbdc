"""Numerical evaluation of L(E, s) and the completed Lambda(E, s).

Method: Lambda(s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(E, s) is the Mellin
transform N^{s/2} int_0^oo f(iy) y^{s-1} dy of the cusp form on the
imaginary axis.  With y = e^u/sqrt(N) and x_n = 2 pi n/sqrt(N) it is the
integral over the real line of g(u) e^{su}, g(u) = f(i e^u/sqrt(N)) =
sum_n a_n exp(-x_n e^u).  The theta involution f(i/(N y)) = w N y^2 f(iy),
g(-u) = w e^{2u} g(u), folds it onto u > 0:

    Lambda(s)     = int_0^oo g(u) [e^{su} + w e^{(2-s)u}] du,
    Lambda^(k)(1) = (1 + (-1)^k w) int_0^oo g(u) u^k e^u du.

The sign w is measured from the involution (only the a_n of f(iy) near
y = 1/sqrt(N)) rather than assumed, at one accuracy whatever the context's:
the ratio -f(i/(N y))/(N y^2 f(iy)) = -w is taken at y = t/sqrt(N), t in
ROOT_SAMPLES (N y^2 = t^2 > 1), with each f within eps = 2^-ROOT_BITS <
10^-18, where the computed |f(iy)| is at least tau = ROOT_SKIP = 10^-10.
So each ratio is within eps/(t^2 tau) + eps/tau < 2 eps/tau = 2 10^-8 of
-w, fifty times inside the 10^-6 agreement asked of the samples.  Each
f(iy) is one `_q_series` over the `_q_terms` count (tail below eps/4) at a
width that holds its 2(M + 1)^3 rounding units (as for the nodes below)
and the final rounding each below eps/4.

The integrand is analytic in the strip |Im u| < pi/2 and decays
double-exponentially, so the trapezoidal rule with step h converges
geometrically in 1/h (Trefethen and Weideman, SIAM Review 56 (2014), Thm
5.1; the method of PARI's lfun, Molin 2010).  Folded at 0,
the rule on the whole line is h [g(0) (1 + w)/2 [k = 0] + sum_{j >= 1}
g(jh) K_j], K_j the kernel in brackets above at u = jh.  h = 2^-m, so a
finer grid reuses every node of a coarser one: the nodes g(jh), each one
integer q-series sum in fixed point (the loop of `f_on_imaginary_axis`),
are a table cached on the context.  Each kernel is a geometric progression
in fixed point, (e^{sh})^j and (e^{(2-s)h})^j or j^k (e^h)^j, and each
Lambda(s) or Lambda^(k)(1) is one integer dot product of kernel and nodes.
On Re s = 1, 2 - s = conj(s): w keeps only the real (w = 1) or imaginary
(w = -1) part of the kernel, and the other part of the value is exactly 0.
Lambda(1) and the rank's scale are the closed form sum_n a_n 2 e^{-x_n}/x_n
(|a_n| for the scale), both from one loop, with no node.

Error budget, for a total below 2^-prec, prec the ambient precision; each
part is held below 2^-(prec + 2):

- discretization: at most 2M/(e^{2 pi d/h} - 1) for any d < pi/2, M the
  integral of |integrand| along Im u = +-d.  |a_n| <= 2n gives
  |g(u + iv)| <= 2e^{-c}/(1 - e^{-c})^2, c = x_1 e^u cos v, and on u < 0
  the involution turns g(u + iv) into e^{-2(u + iv)} w g(-u - iv); with
  |e^{s(u + iv)}| <= e^{sigma u + |t| d} each side is a Gamma(a, c_0)
  integral, c_0 = x_1 cos d (u^k e^u: (u + d)^k <= (k/(e b))^k e^{b(u + d)}).
  The bound is minimized over a grid of d, and m is the least that meets it;
- the node range: nodes stop at the first j whose term bound
  h |g(jh)| |K_j|, |g(u)| <= 2e^{-c}/(1 - e^{-c})^2 with c = x_1 e^u, is
  below half the share and falls by half or more at each later j;
- each node: q^n by one floored product per n, so q^n is within 2n units of
  2^-bits and the sum of M terms within 2(M + 1)^3; the q-series stops where
  its tail sum_{n > M} 2n q^n is below one unit.  The bits pay log2 of that
  times h sum_j |K_j|;
- the kernel: E^j by one floored complex product per j is within
  4 j max(1, |E|)^j units of 2^-kbits, weighted by h |g(jh)| over the nodes;
- the closed form: its terms are at most (4/x_1) e^{-x_1 n} <= (2/x_1) 2n
  e^{-x_1 n}, so it stops at the `_q_terms` count for prec + 2 +
  ceil(log2(sqrt(N)/pi)) bits, the rule of the nodes and of f(iy); its
  fixed-point loop and final rounding are below 2^-(prec + GUARD_BITS).

A large |t| or Re s asks for a smaller h or more bits, up to the cap of `_plan`.
t enters the plan only through the step: the context keeps, beside its node
table, the rest of each plan (the strips' other terms, and the node range and
bits at each step), so a warm Lambda(sigma + it) at a new t walks no node.
The reported bound, 10^-digits at every s and order (times min(1, |F|) for L),
is met by this budget at digits + GUARD_DIGITS with 15 digits to spare.
`incgamma_upper_deriv_at_1`, mpmath's incomplete gamma, finite differences
and the Dirichlet series are the tests' oracles, never used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import mpmath as mp

from .curves import WeierstrassCurve
from .errors import PrecisionExhausted
from .lseries import dirichlet_coefficients
from .localdata import conductor

GUARD_DIGITS = 15
GUARD_BITS = 24
PLAN_WORK_LOG2 = 35  # log2 of the cap on a node table's bit operations (module docstring)
NODE_HEADROOM = 32  # extra bits a node table is built with, so nearby requests share it
LN2 = math.log(2)
ROOT_SAMPLES = (1.1, 1.3, 1.7, 2.3)  # t = y sqrt(N) where the involution is measured
ROOT_SKIP = 1e-10  # tau: a sample with |f(iy)| below it is too near a zero of f
ROOT_BITS = 60  # each f(iy) of the root number within eps = 2^-60 < 10^-18


class ValueWithBound(NamedTuple):
    value: object  # mpf or mpc
    bound: object  # mpf; certified truncation bound

    def __float__(self) -> float:
        return float(self.value)


@dataclass
class AnalyticContext:
    """Coefficients, conductor, and precision bookkeeping for one curve."""

    curve: WeierstrassCurve
    digits: int = 30

    def __post_init__(self):
        self.N = conductor(self.curve)
        self.sqrtN = math.sqrt(self.N)
        # n_max, the a_n fetched up front, is the count perfbench's `scan` records: the
        # least M on 6 sqrt(N)/pi, 1.25 M + 4, ... with (8/c) e^{-c(M+1)}/(1 - e^{-c})
        # below 10^(6 - digits), c = x_1.  No sum reads to it; each takes its own count
        c, M = 2 * math.pi / self.sqrtN, max(8, int(self.sqrtN * 6 / math.pi) + 1)
        while (c * (M + 1) <= 700
               and (8 / c) * math.exp(-c * (M + 1)) / (1 - math.exp(-c)) > 10.0 ** (6 - self.digits)):
            M = int(M * 1.25) + 4
        self.n_max = M
        self._coeffs = dirichlet_coefficients(self.curve, self.n_max)
        self._w: int | None = None
        self._nodes: tuple | None = None  # (m, bits, [g(j 2^-m) 2^bits]) of `_node_table`
        self._plans: dict = {}  # the halves of `_plan` that t does not enter

    def coefficients(self, n: int) -> tuple[int, ...]:
        """The table a_0 .. a_m, m >= n, itself: callers read to their own count."""
        if n > self._coeffs.n_max:  # exactly to n: callers ask for the count they read
            self._coeffs = dirichlet_coefficients(self.curve, n, self._coeffs)
        return self._coeffs.coeffs

    @property
    def dps(self) -> int:
        return self.digits + GUARD_DIGITS

    @property
    def w(self) -> int:
        if self._w is None:
            self._w = root_number(self)
        return self._w


# -- the cusp form on the imaginary axis ---------------------------------------


def _q_series(coeffs: list[int], q: int, bits: int, count: int) -> int:
    """sum_{n <= count} a_n q^n in fixed point at `bits`, q = q 2^-bits:
    q^n by one floored product per n."""
    q_n, total = 1 << bits, 0
    for a_n in coeffs[1 : count + 1]:
        q_n = q_n * q >> bits
        if a_n:
            total += a_n * q_n
    return total


def f_on_imaginary_axis(ctx: AnalyticContext, y) -> mp.mpf:
    """f(iy) = sum a_n e^{-2 pi n y} for real y > 0, within 2^-ROOT_BITS
    whatever ctx.digits is, by the rule of the module docstring.

    q^n is one floored product by q per n, and the value is rounded at the
    sum's own width, so it depends on y only.
    """
    count = _q_terms(2 * math.pi * float(y), ROOT_BITS + 2)
    width = ROOT_BITS + 2 + math.ceil(math.log2(2 * (count + 1) ** 3 + 1))
    coeffs = ctx.coefficients(count)
    with mp.workprec(width + 8):
        q = int(mp.ldexp(mp.exp(-2 * mp.pi * mp.mpf(y)), width))
    with mp.workprec(width):
        return mp.mpf((_q_series(coeffs, q, width, count), -width))


def root_number(ctx: AnalyticContext) -> int:
    """Sign w of the functional equation, from the theta involution.

    The Fricke involution f(i/(N y)) = w N y^2 f(iy) makes each ratio of the
    module docstring -w; they are formed at ROOT_BITS + GUARD_BITS bits,
    whatever ctx.digits is.  Fewer than two samples with |f(iy)| >= ROOT_SKIP
    (the others are too near a zero of f), a first ratio not near +-1, or
    any ratio more than 1e-6 from it raises PrecisionExhausted.
    """
    with mp.workprec(ROOT_BITS + GUARD_BITS):
        ratios = []
        for t in ROOT_SAMPLES:
            y = mp.mpf(t) / ctx.sqrtN
            fy = f_on_imaginary_axis(ctx, y)
            if abs(fy) < ROOT_SKIP:
                continue
            fy_inv = f_on_imaginary_axis(ctx, 1 / (ctx.N * y))
            ratios.append(-fy_inv / (ctx.N * y**2 * fy))
        if len(ratios) < 2:
            raise PrecisionExhausted("not enough stable involution samples")
        eps = round(float(ratios[0]))
        if eps not in (-1, 1):
            raise PrecisionExhausted(f"involution ratio {ratios[0]} not near +-1")
        for r in ratios:
            if abs(r - eps) > 1e-6:
                raise PrecisionExhausted(
                    f"involution ratio {r} deviates from {eps}"
                )
        return -eps


# -- the trapezoidal rule: error budget, node table, kernels --------------------


def _log_bump(c: float) -> float:
    """log of 2e^{-c}/(1 - e^{-c})^2, the bound on |g| where Re(x_1 e^z) >= c."""
    return LN2 - c - 2 * math.log(-math.expm1(-c))


def _log_mellin(a: float, c: float) -> float:
    """An upper bound on log(c^-a Gamma(a, c)) = log int_0^oo e^{-c e^u + au} du:
    e^{-c}/c for a <= 1, c^-a Gamma(a) above."""
    return -c - math.log(c) if a <= 1 else math.lgamma(a) - a * math.log(c)


def _log_discretization(x_1: float, k: int, exponents) -> list[tuple[float, float, float]]:
    """[(d, head, tail)] over a grid of strip half-widths d < pi/2, for the trapezoid's
    discretization bound 2M/(e^{2 pi d/h} - 1), log M = (head + |t| d) + tail.

    M bounds the integral of |integrand| on each line Im u = v, |v| < d
    (module docstring): e^{|t| d} 2/(1 - e^{-c_0})^2 sum_a c_0^-a Gamma(a, c_0)
    over the exponents a, c_0 = x_1 cos d; for Lambda^(k)(1), twice
    (k/(e b))^k e^{b d} times the a = 1 + b term, the best of a few b > 0.
    """
    strips = []
    for i in range(1, 16):
        d = math.pi / 2 * i / 16
        c_0 = x_1 * math.cos(d)
        if k:
            tail = LN2 + min(k * math.log(k / (math.e * b)) + b * d + _log_mellin(1 + b, c_0)
                             for b in (0.25, 0.5, 1.0, 2.0))
        else:
            first, second = (_log_mellin(a, c_0) for a in exponents)
            tail = max(first, second) + math.log1p(math.exp(-abs(first - second)))
        strips.append((d, LN2 - 2 * math.log(-math.expm1(-c_0)), tail))
    return strips


def _q_terms(x: float, bits: int) -> int:
    """Smallest M with sum_{n > M} 2n e^{-xn} <= 2^-bits (at most 2q^{M+1}(M + 1)/(1 - q)^2)."""
    base = (bits + 1) * LN2 - 2 * math.log(-math.expm1(-x))
    n = max(1, math.ceil(base / x))
    while n * x < base + math.log(n):
        n = math.ceil((base + math.log(n)) / x)
    return n - 1


def _check_work(bits, units: float) -> None:
    """PrecisionExhausted past the cap of `_plan` on bits^2 units, units = ln2/(x_1 h) + count."""
    work = 2 * math.log2(bits) + math.log2(units)
    if work > PLAN_WORK_LOG2:
        raise PrecisionExhausted(f"a node table needs 2^{work:.2f} bit operations or more,"
                                 f" past the cap 2^{PLAN_WORK_LOG2}")


class _Plan(NamedTuple):
    m: int  # step h = 2^-m
    count: int  # nodes j < count
    bits: int  # node fixed point
    kbits: int  # kernel fixed point


def _plan(ctx: AnalyticContext, prec: int, sigma: float, t: float = 0.0, k: int = 0) -> _Plan:
    """Step, node range and bits for Lambda(sigma + it) (k = 0) or Lambda^(k)(1)
    (k >= 1) within 2^-prec, from the error budget of the module docstring.

    Only the step sees t, through the |t| d of each strip: the strips' other
    terms, by (k, exponents), and the plan at each step, by (prec, a, k, m), are
    kept on the context's `_plans`, so a request at a new t reads them back.

    A node table costs bits^2 (ln2/(x_1 h) + count) bit operations (the q-series
    terms of all nodes, and one per node); past 2^PLAN_WORK_LOG2 it raises
    PrecisionExhausted, first on lower bounds: bits >= prec, a log2(a/(2 x_1)) (the
    nodes pass x_1 e^u = a e^-h) and 1/h >= max(2, |t|/(2 pi)), then the count.
    """
    x_1 = 2 * math.pi / ctx.sqrtN
    exponents = (1.0,) if k else (sigma, 2 - sigma)
    a = max(exponents)
    floor = max(prec, a * math.log2(a / (2 * x_1)))  # bits no plan for this s goes below
    _check_work(floor, max(2, abs(t) / (2 * math.pi)) * LN2 / x_1)
    plans = ctx._plans
    if (k, exponents) not in plans:
        plans[k, exponents] = _log_discretization(x_1, k, exponents)
    strips = [(d, head + abs(t) * d + tail) for d, head, tail in plans[k, exponents]]
    share = -(prec + 2) * LN2
    m = 1  # 2M/(e^x - 1) <= 4M e^-x for x = 2 pi d/h >= ln 2
    while min(2 * LN2 + side - 2 * math.pi * d * 2**m for d, side in strips) > share:
        m += 1
    if (prec, a, k, m) not in plans:
        plans[prec, a, k, m] = _plan_at_step(x_1, prec, a, k, m, floor)
    return plans[prec, a, k, m]


def _first_stop(x_1: float, a: float, h: float) -> float:
    """A lower bound on the node where the walk of `_plan_at_step` can stop: its
    terms fall by half only where a h - c expm1(h) <= -ln 2, c = x_1 e^{jh}."""
    return math.log((a * h + LN2) / (x_1 * math.expm1(h))) / h


def _plan_at_step(x_1: float, prec: int, a: float, k: int, m: int, floor: float) -> _Plan:
    """The plan of `_plan` at step h = 2^-m: node range, bits and kbits.

    The kernel is at most 2 e^{au} u^k on the real line, a = max(sigma,
    2 - sigma) (1 for Lambda^(k)), increasing in u; its rounding error at
    node j is at most 4j times that many units.  The sums over the nodes are
    bounded by the count times their largest term.  A walk whose first stop
    lies past the nodes the cap leaves is refused before it starts.
    """
    share = -(prec + 2) * LN2
    h = 2.0**-m
    per_bit = LN2 / (x_1 * h)  # sum_j terms_j / bits
    nodes = max(0, int(2.0**PLAN_WORK_LOG2 / floor**2 - per_bit)) + 2
    if _first_stop(x_1, a, h) > nodes:  # the walk would end past the nodes: refuse at once
        _check_work(floor, per_bit + nodes)
    log_h, worst = math.log(h), -math.inf
    for j in range(nodes):
        u, c = j * h, x_1 * math.exp(j * h)
        log_kernel = LN2 + a * u + (k * math.log(u) if j else 0.0)
        log_bump = _log_bump(c)
        ratio = a * h - c * math.expm1(h) + (k * math.log1p(1 / j) if j else 0.0)
        if j and log_h + log_bump + log_kernel + LN2 <= share and ratio <= -LN2:
            break
        if j:
            worst = max(worst, log_bump + math.log(4 * j) + log_kernel)
    else:  # past the nodes the cap leaves, by at least one
        _check_work(floor, per_bit + j + 1)
    count = j
    log2_weights = math.log2(count) + (log_h + log_kernel) / LN2  # h sum_j |K_j|
    bits = prec + 2 + math.ceil(log2_weights)
    while True:  # node 0 sums the most terms
        need = prec + 2 + math.ceil(log2_weights + math.log2(2 * (_q_terms(x_1, bits) + 1) ** 3 + 1))
        if need <= bits:
            break
        bits = need
    _check_work(bits, per_bit + count)
    kbits = prec + 3 + max(0, math.ceil(math.log2(count) + (log_h + worst) / LN2))
    return _Plan(m, count, bits, kbits)


def _node_table(ctx: AnalyticContext, m: int, count: int, bits: int) -> tuple[int, list[int]]:
    """(width, [g(j 2^-m) 2^width for j < count]) with width >= bits.

    g(u) = sum a_n q^n with q = exp(-x_1 e^u), one `_q_series` per node at
    the count of `_q_terms`, e^u by one product per step.  Kept on the context
    as `_nodes` = (level, width, values), the nodes j 2^-level: a request at
    a coarser step takes every 2^(level - m)-th node, a finer one computes
    only the nodes between, and one for more bits rebuilds the table at
    NODE_HEADROOM bits more than asked.
    """
    cached = ctx._nodes
    if cached is None or cached[1] < bits:
        cached = (m, bits + NODE_HEADROOM, [])
    level, width, values = cached
    top = max(level, m)
    spread = 1 << (top - level)  # an old node's step at the finer level
    size = max((count - 1) << (top - m), (len(values) - 1) * spread) + 1
    if top > level or size > len(values):
        x_1 = 2 * math.pi / ctx.sqrtN
        terms = [_q_terms(x_1 * math.exp(j * 2.0**-top), width) for j in range(size)]
        coeffs = ctx.coefficients(terms[0])
        new = []
        with mp.workprec(width + 32):
            step = mp.exp(mp.ldexp(1, -top))
            x = 2 * mp.pi / mp.sqrt(ctx.N)
            for j in range(size):
                if j % spread == 0 and j // spread < len(values):
                    new.append(values[j // spread])
                else:
                    q = int(mp.ldexp(mp.exp(-x), width))
                    new.append(_q_series(coeffs, q, width, terms[j]))
                x *= step
        level, values = top, new
        ctx._nodes = (level, width, values)
    stride = 1 << (level - m)
    return width, values[: (count - 1) * stride + 1 : stride]


def _powers(a, m: int, bits: int, count: int) -> list[tuple[int, int]]:
    """[E^j for j < count], E = e^{a 2^-m}, as (re, im) integers at `bits`: one floored
    complex product per j."""
    with mp.workprec(bits + 16):
        base = mp.exp(a * mp.ldexp(1, -m))
        b_re, b_im = (int(mp.ldexp(part, bits)) for part in (mp.re(base), mp.im(base)))
    re, im, out = 1 << bits, 0, []
    for _ in range(count):
        out.append((re, im))
        re, im = (re * b_re - im * b_im) >> bits, (re * b_im + im * b_re) >> bits
    return out


def _fixed_value(re: int, im: int | None, exponent: int):
    """(re + i im) 2^exponent as an mpf (im None) or mpc, rounded at 2^-(prec +
    GUARD_BITS) absolute rather than at prec bits relative, prec the ambient
    precision: a large value keeps the absolute accuracy its bound states."""
    prec = mp.mp.prec
    top = max(abs(re), abs(im or 0)).bit_length() + exponent
    with mp.workprec(max(prec, top + prec + GUARD_BITS)):
        value = mp.mpf((re, exponent))
        return value if im is None else mp.mpc(value, mp.mpf((im, exponent)))


def _lambda_at_1(ctx: AnalyticContext) -> tuple[mp.mpf, mp.mpf]:
    """(sum_n a_n 2 e^{-x_n}/x_n, the same sum over |a_n|), each within 2^-prec, prec
    the ambient precision: Lambda(1) at w = 1, and the rank's scale.

    The sum stops at the `_q_terms` count of the module docstring.  One integer
    loop at `width` bits: e^{-x_n} = Q^n by one floored product by Q =
    e^{-2 pi/sqrt(N)} per n, within 2n units, times (sqrt(N)/(2 pi)) // n;
    each term is within sqrt(N)/pi + 2 units of 2^-width, and each sum within
    2 count^2 times that, which the width pays in bits.
    """
    prec = mp.mp.prec
    count = _q_terms(2 * math.pi / ctx.sqrtN, prec + 2 + math.ceil(math.log2(ctx.sqrtN / math.pi)))
    coeffs = ctx.coefficients(count)
    width = (prec + GUARD_BITS + 2 * count.bit_length()
             + math.ceil(math.log2(ctx.sqrtN / math.pi + 2)) + 2)
    with mp.workprec(width + 16):
        step = 2 * mp.pi / mp.sqrt(ctx.N)
        q = int(mp.ldexp(mp.exp(-step), width))
        inv_step = int(mp.ldexp(1 / step, width))
    q_n, total, absolute = 1 << width, 0, 0
    for n, a_n in enumerate(coeffs[1 : count + 1], 1):
        q_n = q_n * q >> width
        if a_n:
            term = q_n * inv_step // n
            total += a_n * term
            absolute += abs(a_n) * term
    return _fixed_value(2 * total, None, -2 * width), _fixed_value(2 * absolute, None, -2 * width)


# -- Lambda, L, and derivatives -------------------------------------------------


def _lambda_series(ctx: AnalyticContext, s, w: int):
    """int_0^oo g(u) [e^{su} + w e^{(2-s)u}] du within 2^-prec, prec the ambient precision.

    With the true w this is Lambda(s), by the trapezoidal rule at the step,
    nodes and bits `_plan` sets: h sum_j g(jh) K_j, the node j = 0 weighted
    (1 + w)/2, as one integer dot product.  On Re s = 1, 2 - s = conj(s),
    so K_j = 2 Re e^{sjh} (w = 1) or 2i Im e^{sjh} (w = -1): only that part
    enters, and the other is exactly 0.  s = 1 is the closed form.
    """
    s = mp.mpmathify(s)
    if s == 1:
        return _lambda_at_1(ctx)[0] if w == 1 else mp.mpf(0)
    sigma, t = float(mp.re(s)), float(mp.im(s))
    plan = _plan(ctx, mp.mp.prec, sigma, t)
    width, nodes = _node_table(ctx, plan.m, plan.count, plan.bits)
    kbits, exponent = plan.kbits, -(width + plan.kbits + plan.m)
    first = _powers(s, plan.m, kbits, plan.count)
    head = nodes[0] << kbits if w == 1 else 0  # g(0) (1 + w)/2
    if mp.re(s) == 1:
        part = 0 if w == 1 else 1
        half = sum(g * power[part] for g, power in zip(nodes[1:], first[1:]))
        total = head + 2 * half
        return _fixed_value(total, 0, exponent) if w == 1 else _fixed_value(0, total, exponent)
    second = _powers(mp.fsub(2, s, exact=True), plan.m, kbits, plan.count)
    re = head + sum(g * (a[0] + w * b[0]) for g, a, b in zip(nodes[1:], first[1:], second[1:]))
    if not t:
        return _fixed_value(re, None, exponent)
    im = sum(g * (a[1] + w * b[1]) for g, a, b in zip(nodes[1:], first[1:], second[1:]))
    return _fixed_value(re, im, exponent)


def _bound(ctx: AnalyticContext, scale=1):
    """10^-digits min(1, scale): the one reported bound, at every s and order."""
    return mp.mpf(10) ** -ctx.digits * min(1, scale)


def lambda_value(ctx: AnalyticContext, s) -> ValueWithBound:
    """Completed Lambda(E, s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(E, s); PrecisionExhausted
    past the cap of `_plan`."""
    with mp.workdps(ctx.dps):
        return ValueWithBound(_lambda_series(ctx, s, ctx.w), _bound(ctx))


def l_value(ctx: AnalyticContext, s) -> ValueWithBound:
    """L(E, s) = Lambda(s) F, F = (2 pi)^s/(Gamma(s) N^{s/2}) (0 at the trivial zeros):
    Lambda is taken log2|F| bits finer, and F and the product log2|Lambda| bits
    finer again, so each rounding costs at most 2^-prec min(1, |F|)."""
    with mp.workdps(ctx.dps):
        s = mp.mpmathify(s)

        def factor():
            return (2 * mp.pi) ** s * mp.rgamma(s) / mp.sqrt(ctx.N) ** s

        scale = factor()  # bits past 2^PLAN_WORK_LOG2 are refused by the plan
        with mp.workprec(mp.mp.prec + min(max(0, mp.mag(scale)), 2**PLAN_WORK_LOG2)):
            lam = _lambda_series(ctx, s, ctx.w)
            with mp.workprec(mp.mp.prec + max(0, mp.mag(lam))):
                value = lam * factor()
        return ValueWithBound(value, _bound(ctx, abs(scale)))


def lambda_derivative(ctx: AnalyticContext, order: int = 1) -> ValueWithBound:
    """d^k/ds^k Lambda(E, s) at s = 1, termwise (no finite differences):
    (1 + w (-1)^k) h sum_j g(jh) (jh)^k e^{jh} by the trapezoidal rule
    (the closed form at k = 0)."""
    k = order
    with mp.workdps(ctx.dps):
        parity = 1 + ctx.w * (-1) ** k
        if parity == 0:
            return ValueWithBound(mp.mpf(0), mp.mpf(0))
        if k == 0:
            total = _lambda_at_1(ctx)[0]
        else:
            plan = _plan(ctx, mp.mp.prec, 1.0, k=k)
            width, nodes = _node_table(ctx, plan.m, plan.count, plan.bits)
            powers = _powers(1, plan.m, plan.kbits, plan.count)
            dot = sum(g * j**k * power[0] for j, (g, power) in enumerate(zip(nodes, powers)))
            total = _fixed_value(parity * dot, None, -(width + plan.kbits + plan.m * (k + 1)))
        return ValueWithBound(total, _bound(ctx))


def l_derivative(ctx: AnalyticContext, order: int = 1) -> ValueWithBound:
    """L'(E, 1) (or the order-th derivative's leading use) from Lambda'.

    Valid as the leading series derivative when all lower Lambda-derivatives
    vanish at s = 1; for order 1 that is exactly the w = -1 case.
    """
    return l_from_lambda(ctx, lambda_derivative(ctx, order))


def l_from_lambda(ctx: AnalyticContext, lam: ValueWithBound) -> ValueWithBound:
    """Lambda^(k)(1) (with its bound) times 2 pi/sqrt(N): L^(k)(1) where every
    lower derivative vanishes."""
    with mp.workdps(ctx.dps):
        factor = 2 * mp.pi / mp.sqrt(ctx.N)
        return ValueWithBound(lam.value * factor, lam.bound * factor)


@dataclass(frozen=True)
class RankEstimate:
    rank: int
    tol: float
    derivative_values: tuple  # (order, |Lambda^(k)(1)|/k!, its bound/k!) actually inspected
    leading: ValueWithBound  # Lambda^(rank)(1), the first value above the tolerance
    note: str = "numerical order of vanishing at the given tolerance"

    @property
    def is_numerical(self) -> bool:
        return True


def analytic_rank(ctx: AnalyticContext, tol: float = 1e-10) -> RankEstimate:
    """Apparent order of vanishing of Lambda at s = 1.

    Smallest k (of the parity allowed by w) with |Lambda^(k)(1)| above
    tol times the series scale; flagged as numerical by construction.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    with mp.workdps(ctx.dps):
        start = 0 if ctx.w == 1 else 1  # the root number's a_n cover the scale's
        at_1, absolute = _lambda_at_1(ctx)  # Lambda(1) at w = 1 from the scale's own pass
        scale = absolute + 1
        inspected = []
        for k in range(start, start + 8, 2):
            lam = ValueWithBound(at_1, _bound(ctx)) if k == 0 else lambda_derivative(ctx, k)
            val = abs(lam.value) / math.factorial(k)
            inspected.append((k, float(val), float(lam.bound / math.factorial(k))))
            if val > tol * scale:
                return RankEstimate(k, tol, tuple(inspected), lam)
        raise PrecisionExhausted(
            f"no nonzero Lambda derivative found through order {start + 6}"
        )


# -- derivatives of the upper incomplete gamma at a = 1 -------------------------


def incgamma_upper_deriv_at_1(i: int, x):
    """d^i/da^i Gamma(a, x) at a = 1 for real x > 0.

    i = 0: e^{-x}.  i = 1: e^{-x} log x + E1(x).  Higher orders are
    Gamma^(i)(1) minus the lower incomplete gamma's log-weighted series
    sum_m (-1)^m x^{m+1}/m! sum_j c_j u^{j+1}, u = 1/(m+1), with
    c_j = (-1)^j i!/(i-j)! (log x)^{i-j} computed once.  Each term is a
    recurrence step: the weight x^{m+1}/m! advances by x/m and the inner sum
    is Horner's rule in u.  The working precision (x/ln 10 + 10 extra digits,
    against the alternating-series cancellation) and the stopping rule
    (m > 4x + 20 and |term| < 10^{-(dps+5)}) are those of the direct sum.
    An independent check of the trapezoidal Lambda^(k)(1), used by the tests only.
    """
    if i == 0:
        return mp.e ** (-x)
    if i == 1:
        return mp.e ** (-x) * mp.log(x) + mp.e1(x)
    target_dps = mp.mp.dps
    with mp.workdps(target_dps + int(float(x) / math.log(10)) + 10):
        x = mp.mpf(x)
        logx = mp.log(x)
        # c_i first, the order Horner's rule consumes them in
        coeffs = [(-1) ** j * math.perm(i, j) * logx ** (i - j) for j in range(i, -1, -1)]
        m_min = 4 * float(x) + 20
        threshold = mp.mpf(10) ** (-(target_dps + 5))
        total = mp.mpf(0)
        weight = x  # x^{m+1}/m! at m = 0
        m = 0
        while True:
            u = mp.mpf(1) / (m + 1)
            inner = coeffs[0]
            for c in coeffs[1:]:
                inner = inner * u + c
            term = weight * inner * u
            total += -term if m & 1 else term
            m += 1
            weight *= x / m
            if m > m_min and abs(term) < threshold:
                break
        result = _gamma_derivs_at_1(i)[i] - total
    return +result


def _gamma_derivs_at_1(order: int) -> list:
    """[Gamma^(i)(1) for i <= order] from the Taylor series of log Gamma(1+z)."""
    # log Gamma(1+z) = -euler z + sum_{k>=2} (-1)^k zeta(k) z^k / k
    log_coeffs = [mp.mpf(0), -mp.euler] + [
        (-1) ** k * mp.zeta(k) / k for k in range(2, order + 1)
    ]
    # exponentiate the truncated series
    exp_coeffs = [mp.mpf(1)] + [mp.mpf(0)] * order
    for k in range(order):
        acc = mp.mpf(0)
        for j in range(1, k + 2):
            acc += j * log_coeffs[j] * exp_coeffs[k + 1 - j]
        exp_coeffs[k + 1] = acc / (k + 1)
    return [c * mp.factorial(i) for i, c in enumerate(exp_coeffs)]
