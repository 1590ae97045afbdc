"""Numerical evaluation of L(E, s) and the completed Lambda(E, s).

Method: with A_n = sqrt(N)/(2 pi n) and x_n = 1/A_n,

    Lambda(s) = sum_n a_n [ A_n^s Gamma(s, x_n) + w A_n^{2-s} Gamma(2-s, x_n) ]

where Gamma(.,.) is the upper incomplete gamma function: the two halves of
the cusp-form integral split at 1/sqrt(N), the second signed by w, which is
measured from the theta involution f(i/(N y)) = w N y^2 f(iy) (only the a_n
of f(iy) near y = 1/sqrt(N)) rather than assumed.

One engine gives the terms at every non-integer s: all x_n share s, so
A_n^a Gamma(a, x_n) is x_n^{-a} Gamma(a) less e^{-x_n} times one
polynomial in x_n/x_max (the lower-gamma series at 0), summed by integer
Horner in fixed point at a precision sized to the cancellation.  Over power
series in a - 1 it gives one Taylor coefficient at a = 1 per Horner pass,
all that Lambda^(k)(1) needs.  The per-n work is integer arithmetic: the
series coefficients come from an integer recurrence (a is an exact binary
fraction), the rows x_n -> (log x_n, 1/x_n, e^{-x_n}) are fixed-point
integers (e^{-x_n} = Q^n, log n summed over prime factors), x_n^{-a} is
x_1^{-a} n^{-a} with n^{-a} completely multiplicative, and f(iy) is one
integer sum of a_n q^n.  Every Lambda-series sum (Lambda(s), the rank's
scale, Lambda^(k)(1)) is one integer dot product with the a_n, rounded
once.  On Re s = 1, w keeps only the real or the imaginary part of each
term, and only that part is built.  At an integer s, a pole of the lower
series for s or 2 - s, Gamma(a + 1, x) = a Gamma(a, x) + x^a e^{-x} gives
both halves from one column at a = 1: e^{-x_n}/x_n in closed form at s = 1,
else E_1(x_n) = x_n [e] f_n(1 + e).  `incgamma_upper_deriv_at_1`, mpmath's
incomplete gamma, finite differences and the Dirichlet series are the
tests' oracles, never used here.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import mpmath as mp

from .curves import WeierstrassCurve
from .errors import PrecisionExhausted
from .lseries import dirichlet_coefficients
from .localdata import conductor
from .numtheory import smallest_prime_factors

GUARD_DIGITS = 15
GUARD_BITS = 24


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
    target_log10: int | None = None  # absolute accuracy ~ 10^-target_log10

    def __post_init__(self):
        self.N = conductor(self.curve)
        if self.target_log10 is None:
            self.target_log10 = self.digits - 8
        self.sqrtN = math.sqrt(self.N)
        self.n_max = tail_cutoff(self.N, self.target_log10 + 2)
        self._coeffs = dirichlet_coefficients(self.curve, self.n_max)
        self._w: int | None = None
        self._x_table: tuple | None = None  # (n_max, bits, width, rows) of `_x_rows`
        self._terms: tuple | None = None  # ((a, order, n_max, part), prec, terms)

    # coefficient access, extending on demand -------------------------------

    def coefficient(self, n: int) -> int:
        if n > self._coeffs.n_max:
            self._coeffs = dirichlet_coefficients(self.curve, n, self._coeffs)
        return self._coeffs[n]

    def coefficients(self, n: int) -> list[int]:
        self.coefficient(n)
        return list(self._coeffs.coeffs[: n + 1])

    @property
    def dps(self) -> int:
        return self.digits + GUARD_DIGITS

    @property
    def sqrtN_mp(self):
        """sqrt(N) at the ambient mpmath precision."""
        return mp.sqrt(mp.mpf(self.N))

    @property
    def w(self) -> int:
        if self._w is None:
            self._w = root_number(self)
        return self._w

    def tail_bound(self) -> float:
        return tail_bound_after(self.N, self.n_max)


def tail_bound_after(N: int, M: int) -> float:
    """Bound on the Lambda-series tail beyond n = M.

    Each term is at most |a_n| (A_n^s Gamma(s,x_n) + ...) <= 8 n e^{-x_n}/x_n
    for x_n >= 2(|s|+2) and |a_n| <= 2n; sum the geometric tail.
    """
    c = 2 * math.pi / math.sqrt(N)
    if c * (M + 1) > 700:
        return 0.0
    return (8 / c) * math.exp(-c * (M + 1)) / (1 - math.exp(-c))


def tail_cutoff(N: int, target_log10: int, s_max: float = 4.0) -> int:
    """Smallest n_max whose tail bound meets 10^{-target_log10}."""
    target = 10.0 ** (-target_log10)
    M = max(8, int(math.sqrt(N) * (s_max + 2) / math.pi) + 1)
    while tail_bound_after(N, M) > target:
        M = int(M * 1.25) + 4
    return M


# -- the cusp form on the imaginary axis ---------------------------------------


def f_on_imaginary_axis(ctx: AnalyticContext, y) -> mp.mpf:
    """f(iy) = sum a_n e^{-2 pi n y} for real y > 0 (adaptive truncation).

    One integer sum in fixed point at prec + guard + log2(n_needed) bits:
    q^n is one product by q per n, and each product and the rounding of q
    cost at most one unit of 2^-bits in each later q^n.
    """
    with mp.workdps(ctx.dps):
        y = mp.mpf(y)
        n_needed = int(
            (ctx.target_log10 + 4) * math.log(10) / (2 * math.pi * float(y))
        ) + 8
        coeffs = ctx.coefficients(n_needed)
        bits = mp.mp.prec + GUARD_BITS + n_needed.bit_length()
        with mp.workprec(bits + 8):
            q = int(mp.ldexp(mp.exp(-2 * mp.pi * y), bits))
        q_n, total = 1 << bits, 0
        for a_n in coeffs[1 : n_needed + 1]:
            q_n = q_n * q >> bits
            if a_n:
                total += a_n * q_n
        return mp.mpf((total, -bits))


def root_number(ctx: AnalyticContext, samples=(1.1, 1.3, 1.7, 2.3)) -> int:
    """Sign w of the functional equation, from the theta involution.

    The Fricke involution gives f(i/(N y)) = w N y^2 f(iy), so the ratio
    -f(i/(N y)) / (N y^2 f(iy)) is -w at every y > 0.  It is measured at
    y = t/sqrt(N) for each sample t, skipping a sample where |f(iy)| is
    below 10^{-target/2} (too near a zero of f for a stable ratio).  Fewer
    than two stable samples, a first ratio not near +-1, or any ratio more
    than 1e-6 from it raises PrecisionExhausted.
    """
    if ctx.target_log10 < 20:  # w is a sign: measured at 20 digits at least, on a copy
        ctx = copy.copy(ctx)
        ctx.digits, ctx.target_log10 = max(ctx.digits, 28), 20
    with mp.workdps(ctx.dps):
        ratios = []
        for c in samples:
            y = mp.mpf(c) / ctx.sqrtN
            fy = f_on_imaginary_axis(ctx, y)
            if abs(fy) < mp.mpf(10) ** (-(ctx.target_log10 // 2)):
                continue  # too close to a zero of f for a stable ratio
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


# -- the Lambda-series terms: one Taylor engine for A^a Gamma(a, x_n) -----------


def _gamma_terms(ctx: AnalyticContext, a, order: int = 0, part: str | None = None):
    """[e^order] A_n^(a+e) Gamma(a+e, x_n) for each nonzero a_n, n <= n_max, in fixed point.

    Returns (bits, column), term n being column[n] 2^-bits.  For real a the
    column is one list of integers; for complex a it is the pair (re, im) of
    lists, or only the list that `part` ("re" or "im") names.

    With A = 1/x, Gamma(a, x) = Gamma(a) - x^a e^{-x} sum_k x^k/(a)_{k+1}
    gives f(a) = A^a Gamma(a, x) = x^{-a} Gamma(a) - e^{-x} S(x), with
    S(x) = sum_k c_k u^k, u = x/x_max = n/n_max and c_k = x_max^k/(a)_{k+1}
    (the series at 0 of Dokchitser, math/0207280).  The c_k are built once
    per call as integers at `work` bits, as power series in e truncated at
    e^order: the k-th multiplies by x_max and divides by a + k + e, where
    a = m 2^-E is exact, so a division is a product by the conjugate of
    m + k 2^E and a floor quotient by its squared modulus.  Column `order`
    of S(x_n) is integer Horner in fixed point at P bits, each step a
    product and a quotient by small integers.  The first part, the head, is
    x^{-a} sum_m (-log x)^(order-m)/(order-m)! [e^m] Gamma(a + e); order > 0
    is allowed at a = 1 only.  Each term is the difference of two integers
    at P bits, the head from the fixed-point rows of `_x_rows` (at a = 1) or
    from x_n^{-a} = x_1^{-a} n^{-a} with n^{-a} completely multiplicative
    (`_power_table`), and e^{-x} S(x) one product of row and Horner sum.  At
    a = 1 and order 0 the term is e^{-x}/x exactly, one product of two row
    entries, with no series at all.

    Precision: each x_n stops at its first degree past 2x + |Re a| (past
    there the terms at least halve) whose term, weighted by e^{-x}, is below
    2^-(prec + guard), prec the ambient precision.  Each c_k and each Horner
    step costs one unit of 2^-P, and a relative error in a c_k that much of
    e^{-x} |c_k| u^k, so P adds to prec log2 of what the difference cancels
    against: the larger of max_x e^{-x} sum_k |c_k| u^k (x^k e^{-x} peaks at
    x = k) and the head, at most x^{-1} max(1, Gamma(Re a) x^{1-Re a})
    times sum_{j <= order} l^j/j!, l the largest |log x_n| (as
    |[e^m] Gamma(1 + e)| <= 1).  It adds log2 |a|, 2 log2 K for K
    coefficients and steps, and the guard bits.  The recurrence keeps
    absolute precision, so `work` is at least P + log2 K, plus log2 of
    1/|c_j| for a c_j below 1 ahead of the largest c_k, which that c_k
    inherits magnified; magnitudes are bit lengths.  Kept on the context as
    `_terms` = ((a, order, n_max, part), prec, (bits, column)), and reused
    for the same key at no more bits.
    """
    prec = mp.mp.prec
    key = (a, order, ctx.n_max, part)
    cached = ctx._terms
    if cached is not None and cached[0] == key and cached[1] >= prec:
        return cached[2]
    if order and a != 1:
        raise ValueError("Taylor coefficients in a are taken at a = 1 only")
    if a == 1 and not order:
        width, rows = _x_rows(ctx, prec + GUARD_BITS)
        terms = (width, [inv_x * exp_x >> width for _, _, _, inv_x, exp_x in rows])
        ctx._terms = (key, prec, terms)
        return terms
    # the parts built: 0 the real, 1 the imaginary
    parts = {"re": (0,), "im": (1,)}.get(part, (0, 1) if mp.im(a) else (0,))
    stop = -(prec + GUARD_BITS)
    sigma = float(mp.re(a))
    x_hi = 2 * math.pi * ctx.n_max / ctx.sqrtN
    x_lo = x_hi / ctx.n_max
    size = -math.log2(x_lo)
    if sigma > 1:
        size = max(size, math.lgamma(sigma) / math.log(2) - sigma * math.log2(x_lo))
    log_max = max(abs(math.log(x_lo)), abs(math.log(x_hi)))
    size += math.log2(sum(log_max**j / math.factorial(j) for j in range(order + 1)))
    (m_re, e_re), (m_im, e_im) = _dyadic(mp.re(a)), _dyadic(mp.im(a))
    E = max(0, -e_re, -e_im)  # a = (m_re + i m_im) 2^-E
    m_re, m_im = m_re << (E + e_re), m_im << (E + e_im)
    limit = 2 * x_hi + abs(sigma) + 1
    work = prec + GUARD_BITS + 64
    while True:
        with mp.workprec(work + 16):
            x_max = int(mp.ldexp(2 * mp.pi * ctx.n_max / mp.sqrt(ctx.N), work))
        coeffs, mags = [], []
        series = [(1 << work, 0)] + [(0, 0)] * order
        while len(coeffs) <= limit or mags[-1] - x_hi / math.log(2) >= stop:
            k = len(coeffs)
            # times x_max from k = 1, divided by a + k + e: a product by the
            # conjugate of m + k 2^E, then a quotient by its squared modulus
            d_re = m_re + (k << E)
            norm = d_re * d_re + m_im * m_im
            step, prev_re, prev_im = [], 0, 0
            for c_re, c_im in series:
                if k:
                    c_re, c_im = c_re * x_max >> work, c_im * x_max >> work
                c_re, c_im = c_re - prev_re, c_im - prev_im
                prev_re = ((c_re * d_re + c_im * m_im) << E) // norm
                prev_im = ((c_im * d_re - c_re * m_im) << E) // norm
                step.append((prev_re, prev_im))
            series = step
            coeffs.append(series[order])
            mags.append(_mag(*series[order]) - work)
        peak = mags[0]
        for k in range(1, len(mags)):
            x = min(k, x_hi)
            peak = max(peak, mags[k] + k * math.log2(x / x_hi) - x / math.log(2))
        steps = len(coeffs).bit_length()
        bits = (prec + max(math.ceil(max(peak + steps, size)), 0) + max(mp.mag(a), 0)
                + 2 * steps + GUARD_BITS)
        top = mags.index(max(mags))
        need = bits + steps + max(0, -min(mags[: top + 1]))
        if work >= need:
            break
        work = need + 8
    width, rows = _x_rows(ctx, bits)
    fixed = [[c[j] >> (work - bits) for c in coeffs] for j in parts]
    if order:  # a = 1: x^{-1} times a polynomial in log x
        shift = width - bits
        with mp.workprec(bits):  # [e^m] Gamma(1 + e) for m <= order
            gammas = [int(mp.ldexp(g / math.factorial(m), bits))
                      for m, g in enumerate(_gamma_derivs_at_1(order))]
        heads = []
        for _, _, log_x, inv_x, _ in rows:
            minus_log, power = -(log_x >> shift), 1 << bits
            head = gammas[order]
            for j in range(1, order + 1):
                power = (power * minus_log >> bits) // j
                head += gammas[order - j] * power >> bits
            heads.append(head * inv_x >> width)
        heads = [heads]
    else:  # Gamma(a) x_1^{-a} n^{-a}
        with mp.workprec(bits + 64):
            scale = mp.gamma(a) * (2 * mp.pi / mp.sqrt(ctx.N)) ** -a
        # a unit of n^{-a}'s 2^-table_bits, counted once per prime factor, times
        # |scale| stays below 2^-bits; so does one of scale's times |n^{-a}|
        table_bits = (bits + max(mp.mag(scale), 0) + ctx.n_max.bit_length().bit_length()
                      + math.ceil(max(-sigma, 0) * math.log2(ctx.n_max)) + 4)
        powers = _power_table(a, ctx.n_max, table_bits)
        scale_re = int(mp.ldexp(mp.re(scale), table_bits))
        scale_im = int(mp.ldexp(mp.im(scale), table_bits))
        down = 2 * table_bits - bits
        heads = [[(scale_re * powers[n][0] - scale_im * powers[n][1] if j == 0
                   else scale_re * powers[n][1] + scale_im * powers[n][0]) >> down
                  for n, *_ in rows] for j in parts]
    columns, degree = [[] for _ in parts], 0
    for index, (n, _, _, _, exp_x) in enumerate(rows):
        # the first degree past 2x + |Re a| whose weighted term is below 2^stop; grows with n
        x = x_lo * n
        log2_u = math.log2(n / ctx.n_max)
        degree = max(degree, min(math.ceil(2 * x + abs(sigma)), len(coeffs) - 1))
        while (degree < len(coeffs) - 1
               and mags[degree] + degree * log2_u - x / math.log(2) >= stop):
            degree += 1
        for column, c, head in zip(columns, fixed, heads):
            column.append(head[index] - (exp_x * _horner(c, degree, n, ctx.n_max) >> width))
    terms = (bits, columns[0] if len(columns) == 1 else tuple(columns))
    ctx._terms = (key, prec, terms)
    return terms


def _dyadic(x: mp.mpf) -> tuple[int, int]:
    """(m, e) with x = m 2^e exactly."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def _mag(re: int, im: int) -> int:
    """mpmath's mag of re + i im: |re + i im| <= 2^mag, from bit lengths."""
    if re and im:
        return 1 + max(abs(re).bit_length(), abs(im).bit_length())
    return abs(re or im).bit_length()


def _horner(fixed: list[int], degree: int, num: int, den: int) -> int:
    """sum_{k <= degree} fixed[k] (num/den)^k, each step floored to an integer."""
    acc = 0
    for c in fixed[degree::-1]:
        acc = acc * num // den + c
    return acc


def _power_table(a, n_max: int, bits: int) -> list:
    """n^{-a} for 1 <= n <= n_max as (Re, Im) integers in fixed point at `bits`.

    n^{-a} is completely multiplicative: one mpmath power per prime, and one
    fixed-point product p^{-a} (n/p)^{-a} per composite n, p its smallest
    prime factor.  Index 0 is unused.
    """
    table = [None, (1 << bits, 0)]
    with mp.workprec(bits + 16):
        for n, p in enumerate(smallest_prime_factors(2, n_max), 2):
            if p == n:
                z = mp.mpf(p) ** -a
                table.append((int(mp.ldexp(mp.re(z), bits)), int(mp.ldexp(mp.im(z), bits))))
            else:
                (u_re, u_im), (v_re, v_im) = table[p], table[n // p]
                table.append(((u_re * v_re - u_im * v_im) >> bits,
                              (u_re * v_im + u_im * v_re) >> bits))
    return table


def _x_rows(ctx: AnalyticContext, bits: int) -> tuple[int, list]:
    """(width, rows): (n, a_n, log x_n, 1/x_n, e^{-x_n}) for each nonzero a_n, n <= n_max.

    The three reals are integers in fixed point at `width` bits, which is
    `bits` plus x_max/ln 2 plus log2(n_max), so that e^{-x_n} keeps `bits`
    relative bits up to x_max.  e^{-x_n} = Q^n takes one product by
    Q = e^{-2 pi/sqrt(N)} per n; 1/x_n is (sqrt(N)/(2 pi)) // n; and
    log x_n = log(2 pi/sqrt(N)) + log n, with log n built additively over
    smallest prime factors (one mpmath log per prime).  Each is within
    log2(n) + 2 units of 2^-width (e^{-x_n} within n units).  Kept on the
    context at `bits` or more, and rebuilt when n_max has changed (the
    CLI's --nmax raises it after construction) or more bits are asked for;
    the 64 bits of headroom let nearby s share one table.
    """
    cached = ctx._x_table
    if cached is not None and cached[0] == ctx.n_max and cached[1] >= bits:
        return cached[2], cached[3]
    bits += 64
    n_max = ctx.n_max
    coeffs = ctx.coefficients(n_max)
    width = bits + math.ceil(2 * math.pi * n_max / ctx.sqrtN / math.log(2)) + n_max.bit_length()
    with mp.workprec(width + 16):
        step = 2 * mp.pi / mp.sqrt(ctx.N)
        q = int(mp.ldexp(mp.exp(-step), width))
        inv_step = int(mp.ldexp(1 / step, width))
        log_step = int(mp.ldexp(mp.log(step), width))
        log_n = [0, 0]
        for n, p in enumerate(smallest_prime_factors(2, n_max), 2):
            log_n.append(int(mp.ldexp(mp.log(p), width)) if p == n else log_n[p] + log_n[n // p])
    rows, exp_x = [], 1 << width
    for n in range(1, n_max + 1):
        exp_x = exp_x * q >> width
        if coeffs[n]:
            rows.append((n, coeffs[n], log_step + log_n[n], inv_step // n, exp_x))
    ctx._x_table = (n_max, bits, width, rows)
    return width, rows


# -- Lambda, L, and derivatives -------------------------------------------------


def _lambda_series(ctx: AnalyticContext, s, w: int, absolute: bool = False):
    """sum a_n [f(s) + w f(2 - s)], f(a) = A^a Gamma(a, x), at working precision
    (|a_n| for a_n if `absolute`), as one integer dot product rounded once.

    At an integer s, K = |s - 1|, one column gives f(1) = e^{-x}/x (K = 0) or
    f(0) = E_1(x) = x [e] f(1 + e), and Gamma(a + 1, x) = a Gamma(a, x) +
    x^a e^{-x} the rest on the rows of `_x_rows`: up, f(a + 1) = (a f(a) +
    e^{-x})/x adds positive terms; down, f(a - 1) = (x f(a) - e^{-x})/(a - 1).
    The column carries log2 of their error growth in extra bits: of
    prod_{a <= K} max(1, a/x_1) up, of x_max prod_{0 < j < K} max(1, x_max/j)
    down.  On Re s = 1, 2 - s = conj(s): w keeps only Re f_n(s) (w = 1) or
    Im f_n(s) (w = -1), only that part is built, and the other is exactly 0.
    """
    s = mp.mpmathify(s)
    if mp.isint(s):
        m = int(mp.re(s))
        K, start = abs(m - 1), int(m == 1)  # the recurrence starts at f(start)
        x_hi = 2 * math.pi * ctx.n_max / ctx.sqrtN
        up = sum(math.log2(max(1, a * ctx.n_max / x_hi)) for a in range(1, K + 1))
        down = sum(math.log2(max(1, x_hi / max(j, 1))) for j in range(K))
        with mp.workprec(mp.mp.prec + math.ceil(max(up, down)) + 2 * K.bit_length()):
            bits, column = _gamma_terms(ctx, 1, 1 - start)
        width, rows = _x_rows(ctx, 0)
        x_1 = (1 << 2 * width) // rows[0][3]  # 1/x_n at n = 1 (a_1 = 1)
        total = 0
        for (n, a_n, _, inv_x, exp_x), term in zip(rows, column):
            high = low = term << (width - bits) if start else x_1 * n * term >> bits
            for a in range(start, K + 1):
                high = (a * high + exp_x) * inv_x >> width
            for a in range(start, 1 - K, -1):
                low = ((x_1 * n * low >> width) - exp_x) // (a - 1)
            first, second = (high, low) if m >= 1 else (low, high)
            total += (abs(a_n) if absolute else a_n) * (first + w * second)
        return mp.mpf((total, -width))
    if mp.re(s) == 1:
        bits, column = _gamma_terms(ctx, s, part="re" if w == 1 else "im")
        half = mp.mpf((2 * _dot(ctx, column, absolute), -bits))
        return mp.mpc(half, 0) if w == 1 else mp.mpc(0, half)
    sums = []
    for weight, a in ((1, s), (w, mp.fsub(2, s, exact=True))):
        bits, column = _gamma_terms(ctx, a)
        parts = column if isinstance(column, tuple) else (column,)
        sums.append((bits, [weight * _dot(ctx, part, absolute) for part in parts]))
    (b1, first), (b2, second) = sums
    bits = max(b1, b2)  # the two columns aligned by a shift
    values = [mp.mpf(((x << (bits - b1)) + (y << (bits - b2)), -bits))
              for x, y in zip(first, second)]
    return values[0] if len(values) == 1 else mp.mpc(*values)


def _dot(ctx: AnalyticContext, column: list[int], absolute: bool = False) -> int:
    """sum_n a_n column[n] over the nonzero a_n (|a_n| if `absolute`), exactly."""
    coeffs = (abs(row[1]) if absolute else row[1] for row in _x_rows(ctx, 0)[1])
    return sum(map(operator.mul, coeffs, column))


def _lambda_scale(ctx: AnalyticContext, s) -> mp.mpf:
    """Absolute-value version of the series, for relative comparisons."""
    return _lambda_series(ctx, mp.mpf(abs(complex(s).real)), 1, absolute=True)


def lambda_value(ctx: AnalyticContext, s) -> ValueWithBound:
    """Completed Lambda(E, s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(E, s); PrecisionExhausted
    where the tail bound needs more n: x_{n_max} < 2(max(|s|, |2 - s|) + 2)."""
    with mp.workdps(ctx.dps):
        s = mp.mpmathify(s)
        reach = max(abs(complex(s)), abs(2 - complex(s)))
        if 2 * math.pi * ctx.n_max / ctx.sqrtN < 2 * (reach + 2):
            raise PrecisionExhausted(f"max(|s|, |2 - s|) = {reach:.4g} needs a larger n_max")
        value = _lambda_series(ctx, s, ctx.w)
        return ValueWithBound(value, mp.mpf(ctx.tail_bound()) + mp.mpf(10) ** (-ctx.digits))


def l_value(ctx: AnalyticContext, s) -> ValueWithBound:
    """L(E, s) stripped of the archimedean and conductor factors."""
    with mp.workdps(ctx.dps):
        s = mp.mpmathify(s)
        lam, bound = lambda_value(ctx, s)
        # 1/Gamma(s) is 0 at s = 0, -1, -2, ...: the trivial zeros of L
        factor = (2 * mp.pi) ** s * mp.rgamma(s) / ctx.sqrtN_mp**s
        return ValueWithBound(lam * factor, bound * abs(factor))


def lambda_derivative(ctx: AnalyticContext, order: int = 1) -> ValueWithBound:
    """d^k/ds^k Lambda(E, s) at s = 1, termwise (no finite differences):
    (1 + w (-1)^k) k! sum_n a_n [e^k] A_n^(1+e) Gamma(1+e, x_n), one column
    of `_gamma_terms`."""
    k = order
    with mp.workdps(ctx.dps):
        parity = 1 + ctx.w * (-1) ** k
        if parity == 0:
            return ValueWithBound(mp.mpf(0), mp.mpf(0))
        bits, column = _gamma_terms(ctx, 1, k)
        total = mp.mpf((parity * math.factorial(k) * _dot(ctx, column), -bits))
        bound = (mp.mpf(ctx.tail_bound()) * (1 + mp.log(ctx.n_max)) ** k
                 + mp.mpf(10) ** (-ctx.digits))
        return ValueWithBound(total, bound)


def l_derivative(ctx: AnalyticContext, order: int = 1) -> ValueWithBound:
    """L'(E, 1) (or the order-th derivative's leading use) from Lambda'.

    Valid as the leading series derivative when all lower Lambda-derivatives
    vanish at s = 1; for order 1 that is exactly the w = -1 case.
    """
    with mp.workdps(ctx.dps):
        lam_k, bound = lambda_derivative(ctx, order)
        factor = (2 * mp.pi) / ctx.sqrtN_mp
        return ValueWithBound(lam_k * factor, bound * factor)


@dataclass(frozen=True)
class RankEstimate:
    rank: int
    tol: float
    derivative_values: tuple  # (order, magnitude) pairs actually inspected
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
        scale = _lambda_scale(ctx, 1) + 1
        inspected = []
        start = 0 if ctx.w == 1 else 1
        for k in range(start, start + 8, 2):
            val = abs(lambda_derivative(ctx, k).value) / math.factorial(k)
            inspected.append((k, float(val)))
            if val > tol * scale:
                return RankEstimate(k, tol, tuple(inspected))
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
    An independent check of `_gamma_terms`, used by the tests only.
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
