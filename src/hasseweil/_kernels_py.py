"""The point-counting kernel, in pure Python (reached through `kernels`).

Counts are projective (the point at infinity is included) and are taken on
the reduction of the given integer coefficients mod p, smooth or not.
Enumeration serves small primes; baby-step giant-step order finding serves
the primes above Mestre's bound 457.
"""

from __future__ import annotations

import math

from .numtheory import legendre_symbol, sqrt_mod_prime


def count_points_mod_p(a1: int, a2: int, a3: int, a4: int, a6: int, p: int) -> int:
    """#E(F_p) for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, plus infinity.

    For odd p the y-count at each x is 1 + chi(D) where
    D = (a1 x + a3)^2 + 4 rhs(x) and chi is the quadratic character
    (chi(0) = 0), evaluated through a residue table.
    """
    if p == 2:
        count = 1
        for x in (0, 1):
            rhs = (x * x * x + a2 * x * x + a4 * x + a6) % 2
            for y in (0, 1):
                if (y * y + a1 * x * y + a3 * y) % 2 == rhs:
                    count += 1
        return count
    a1 %= p
    a2 %= p
    a3 %= p
    a4 %= p
    a6 %= p
    sq = bytearray(p)
    for y in range((p + 1) // 2):
        sq[y * y % p] = 1
    count = p + 1
    for x in range(p):
        x2 = x * x % p
        rhs = (x2 * (x + a2) + a4 * x + a6) % p
        b = (a1 * x + a3) % p
        d = (b * b + 4 * rhs) % p
        if d == 0:
            continue
        count += 1 if sq[d] else -1
    return count


def ap_sweep(
    a1: int, a2: int, a3: int, a4: int, a6: int, primes: list[int]
) -> list[int]:
    """Trace p + 1 - #E(F_p) for each listed prime (no good-reduction check)."""
    return [
        p + 1 - count_points_mod_p(a1, a2, a3, a4, a6, p) for p in primes
    ]


# -- baby-step giant-step order finding (large good primes) -------------------


class _Short:
    """y^2 = x^3 + Ax + B over F_p, affine with None as infinity."""

    __slots__ = ("A", "B", "p")

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


def _bsgs_all_matches(curve: _Short, P, lo: int, hi: int) -> list[int]:
    """All m in [lo, hi] with mP = O, in increasing order.

    Shanks-Mestre matching on x-coordinates (Cohen, GTM 138, Alg. 7.4.12):
    baby steps iP, i = 1..s, are keyed by x(iP); the giant steps visit cP
    for centers c spaced 2s + 1 apart, and x(cP) = x(iP) means cP = iP
    (so m = c - i) or cP = -iP (m = c + i), told apart by y; when
    y(iP) = 0 both hold.  If iP = O, or x(jP) = x(iP) for some i < j
    (then jP = -iP), the baby steps have found the order n of P, and the
    answer is the multiples of n in [lo, hi].
    """
    s = math.isqrt((hi - lo) // 2) + 1
    baby: dict[int, tuple[int, int]] = {}
    R = P
    for i in range(1, s + 1):
        if R is None:
            return _multiples(i, lo, hi)
        x, y = R
        if x in baby:
            return _multiples(baby[x][0] + i, lo, hi)
        baby[x] = (i, y)
        last, R = R, curve.add(R, P)
    stride = curve.add(last, R)  # (2s + 1)P
    p = curve.p
    out = []
    c = lo + s
    Q = curve.mul(c, P)
    while c - s <= hi:
        if Q is None:
            out.append(c)
        elif (hit := baby.get(Q[0])) is not None:
            i, y = hit
            if y == Q[1]:
                out.append(c - i)
            if (y + Q[1]) % p == 0:
                out.append(c + i)
        Q = curve.add(Q, stride)
        c += 2 * s + 1
    return [m for m in out if m <= hi]


def _multiples(n: int, lo: int, hi: int) -> list[int]:
    return list(range(-(-lo // n) * n, hi + 1, n))


def ap_bsgs(c4: int, c6: int, p: int, seed: int = 0) -> int:
    """a_p at a good prime p >= 5 from the short model y^2=x^3-27c4 x-54c6.

    Deterministic order finding: random points on the curve and its
    quadratic twist shrink the set of admissible orders in the Hasse
    interval until one remains.  By Mestre's theorem one always remains
    for p > 457; below that the search may end in ArithmeticError.
    """
    A, B = (-27 * c4) % p, (-54 * c6) % p
    E = _Short(A, B, p)
    g = 2
    while legendre_symbol(g, p) != -1:
        g += 1
    tw = _Short(A * g * g % p, B * pow(g, 3, p) % p, p)
    w = math.isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    state = (seed * 0x9E3779B97F4A7C15 + p) & 0xFFFFFFFFFFFFFFFF

    def next_x():
        nonlocal state
        state ^= (state << 13) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 7
        state ^= (state << 17) & 0xFFFFFFFFFFFFFFFF
        return state % p

    candidates: set[int] | None = None
    for round_idx in range(64):
        use_twist = round_idx % 2 == 1
        curve = tw if use_twist else E
        while True:
            x = next_x()
            rhs = (x * x % p * x + curve.A * x + curve.B) % p
            y = sqrt_mod_prime(rhs, p)
            if y is not None:
                P = (x, y)
                break
        matches = _bsgs_all_matches(curve, P, lo, hi)
        if use_twist:
            matches = [2 * p + 2 - m for m in matches]
        candidates = set(matches) if candidates is None else candidates & set(matches)
        if len(candidates) == 1:
            return p + 1 - candidates.pop()
        if not candidates:
            raise ArithmeticError(f"BSGS eliminated every group order at p={p}")
    raise ArithmeticError(f"BSGS failed to isolate the group order at p={p}")
