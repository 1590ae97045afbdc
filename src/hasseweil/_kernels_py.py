"""Pure-Python point-counting kernel.

Same contract as the compiled `_kernels` extension; used as the fallback
when the extension is unavailable.  Counts are projective (the point at
infinity is included) and are taken on the reduction of the given integer
coefficients mod p, smooth or not.
"""

from __future__ import annotations

import math

from .numtheory import legendre_symbol, sqrt_mod_prime

IMPLEMENTATION = "python"


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
            lam = (3 * x1 * x1 + self.A) * pow(2 * y1, p - 2, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, p - 2, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return (x3, (lam * (x1 - x3) - y1) % p)

    def neg(self, P):
        return None if P is None else (P[0], (-P[1]) % self.p)

    def mul(self, n, P):
        R, add = None, P
        while n:
            if n & 1:
                R = self.add(R, add)
            add = self.add(add, add)
            n >>= 1
        return R


def _bsgs_all_matches(curve: _Short, P, lo: int, hi: int) -> list[int]:
    """All m in [lo, hi] with mP = O."""
    width = hi - lo
    s = math.isqrt(width) + 1
    baby = {}
    R = None
    for i in range(s):
        baby.setdefault(R, []).append(i)
        R = curve.add(R, P)
    Q = curve.mul(lo, P)
    out = []
    k = 0
    while k * s <= width:
        for i in baby.get(curve.neg(Q), []):
            m = lo + k * s + i
            if lo <= m <= hi:
                out.append(m)
        Q = curve.add(Q, R)
        k += 1
    return sorted(set(out))


def ap_bsgs(c4: int, c6: int, p: int, seed: int = 0) -> int:
    """a_p at a good prime p >= 5 from the short model y^2=x^3-27c4 x-54c6.

    Deterministic order finding: random points on the curve and its
    quadratic twist shrink the set of admissible orders in the Hasse
    interval until one remains.
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
