"""The point-counting kernel, in pure Python (reached through `kernels`).

Counts are projective (the point at infinity is included) and are taken on
the reduction of the given integer coefficients mod p, smooth or not.
Enumeration serves small primes; baby-step giant-step order finding serves
the primes above Mestre's bound 457.  The BSGS walks on plain integers: its
points need no square root (one Legendre symbol picks the curve or its
twist), each step is one affine addition with one `pow(d, -1, p)`, and the
first giant center comes from a Jacobian scalar multiplication with one
inversion.
"""

from __future__ import annotations

import math

from .errors import BSGSFailure


def count_points_mod_p(a1: int, a2: int, a3: int, a4: int, a6: int, p: int) -> int:
    """#E(F_p) for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6, plus infinity.

    For odd p, completing the square turns the y-count at each x into the
    number of square roots of D(x) = 4x^3 + b2 x^2 + 2 b4 x + b6, read from
    one table t (t[0] = 1, t[nonzero square] = 2, else 0).
    """
    if p == 2:
        count = 1
        for x in (0, 1):
            rhs = (x * x * x + a2 * x * x + a4 * x + a6) % 2
            for y in (0, 1):
                if (y * y + a1 * x * y + a3 * y) % 2 == rhs:
                    count += 1
        return count
    # D's coefficients below x^3: b2, 2 b4 and b6
    d2 = (a1 * a1 + 4 * a2) % p
    d1 = 2 * (2 * a4 + a1 * a3) % p
    d0 = (a3 * a3 + 4 * a6) % p
    t = bytearray(p)
    for y in range(1, (p + 1) // 2):
        t[y * y % p] = 2
    t[0] = 1
    return 1 + sum([t[(((4 * x + d2) * x + d1) * x + d0) % p] for x in range(p)])


def ap_sweep(
    a1: int, a2: int, a3: int, a4: int, a6: int, primes: list[int]
) -> list[int]:
    """Trace p + 1 - #E(F_p) for each listed prime (no good-reduction check)."""
    return [
        p + 1 - count_points_mod_p(a1, a2, a3, a4, a6, p) for p in primes
    ]


# -- baby-step giant-step order finding (large good primes) -------------------
#
# Points are integer pairs on y^2 = x^3 + Ax + B over F_p; None is O.


def _mul(n: int, x: int, y: int, A: int, p: int):
    """nP for P = (x, y) and n >= 1, as an affine pair or None for O.

    Left-to-right double-and-add in Jacobian coordinates (X : Y : Z) =
    (X/Z^2, Y/Z^3), with Z = 0 for O, adding the affine P; one inversion
    at the end.  Doubling a point with Y = 0 gives Z = 0, and an addition
    that meets R = P doubles instead.
    """
    X, Y, Z = x, y, 1
    for bit in bin(n)[3:]:
        YY = Y * Y % p
        S = 4 * X * YY % p
        ZZ = Z * Z % p
        M = (3 * X * X + A * ZZ * ZZ) % p
        X2 = (M * M - 2 * S) % p
        Z = 2 * Y * Z % p
        Y = (M * (S - X2) - 8 * YY * YY) % p
        X = X2
        if bit == "1":
            if Z == 0:
                X, Y, Z = x, y, 1
                continue
            ZZ = Z * Z % p
            H = (x * ZZ - X) % p
            r = (y * ZZ * Z - Y) % p
            if H == 0:
                if r:
                    Z = 0
                    continue
                # R = P: double P itself (Z = 1)
                YY = y * y % p
                S = 4 * x * YY % p
                M = (3 * x * x + A) % p
                X = (M * M - 2 * S) % p
                Z = 2 * y % p
                Y = (M * (S - X) - 8 * YY * YY) % p
                continue
            HH = H * H % p
            HHH = H * HH % p
            V = X * HH % p
            X2 = (r * r - HHH - 2 * V) % p
            Y = (r * (V - X2) - Y * HHH) % p
            Z = Z * H % p
            X = X2
    if Z == 0:
        return None
    zi = pow(Z, -1, p)
    zi2 = zi * zi % p
    return X * zi2 % p, Y * zi2 * zi % p


def _bsgs_all_matches(A: int, p: int, x0: int, y0: int, lo: int, hi: int) -> list[int]:
    """All m in [lo, hi] with mP = O for P = (x0, y0), in increasing order.

    Shanks-Mestre matching on x-coordinates (Cohen, GTM 138, Alg. 7.4.12):
    baby steps iP, i = 1..s, are keyed by x(iP); the giant steps visit cP
    for the multiples c of 2s + 1 from the one in [lo - s, lo + s] on, so
    cP = q(2s + 1)P costs a scalar multiplication by q ~ sqrt(p) only,
    and x(cP) = x(iP) means cP = iP
    (so m = c - i) or cP = -iP (m = c + i), told apart by y; when
    y(iP) = 0 both hold.  If x(jP) = x(iP) for some i < j (then
    jP = -iP), or (2s + 1)P = O, the baby steps have found the order n of
    P, and the answer is the multiples of n in [lo, hi].
    """
    s = math.isqrt((hi - lo) // 2) + 1
    if y0 == 0:
        return _multiples(2, lo, hi)
    baby = {x0: 1}
    ys = [0, y0]
    first, push = baby.setdefault, ys.append
    lam = (3 * x0 * x0 + A) * pow(2 * y0, -1, p) % p
    x = (lam * lam - 2 * x0) % p
    y = (lam * (x0 - x) - y0) % p
    lx, ly = x0, y0
    for i in range(2, s + 1):
        j = first(x, i)
        if j != i:
            return _multiples(j + i, lo, hi)
        push(y)
        lx, ly = x, y
        lam = (y - y0) * pow(x - x0, -1, p) % p
        x = (lam * lam - x - x0) % p
        y = (lam * (lx - x) - y) % p
    # (s + 1)P = x, y and sP = lx, ly; stride (2s + 1)P
    if x == lx:
        return _multiples(2 * s + 1, lo, hi)
    lam = (y - ly) * pow(x - lx, -1, p) % p
    sx = (lam * lam - x - lx) % p
    sy = (lam * (lx - sx) - ly) % p
    step = 2 * s + 1
    q = -(-(lo - s) // step)
    Q = _mul(q, sx, sy, A, p) if q > 0 else None
    qx, qy = Q if Q is not None else (None, 0)
    out = []
    find = baby.get
    for c in range(q * step, hi + s + 1, step):
        if qx is None:
            out.append(c)
            qx, qy = sx, sy
        else:
            i = find(qx)
            if i is not None:
                y = ys[i]
                if y == qy:
                    out.append(c - i)
                if (y + qy) % p == 0:
                    out.append(c + i)
            if qx != sx:
                lam = (sy - qy) * pow(sx - qx, -1, p) % p
                x = (lam * lam - qx - sx) % p
                qy = (lam * (qx - x) - qy) % p
                qx = x
            elif qy != sy or qy == 0:
                qx = None
            else:
                lam = (3 * qx * qx + A) * pow(2 * qy, -1, p) % p
                x = (lam * lam - 2 * qx) % p
                qy = (lam * (qx - x) - qy) % p
                qx = x
    return [m for m in out if lo <= m <= hi]


def _multiples(n: int, lo: int, hi: int) -> list[int]:
    return list(range(-(-lo // n) * n, hi + 1, n))


def ap_bsgs(c4: int, c6: int, p: int, seed: int = 0) -> int:
    """a_p at a good prime p >= 5 from the short model y^2=x^3-27c4 x-54c6.

    Deterministic order finding: random points on the curve E and its
    quadratic twist shrink the set of admissible orders in the Hasse
    interval until one remains.  No square root is taken: for d = f(x)
    nonzero, (xd, d^2) lies on y^2 = X^3 + Ad^2 X + Bd^3, which is E when d
    is a square and the twist when it is not, and a twist order m stands
    for the order 2p + 2 - m of E.  By Mestre's theorem one order always
    remains for p > 457; below that the search may end in BSGSFailure.
    """
    A, B = (-27 * c4) % p, (-54 * c6) % p
    w = math.isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    half = (p - 1) // 2
    mask = 0xFFFFFFFFFFFFFFFF
    state = (seed * 0x9E3779B97F4A7C15 + p) & mask
    candidates: set[int] | None = None
    for _ in range(64):
        while True:
            state ^= (state << 13) & mask
            state ^= state >> 7
            state ^= (state << 17) & mask
            x = state % p
            d = ((x * x + A) * x + B) % p
            if d:
                break
        d2 = d * d % p
        matches = _bsgs_all_matches(A * d2 % p, p, x * d % p, d2, lo, hi)
        if pow(d, half, p) != 1:
            matches = [2 * p + 2 - m for m in matches]
        candidates = set(matches) if candidates is None else candidates & set(matches)
        if len(candidates) == 1:
            return p + 1 - candidates.pop()
        if not candidates:
            raise BSGSFailure(f"BSGS eliminated every group order at p={p}")
    raise BSGSFailure(f"BSGS failed to isolate the group order at p={p}")
