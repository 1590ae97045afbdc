"""Arithmetic in F_{p^k} via a chosen irreducible polynomial.

Elements are tuples of ints (coefficients of 1, t, t^2, ... mod the modulus
polynomial).  Only what point counting over small prime-power fields needs:
multiplication, absolute traces, and the dense polynomial arithmetic over
F_p (products and powers mod a monic modulus, remainders, gcds) that the
field and Tate's algorithm share.
"""

from __future__ import annotations

import itertools
import random

from .numtheory import require_prime


def _poly_mul_mod(a, b, modulus, p):
    """Product of coefficient tuples reduced mod (modulus, p)."""
    k = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    # reduce by the monic modulus
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(k):
                out[i - k + j] = (out[i - k + j] - c * modulus[j]) % p
    out = out[:k]
    out += [0] * (k - len(out))
    return tuple(out)


def _poly_pow_mod(base, e, modulus, p):
    k = len(modulus) - 1
    result = tuple([1] + [0] * (k - 1))
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        base = _poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


def _poly_trim(h, p):
    """h reduced mod p with its zero leading coefficients dropped."""
    h = [c % p for c in h]
    while h and h[-1] == 0:
        h.pop()
    return h


def _poly_rem(f, g, p):
    """f mod g over F_p (dense low-to-high; g trimmed, so its leading
    coefficient is a unit), trimmed."""
    r = [c % p for c in f]
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i] * inv % p
        if c:
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
    return _poly_trim(r[:dg], p)


def _poly_gcd_mod(f, g, p):
    """Monic gcd of dense low-to-high polynomials over F_p ([] for 0, 0)."""
    f, g = _poly_trim(f, p), _poly_trim(g, p)
    while g:
        f, g = g, _poly_rem(f, g, p)
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _is_irreducible(coeffs, p):
    """Monic irreducibility over F_p by trial division (small degrees only)."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            g = list(lower) + [1]
            if not _poly_rem(coeffs, g, p):
                return False
    return True


def irreducible_polynomial(p: int, k: int, seed: int = 0) -> tuple[int, ...]:
    """A monic irreducible of degree k over F_p, as low coefficients + leading 1.

    Deterministic for a given seed; different seeds generally give different
    moduli (the point count must not depend on the choice).
    """
    if k == 1:
        return (0, 1)
    rng = random.Random((p, k, seed).__hash__())
    while True:
        coeffs = [rng.randrange(p) for _ in range(k)] + [1]
        if coeffs[0] == 0:
            continue
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)


class GaloisField:
    """F_{p^k} with explicit element enumeration (intended for q <= ~10^6)."""

    def __init__(self, p: int, k: int, seed: int = 0):
        self.p = require_prime(p)
        self.k = k
        self.q = p**k
        self.modulus = irreducible_polynomial(p, k, seed)
        self.zero = tuple([0] * k)
        self.one = tuple([1] + [0] * (k - 1))

    def elements(self):
        return itertools.product(range(self.p), repeat=self.k)

    def from_int(self, n: int):
        return tuple([n % self.p] + [0] * (self.k - 1))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return _poly_mul_mod(a, b, self.modulus, self.p)

    def pow(self, a, e: int):
        return _poly_pow_mod(a, e, self.modulus, self.p)

    def trace_to_prime_field(self, a) -> int:
        """Absolute trace a + a^p + ... + a^{p^{k-1}}, as an element of F_p."""
        total = self.zero
        power = a
        for _ in range(self.k):
            total = self.add(total, power)
            power = self.pow(power, self.p)
        assert all(c == 0 for c in total[1:]), "trace must land in F_p"
        return total[0]

    def solve_quadratic_y(self, b, c) -> int:
        """Number of y in F_q with y^2 + b y = c, for q a power of 2."""
        if b == self.zero:
            return 1  # squaring is a bijection in characteristic 2
        # substitute y = b z: z^2 + z = c / b^2; solvable iff trace is 0
        b2inv = self.pow(self.mul(b, b), self.q - 2)
        return 2 if self.trace_to_prime_field(self.mul(c, b2inv)) == 0 else 0
