"""Elementary integer utilities: primality, factorization, sieves.

Everything here is exact and deterministic.  Factorization is trial
division plus Pollard rho, which is plenty for discriminants at desk scale.
"""

from __future__ import annotations

import itertools
import math
import random

from .errors import NotPrime

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
RHO_BATCH = 128  # rho steps per gcd


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid for all n < 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return p


def primes_up_to(n: int) -> list[int]:
    """All primes <= n by sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes((n - i * i) // i + 1)
    return list(itertools.compress(range(n + 1), sieve))


def smallest_prime_factors(start: int, stop: int) -> list[int]:
    """The smallest prime factor of each n in [start, stop] (start >= 2), at n - start."""
    spf = list(range(start, stop + 1))
    for p in primes_up_to(math.isqrt(stop)):
        for m in range(max(p * p, -(-start // p) * p), stop + 1, p):
            if spf[m - start] == m:
                spf[m - start] = p
    return spf


def iroot(n: int, k: int) -> int:
    """Floor k-th root of a nonnegative integer (Newton's iteration from above)."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite n: Pollard rho with Brent's cycle finding.

    x runs x -> x^2 + c mod n; y is x saved at powers of two of the step
    count.  The gcd is taken once per RHO_BATCH steps, of the product of the
    x - y mod n; a batch whose product shares all of n with it (a cycle
    closed inside it) is replayed one step at a time from its start.
    """
    if n % 2 == 0:
        return 2
    while True:
        c = rng.randrange(1, n)
        x = rng.randrange(2, n)
        d, span = 1, 1
        while d == 1:
            y = x  # x at the last power of two
            for _ in range(span):
                x = (x * x + c) % n
            done = 0
            while done < span and d == 1:
                start = x
                product = 1
                for _ in range(min(RHO_BATCH, span - done)):
                    x = (x * x + c) % n
                    product = product * (x - y) % n
                d = math.gcd(product, n)
                done += RHO_BATCH
            span *= 2
        if d == n:  # replay the last batch step by step
            d = 1
            while d == 1:
                start = (start * start + c) % n
                d = math.gcd(start - y, n)
        if d != n:
            return d


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {p: exponent}; ignores the sign.

    n must be nonzero.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return dict(sorted(out.items()))
    rng = random.Random(0xC0FFEE)
    stack = [(n, 1)]  # (cofactor, the power of it that divides n)
    while stack:
        m, e = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + e
            continue
        # m has no prime factor below 53 > 2^5, so m = r^k needs k <= bit_length/5;
        # rho would split a power of a large prime only after ~sqrt(p) steps
        for k in primes_up_to(m.bit_length() // 5):
            root = iroot(m, k)
            if root**k == m:
                stack.append((root, e * k))
                break
        else:
            d = _pollard_rho(m, rng)
            stack.extend(((d, e), (m // d, e)))
    return dict(sorted(out.items()))


def valuation(n: int, p: int) -> int:
    """ord_p(n) for nonzero n."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def sigma0(n: int) -> int:
    """Number of positive divisors."""
    result = 1
    for e in factorize(n).values():
        result *= e + 1
    return result


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) for odd prime p: 1, -1, or 0."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1
