"""Output checks: recorded references and invariants the benchmark computes itself.

A check returns a list of problems, empty when the output is correct.  The
invariants use only the benchmark's own integer arithmetic (`gen.invariants`
and point counts below), never `hasseweil`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import gen

FLOAT_REL = 1e-10
# error bounds may legitimately change (tighter or s-dependent bounds), so
# they are not compared with the reference
SKIPPED_KEYS = frozenset({"err"})


def compare(ref, got, path: str = "") -> list[str]:
    """Exact equality for ints, strings, bools and structure; floats to 1e-10."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path or 'output'}: keys {sorted(got)} != {sorted(ref)}"]
        out = []
        for key in sorted(ref):
            if key not in SKIPPED_KEYS:
                out += compare(ref[key], got[key], f"{path}.{key}" if path else key)
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, f"{path}[{i}]")
        return out
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if ref == got or (math.isnan(ref) and math.isnan(got)):
            return []
        if abs(got - ref) <= FLOAT_REL * abs(ref):
            return []
        return [f"{path}: {got!r} != {ref!r} (rel. tol. {FLOAT_REL})"]
    if type(ref) is not type(got) or ref != got:
        return [f"{path}: {got!r} != {ref!r}"]
    return []


def primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def prime_factors(n: int) -> set[int]:
    n, out, p = abs(n), set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def valuation(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def count_points(coeffs, p: int) -> int:
    """#E(F_p) of the reduction mod p, point at infinity included."""
    a1, a2, a3, a4, a6 = coeffs
    if p == 2:
        return 1 + sum(1 for x in (0, 1) for y in (0, 1)
                       if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % 2 == 0)
    squares = bytearray(p)
    for y in range(p):
        squares[y * y % p] = 1
    count = p + 1
    for x in range(p):
        d = ((a1 * x + a3) ** 2 + 4 * (x**3 + a2 * x * x + a4 * x + a6)) % p
        if d:
            count += 1 if squares[d] else -1
    return count


def torsion_order(structure: str) -> int:
    if structure == "trivial":
        return 1
    orders = [int(part.strip()[2:]) for part in structure.split("x")]
    return math.prod(orders)


def table_invariants(coeffs, row) -> list[str]:
    """Facts a table row must satisfy whatever the reference says."""
    problems = []
    a, r = row["analyze"], row["rank"]
    c4, c6, disc = gen.invariants(*coeffs)
    minimal = tuple(int(x) for x in a["minimal_model"])
    mc4, mc6, mdisc = gen.invariants(*minimal)
    inv = a["invariants"]
    if (int(inv["c4"]), int(inv["c6"]), int(inv["disc"])) != (mc4, mc6, mdisc):
        problems.append("invariants do not match the printed minimal model")
    u = Fraction(a["transformation"]["u"])
    if (mc4 * u**4, mc6 * u**6, mdisc * u**12) != (c4, c6, disc):
        problems.append(f"minimal model is not a u = {u} scaling of the input")
    bad = prime_factors(mdisc)
    locals_ = {d["p"]: d for d in a["local_data"]}
    if set(locals_) != bad:
        problems.append(f"local data at {sorted(locals_)}, bad primes {sorted(bad)}")
    N = 1
    for p, d in locals_.items():
        N *= p ** d["f_p"]
        if d["ord_disc"] != valuation(mdisc, p):
            problems.append(f"p={p}: ord_disc {d['ord_disc']} != v_p(disc)")
        if d["ord_disc"] != d["f_p"] + d["m"] - 1:
            problems.append(f"p={p}: Ogg's formula fails")
        if p >= 5 and d["f_p"] != (1 if mc4 % p else 2):
            problems.append(f"p={p}: f_p {d['f_p']} contradicts v_p(c4)")
    if a["conductor"] != N:
        problems.append(f"conductor {a['conductor']} != prod p^f_p = {N}")
    w, rank = r["root_number"], r["rank_analytic"]
    if w not in (1, -1) or (-1) ** rank != w:
        problems.append(f"root number {w} does not match the parity of rank {rank}")
    t = torsion_order(a["torsion"]["structure"])
    for p in range(3, 60, 2):
        if p in bad or any(p % q == 0 for q in range(3, p, 2)):
            continue
        if count_points(minimal, p) % t:
            problems.append(f"torsion order {t} does not divide #E(F_{p})")
    return problems


def euler_bracket(coeffs, real: float, imag: float, s: int, primes: list[int],
                  p0: int = 2000) -> list[str]:
    """The truncated Euler product against one computed here to p0.

    For good p the local factor is (1 - alpha p^-s)(1 - beta p^-s) with
    |alpha| = |beta| = sqrt(p), so at s = 2 the primes above p0 move log L
    by at most sum 2 |log(1 - p^-1.5)|.  Primes where the input model may be
    non-minimal (v_p(disc) >= 12) are left out and added to that budget.
    """
    c4, c6, disc = gen.invariants(*coeffs)
    log_mine, budget = 0.0, 0.0
    for p in primes:
        if p > p0 or valuation(disc, p) >= 12:
            budget += -2 * math.log(1 - p ** (0.5 - s))
            continue
        a_p = p + 1 - count_points(coeffs, p)
        den = 1 - a_p * p**-s + (p ** (1 - 2 * s) if disc % p else 0)
        log_mine -= math.log(den)
    problems = []
    if real <= 0 or abs(imag) > 1e-12 * abs(real):
        return [f"L(E, {s}) Euler product {real}+{imag}i is not a positive real"]
    gap = abs(math.log(real) - log_mine)
    if gap > budget + 1e-9:
        problems.append(f"log L(E, {s}) differs from the check by {gap:.3g} > {budget:.3g}")
    return problems
