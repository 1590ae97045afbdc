"""Exact integer lattice machinery: Smith normal form and friends.

Elementary row/column reduction with smallest-pivot selection keeps the
coefficients tame at desk scale; U and V are accumulated so that
U A V = D holds exactly with |det U| = |det V| = 1.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd

from .errors import SingularBasis
from .ratlinalg import det as _rat_det
from .ratlinalg import mat_inv, mat_mul, to_matrix

IntMatrix = list[list[int]]


def _identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(
    a: IntMatrix,
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with U A V = D diagonal, d_i | d_{i+1}, d_i >= 0.

    U and V are unimodular; D has the same shape as A.
    """
    d = [list(map(int, row)) for row in a]
    rows = len(d)
    cols = len(d[0]) if rows else 0
    U = _identity(rows)
    V = _identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, m):
        # row_dst += m * row_src
        d[dst] = [x + m * y for x, y in zip(d[dst], d[src])]
        U[dst] = [x + m * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, m):
        for row in d:
            row[dst] += m * row[src]
        for row in V:
            row[dst] += m * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(rows, cols):
        # find the nonzero entry of smallest magnitude in the trailing block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(d[i][j])
                if v and (best is None or v < best):
                    best, pivot = v, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear the row and column; restart if a smaller residue appears
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j]:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue
        # ensure the pivot divides the rest of the block
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            negate_row(i)
    return U, d, V


def elementary_divisors(a: IntMatrix) -> list[int]:
    _, D, _ = smith_normal_form(a)
    return [D[i][i] for i in range(min(len(D), len(D[0]) if D else 0))]


def is_unimodular(m: IntMatrix) -> bool:
    return abs(_rat_det(to_matrix(m))) == 1


def torsion_order(presentation: IntMatrix) -> int:
    """Order of the torsion subgroup of coker(Z^cols -> Z^rows).

    The product of the nonzero elementary divisors, the characteristic
    element carrying det(M) to det of the torsion-free quotient.
    """
    out = 1
    for dd in elementary_divisors(presentation):
        if dd:
            out *= dd
    return out


def cokernel_invariants(presentation: IntMatrix) -> tuple[int, list[int]]:
    """(free rank, nontrivial cyclic orders) of the cokernel."""
    rows = len(presentation)
    divisors = elementary_divisors(presentation)
    nonzero = [dd for dd in divisors if dd]
    free_rank = rows - len(nonzero)
    return free_rank, [dd for dd in nonzero if dd != 1]


def lattice_index(basis1, basis2) -> Fraction:
    """Generalized index [L1 : L2] = |det(B1^{-1} B2)| as an exact rational.

    Both bases span full-rank lattices in the same rational vector space
    (rows are basis vectors); equals the group index when L2 ⊆ L1.
    """
    b1 = to_matrix(basis1)
    b2 = to_matrix(basis2)
    if _rat_det(b1) == 0 or _rat_det(b2) == 0:
        raise SingularBasis("lattice bases must be nonsingular")
    value = _rat_det(mat_mul(mat_inv(b1), b2))
    return abs(value)


def cokernel_order_enumeration(presentation: IntMatrix) -> int:
    """|coker| for a square nonsingular presentation by coset closure.

    Independent test oracle: Z^r / A Z^r embeds in (Q/Z)^r through A^{-1};
    the fractional parts of A^{-1} e_i generate it, and the closure under
    addition mod 1 (exact rationals) is enumerated directly.
    """
    rows = len(presentation)
    a = to_matrix(presentation)
    if len(presentation[0]) != rows or _rat_det(a) == 0:
        raise ValueError("enumeration oracle needs a square nonsingular matrix")
    ainv = mat_inv(a)
    generators = [
        tuple(Fraction(ainv[i][j]) % 1 for i in range(rows)) for j in range(rows)
    ]
    zero = tuple([Fraction(0)] * rows)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in generators:
                w = tuple((x + y) % 1 for x, y in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    if len(seen) > 10**6:
                        raise ArithmeticError("cokernel enumeration blew up")
        frontier = nxt
    return len(seen)


def torsion_order_minors(presentation: IntMatrix) -> int:
    """Torsion order as the gcd of all rank-sized minors (test oracle).

    d_1 ... d_k = gcd of all k x k minors with k the rank, so the product
    of the nonzero elementary divisors needs no Smith reduction.
    """
    from .ratlinalg import rank as _rank

    rows = len(presentation)
    cols = len(presentation[0]) if rows else 0
    a = to_matrix(presentation)
    k = _rank(a)
    if k == 0:
        return 1
    g = 0
    for rsel in itertools.combinations(range(rows), k):
        for csel in itertools.combinations(range(cols), k):
            minor = _rat_det([[a[i][j] for j in csel] for i in rsel])
            g = gcd(g, abs(int(minor)))
    return g


def matrix_from_json(text: str) -> IntMatrix:
    """Parse a JSON array of equal-length arrays of integer strings (or ints)."""
    try:
        rows = [[int(x) for x in row] for row in json.loads(text)]
    except TypeError:
        raise ValueError("matrix must be a JSON array of arrays of integers") from None
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix rows must all have the same length")
    return rows
