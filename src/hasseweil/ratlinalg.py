"""Small exact linear algebra over the rationals.

Matrices are lists of row lists of `Fraction`; dimensions stay tiny
(realization data, height Gram matrices), so dense Gauss-Jordan is fine.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def to_matrix(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> Matrix:
    return [[Fraction(0)] * c for _ in range(r)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    assert all(len(row) == k for row in a), "shape mismatch"
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1]) if a else 0


def det(a: Matrix) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return sign * result


def mat_inv(a: Matrix) -> Matrix:
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots[: n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def nullspace(a: Matrix) -> Matrix:
    """Basis of the kernel, as a list of column vectors (each a list)."""
    if not a:
        return []
    red, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def column_space_basis(vectors: list[Vector]) -> list[Vector]:
    """Canonical basis (RREF rows) of the span of the given vectors."""
    if not vectors:
        return []
    red, pivots = rref([list(v) for v in vectors])
    return [red[i] for i in range(len(pivots))]


def span_contains(basis: list[Vector], v: Vector) -> bool:
    """Is v in the span of the basis vectors?"""
    if not basis:
        return all(x == 0 for x in v)
    return rank([list(b) for b in basis] + [list(v)]) == rank(
        [list(b) for b in basis]
    )


def subspace_eq(b1: list[Vector], b2: list[Vector]) -> bool:
    return column_space_basis(b1) == column_space_basis(b2)


def intersect_spans(b1: list[Vector], b2: list[Vector]) -> list[Vector]:
    """Basis of span(b1) ∩ span(b2) (vectors as rows)."""
    if not b1 or not b2:
        return []
    # Solve sum x_i b1_i = sum y_j b2_j: kernel of [b1^T | -b2^T].
    cols = len(b1[0])
    stacked = [
        [b1[i][r] for i in range(len(b1))] + [-b2[j][r] for j in range(len(b2))]
        for r in range(cols)
    ]
    vectors = []
    for ker in nullspace(stacked):
        coeffs = ker[: len(b1)]
        v = [
            sum((c * b1[i][r] for i, c in enumerate(coeffs)), Fraction(0))
            for r in range(cols)
        ]
        if any(x != 0 for x in v):
            vectors.append(v)
    return column_space_basis(vectors)


def charpoly(a: Matrix) -> list[Fraction]:
    """Coefficients of det(X·I - a), highest degree first (monic).

    Faddeev-LeVerrier; exact over Fraction.
    """
    n = len(a)
    coeffs = [Fraction(1)]
    m = zeros(n, n)
    c = Fraction(1)
    for k in range(1, n + 1):
        m = mat_mul(a, mat_add(m, mat_scale(identity(n), c)))
        c = -Fraction(1, k) * sum(m[i][i] for i in range(n))
        coeffs.append(c)
    # p(X) = X^n + c1 X^{n-1} + ... + cn
    return coeffs


def is_nilpotent(a: Matrix) -> bool:
    n = len(a)
    power = a
    for _ in range(n):
        if all(x == 0 for row in power for x in row):
            return True
        power = mat_mul(power, a)
    return all(x == 0 for row in power for x in row)


def mat_pow(a: Matrix, k: int) -> Matrix:
    n = len(a)
    result = identity(n)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result
