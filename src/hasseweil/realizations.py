"""Hodge data, archimedean gamma factors, and Weil-Deligne local machinery.

All linear algebra is exact over the rationals.  Gamma factors carry both
a symbolic product form (kind, shift, exponent triples) and a numerical
evaluator; Tate twists act on both kinds of data; local factors come from
the Frobenius action on the inertia invariants inside the kernel of the
monodromy operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import NotNilpotent
from .ratlinalg import (
    Matrix,
    charpoly,
    column_space_basis,
    identity,
    intersect_spans,
    is_nilpotent,
    mat_add,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_vec,
    nullspace,
    rank,
    span_contains,
    subspace_eq,
    to_matrix,
    zeros,
)

# -- archimedean: Hodge data and gamma factors ---------------------------------


def gamma_r(s):
    """pi^{-s/2} Gamma(s/2)."""
    return mp.pi ** (-s / 2) * mp.gamma(s / 2)


def gamma_c(s):
    """2 (2 pi)^{-s} Gamma(s)."""
    return 2 * (2 * mp.pi) ** (-s) * mp.gamma(s)


@dataclass(frozen=True)
class HodgeData:
    """Hodge numbers of a weight-n rational Hodge structure.

    `hodge` maps (p, q) with p + q = n to dimensions; for even n the
    middle slot (n/2, n/2) is carried by `middle_plus` / `middle_minus`,
    the dimensions of the +1 / -1 eigenspaces of the conjugation F_oo.
    """

    weight: int
    hodge: tuple  # sorted tuple of ((p, q), dim) for p != q
    middle_plus: int = 0
    middle_minus: int = 0

    def __post_init__(self):
        hmap = dict(self.hodge)
        for (p, q), d in hmap.items():
            if p + q != self.weight:
                raise ValueError(f"type ({p},{q}) has weight {p+q}, not {self.weight}")
            if p == q:
                raise ValueError("diagonal slot belongs in middle_plus/minus")
            if d < 0:
                raise ValueError("negative Hodge number")
            if hmap.get((q, p)) != d:
                raise ValueError("Hodge symmetry h^{pq} = h^{qp} violated")
        if (self.middle_plus or self.middle_minus) and self.weight % 2 != 0:
            raise ValueError("middle slot requires even weight")
        if self.middle_plus < 0 or self.middle_minus < 0:
            raise ValueError("negative middle dimension")

    @classmethod
    def make(cls, weight: int, offdiag: dict | None = None,
             middle_plus: int = 0, middle_minus: int = 0) -> "HodgeData":
        return cls(
            weight,
            tuple(sorted((offdiag or {}).items())),
            middle_plus,
            middle_minus,
        )

    @property
    def dimension(self) -> int:
        return sum(d for _, d in self.hodge) + self.middle_plus + self.middle_minus

    def to_dict(self) -> dict:
        return {
            "weight": self.weight,
            "hodge": {f"{p},{q}": d for (p, q), d in self.hodge},
            "middle_plus": self.middle_plus,
            "middle_minus": self.middle_minus,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HodgeData":
        offdiag = {}
        for key, d in data.get("hodge", {}).items():
            p, q = (int(t) for t in key.split(","))
            offdiag[(p, q)] = d
        return cls.make(
            int(data["weight"]),
            offdiag,
            int(data.get("middle_plus", 0)),
            int(data.get("middle_minus", 0)),
        )


def tate_twist_hodge(h: HodgeData, k: int) -> HodgeData:
    """Shift types by (-k, -k); F_oo multiplies by (-1)^k."""
    offdiag = {(p - k, q - k): d for (p, q), d in h.hodge}
    plus, minus = h.middle_plus, h.middle_minus
    if k % 2 == 1:
        plus, minus = minus, plus
    return HodgeData.make(h.weight - 2 * k, offdiag, plus, minus)


def gamma_factor_symbolic(h: HodgeData) -> list[tuple[str, int, int]]:
    """Product form [(kind, shift, exponent)] meaning Gamma_kind(s + shift)^e.

    Odd weight: prod_{p<q} Gamma_C(s - p)^{h^{pq}}.  Even weight n adds
    Gamma_R(s - n/2)^{d+} Gamma_R(s - n/2 + 1)^{d-}, where d+/d- split the
    middle slot by the eigenvalue of (-1)^{n/2} F_oo, the unique reading
    compatible with twisting (L_oo(M(k), s) = L_oo(M, s + k)).
    """
    factors: list[tuple[str, int, int]] = []
    for (p, q), d in h.hodge:
        if p < q and d:
            factors.append(("C", -p, d))
    if h.weight % 2 == 0 and (h.middle_plus or h.middle_minus):
        half = h.weight // 2
        if half % 2 == 0:
            d_plus, d_minus = h.middle_plus, h.middle_minus
        else:
            d_plus, d_minus = h.middle_minus, h.middle_plus
        if d_plus:
            factors.append(("R", -half, d_plus))
        if d_minus:
            factors.append(("R", -half + 1, d_minus))
    return sorted(factors)


def gamma_factor(h: HodgeData, s) -> mp.mpf:
    """Numerical archimedean factor L_oo(s)."""
    value = mp.mpf(1)
    for kind, shift, exponent in gamma_factor_symbolic(h):
        fn = gamma_c if kind == "C" else gamma_r
        value *= fn(mp.mpmathify(s) + shift) ** exponent
    return value


# -- non-archimedean: Weil-Deligne data -----------------------------------------


@dataclass(frozen=True)
class WeilDeligneRep:
    """(phi, N) on Q^d with an inertia-invariant subspace.

    phi must be invertible and N nilpotent; the compatibility
    phi N phi^{-1} = p^{-1} N is checked by `check_compatibility`, not
    enforced at construction (deliberate violations are representable).
    The invariant subspace defaults to the full space (unramified).
    """

    p: int
    phi: tuple  # rows of Fractions
    N: tuple
    inertia_invariants: tuple | None  # spanning rows; None means full space

    @classmethod
    def make(cls, p: int, phi, N=None, inertia_invariants=None) -> "WeilDeligneRep":
        phi_m = to_matrix(phi)
        d = len(phi_m)
        N_m = to_matrix(N) if N is not None else zeros(d, d)
        from .ratlinalg import det

        if det(phi_m) == 0:
            raise ValueError("phi must be invertible")
        if not is_nilpotent(N_m):
            raise NotNilpotent("N must be nilpotent")
        inv = (
            tuple(tuple(Fraction(x) for x in row) for row in inertia_invariants)
            if inertia_invariants is not None
            else None
        )
        wd = cls(
            p,
            tuple(tuple(row) for row in phi_m),
            tuple(tuple(row) for row in N_m),
            inv,
        )
        if inv:
            basis = wd.invariant_basis()
            phi_image = [mat_vec(phi_m, list(v)) for v in basis]
            if not subspace_eq(phi_image, [list(v) for v in basis]):
                raise ValueError("phi does not stabilize the invariant subspace")
            n_image = [mat_vec(N_m, list(v)) for v in basis]
            for img in n_image:
                if any(img) and not span_contains([list(v) for v in basis], img):
                    raise ValueError("N does not stabilize the invariant subspace")
        return wd

    @property
    def dimension(self) -> int:
        return len(self.phi)

    def phi_matrix(self) -> Matrix:
        return [list(row) for row in self.phi]

    def n_matrix(self) -> Matrix:
        return [list(row) for row in self.N]

    def invariant_basis(self) -> list[list[Fraction]]:
        if self.inertia_invariants is None:
            return [list(row) for row in identity(self.dimension)]
        return column_space_basis([list(r) for r in self.inertia_invariants])

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "phi": [[str(x) for x in row] for row in self.phi],
            "N": [[str(x) for x in row] for row in self.N],
            "inertia_invariants": None
            if self.inertia_invariants is None
            else [[str(x) for x in row] for row in self.inertia_invariants],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WeilDeligneRep":
        inv = data.get("inertia_invariants")
        return cls.make(
            int(data["p"]),
            [[Fraction(x) for x in row] for row in data["phi"]],
            [[Fraction(x) for x in row] for row in data["N"]] if data.get("N") else None,
            [[Fraction(x) for x in row] for row in inv] if inv is not None else None,
        )


def check_compatibility(wd: WeilDeligneRep) -> bool:
    """Exact test of phi N phi^{-1} = p^{-1} N."""
    phi, N = wd.phi_matrix(), wd.n_matrix()
    lhs = mat_mul(mat_mul(phi, N), mat_inv(phi))
    rhs = mat_scale(N, Fraction(1, wd.p))
    return lhs == rhs


def tate_twist_wd(wd: WeilDeligneRep, k: int) -> WeilDeligneRep:
    """Multiply Frobenius by p^{-k}: local factors shift s -> s + k."""
    phi = mat_scale(wd.phi_matrix(), Fraction(1, wd.p**k) if k >= 0 else Fraction(wd.p ** (-k)))
    return WeilDeligneRep.make(
        wd.p,
        phi,
        wd.n_matrix(),
        [list(r) for r in wd.inertia_invariants]
        if wd.inertia_invariants is not None
        else None,
    )


def _restrict(matrix: Matrix, basis: list[list[Fraction]]) -> Matrix:
    """Matrix of the action on span(basis), which must be stable."""
    if not basis:
        return []
    cols = [[basis[j][i] for j in range(len(basis))] for i in range(len(basis[0]))]
    images = [mat_vec(matrix, list(v)) for v in basis]
    # solve basis^T * X = images^T  (coefficients of images in the basis)
    bt = [list(col) for col in zip(*[list(b) for b in basis])]
    it = [list(col) for col in zip(*images)]
    # least-structure exact solve via RREF on the stacked system
    k = len(basis)
    aug = [row[:] + irow[:] for row, irow in zip(bt, it)]
    from .ratlinalg import rref

    red, pivots = rref(aug)
    if len(pivots) != k or any(pc >= k for pc in pivots):
        raise ValueError("subspace not stable under the matrix")
    sol = [row[k:] for row in red[:k]]
    # sol is X with basis^T X = images^T, i.e. restricted matrix transposed
    return [list(row) for row in zip(*sol)]


def wd_local_factor(wd: WeilDeligneRep) -> tuple[int, ...]:
    """Local factor denominator det(1 - T phi | V^I ∩ ker N) in T = p^{-s}.

    Returns integer-free exact coefficients (Fractions reduced to ints when
    possible) of the polynomial, constant term 1.
    """
    inv_basis = wd.invariant_basis()
    ker = nullspace(wd.n_matrix())
    space = intersect_spans([list(b) for b in inv_basis], ker)
    if not space:
        return (1,)
    restricted = _restrict(wd.phi_matrix(), space)
    cp = charpoly(restricted)  # X^k + c1 X^{k-1} + ... + ck
    k = len(cp) - 1
    # det(1 - T phi) = T^k * charpoly(1/T) = sum_j c_j T^j with c_0 = 1
    coeffs = [cp[j] for j in range(k + 1)]
    out = []
    for c in coeffs:
        out.append(int(c) if c.denominator == 1 else c)
    return tuple(out)


def frobenius_semisimplify(wd: WeilDeligneRep) -> WeilDeligneRep:
    """Replace phi by the semisimple factor of its Jordan decomposition.

    Chevalley's algorithm: Newton iteration X <- X - f(X) f'(X)^{-1} with f
    the squarefree part of the characteristic polynomial; terminates in
    O(log d) steps and preserves the characteristic polynomial.
    """
    phi = wd.phi_matrix()
    d = len(phi)
    cp = charpoly(phi)
    sqfree = _squarefree_part(cp)
    X = [row[:] for row in phi]
    for _ in range(max(1, d.bit_length() + 1)):
        fX = _poly_eval_matrix(sqfree, X)
        if all(x == 0 for row in fX for x in row):
            break
        dfX = _poly_eval_matrix(_poly_derivative(sqfree), X)
        X = mat_add(X, mat_scale(mat_mul(mat_inv(dfX), fX), Fraction(-1)))
    return WeilDeligneRep.make(
        wd.p,
        X,
        wd.n_matrix(),
        [list(r) for r in wd.inertia_invariants]
        if wd.inertia_invariants is not None
        else None,
    )


def _poly_derivative(coeffs: list[Fraction]) -> list[Fraction]:
    """Derivative, coefficients highest-degree-first."""
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _poly_eval_matrix(coeffs: list[Fraction], m: Matrix) -> Matrix:
    d = len(m)
    out = zeros(d, d)
    for c in coeffs:
        out = mat_add(mat_mul(out, m), mat_scale(identity(d), c))
    return out


def _poly_gcd_q(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """Monic gcd over Q, highest-degree-first."""

    def norm(h):
        while h and h[0] == 0:
            h = h[1:]
        return h

    f, g = norm(list(f)), norm(list(g))
    while g:
        # f mod g
        f = f[:]
        while len(f) >= len(g) and f:
            c = f[0] / g[0]
            for i in range(len(g)):
                f[i] -= c * g[i]
            f = norm(f[1:] if f and f[0] == 0 else f)
            f = norm(f)
            if len(f) < len(g):
                break
        f, g = g, f
    if not f:
        return [Fraction(1)]
    lead = f[0]
    return [c / lead for c in f]


def _squarefree_part(coeffs: list[Fraction]) -> list[Fraction]:
    g = _poly_gcd_q(coeffs, _poly_derivative(coeffs))
    if len(g) == 1:
        return list(coeffs)
    # exact division coeffs / g
    f = list(coeffs)
    q: list[Fraction] = []
    while len(f) >= len(g):
        c = f[0] / g[0]
        q.append(c)
        for i in range(len(g)):
            f[i] -= c * g[i]
        f = f[1:]
    return q


# -- monodromy filtration --------------------------------------------------------


@dataclass(frozen=True)
class MonodromyFiltration:
    """Increasing filtration W_k with N(W_k) ⊆ W_{k-2}.

    `steps` maps k to a basis (tuple of row tuples) of W_k; keys cover the
    range where the filtration jumps; W_k = 0 below and everything above.
    """

    dimension: int
    steps: tuple  # sorted tuple of (k, basis-rows)

    def basis(self, k: int) -> list[list[Fraction]]:
        result: list[list[Fraction]] = []
        for level, rows in self.steps:
            if level <= k:
                result = [list(r) for r in rows]
        return result

    def dim_at(self, k: int) -> int:
        return len(self.basis(k))

    @property
    def levels(self) -> list[int]:
        return [k for k, _ in self.steps]

    def graded_dimension(self, k: int) -> int:
        return self.dim_at(k) - self.dim_at(k - 1)


def monodromy_filtration(N_matrix) -> MonodromyFiltration:
    """The unique increasing filtration with N W_k ⊆ W_{k-2} and
    N^k : gr_k ≅ gr_{-k}.

    Convolution formula: W_k = sum_i ( ker N^{k+i+1} ∩ im N^i ).
    """
    N = to_matrix(N_matrix)
    d = len(N)
    if not is_nilpotent(N):
        raise NotNilpotent("monodromy operator must be nilpotent")
    if d == 0:
        return MonodromyFiltration(0, ())
    kers: dict[int, list] = {}
    ims: dict[int, list] = {}
    for j in range(d + 2):
        power = mat_pow(N, j)
        kers[j] = nullspace(power) if j else []
        ims[j] = column_space_basis(
            [list(col) for col in zip(*power)]
        ) if j else [list(r) for r in identity(d)]
    # ker N^0 = 0, im N^0 = V handled above; extend ker beyond nilpotency
    top = d + 1

    def ker_of(j: int) -> list:
        if j <= 0:
            return []
        return kers[min(j, top)] if min(j, top) in kers else kers[d + 1]

    steps = []
    prev_dim = 0
    for k in range(-d - 1, d + 2):
        vectors: list = []
        for i in range(0, d + 2):
            ki = ker_of(k + i + 1)
            if not ki:
                continue
            ii = ims[min(i, d + 1)]
            if not ii:
                continue
            piece = intersect_spans(ki, ii) if i > 0 else column_space_basis(ki)
            vectors.extend(piece)
        basis = column_space_basis(vectors)
        if len(basis) != prev_dim:
            steps.append((k, tuple(tuple(v) for v in basis)))
            prev_dim = len(basis)
        if len(basis) == d:
            break
    return MonodromyFiltration(d, tuple(steps))


def monodromy_filtration_jordan(N_matrix) -> MonodromyFiltration:
    """Second construction through an explicit Jordan basis.

    A Jordan block of size m contributes weights m-1, m-3, ..., 1-m; the
    basis vector N^j v carries weight m - 1 - 2j.  Used as the independent
    oracle against the convolution formula.
    """
    N = to_matrix(N_matrix)
    d = len(N)
    if not is_nilpotent(N):
        raise NotNilpotent("monodromy operator must be nilpotent")
    if d == 0:
        return MonodromyFiltration(0, ())
    chains = _jordan_chains(N)
    weighted: list[tuple[int, list[Fraction]]] = []
    for chain in chains:  # chain = [v, Nv, N^2 v, ...], length m
        m = len(chain)
        for j, vec in enumerate(chain):
            weighted.append((m - 1 - 2 * j, vec))
    steps = []
    prev = 0
    levels = sorted({w for w, _ in weighted})
    for k in range(min(levels), max(levels) + 1):
        basis = column_space_basis([v for w, v in weighted if w <= k])
        if len(basis) != prev:
            steps.append((k, tuple(tuple(x) for x in basis)))
            prev = len(basis)
    return MonodromyFiltration(d, tuple(steps))


def _jordan_chains(N: Matrix) -> list[list[list[Fraction]]]:
    """Jordan chains [v, Nv, ...] spanning the space, longest first."""
    d = len(N)
    powers = [identity(d)]
    while not all(x == 0 for row in powers[-1] for x in row):
        powers.append(mat_mul(powers[-1], N))
    e = len(powers) - 1  # N^e = 0, N^{e-1} != 0
    chains: list[list[list[Fraction]]] = []
    used: list[list[Fraction]] = []
    for m in range(e, 0, -1):
        # vectors v with N^m v = 0, N^{m-1} v != 0, independent mod used + ker N^{m-1}
        ker_m = nullspace(powers[m]) if m <= e else []
        ker_m1 = nullspace(powers[m - 1])
        for v in ker_m:
            tails = [vec for chain in chains for vec in chain]
            span = used + ker_m1 + tails
            if span and span_contains(span, v):
                continue
            if not span and all(x == 0 for x in v):
                continue
            chain = []
            vec = list(v)
            for _ in range(m):
                chain.append(vec)
                vec = mat_vec(N, vec)
            chains.append(chain)
            used.extend(chain)
    total = sum(len(c) for c in chains)
    if total != d or rank([list(v) for c in chains for v in c]) != d:
        raise AssertionError("Jordan chain extraction failed to span")
    return chains


def check_filtration_properties(N_matrix, filtration: MonodromyFiltration) -> bool:
    """N(W_k) ⊆ W_{k-2} and N^k : gr_k ≅ gr_{-k}, exactly."""
    N = to_matrix(N_matrix)
    d = filtration.dimension
    lo, hi = -d - 1, d + 1
    for k in range(lo, hi + 1):
        basis = filtration.basis(k)
        target = filtration.basis(k - 2)
        for v in basis:
            img = mat_vec(N, v)
            if any(img) and (not target or not span_contains(target, img)):
                return False
            if not any(img):
                continue
    for k in range(1, d + 1):
        if filtration.graded_dimension(k) != filtration.graded_dimension(-k):
            return False
        # N^k must take W_k to W_{-k} inducing an isomorphism on graded pieces:
        # rank of (N^k on W_k modulo W_{-k-1}) equals dim gr_k
        gk = filtration.graded_dimension(k)
        if gk == 0:
            continue
        basis_k = filtration.basis(k)
        belowupper = filtration.basis(k - 1)
        lower = filtration.basis(-k - 1)
        Nk = mat_pow(N, k)
        images = [mat_vec(Nk, v) for v in basis_k]
        # rank of images modulo lower must be >= gk
        stack = ([list(v) for v in lower] if lower else []) + images
        r_mod = rank(stack) - (len(lower) if lower else 0)
        if r_mod != gk:
            return False
    return True


# -- bridges to the elliptic-curve side ------------------------------------------


def hodge_h1_elliptic() -> HodgeData:
    """H^1 of an elliptic curve: h^{01} = h^{10} = 1."""
    return HodgeData.make(1, {(0, 1): 1, (1, 0): 1})


def hodge_trivial() -> HodgeData:
    """The trivial structure Q: weight 0, F_oo = +1."""
    return HodgeData.make(0, {}, middle_plus=1)


def wd_from_local_data(local) -> WeilDeligneRep:
    """Weil-Deligne encoding of an elliptic curve's local data at p.

    Good: companion matrix of X^2 - a_p X + p, N = 0, unramified.
    Split/non-split multiplicative: diag(1, p) (resp. diag(-1, -p)) with
    one Jordan block of N.  Additive: zero invariant subspace.
    """
    from .localdata import ReductionType

    p = local.p
    if local.reduction is ReductionType.GOOD:
        phi = [[0, -p], [1, local.a_p]]
        return WeilDeligneRep.make(p, phi)
    if local.reduction is ReductionType.SPLIT_MULTIPLICATIVE:
        return WeilDeligneRep.make(p, [[1, 0], [0, p]], [[0, 1], [0, 0]])
    if local.reduction is ReductionType.NONSPLIT_MULTIPLICATIVE:
        return WeilDeligneRep.make(p, [[-1, 0], [0, -p]], [[0, 1], [0, 0]])
    # additive: inertia leaves nothing invariant
    return WeilDeligneRep.make(
        p, [[1, 0], [0, p]], None, inertia_invariants=[]
    )


# -- weight and purity ------------------------------------------------------------


def _charpoly_root_magnitudes(matrix: Matrix, dps: int = 40) -> list:
    cp = charpoly(matrix)
    with mp.workdps(dps):
        if len(cp) == 1:
            return []
        roots = mp.polyroots([mp.mpf(c.numerator) / c.denominator for c in cp],
                             maxsteps=200, extraprec=60)
        return [abs(r) for r in roots]


def check_weight(wd: WeilDeligneRep, n: int, tol: float = 1e-9) -> bool:
    """All |Frobenius eigenvalues| equal to p^{n/2} within tol (N = 0 case)."""
    if any(x != 0 for row in wd.N for x in row):
        raise ValueError("check_weight requires N = 0")
    if wd.inertia_invariants:
        raise ValueError("check_weight requires an unramified representation")
    with mp.workdps(40):
        target = mp.mpf(wd.p) ** (mp.mpf(n) / 2)
        return all(
            abs(m - target) <= tol * max(1, target)
            for m in _charpoly_root_magnitudes(wd.phi_matrix())
        )


def check_purity(wd: WeilDeligneRep, n: int, tol: float = 1e-9) -> bool:
    """Frobenius eigenvalues on gr_k have magnitude p^{(n+k)/2}."""
    if not check_compatibility(wd):
        raise ValueError("check_purity requires the (phi, N) compatibility")
    filt = monodromy_filtration(wd.n_matrix())
    phi = wd.phi_matrix()
    with mp.workdps(40):
        for k in range(-wd.dimension, wd.dimension + 1):
            if filt.graded_dimension(k) == 0:
                continue
            basis_k = filt.basis(k)
            basis_below = filt.basis(k - 1)
            quotient_action = _quotient_action(phi, basis_k, basis_below)
            target = mp.mpf(wd.p) ** (mp.mpf(n + k) / 2)
            for m in _charpoly_root_magnitudes(quotient_action):
                if abs(m - target) > tol * max(1, target):
                    return False
    return True


def _quotient_action(matrix: Matrix, basis_k, basis_below) -> Matrix:
    """Action induced on span(basis_k) / span(basis_below)."""
    full = ([list(v) for v in basis_below]) + [
        v for v in basis_k if not span_contains(basis_below, v)
    ] if basis_below else [list(v) for v in basis_k]
    # choose complement vectors extending basis_below to basis_k
    complement = []
    current = [list(v) for v in basis_below] if basis_below else []
    for v in basis_k:
        if not current or not span_contains(current, v):
            complement.append(list(v))
            current.append(list(v))
    if not complement:
        return []
    k = len(complement)
    # express images of complement vectors in basis_below + complement
    span_basis = ([list(v) for v in basis_below] if basis_below else []) + complement
    bt = [list(col) for col in zip(*span_basis)]
    images = [mat_vec(matrix, v) for v in complement]
    it = [list(col) for col in zip(*images)]
    from .ratlinalg import rref

    nb = len(span_basis)
    aug = [row[:] + irow[:] for row, irow in zip(bt, it)]
    red, pivots = rref(aug)
    if len(pivots) < nb or any(pc >= nb for pc in pivots[:nb]):
        raise ValueError("filtration step not stable under the matrix")
    sol = [row[nb:] for row in red[:nb]]
    lower_count = len(basis_below) if basis_below else 0
    # restrict to the complement block (quotient by the lower part)
    block = [sol[lower_count + i] for i in range(k)]
    return [list(row) for row in zip(*block)]
