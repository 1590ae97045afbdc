"""Hodge data, archimedean gamma factors, and Weil-Deligne local machinery.

All linear algebra is exact over the rationals.  Gamma factors carry both
a symbolic product form (kind, shift, exponent triples) and a numerical
evaluator; Tate twists act on both kinds of data; local factors come from
the Frobenius action on the inertia invariants inside the kernel of the
monodromy operator.  Weight and purity, |alpha|^2 = q = p^w for every Frobenius
eigenvalue alpha (Deligne, La conjecture de Weil I, Publ. IHES 43 (1974)), are
decided exactly too, with no root found: they hold exactly when the eigenvalues
beta of phi + q phi^-1 are real with beta^2 <= 4q, which Hermite's quadratic
form on their power sums decides (`_pure`; Basu, Pollack and Roy, Algorithms
in Real Algebraic Geometry, ch. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import NotNilpotent
from .numtheory import is_prime
from .ratlinalg import (
    Matrix,
    charpoly,
    column_space_basis,
    det,
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
    rref,
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
        """Inverse of `to_dict`; ValueError on a missing or mistyped field."""
        if not isinstance(data, dict) or not isinstance(data.get("hodge", {}), dict):
            raise ValueError("Hodge data and its 'hodge' field must be objects")
        offdiag = {}
        for key, d in data.get("hodge", {}).items():
            p, q = (int(t) for t in key.split(","))
            offdiag[(p, q)] = _as_int(d)
        if "weight" not in data:
            raise ValueError("Hodge data lacks its 'weight'")
        return cls.make(
            _as_int(data["weight"]),
            offdiag,
            _as_int(data.get("middle_plus", 0)),
            _as_int(data.get("middle_minus", 0)),
        )


def _as_int(value) -> int:
    """An integer field of JSON input: an int, or a string holding one."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


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
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        phi_m = to_matrix(phi)
        d = len(phi_m)
        N_m = to_matrix(N) if N is not None else zeros(d, d)
        rows = phi_m + N_m + [list(v) for v in inertia_invariants or []]
        if len(N_m) != d or any(len(row) != d for row in rows):
            raise ValueError("phi, N and the invariant rows must all have size d")
        if det(phi_m) == 0:
            raise ValueError("phi must be invertible")
        if not is_nilpotent(N_m):
            raise NotNilpotent("N must be nilpotent")
        inv = (
            tuple(tuple(Fraction(x) for x in row) for row in inertia_invariants)
            if inertia_invariants is not None
            else None
        )
        wd = cls(p, tuple(tuple(row) for row in phi_m), tuple(tuple(row) for row in N_m), inv)
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
        """Inverse of `to_dict`; ValueError on a missing or mistyped field."""
        if not isinstance(data, dict):
            raise ValueError("Weil-Deligne data must be an object")
        missing = {"p", "phi"} - set(data)
        if missing:
            raise ValueError(f"Weil-Deligne data lacks {sorted(missing)}")
        inv = data.get("inertia_invariants")
        try:
            phi = to_matrix(data["phi"])
            N = to_matrix(data["N"]) if data.get("N") else None
            inv = to_matrix(inv) if inv is not None else None
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"matrix entries must be rationals: {exc}") from exc
        return cls.make(_as_int(data["p"]), phi, N, inv)


def check_compatibility(wd: WeilDeligneRep) -> bool:
    """Exact test of phi N phi^{-1} = p^{-1} N."""
    phi, N = wd.phi_matrix(), wd.n_matrix()
    lhs = mat_mul(mat_mul(phi, N), mat_inv(phi))
    rhs = mat_scale(N, Fraction(1, wd.p))
    return lhs == rhs


def tate_twist_wd(wd: WeilDeligneRep, k: int) -> WeilDeligneRep:
    """Multiply Frobenius by p^{-k}: local factors shift s -> s + k."""
    phi = mat_scale(wd.phi_matrix(), Fraction(1, wd.p**k) if k >= 0 else Fraction(wd.p ** (-k)))
    return WeilDeligneRep.make(wd.p, phi, wd.n_matrix(), wd.inertia_invariants)


def _quotient_action(matrix: Matrix, basis_k, basis_below) -> Matrix:
    """Action induced on span(basis_k) / span(basis_below).

    span(basis_k) must be stable under the matrix and basis_below must be
    independent and inside it; with basis_below empty this is the
    restriction to span(basis_k).
    """
    # extend basis_below to a basis of span(basis_k) by a complement
    current = [list(v) for v in basis_below]
    complement = []
    for v in basis_k:
        if not span_contains(current, v):
            complement.append(list(v))
            current.append(list(v))
    if not complement:
        return []
    # coefficients of the complement's images in basis_below + complement
    images = [mat_vec(matrix, v) for v in complement]
    nb = len(current)
    aug = [list(brow) + list(irow) for brow, irow in zip(zip(*current), zip(*images))]
    red, pivots = rref(aug)
    if len(pivots) != nb or any(pc >= nb for pc in pivots):
        raise ValueError("subspace not stable under the matrix")
    # the complement block of the solution is the quotient action, transposed
    block = [row[nb:] for row in red[len(basis_below):nb]]
    return [list(row) for row in zip(*block)]


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
    restricted = _quotient_action(wd.phi_matrix(), space, [])
    # det(1 - T phi) = T^k charpoly(1/T) = sum_j c_j T^j, charpoly = X^k + c_1 X^{k-1} + ...
    return tuple(int(c) if c.denominator == 1 else c for c in charpoly(restricted))


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
    return WeilDeligneRep.make(wd.p, X, wd.n_matrix(), wd.inertia_invariants)


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

    def graded_dimension(self, k: int) -> int:
        return self.dim_at(k) - self.dim_at(k - 1)


def monodromy_filtration(N_matrix) -> MonodromyFiltration:
    """The unique increasing filtration with N W_k ⊆ W_{k-2} and
    N^k : gr_k ≅ gr_{-k}.

    Convolution formula: W_k = sum_{i >= max(0, -k)} ( ker N^{k+i+1} ∩ im N^i ),
    over N^0, ..., N^d = 0 (d = dim V), so W_{-d} = 0 and W_{d-1} = V.
    """
    N = to_matrix(N_matrix)
    d = len(N)
    if not is_nilpotent(N):
        raise NotNilpotent("monodromy operator must be nilpotent")
    powers = [identity(d)]
    for _ in range(d):
        powers.append(mat_mul(powers[-1], N))
    kers = [nullspace(power) for power in powers]
    ims = [column_space_basis([list(col) for col in zip(*power)]) for power in powers]
    steps, prev = [], 0
    for k in range(1 - d, d):
        basis = column_space_basis([v for i in range(max(0, -k), d)
                                    for v in intersect_spans(kers[min(k + i + 1, d)], ims[i])])
        if len(basis) != prev:
            steps.append((k, tuple(tuple(v) for v in basis)))
            prev = len(basis)
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
    for k in range(1, d + 1):
        if filtration.graded_dimension(k) != filtration.graded_dimension(-k):
            return False
        # N^k must take W_k to W_{-k} inducing an isomorphism on graded pieces:
        # rank of (N^k on W_k modulo W_{-k-1}) equals dim gr_k
        gk = filtration.graded_dimension(k)
        if gk == 0:
            continue
        basis_k = filtration.basis(k)
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
    return WeilDeligneRep.make(p, [[1, 0], [0, p]], None, inertia_invariants=[])


# -- weight and purity ------------------------------------------------------------


def _pure(matrix: Matrix, q: Fraction) -> bool:
    """Whether every eigenvalue alpha of the invertible matrix has |alpha|^2 = q, exactly.

    That holds exactly when each beta = alpha + q/alpha, an eigenvalue of B = matrix +
    q matrix^-1, is real with Q(beta) = 4q - beta^2 >= 0.  Hermite's form
    [4q s_{i+j} - s_{i+j+2}], s_k = tr B^k, has rank #{distinct beta, Q(beta) != 0}
    and signature sum sign Q(beta) over the distinct real beta (Basu-Pollack-Roy,
    Algorithms in Real Algebraic Geometry, ch. 4); a non-real beta has Q(beta) != 0,
    so the form is positive semidefinite exactly then: its characteristic
    polynomial's coefficients c_k have (-1)^k c_k >= 0.
    """
    d = len(matrix)
    b = mat_add(matrix, mat_scale(mat_inv(matrix), q))
    sums, power = [], identity(d)
    for _ in range(2 * d + 1):
        sums.append(sum(power[i][i] for i in range(d)))
        power = mat_mul(power, b)
    hankel = [[4 * q * sums[i + j] - sums[i + j + 2] for j in range(d)] for i in range(d)]
    return all((-1) ** k * c >= 0 for k, c in enumerate(charpoly(hankel)))


def check_weight(wd: WeilDeligneRep, n: int) -> bool:
    """All Frobenius eigenvalues of absolute value p^{n/2}, decided exactly by
    `_pure` (N = 0 and unramified)."""
    if any(x != 0 for row in wd.N for x in row):
        raise ValueError("check_weight requires N = 0")
    if len(wd.invariant_basis()) != wd.dimension:
        raise ValueError("check_weight requires an unramified representation")
    return _pure(wd.phi_matrix(), Fraction(wd.p) ** n)


def check_purity(wd: WeilDeligneRep, n: int) -> bool:
    """Frobenius eigenvalues on each gr_k of the monodromy filtration of absolute
    value p^{(n+k)/2}, decided exactly by `_pure`."""
    if not check_compatibility(wd):
        raise ValueError("check_purity requires the (phi, N) compatibility")
    filt = monodromy_filtration(wd.n_matrix())
    phi = wd.phi_matrix()
    return all(_pure(_quotient_action(phi, filt.basis(k), filt.basis(k - 1)),
                     Fraction(wd.p) ** (n + k))
               for k in range(-wd.dimension, wd.dimension + 1) if filt.graded_dimension(k))
