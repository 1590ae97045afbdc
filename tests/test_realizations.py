import json
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from hasseweil.errors import NotNilpotent
from hasseweil.localdata import bad_primes, tate_local
from hasseweil.lseries import local_euler_factor
from hasseweil.numtheory import primes_up_to
from hasseweil.realizations import (
    HodgeData,
    WeilDeligneRep,
    _poly_eval_matrix,
    _quotient_action,
    _squarefree_part,
    check_compatibility,
    check_filtration_properties,
    check_purity,
    check_weight,
    frobenius_semisimplify,
    gamma_c,
    gamma_factor,
    gamma_factor_symbolic,
    gamma_r,
    hodge_h1_elliptic,
    hodge_trivial,
    monodromy_filtration,
    monodromy_filtration_jordan,
    tate_twist_hodge,
    tate_twist_wd,
    wd_from_local_data,
    wd_local_factor,
)
from hasseweil.ratlinalg import identity, mat_inv, mat_mul, to_matrix


def random_hodge(rng: random.Random) -> HodgeData:
    n = rng.randint(-3, 4)
    offdiag = {}
    for _ in range(rng.randint(0, 2)):
        p = rng.randint(-3, 3)
        q = n - p
        if p == q:
            continue
        d = rng.randint(1, 3)
        offdiag[(p, q)] = d
        offdiag[(q, p)] = d
    plus = minus = 0
    if n % 2 == 0:
        plus, minus = rng.randint(0, 2), rng.randint(0, 2)
    if not offdiag and plus == 0 and minus == 0:
        plus = 1 if n % 2 == 0 else 0
        if n % 2 == 1:
            offdiag = {(n, 0): 1, (0, n): 1} if n != 0 else {}
    return HodgeData.make(n, offdiag, plus, minus)


def random_nilpotent(rng: random.Random, dim: int):
    """Strictly upper triangular conjugated by a unimodular matrix, exact."""
    upper = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            upper[i][j] = Fraction(rng.randint(-2, 2))
    return conjugate(rng, upper)


def conjugate(rng: random.Random, m):
    """u m u^-1, exact, for u a unimodular conjugator: a product of elementary shears."""
    dim = len(m)
    u = identity(dim)
    for _ in range(dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(dim):
            u[i][k] += c * u[j][k]
    return mat_mul(mat_mul(u, to_matrix(m)), mat_inv(u))


NEAR = Fraction(1, 10**12)  # a perturbation far inside a 1e-9 float tolerance


def weight_draw(rng: random.Random):
    """(p, w, phi, pure): phi block diagonal, conjugated by `conjugate`, and pure
    whether |alpha|^2 = p^w for all its eigenvalues, known by construction.

    Blocks: the companion matrix of x^2 - a x + c, c = q = p^w (pure iff a^2 <= 4q)
    or c = q + NEAR (never pure: complex roots have |alpha|^2 = c, real ones the
    product c != +-q); x - r and the Jordan block of (x - r)^2 (pure iff r^2 = q).
    A block is repeated at times, so eigenvalues repeat.
    """
    p, w = rng.choice((2, 3, 5, 7, 11)), rng.randint(-2, 3)
    q, den = Fraction(p) ** w, p ** max(0, -w)
    blocks = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if blocks and kind < 0.15:
            blocks.append(blocks[-1])
        elif kind < 0.7:
            reach = math.isqrt(math.ceil(4 * q * den * den)) + 2
            a = Fraction(rng.randint(-reach, reach), den)
            c = q + NEAR if rng.random() < 0.2 else q
            blocks.append(([[0, -c], [1, a]], c == q and a * a <= 4 * q))
        else:
            r = rng.choice((-1, 1)) * Fraction(p) ** rng.randint(w // 2 - 1, w // 2 + 1)
            r += NEAR if rng.random() < 0.1 else 0
            block = [[r, 1], [0, r]] if rng.random() < 0.3 else [[r]]
            blocks.append((block, r * r == q))
    dim = sum(len(block) for block, _ in blocks)
    phi, at = [[Fraction(0)] * dim for _ in range(dim)], 0
    for block, _ in blocks:
        for i, row in enumerate(block):
            phi[at + i][at : at + len(row)] = [Fraction(x) for x in row]
        at += len(block)
    return p, w, conjugate(rng, phi), all(pure for _, pure in blocks)


class TestGammaFactors:
    def test_trivial_motive(self):
        assert gamma_factor_symbolic(hodge_trivial()) == [("R", 0, 1)]

    def test_h1_elliptic(self):
        assert gamma_factor_symbolic(hodge_h1_elliptic()) == [("C", 0, 1)]

    def test_q_minus_one(self):
        qm1 = tate_twist_hodge(hodge_trivial(), -1)
        assert gamma_factor_symbolic(qm1) == [("R", -1, 1)]

    def test_q_minus_one_matches_h2_p1(self):
        qm1 = tate_twist_hodge(hodge_trivial(), -1)
        assert qm1.weight == 2
        assert qm1.middle_plus + qm1.middle_minus == 1

    def test_legendre_duplication_grid(self):
        with mp.workdps(35):
            for k in range(20):
                s = mp.mpf("0.3") + k * mp.mpf("0.25")
                lhs = gamma_c(s)
                rhs = gamma_r(s) * gamma_r(s + 1)
                assert abs(lhs - rhs) < mp.mpf(10) ** -12 * abs(lhs)

    def test_twist_zero_is_identity(self):
        rng = random.Random(8)
        for _ in range(10):
            h = random_hodge(rng)
            assert tate_twist_hodge(h, 0) == h

    def test_twist_compatibility_random(self):
        rng = random.Random(41)
        with mp.workdps(35):
            for _ in range(50):
                h = random_hodge(rng)
                k = rng.randint(-2, 2)
                hk = tate_twist_hodge(h, k)
                for s_raw in (0.65, 1.35, 2.05):
                    s = mp.mpf(s_raw)
                    lhs = gamma_factor(hk, s)
                    rhs = gamma_factor(h, s + k)
                    assert abs(lhs - rhs) <= mp.mpf(10) ** -12 * max(
                        1, abs(rhs)
                    )

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            HodgeData.make(1, {(0, 1): 2, (1, 0): 1})

    def test_json_roundtrip(self):
        h = HodgeData.make(2, {(0, 2): 1, (2, 0): 1}, 1, 2)
        assert HodgeData.from_dict(json.loads(json.dumps(h.to_dict()))) == h


class TestWeilDeligne:
    def test_unramified_degree_two(self):
        wd = WeilDeligneRep.make(3, [[0, -3], [1, -1]])  # X^2 + X + 3
        assert wd_local_factor(wd) == (1, 1, 3)

    def test_steinberg(self):
        wd = WeilDeligneRep.make(5, [[1, 0], [0, 5]], [[0, 1], [0, 0]])
        assert wd_local_factor(wd) == (1, -1)

    def test_one_dimensional_zeta_factor(self):
        wd = WeilDeligneRep.make(7, [[1]])
        assert wd_local_factor(wd) == (1, -1)

    def test_compatibility_examples(self):
        assert check_compatibility(WeilDeligneRep.make(2, [[2, 0], [0, 3]]))
        st = WeilDeligneRep.make(5, [[1, 0], [0, 5]], [[0, 1], [0, 0]])
        assert check_compatibility(st)
        bad = WeilDeligneRep.make(2, [[1, 0], [0, 1]], [[0, 1], [0, 0]])
        assert not check_compatibility(bad)

    def test_nilpotency_enforced(self):
        with pytest.raises(NotNilpotent):
            WeilDeligneRep.make(2, [[1, 0], [0, 1]], [[1, 0], [0, 0]])

    def test_invertibility_enforced(self):
        with pytest.raises(ValueError):
            WeilDeligneRep.make(2, [[1, 0], [0, 0]])

    def test_unstable_subspace_rejected(self):
        swap = [[0, 1], [1, 0]]
        with pytest.raises(ValueError):
            _quotient_action(swap, [(1, 0)], [])
        assert _quotient_action(swap, [(1, 1)], []) == [[1]]

    def test_twist_shifts_local_factor(self):
        wd = WeilDeligneRep.make(3, [[0, -3], [1, -1]])
        for k in (-2, -1, 1, 2):
            twisted = tate_twist_wd(wd, k)
            base = wd_local_factor(wd)
            shifted = wd_local_factor(twisted)
            p = Fraction(3)
            expect = tuple(
                Fraction(c) * p ** (-k * j) for j, c in enumerate(base)
            )
            assert tuple(Fraction(c) for c in shifted) == expect

    def test_semisimplify_examples(self):
        diag = WeilDeligneRep.make(3, [[2, 0], [0, 5]])
        assert frobenius_semisimplify(diag).phi == diag.phi
        unipotent = WeilDeligneRep.make(3, [[1, 1], [0, 1]])
        ss = frobenius_semisimplify(unipotent)
        assert to_matrix(ss.phi) == identity(2)

    def test_semisimplify_preserves_charpoly_and_factor(self):
        from hasseweil.ratlinalg import charpoly

        rng = random.Random(6)
        for _ in range(10):
            # build a matrix with repeated eigenvalues sometimes
            a = rng.randint(1, 4)
            m = [[a, rng.randint(0, 3)], [0, rng.choice([a, a + 1])]]
            wd = WeilDeligneRep.make(5, m)
            ss = frobenius_semisimplify(wd)
            assert charpoly(wd.phi_matrix()) == charpoly(ss.phi_matrix())
            assert wd_local_factor(wd) == wd_local_factor(ss)

    def test_squarefree_part_of_planted_products(self):
        # each distinct root once, up to the scalar the Newton step ignores
        def product(roots):
            out = [Fraction(1)]
            for r in roots:
                out = [a - r * b for a, b in zip(out + [0], [0] + out)]
            return out

        rng = random.Random(11)
        cases = [[1, 1, -2, -2, -2, Fraction(1, 2)], [3], [0, 0, 0], [Fraction(-2, 3)] * 4]
        for _ in range(30):
            distinct = rng.sample([Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)], 3)
            cases.append([r for r in distinct for _ in range(rng.randint(1, 3))])
        for roots in cases:
            got = _squarefree_part(product(roots))
            assert [c / got[0] for c in got] == product(sorted(set(roots))), roots

    def test_semisimplify_jordan_blocks_up_to_five(self):
        # phi = P J P^-1, J Jordan blocks of nonzero eigenvalues, P a random
        # invertible matrix: S commutes with phi, phi - S is nilpotent, the
        # squarefree part of the charpoly kills S, and the charpoly is phi's
        from hasseweil.ratlinalg import charpoly, det, is_nilpotent, mat_inv, mat_mul

        rng = random.Random(5)
        for _ in range(30):
            d = rng.randint(3, 5)
            J = [[Fraction(0)] * d for _ in range(d)]
            i = 0
            while i < d:
                size = rng.randint(1, d - i)
                value = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
                for j in range(i, i + size):
                    J[j][j] = value
                    if j + 1 < i + size:
                        J[j][j + 1] = Fraction(1)
                i += size
            P = [[Fraction(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
            if det(P) == 0:
                continue
            phi = mat_mul(mat_mul(P, J), mat_inv(P))
            S = frobenius_semisimplify(WeilDeligneRep.make(7, phi)).phi_matrix()
            assert mat_mul(S, phi) == mat_mul(phi, S)
            assert is_nilpotent([[a - b for a, b in zip(r, q)] for r, q in zip(phi, S)])
            cp = charpoly(phi)
            assert _poly_eval_matrix(_squarefree_part(cp), S) == [[0] * d for _ in range(d)]
            assert charpoly(S) == cp

    def test_json_roundtrip(self):
        wd = WeilDeligneRep.make(5, [[1, 0], [0, 5]], [[0, 1], [0, 0]])
        again = WeilDeligneRep.from_dict(json.loads(json.dumps(wd.to_dict())))
        assert again == wd


class TestEllipticConsistency:
    def test_wd_reproduces_euler_factors_everywhere(self, reference_curves):
        for curve in reference_curves.values():
            bad = set(bad_primes(curve))
            for p in primes_up_to(30):
                local = tate_local(curve, p)
                lhs = wd_local_factor(wd_from_local_data(local))
                rhs = local_euler_factor(local).coeffs
                assert tuple(lhs) == tuple(rhs), (curve, p)

    def test_good_block_satisfies_weight_one(self, e37):
        for p in (2, 3, 5, 13):
            wd = wd_from_local_data(tate_local(e37, p))
            assert check_weight(wd, 1)

    def test_steinberg_purity(self):
        st = WeilDeligneRep.make(5, [[1, 0], [0, 5]], [[0, 1], [0, 0]])
        assert check_purity(st, 1)

    def test_weight_violation_detected(self):
        wd = WeilDeligneRep.make(5, [[1, 0], [0, 1]])
        assert not check_weight(wd, 1)

    def test_unramified_given_as_the_full_invariant_space(self):
        # explicit invariants spanning Q^2 are unramified, as the default None is
        wd = WeilDeligneRep.make(5, [[0, -5], [1, 2]], None, inertia_invariants=[[1, 0], [0, 1]])
        assert check_weight(wd, 1)

    def test_totally_ramified_refused(self):
        # no invariants at all, as `wd_from_local_data` builds for additive reduction
        wd = WeilDeligneRep.make(5, [[0, -5], [1, 2]], None, inertia_invariants=[])
        with pytest.raises(ValueError, match="unramified"):
            check_weight(wd, 1)


class TestWeightExact:
    def test_repeated_eigenvalues(self):
        # H^1(E x E) at p = 5: two companions of x^2 - 2x + 5, a repeated pair
        # that mpmath's polyroots did not converge on
        c = [[0, -5], [1, 2]]
        wd = WeilDeligneRep.make(5, [c[0] + [0, 0], c[1] + [0, 0], [0, 0] + c[0], [0, 0] + c[1]])
        assert check_weight(wd, 1) and check_purity(wd, 1)

    @pytest.mark.parametrize("p", [2, 5, 101])
    def test_near_miss(self, p):
        # |alpha|^2 = p + 10^-12 != p, though |alpha| is within 1e-9 of sqrt(p)
        wd = WeilDeligneRep.make(p, [[0, -(p + NEAR)], [1, 1]])
        assert not check_weight(wd, 1) and not check_purity(wd, 1)
        assert check_weight(WeilDeligneRep.make(p, [[0, -p], [1, 1]]), 1)

    @pytest.mark.parametrize("size", [3, 5])
    def test_jordan_block(self, size):
        # one Jordan block of (x - 1/3)^size at p = 3: |1/3|^2 = 3^-2, on the boundary
        # beta^2 = 4q; at 40 digits polyroots did not converge on the quintuple root
        third = Fraction(1, 3)
        wd = WeilDeligneRep.make(3, [[third if j == i else int(j == i + 1) for j in range(size)]
                                     for i in range(size)])
        assert check_weight(wd, -2) and check_purity(wd, -2)
        assert not check_weight(wd, -1) and not check_weight(wd, -3)

    def test_seeded_draws_known_by_construction(self):
        rng = random.Random(26)
        outcomes = set()
        for _ in range(320):
            p, w, phi, pure = weight_draw(rng)
            wd = WeilDeligneRep.make(p, phi)
            assert check_weight(wd, w) == pure == check_purity(wd, w), (p, w, phi)
            outcomes.add(pure)
        assert outcomes == {True, False}

    def test_purity_on_graded_pieces(self):
        # Steinberg (x) a weight-1 block C: gr_-1 carries C (|alpha|^2 = 5) and gr_1
        # carries 5C (5^3), so the rep is pure of weight 2 and of no other
        c = [[Fraction(0), Fraction(-5)], [Fraction(1), Fraction(2)]]
        phi = [c[0] + [0, 0], c[1] + [0, 0], [0, 0] + [5 * x for x in c[0]],
               [0, 0] + [5 * x for x in c[1]]]
        N = [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
        wd = WeilDeligneRep.make(5, phi, N)
        assert check_compatibility(wd)
        assert check_purity(wd, 2) and not check_purity(wd, 1) and not check_purity(wd, 3)


class TestMonodromyFiltration:
    def test_zero_operator(self):
        filt = monodromy_filtration([[0, 0], [0, 0]])
        assert filt.dim_at(-1) == 0
        assert filt.dim_at(0) == 2

    def test_single_jordan_block(self):
        filt = monodromy_filtration([[0, 1], [0, 0]])
        assert filt.dim_at(-2) == 0
        assert filt.dim_at(-1) == 1
        assert filt.dim_at(0) == 1
        assert filt.dim_at(1) == 2

    def test_jordan_2_1(self):
        filt = monodromy_filtration([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        assert [filt.graded_dimension(k) for k in (-1, 0, 1)] == [1, 1, 1]

    def test_non_nilpotent_rejected(self):
        with pytest.raises(NotNilpotent):
            monodromy_filtration([[1, 0], [0, 0]])

    def test_random_nilpotents_properties_and_uniqueness(self):
        rng = random.Random(12)
        for _ in range(40):
            dim = rng.randint(1, 6)
            n = random_nilpotent(rng, dim)
            filt = monodromy_filtration(n)
            assert check_filtration_properties(n, filt)
            other = monodromy_filtration_jordan(n)
            assert filt.steps == other.steps
