from fractions import Fraction
from pathlib import Path

import pytest

from disemi.linalg import combination, commutator, matmul
from disemi.liealg import (LieAlgebra, Subspace, abelian_algebra, chevalley,
                           check_jacobi, derived_series, direct_sum, dumps,
                           exp_ad, free_two_step, full_subspace, is_abelian,
                           is_nilpotent, is_perfect, is_semisimple,
                           is_solvable, killing_form, loads,
                           lower_central_series, quotient_by_ideal,
                           semidirect, solvable_radical, subalgebra,
                           sum_spans, zero_algebra, zero_subspace,
                           _chevalley_with_matrices)
from disemi.rootdata import SimpleType, cartan_matrix
from disemi.repbuilder import (Representation, decompose, natural,
                               realize_label, spec_of)

A1 = SimpleType("A", 1)
A2 = SimpleType("A", 2)


def heisenberg():
    return LieAlgebra(3, {(0, 1): {2: 1}}, labels=["p", "q", "c"])


def sl2_natural_semidirect():
    return semidirect(chevalley(A1), natural(A1))


def two_dim_solvable():
    # [x, y] = y
    return LieAlgebra(2, {(0, 1): {1: 1}})


class TestChevalley:
    @pytest.mark.parametrize("spec,dim", [
        (("A", 2), 8), (("C", 2), 10), (("D", 5), 45), (("B", 3), 21),
    ])
    def test_dims(self, spec, dim):
        assert chevalley(SimpleType(*spec)).dim == dim

    @pytest.mark.parametrize("spec", [("A", 2), ("B", 2), ("C", 3), ("D", 4)])
    def test_jacobi_and_semisimple(self, spec):
        g = chevalley(SimpleType(*spec))
        assert check_jacobi(g)
        assert is_semisimple(g)
        assert is_perfect(g)

    @pytest.mark.parametrize("spec", [("A", 3), ("B", 3), ("C", 2), ("D", 4)])
    def test_chevalley_relations(self, spec):
        t = SimpleType(*spec)
        alg, mats = _chevalley_with_matrices(t)
        a = cartan_matrix(t)
        fac = alg.factors[0]
        for i in range(t.rank):
            for j in range(t.rank):
                h, e = mats[fac.h[i]], mats[fac.e[j]]
                assert commutator(h, e) == combination(((a[j][i], e),), len(e))

    def test_exceptional_rejected(self):
        with pytest.raises(ValueError):
            chevalley(("E", 8))


class TestSubspace:
    def test_equality_ignores_order_and_scaling(self):
        g = chevalley(A2)
        rows = [[1, 2, 0, 0, 0, 0, 0, 3], [0, 1, 0, 0, 5, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 1, 1]]
        u = Subspace(g, rows)
        mixed = [[Fraction(-1, 2) * x for x in rows[2]],
                 [3 * x + y for x, y in zip(rows[0], rows[1])],
                 [7 * x for x in rows[1]]]
        v = Subspace(g, mixed)
        assert u == v and hash(u) == hash(v)
        assert u.pivots == v.pivots
        assert u != Subspace(g, rows[:2])
        assert u != Subspace(g, rows[:2] + [g.basis_vector(3)])
        assert u != Subspace(chevalley(A1), [[1, 0, 0]])

    def test_dependent_rows_rejected(self):
        g = chevalley(A1)
        with pytest.raises(ValueError):
            Subspace(g, [[1, 2, 0], [2, 4, 0]])


class TestDirectSum:
    def test_two_sl2(self):
        g = direct_sum([chevalley(A1), chevalley(A1)])
        assert g.dim == 6
        assert check_jacobi(g)
        # each factor sits inside as an ideal
        first = Subspace(g, [g.basis_vector(i) for i in range(3)])
        for i in range(6):
            for r in first.basis:
                assert first.contains(g.bracket(g.basis_vector(i), r))

    def test_empty(self):
        assert direct_sum([]).dim == 0
        assert zero_algebra().dim == 0

    def test_a1_plus_a2_perfect(self):
        g = direct_sum([chevalley(A1), chevalley(A2)])
        assert g.dim == 11
        assert is_perfect(g)


class TestPredicates:
    def test_perfect(self):
        assert is_perfect(chevalley(A1))
        assert is_perfect(sl2_natural_semidirect())
        assert not is_perfect(two_dim_solvable())

    def test_solvable_radical_semisimple(self):
        assert solvable_radical(chevalley(A2)).dim == 0

    def test_solvable_radical_semidirect(self):
        g = sl2_natural_semidirect()
        rad = solvable_radical(g)
        assert rad.dim == 2
        expected = Subspace(g, [g.basis_vector(3), g.basis_vector(4)])
        assert rad == expected
        # solvable ideal with semisimple quotient
        assert is_solvable(g, rad)
        q, _ = quotient_by_ideal(g, rad)
        assert is_semisimple(q)

    def test_solvable_radical_abelian(self):
        g = abelian_algebra(4)
        assert solvable_radical(g).dim == 4

    def test_nilpotency(self):
        n3 = heisenberg()
        assert is_nilpotent(n3)
        assert len(lower_central_series(n3)) == 3  # n3 > [n3,n3] > 0
        assert not is_nilpotent(two_dim_solvable())
        assert is_solvable(two_dim_solvable())
        assert is_nilpotent(zero_algebra())

    def test_not_closed_raises(self):
        g = chevalley(A1)
        sub = Subspace(g, [g.basis_vector(1)])  # span(e) is closed
        assert is_nilpotent(g, sub)
        bad = Subspace(g, [g.basis_vector(1), g.basis_vector(2)])  # e, f
        with pytest.raises(ValueError):
            is_nilpotent(g, bad)

    def test_perfect_matches_radical_bracket(self):
        # perfect iff rad(g) = [s, rad(g)] for these semidirect products
        g = sl2_natural_semidirect()
        rad = solvable_radical(g)
        levi = g.levi_basis
        span = [g.bracket(u, r) for u in levi.basis for r in rad.basis]
        from disemi.linalg import rank
        assert is_perfect(g) == (rank(span) == rad.dim)


class TestKillingForm:
    def test_sl2(self):
        k = killing_form(chevalley(A1))
        from disemi.linalg import rank
        assert rank(k) == 3
        assert is_semisimple(chevalley(A1))

    def test_abelian_zero(self):
        assert killing_form(abelian_algebra(3)) == [[0] * 3 for _ in range(3)]

    def test_semidirect_degenerate(self):
        g = sl2_natural_semidirect()
        from disemi.linalg import rank
        assert rank(killing_form(g)) == 3
        assert not is_semisimple(g)

    @pytest.mark.parametrize("spec", [("A", 2), ("A", 5), ("B", 3), ("C", 4),
                                      ("D", 5)])
    def test_chevalley_semisimple(self, spec):
        assert is_semisimple(chevalley(SimpleType(*spec)))


class TestSemidirect:
    def test_sl2_v2(self):
        g = sl2_natural_semidirect()
        assert g.dim == 5
        assert check_jacobi(g)
        assert is_perfect(g)
        assert not is_semisimple(g)

    def test_sl2_n3(self):
        n3 = heisenberg()
        sl2 = chevalley(A1)
        mats = [[dict(row) for row in m] + [{}] for m in natural(A1).action]
        rho = Representation(spec_of(A1), sl2, mats, False)
        g = semidirect(sl2, rho, n3)
        assert g.dim == 6
        assert check_jacobi(g)
        rad = solvable_radical(g)
        assert rad.dim == 3
        assert is_nilpotent(g, rad)

    def test_zero_module(self):
        from disemi.repbuilder import trivial
        s = chevalley(A1)
        g = semidirect(s, trivial(spec_of(A1), 0))
        assert g.dim == 3
        assert g.table == s.table

    def test_not_homomorphism_rejected(self):
        bad_mats = [[{}, {}] for _ in range(3)]
        bad_mats[0][0][1] = 1  # h acts by a nilpotent: not a rep of sl2
        rho = Representation(spec_of(A1), chevalley(A1), bad_mats, False)
        with pytest.raises(ValueError):
            semidirect(chevalley(A1), rho)

    def test_not_derivation_rejected(self):
        # natural action on the coordinates of n3 ignoring the bracket
        n3 = heisenberg()
        mats = [[dict(row) for row in m] + [{}] for m in natural(A1).action]
        # corrupt: make h act on the center too
        mats[0][2][2] = 7
        rho = Representation(spec_of(A1), chevalley(A1), mats, False)
        with pytest.raises(ValueError):
            semidirect(chevalley(A1), rho, n3)


class TestFreeTwoStep:
    def test_dim2_is_heisenberg(self):
        f, tau = free_two_step(natural(A1))
        assert f.dim == 3
        assert is_nilpotent(f)
        assert len(lower_central_series(f)) == 3
        assert f.structure(0, 1) == {2: 1}

    def test_dim3(self):
        f, tau = free_two_step(natural(A2))
        assert f.dim == 6
        assert check_jacobi(f)
        # derived part is central
        ls = lower_central_series(f)
        assert [s.dim for s in ls] == [6, 3, 0]

    def test_module_structure_on_derived(self):
        # the derived part carries the exterior square of the generators
        f, tau = free_two_step(natural(A2))
        assert str(decompose(tau)) == "L(0,1) + L(1,0)"
        # restricting to the derived coordinates gives exactly L(w2)
        from disemi.repbuilder import Representation
        derived = Representation(
            tau.spec, tau.algebra,
            [[{b - 3: x for b, x in m[3 + a].items() if b >= 3}
              for a in range(3)]
             for m in tau.action],
            True)
        assert str(decompose(derived)) == "L(0,1)"


class TestQuotient:
    def test_by_zero(self):
        g = chevalley(A1)
        q, proj = quotient_by_ideal(g, zero_subspace(g))
        assert q.dim == 3 and q.table == g.table
        assert proj.matrix == [{0: 1}, {1: 1}, {2: 1}]

    def test_heisenberg_center(self):
        n3 = heisenberg()
        center = Subspace(n3, [n3.basis_vector(2)])
        q, proj = quotient_by_ideal(n3, center)
        assert q.dim == 2 and is_abelian(q)

    def test_projection_is_homomorphism(self):
        g = sl2_natural_semidirect()
        rad = solvable_radical(g)
        q, proj = quotient_by_ideal(g, rad)
        for i in range(g.dim):
            for j in range(g.dim):
                lhs = proj(g.bracket(g.basis_vector(i), g.basis_vector(j)))
                rhs = q.bracket(proj(g.basis_vector(i)), proj(g.basis_vector(j)))
                assert lhs == rhs

    def test_non_ideal_rejected(self):
        g = chevalley(A1)
        with pytest.raises(ValueError):
            quotient_by_ideal(g, Subspace(g, [g.basis_vector(1)]))


class TestExpAd:
    def test_zero(self):
        g = chevalley(A1)
        phi = exp_ad(g, [0, 0, 0])
        assert phi.matrix == [{0: 1}, {1: 1}, {2: 1}]

    def test_witness_automorphism(self):
        g = sl2_natural_semidirect()
        z = g.basis_vector(3)              # first basis vector of the module
        a = g.ad(z)
        a2 = matmul(a, a)
        # ad(z) maps the Levi part into the abelian radical and kills the
        # radical, so its square already vanishes
        assert any(a)
        assert not any(a2)
        phi = exp_ad(g, z)
        assert phi.matrix != [{i: 1} for i in range(5)]
        # fixes the module part pointwise
        for i in (3, 4):
            assert phi(g.basis_vector(i)) == g.basis_vector(i)
        # preserves brackets exactly
        for i in range(5):
            for j in range(5):
                lhs = phi(g.bracket(g.basis_vector(i), g.basis_vector(j)))
                rhs = g.bracket(phi(g.basis_vector(i)), phi(g.basis_vector(j)))
                assert lhs == rhs

    def test_inverse(self):
        g = sl2_natural_semidirect()
        z = [0, 0, 0, 2, -3]
        phi = exp_ad(g, z)
        psi = exp_ad(g, [-x for x in z])
        assert matmul(phi.matrix, psi.matrix) == [{i: 1} for i in range(5)]

    def test_non_nilpotent_rejected(self):
        g = chevalley(A1)
        with pytest.raises(ValueError):
            exp_ad(g, [1, 0, 0])  # ad(h) is semisimple, not nilpotent


class TestSumSpans:
    def test_whole(self):
        g = chevalley(A1)
        full = full_subspace(g)
        assert sum_spans(g, full, full) == (True, 3)

    def test_witness_sum(self):
        g = sl2_natural_semidirect()
        levi = g.levi_basis
        phi = exp_ad(g, [0, 0, 0, -1, 0])
        from disemi.liealg import apply_map_subspace
        s2 = apply_map_subspace(g, phi, levi)
        spans, inter = sum_spans(g, levi, s2)
        assert spans and inter == 1

    def test_proper(self):
        g = chevalley(A1)
        sub = Subspace(g, [g.basis_vector(1)])
        assert sum_spans(g, sub, sub) == (False, 1)


class TestSubalgebra:
    def test_structure(self):
        g = sl2_natural_semidirect()
        s = subalgebra(g, g.levi_basis)
        assert s.dim == 3
        assert is_semisimple(s)

    def test_not_closed(self):
        g = chevalley(A1)
        with pytest.raises(ValueError):
            subalgebra(g, Subspace(g, [g.basis_vector(1), g.basis_vector(2)]))


class TestSerialization:
    def test_round_trip_bit_exact(self):
        g = LieAlgebra(3, {(0, 1): {2: Fraction(3, 7)}, (0, 2): {1: -2}},
                       labels=["x", "y", "z"])
        text = dumps(g)
        g2 = loads(text)
        assert g2.dim == g.dim
        assert g2.table == g.table
        assert g2.labels == g.labels
        assert dumps(g2) == text

    def test_chevalley_round_trip(self):
        g = chevalley(A2)
        g2 = loads(dumps(g))
        assert g2.table == g.table

    def test_a3_type1_quotient_golden(self):
        # the quotient's coordinates come from the ideal's pivot columns,
        # which depend on the ideal only; this output predates the sparse
        # echelon and must not drift
        from disemi.classify import construct_type1
        g = construct_type1(SimpleType("A", 3), ((0, 0, 1),), ((0, 1, 0),))
        path = Path(__file__).parent / "golden" / "a3_type1_quotient.json"
        assert dumps(g) + "\n" == path.read_text()


class TestDerivedSeries:
    def test_solvable_chain(self):
        g = two_dim_solvable()
        ds = derived_series(g)
        assert [s.dim for s in ds] == [2, 1, 0]
