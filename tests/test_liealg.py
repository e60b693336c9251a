import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from disemi.linalg import (apply, clear, clear_denominators, columns,
                           combination, commutator, dense, divide, matmul,
                           normal, nullspace, sparse)
from disemi.liealg import (LieAlgebra, Subspace, abelian_algebra, chevalley,
                           check_jacobi, derived_series, derived_span,
                           direct_sum, dumps, exp_ad, free_two_step,
                           from_json_dict, full_subspace, is_abelian,
                           is_ideal, is_nilpotent, is_perfect, is_semisimple,
                           is_solvable, killing_form, loads,
                           lower_central_series, quotient_by_ideal,
                           semidirect, solvable_radical, subalgebra,
                           sum_spans, to_json_dict, zero_algebra,
                           zero_subspace,
                           _chevalley_with_matrices)
from disemi.modexpr import parse_algebra, parse_module, to_representation
from disemi.rootdata import SimpleType, cartan_matrix
from disemi.repbuilder import (Representation, SemisimpleSpec, decompose,
                               natural, spec_of)

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
        _, mats, _ = _chevalley_with_matrices(t)
        a = cartan_matrix(t)
        hs, es, _ = SemisimpleSpec((t,)).generator_indices()
        for i in range(t.rank):
            for j in range(t.rank):
                h, e = mats[hs[i]], mats[es[j]]
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


def fraction_bracket(g, x, y):
    """[x, y] summed in Fraction arithmetic from the structure constants,
    zeros dropped: the reference for LieAlgebra.sparse_bracket."""
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            for k, c in g.structure(i, j).items():
                out[k] = out.get(k, Fraction(0)) + Fraction(xi) * yj * c
    return {k: x for k, x in out.items() if x}


# sl2 in a rescaled basis, so that its table has Fraction constants
RESCALED_SL2 = LieAlgebra(3, {(0, 1): {1: Fraction(2, 3)},
                              (0, 2): {2: Fraction(-2, 3)},
                              (1, 2): {0: Fraction(9, 4)}})
rationals = (st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=9)
             | st.sampled_from([Fraction(1, 2 ** 61 - 1), Fraction(5, 2 ** 70)]))


class TestIntegerBracket:
    @given(st.sampled_from([("C", 2), "rescaled"]).flatmap(
        lambda which: st.tuples(st.just(which), *[st.dictionaries(
            st.integers(0, 9 if which != "rescaled" else 2), rationals,
            max_size=4)] * 2)))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_bracket(self, case):
        # summed over the exact table: the same values as Fraction
        # arithmetic, an int wherever one is integral
        which, x, y = case
        g = RESCALED_SL2 if which == "rescaled" else chevalley(SimpleType(*which))
        got = {k: v for k, v in g.sparse_bracket(x, y).items() if v}
        expect = fraction_bracket(g, x, y)
        assert got == expect
        for k, v in got.items():
            assert type(v) is (int if expect[k].denominator == 1 else Fraction)


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
        assert killing_form(abelian_algebra(3)) == [{}, {}, {}]

    def test_semidirect_degenerate(self):
        g = sl2_natural_semidirect()
        from disemi.linalg import rank
        assert rank(killing_form(g)) == 3
        assert not is_semisimple(g)

    @pytest.mark.parametrize("spec", [("A", 2), ("A", 5), ("B", 3), ("C", 4),
                                      ("D", 5)])
    def test_chevalley_semisimple(self, spec):
        assert is_semisimple(chevalley(SimpleType(*spec)))


def naive_killing_form(g):
    """trace(ad b_i . ad b_j) from the ad matrices of the basis, each
    entry an int where it is integral: the reference for killing_form."""
    ads = [g.ad(g.basis_vector(i)) for i in range(g.dim)]
    k = [{} for _ in range(g.dim)]
    for i, mi in enumerate(ads):
        for j in range(i, g.dim):
            s = sum(c * ads[j][b].get(a, 0)
                    for a, row in enumerate(mi) for b, c in row.items())
            if s:
                k[i][j] = k[j][i] = s
    return [normal(row) for row in k]


def naive_radical_basis(g):
    """The Killing-orthogonal complement of [g, g] spanned by the
    brackets of all basis pairs: the reference for solvable_radical."""
    basis = [g.basis_vector(i) for i in range(g.dim)]
    k = naive_killing_form(g)
    eqs = [apply(k, d) for d in derived_span(g, basis, basis)]
    return [dense(v, g.dim) for v in nullspace(eqs, g.dim)]


def rescaled(g, scales):
    """g in the basis scales[i] b_i, through its JSON form: the
    constants become c * s_i s_j / s_k."""
    data = to_json_dict(g)
    for entry in data["entries"]:
        i, j, row = entry
        entry[2] = [[k, str(Fraction(c) * scales[i] * scales[j] / scales[k])]
                    for k, c in row]
    return from_json_dict(data)


def has_fraction_constant(g):
    return any(type(c) is Fraction for row in g.table.values()
               for c in row.values())


def table_read_algebras():
    from disemi.classify import construct_type1, construct_type2
    out = [chevalley(SimpleType(*t)) for t in
           [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3),
            ("D", 4), ("D", 5)]]
    a3 = SimpleType("A", 3)
    out += [sl2_natural_semidirect(),
            semidirect(chevalley(A2), natural(A2)),
            construct_type1(a3, ((0, 0, 1),), ((0, 1, 0),)),
            construct_type2(a3, ((0, 0, 1),), ((0, 1, 0),), ((1, 0, 0),))]
    out += [rescaled(sl2_natural_semidirect(),
                     [Fraction(1, 3), 2, Fraction(-1, 2), Fraction(3, 4), 5]),
            abelian_algebra(3), zero_algebra(), heisenberg(), two_dim_solvable()]
    return out


class TestTableReads:
    """killing_form and solvable_radical read the structure table; they
    must agree with the ad-matrix and all-brackets references exactly,
    entry types included."""

    @pytest.fixture(scope="class")
    def algebras(self):
        return table_read_algebras()

    def test_killing_form_matches_the_traces(self, algebras):
        for g in algebras:
            k, ref = killing_form(g), naive_killing_form(g)
            assert k == ref, g
            assert ([{j: type(x) for j, x in row.items()} for row in k]
                    == [{j: type(x) for j, x in row.items()} for row in ref])

    def test_non_integral_constants_give_fractions(self, algebras):
        g = next(g for g in algebras if has_fraction_constant(g))
        assert any(type(x) is Fraction for row in killing_form(g)
                   for x in row.values())

    def test_radical_basis_is_the_same_row_for_row(self, algebras):
        for g in algebras:
            assert solvable_radical(g).basis == naive_radical_basis(g), g

    def test_perfect_matches_all_brackets(self, algebras):
        for g in algebras:
            basis = [g.basis_vector(i) for i in range(g.dim)]
            assert is_perfect(g) == (len(derived_span(g, basis, basis))
                                     == g.dim), g


def triple_loop_jacobi(g):
    """Jacobi over all basis triples, the cyclic sum bracket by bracket:
    the reference for check_jacobi."""
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                s = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for q, x in g.sparse_bracket(g.structure(a, b),
                                                 {c: 1}).items():
                        s[q] = s.get(q, 0) + x
                if any(s.values()):
                    return False
    return True


def one_entry_perturbations(g):
    """g with one structure constant c_ij^k moved by 1, for every
    i < j and k."""
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(g.dim):
                table = {key: dict(row) for key, row in g.table.items()}
                row = table.setdefault((i, j), {})
                row[k] = row.get(k, 0) + 1
                yield LieAlgebra(g.dim, table)


class TestJacobiMatchesTripleLoop:
    def test_lie_algebras(self, type12_algebras):
        for g in table_read_algebras() + type12_algebras[:6]:
            assert check_jacobi(g) and triple_loop_jacobi(g), g

    def test_one_entry_perturbations(self):
        verdicts = []
        for g in (sl2_natural_semidirect(), heisenberg(), two_dim_solvable(),
                  rescaled(sl2_natural_semidirect(),
                           [Fraction(1, 3), 2, Fraction(-1, 2),
                            Fraction(3, 4), 5])):
            for h in one_entry_perturbations(g):
                verdicts.append(check_jacobi(h))
                assert verdicts[-1] == triple_loop_jacobi(h), h.table
        assert True in verdicts and False in verdicts


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
        rho = Representation(spec_of(A1), sl2, mats)
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
        rho = Representation(spec_of(A1), chevalley(A1), bad_mats)
        with pytest.raises(ValueError):
            semidirect(chevalley(A1), rho)

    def test_not_derivation_rejected(self):
        # natural action on the coordinates of n3 ignoring the bracket
        n3 = heisenberg()
        mats = [[dict(row) for row in m] + [{}] for m in natural(A1).action]
        # corrupt: make h act on the center too
        mats[0][2][2] = 7
        rho = Representation(spec_of(A1), chevalley(A1), mats)
        with pytest.raises(ValueError):
            semidirect(chevalley(A1), rho, n3)

    def test_homomorphism_not_by_derivations_rejected(self):
        # natural + trivial is a homomorphism of sl4 onto the space of the
        # free 2-step algebra, but it does not act on the bracket part
        # by derivations; the check on e_i, f_i alone refuses it
        from disemi.repbuilder import direct_sum as rep_sum, trivial
        nat = natural(SimpleType("A", 3))
        f, _ = free_two_step(nat)
        rho = rep_sum([nat, trivial(nat.spec, 6)])
        assert rho.check_homomorphism()
        with pytest.raises(ValueError, match="derivation"):
            semidirect(nat.algebra, rho, f)

    def test_derivation_check_on_generators(self, monkeypatch):
        import disemi.liealg as liealg
        from disemi.linalg import columns
        nat = natural(SimpleType("A", 3))
        f, tau = free_two_step(nat)
        cols = [[dict(c) for c in columns(m, f.dim)] for m in tau.action]
        # the all-basis reference: every rho(b_i) is a derivation
        assert all(liealg._is_derivation(f, c) for c in cols)
        seen = []
        is_derivation = liealg._is_derivation
        monkeypatch.setattr(liealg, "_is_derivation",
                            lambda n, c: seen.append(cols.index(c))
                            or is_derivation(n, c))
        semidirect(nat.algebra, tau, f)
        assert sorted(seen) == sorted(tau.generating_indices()) \
            == list(range(3, 9))


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
             for m in tau.action])
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
        # g records its Levi; a quotient records none
        assert g.levi_basis is not None and g.levi_spec is not None
        assert q.levi_basis is None and q.levi_spec is None
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

    @pytest.mark.parametrize("entries", [
        [[0, 1, [[2, "1"]]], [0, 1, [[2, "5"]]]],
        [[0, 1, [[2, "1"], [2, "5"]]]],
    ], ids=["repeated-pair", "repeated-k"])
    def test_repeated_entries_rejected(self, entries):
        # a dict built from them would keep the last one silently
        with pytest.raises(ValueError, match="once"):
            from_json_dict({"dim": 3, "entries": entries})

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


class TestTableValidation:
    """Every table key (i, j) has 0 <= i < j < dim, and every bracket
    names basis vectors below dim."""

    @pytest.mark.parametrize("table", [
        {(1, 1): {0: 1}},       # [b_1, b_1] is 0, not -b_0
        {(1, 0): {0: 1}},       # the table keeps i < j only
        {(1, 0): {}},
        {(-1, 1): {0: 1}},
        {(0, 2): {0: 1}},       # b_2 in a 2-dimensional algebra
        {(0, 1): {2: 1}},
        {(0, 1): {0: 1, -1: 0}},
    ], ids=["i-equals-j", "i-above-j", "i-above-j-empty", "negative-i",
            "j-is-dim", "k-is-dim", "negative-k"])
    def test_rejected(self, table):
        with pytest.raises(ValueError, match="0 <= i < j < 2"):
            LieAlgebra(2, table)

    @pytest.mark.parametrize("entry", [[1, 0, [[0, "1"]]], [1, 1, [[0, "1"]]],
                                       [0, 2, [[0, "1"]]], [0, 1, [[2, "1"]]]])
    def test_json_rejected(self, entry):
        with pytest.raises(ValueError):
            from_json_dict({"dim": 2, "entries": [entry]})


class TestZeroRowsDropped:
    """A table row whose entries are all zero is no bracket: its key is
    not kept, so the algebra is abelian and serialises with no entry."""

    @pytest.mark.parametrize("build", [
        lambda: LieAlgebra(2, {(0, 1): {1: 0}}),
        lambda: LieAlgebra(2, {(0, 1): {0: Fraction(0), 1: 0}}),
        lambda: loads('{"dim":2,"entries":[[0,1,[[1,"0"]]]]}'),
        lambda: from_json_dict({"dim": 2, "entries": [[0, 1, [[1, 0]]]]}),
    ], ids=["int-zero", "fraction-zero", "loads", "from-json-dict"])
    def test_abelian_with_no_entries(self, build):
        g = build()
        assert g.table == {} and g.brackets == [{}, {}]
        assert is_abelian(g) and check_jacobi(g)
        assert dumps(g) == '{"dim":2,"entries":[]}'
        h = loads(dumps(g))
        assert h.table == {} and h.brackets == [{}, {}] and is_abelian(h)

    def test_other_rows_kept(self):
        g = LieAlgebra(3, {(0, 1): {2: 0}, (0, 2): {1: 0, 2: 1}})
        assert g.table == {(0, 2): {2: 1}}
        assert g.brackets == [{2: {2: 1}}, {}, {0: {2: -1}}]
        assert dumps(g) == '{"dim":3,"entries":[[0,2,[[2,"1"]]]]}'


class TestDerivedSeries:
    def test_solvable_chain(self):
        g = two_dim_solvable()
        ds = derived_series(g)
        assert [s.dim for s in ds] == [2, 1, 0]


def all_pairs_derived_span(g, rows1, rows2):
    """Row basis of span{[x, y]} over every ordered pair: the reference
    for derived_span, which brackets only a < b when rows1 is rows2."""
    from disemi.linalg import IncrementalSpan, sparse
    out = []
    span = IncrementalSpan()
    for x in map(sparse, rows1):
        for y in map(sparse, rows2):
            v = g.sparse_bracket(x, y)
            if span.add(v):
                out.append(dense(v, g.dim))
    return out


def all_pairs_series(g, sub, lower):
    """The lower central or derived series rows over all ordered pairs."""
    top = sub.basis if sub is not None else [g.basis_vector(i)
                                             for i in range(g.dim)]
    series, cur = [top], top
    while cur:
        nxt = all_pairs_derived_span(g, top if lower else cur, cur)
        if len(nxt) == len(cur):
            break
        series.append(nxt)
        cur = nxt
    return series


def all_brackets_is_ideal(g, u):
    """[b_i, r] in u for every basis vector b_i and basis row r, each
    bracket summed from the table: the reference for is_ideal."""
    from disemi.linalg import sparse
    return all(u.contains(g.sparse_bracket({i: 1}, sparse(r)))
               for r in u.basis for i in range(g.dim))


@pytest.fixture(scope="module")
def type12_algebras():
    """The 12 A3/A4 type-1/2 constructions."""
    from disemi.classify import (construct_type1, construct_type2,
                                 type12_candidates)
    out = []
    for t in (SimpleType("A", 3), SimpleType("A", 4)):
        for c in type12_candidates(t):
            build = construct_type1 if c.kind == "type1" else construct_type2
            out.append(build(t, *c.labels))
    assert len(out) == 12
    return out


def _radical(g):
    return Subspace(g, [g.basis_vector(i)
                        for i in range(g.levi_basis.dim, g.dim)])


class TestSeriesMatchAllPairs:
    def test_type12_series(self, type12_algebras):
        for g in type12_algebras:
            for sub in (None, _radical(g), g.levi_basis):
                for lower, series in ((True, lower_central_series(g, sub)),
                                      (False, derived_series(g, sub))):
                    ref = all_pairs_series(g, sub, lower)
                    assert [s.dim for s in series] == [len(r) for r in ref]
                    assert [s.basis for s in series] == ref

    def test_small_algebras(self):
        for g in table_read_algebras():
            basis = [g.basis_vector(i) for i in range(g.dim)]
            assert (derived_span(g, basis, basis)
                    == all_pairs_derived_span(g, basis, basis)), g
            for lower, series in ((True, lower_central_series(g)),
                                  (False, derived_series(g))):
                assert ([s.basis for s in series]
                        == all_pairs_series(g, None, lower)), g


class TestIdealMatchesAllBrackets:
    def test_type12_subspaces(self, type12_algebras):
        verdicts = []
        for g in type12_algebras:
            rad = _radical(g)
            subs = [rad, g.levi_basis, full_subspace(g), zero_subspace(g),
                    solvable_radical(g)]
            subs += lower_central_series(g, rad)[1:]
            # the first radical coordinate alone
            subs.append(Subspace(g, [g.basis_vector(g.levi_basis.dim)]))
            for u in subs:
                verdicts.append(is_ideal(g, u))
                assert verdicts[-1] == all_brackets_is_ideal(g, u), (g, u)
        assert True in verdicts and False in verdicts

    def test_levi_rows_of_a_semidirect_product(self):
        for t in (A2, SimpleType("C", 3)):
            g = semidirect(chevalley(t), natural(t))
            assert not is_ideal(g, g.levi_basis)
            assert not all_brackets_is_ideal(g, g.levi_basis)
            rad = Subspace(g, [g.basis_vector(i)
                               for i in range(g.levi_basis.dim, g.dim)])
            assert is_ideal(g, rad) and all_brackets_is_ideal(g, rad)

    def test_free_two_step(self):
        # v1, v2, v3 generate; v4, v5, v6 = [v1, v2], [v1, v3], [v2, v3]
        f, _ = free_two_step(natural(A2))
        for coords, want in (((0,), False), ((0, 3), False),
                             ((0, 3, 4), True), ((3, 4, 5), True)):
            u = Subspace(f, [f.basis_vector(i) for i in coords])
            assert is_ideal(f, u) == all_brackets_is_ideal(f, u) == want

    def test_non_integral_table(self):
        g = rescaled(sl2_natural_semidirect(),
                     [Fraction(1, 3), 2, Fraction(-1, 2), Fraction(3, 4), 5])
        assert has_fraction_constant(g)
        for rows in ([[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
                     [[0, 1, 0, 0, 0]], [[1, 0, 0, Fraction(1, 2), 0]]):
            u = Subspace(g, rows)
            assert is_ideal(g, u) == all_brackets_is_ideal(g, u)



# The read paths of the i < j table that LieAlgebra.brackets replaced,
# kept as references for it: the sign-flipping structure, the bracket
# over the cleared table, the two-sided ad, and the ideal and derivation
# checks over a per-index list of brackets built from the cleared table.

def cleared_table(g):
    """(den, the table cleared to ints) as the table held it."""
    den, rows = clear_denominators(list(g.table.values()))
    return den, dict(zip(g.table, rows))


def table_structure(g, i, j):
    if i == j:
        return {}
    if i < j:
        return g.table.get((i, j), {})
    return {k: -c for k, c in g.table.get((j, i), {}).items()}


def table_sparse_bracket(cleared, x, y):
    """[x, y] over cleared = cleared_table(g)."""
    d, table = cleared
    if type(sum(x.values()) + sum(y.values())) is not int:
        dx, x = clear(x)
        dy, y = clear(y)
        d *= dx * dy
    out = {}
    for i, xi in x.items():
        for j, yj in y.items():
            if i < j:
                row, coeff = table.get((i, j)), xi * yj
            elif i > j:
                row, coeff = table.get((j, i)), -xi * yj
            else:
                continue
            if row:
                for k, c in row.items():
                    out[k] = out.get(k, 0) + coeff * c
    return out if d == 1 else {k: divide(c, d) for k, c in out.items()}


def table_ad(g, x):
    m = [{} for _ in range(g.dim)]
    for (i, j), row in g.table.items():
        xi, xj = x[i], x[j]
        for k, c in row.items():
            if xi:
                m[k][j] = m[k].get(j, 0) + xi * c
            if xj:
                m[k][i] = m[k].get(i, 0) - xj * c
    return [normal(row) for row in m]


def table_index(g):
    """Per basis index q, the pairs (b, den [b_q, b_b]) that are nonzero."""
    index = [[] for _ in range(g.dim)]
    for (a, b), row in cleared_table(g)[1].items():
        index[a].append((b, row))
        index[b].append((a, {k: -c for k, c in row.items()}))
    return index


def table_is_ideal(index, sub):
    """is_ideal over index = table_index(g)."""
    for r in map(sparse, sub.basis):
        brackets = {}
        for j, x in r.items():
            for i, row in index[j]:
                out = brackets.setdefault(i, {})
                for k, c in row.items():
                    out[k] = out.get(k, 0) + x * c
        if not all(map(sub.contains, brackets.values())):
            return False
    return True


def table_is_derivation(index, cols):
    """_is_derivation over index = table_index(n)."""
    defect = {}
    for a in range(len(index)):
        for b, row in index[a]:
            for k, c in row.items():
                for q, x in cols[k].items():
                    defect[a, b, q] = defect.get((a, b, q), 0) + c * x
        for q, x in cols[a].items():
            for b, row in index[q]:
                for k, c in row.items():
                    defect[a, b, k] = defect.get((a, b, k), 0) - x * c
                    defect[b, a, k] = defect.get((b, a, k), 0) + x * c
    return not any(defect.values())


def is_normal(x):
    """True iff x is an int exactly when it is integral."""
    return type(x) is (int if x.denominator == 1 else Fraction)


def typed(v):
    """A sparse vector with the type of every entry, so that == also
    compares types."""
    return {k: (type(x), x) for k, x in v.items()}


@pytest.fixture(scope="module")
def index_algebras(type12_algebras):
    """Chevalley A1-A6, B2-B4, C2-C4, D4, D5; the 12 A3/A4 type-1/2
    constructions and their --sc JSON round trips; free 2-step algebras;
    sl2 with non-integral constants."""
    out = [chevalley(SimpleType(f, r)) for f, r in
           [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
            ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
            ("D", 4), ("D", 5)]]
    out += type12_algebras
    out += [loads(dumps(g)) for g in type12_algebras]
    out += [free_two_step(natural(SimpleType(*t)))[0]
            for t in (("A", 1), ("A", 2), ("A", 3), ("C", 2))]
    out += [RESCALED_SL2,
            rescaled(sl2_natural_semidirect(),
                     [Fraction(1, 3), 2, Fraction(-1, 2), Fraction(3, 4), 5])]
    return out


def random_vectors(g, rng, count):
    """count sparse vectors with a few int and Fraction entries."""
    return [{rng.randrange(g.dim): rng.choice([1, -2, 3, Fraction(1, 2),
                                               Fraction(-5, 3)])
             for _ in range(3)} for _ in range(count)]


class TestBracketIndex:
    """LieAlgebra.brackets against the table reads it replaced."""

    def test_both_orders_antisymmetric(self, index_algebras):
        for g in index_algebras:
            assert len(g.brackets) == g.dim
            for i in range(g.dim):
                assert i not in g.brackets[i]
                for j in range(g.dim):
                    row = g.brackets[i].get(j, {})
                    assert g.brackets[j].get(i, {}) == {
                        k: -c for k, c in row.items()}, (g, i, j)
                    assert all(c and is_normal(c) for c in row.values())

    def test_structure(self, index_algebras):
        for g in index_algebras:
            for i in range(g.dim):
                for j in range(g.dim):
                    assert (typed(g.structure(i, j))
                            == typed(table_structure(g, i, j))), (g, i, j)

    def test_sparse_bracket(self, index_algebras):
        rng = random.Random(21)
        for g in index_algebras:
            cleared = cleared_table(g)
            vectors = [{i: 1} for i in range(g.dim)]
            pairs = [(x, y) for x in vectors for y in vectors]
            xs = random_vectors(g, rng, 12)
            pairs += list(zip(xs, xs[::-1])) + [(x, {i: 1}) for x in xs
                                                for i in range(g.dim)]
            for x, y in pairs:
                assert (typed(g.sparse_bracket(x, y))
                        == typed(table_sparse_bracket(cleared, x, y))), (g, x, y)

    def test_ad(self, index_algebras):
        rng = random.Random(22)
        for g in index_algebras:
            xs = [g.basis_vector(i) for i in range(g.dim)]
            xs += [dense(v, g.dim) for v in random_vectors(g, rng, 6)]
            for x in xs:
                assert ([typed(r) for r in g.ad(x)]
                        == [typed(r) for r in table_ad(g, x)]), (g, x)

    def test_is_ideal(self, index_algebras):
        verdicts = []
        for g in index_algebras:
            subs = [zero_subspace(g), full_subspace(g),
                    Subspace(g, [g.basis_vector(0)]),
                    Subspace(g, [g.basis_vector(g.dim - 1)])]
            subs += lower_central_series(g)[1:] + derived_series(g)[1:]
            if g.levi_basis is not None:
                ds = g.levi_basis.dim
                subs += [g.levi_basis,
                         Subspace(g, [g.basis_vector(i)
                                      for i in range(ds, g.dim)])]
            index = table_index(g)
            for u in subs:
                verdicts.append(is_ideal(g, u))
                assert verdicts[-1] == table_is_ideal(index, u), (g, u)
        assert True in verdicts and False in verdicts

    def test_is_derivation(self, index_algebras):
        import disemi.liealg as liealg
        verdicts = []
        for g in index_algebras:
            index = table_index(g)
            for i in range(g.dim):
                cols = [dict(c) for c in columns(g.ad(g.basis_vector(i)),
                                                 g.dim)]
                # ad b_i is a derivation; ad b_i plus a unit at (i, i)
                # may not be one
                cols_off = [dict(c) for c in cols]
                cols_off[i][i] = cols_off[i].get(i, 0) + 1
                for c in (cols, cols_off):
                    verdicts.append(liealg._is_derivation(g, c))
                    assert verdicts[-1] == table_is_derivation(index, c), (g, i)
        assert True in verdicts and False in verdicts


def sl3_sym2_semidirect():
    """sl3 |x Sym^2 C^3, whose table has constants 1/2."""
    spec = parse_algebra("A2")
    rep = to_representation(parse_module("L(2,0)", spec), spec)
    return semidirect(spec.algebra(), rep)


class TestOneConvention:
    """The table row is the one store of [b_i, b_j], and every value the
    readers return is an int exactly when it is integral."""

    @pytest.fixture(scope="class")
    def algebras(self):
        out = [RESCALED_SL2,
               rescaled(sl2_natural_semidirect(),
                        [Fraction(1, 3), 2, Fraction(-1, 2), Fraction(3, 4), 5])]
        out += [loads(dumps(g)) for g in out]
        return out + [sl3_sym2_semidirect()]

    def test_table_is_the_bracket_index(self, index_algebras, algebras):
        for g in index_algebras + algebras:
            for (i, j), row in g.table.items():
                assert row is g.brackets[i][j], (g, i, j)
            assert sum(map(len, g.brackets)) == 2 * len(g.table), g

    def test_non_integral_tables(self, algebras):
        assert all(map(has_fraction_constant, algebras))

    def check(self, values):
        values = list(values)
        assert all(map(is_normal, values))
        return {type(x) for x in values if x}

    def test_structure(self, algebras):
        types = set()
        for g in algebras:
            types |= self.check(c for i in range(g.dim) for j in range(g.dim)
                                for c in g.structure(i, j).values())
        assert types == {int, Fraction}

    def test_sparse_bracket(self, algebras):
        rng = random.Random(23)
        types = set()
        for g in algebras:
            xs = [{i: 1} for i in range(g.dim)] + random_vectors(g, rng, 12)
            types |= self.check(c for x in xs for y in xs
                                for c in g.sparse_bracket(x, y).values())
        assert types == {int, Fraction}

    def test_ad(self, algebras):
        rng = random.Random(24)
        types = set()
        for g in algebras:
            xs = [g.basis_vector(i) for i in range(g.dim)]
            xs += [dense(v, g.dim) for v in random_vectors(g, rng, 6)]
            types |= self.check(c for x in xs for row in g.ad(x)
                                for c in row.values())
        assert types == {int, Fraction}

    def test_killing_form(self, algebras):
        types = set()
        for g in algebras:
            types |= self.check(c for row in killing_form(g)
                                for c in row.values())
        assert types == {int, Fraction}
        # the trace of products of Fraction constants, -5, is an int
        assert killing_form(algebras[1])[1] == {2: -5}


class TestJacobiVisitsNonzeroBrackets:
    def spy(self, monkeypatch):
        import disemi.liealg as liealg
        calls = []
        is_derivation = liealg._is_derivation
        monkeypatch.setattr(liealg, "_is_derivation",
                            lambda n, c: calls.append(n) or is_derivation(n, c))
        return calls

    def test_abelian_algebra_needs_no_derivation_check(self, monkeypatch):
        calls = self.spy(monkeypatch)
        assert check_jacobi(abelian_algebra(3000))
        assert calls == []

    def test_one_check_per_basis_element(self, monkeypatch):
        calls = self.spy(monkeypatch)
        g = chevalley(SimpleType("A", 3))
        assert check_jacobi(g)
        assert len(calls) == g.dim == 15


class TestSeriesStartAtTheSubspace:
    def test_first_term_is_the_given_subspace(self, type12_algebras):
        for g in type12_algebras:
            rad = _radical(g)
            assert lower_central_series(g, rad)[0] is rad
            assert derived_series(g, rad)[0] is rad
            assert lower_central_series(g)[0] == full_subspace(g)


class TestNoCycles:
    """A LieAlgebra and its Subspaces do not reference each other, so
    constructing and certifying leaves nothing for the cyclic garbage
    collector."""

    def collected_after(self, work):
        import gc
        gc.collect()
        gc.disable()
        try:
            work()
            return gc.collect()
        finally:
            gc.enable()

    def test_type12_construct_and_certify(self):
        from disemi.classify import (construct_type1, construct_type2,
                                     type12_candidates)
        from disemi.prehom import certify_disemisimple

        def work():
            for t in (SimpleType("A", 3), SimpleType("A", 4)):
                for c in type12_candidates(t):
                    build = (construct_type1 if c.kind == "type1"
                             else construct_type2)
                    certify_disemisimple(build(t, *c.labels))
        assert self.collected_after(work) == 0

    def test_certify_from_structure_constants(self):
        from disemi.classify import construct_type1
        from disemi.prehom import Refusal, certify_disemisimple
        g = construct_type1(SimpleType("A", 3), ((0, 0, 1),), ((0, 1, 0),))
        data, rows = to_json_dict(g), g.levi_basis.basis

        def work():
            h = from_json_dict(data)
            assert isinstance(certify_disemisimple(h, Subspace(h, rows)),
                              Refusal)
        assert self.collected_after(work) == 0
