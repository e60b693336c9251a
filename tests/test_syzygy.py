import json
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from disemi import linalg, symrank, syzygy
from disemi.classify import DESK_BOUNDS, construct_type1, enumerate_modules
from disemi.linalg import rank
from disemi.liealg import Subspace, dumps, loads
from disemi.prehom import adjoint_radical_module, evaluation_matrix
from disemi.repbuilder import (ModuleDescriptor, direct_sum, natural, realize,
                               realize_label, spec_of, sym2, trivial)
from disemi.rootdata import SimpleType
from test_repbuilder import sl2_efh_natural

A1 = SimpleType("A", 1)
A2 = SimpleType("A", 2)
C2 = SimpleType("C", 2)
A3 = SimpleType("A", 3)
C3 = SimpleType("C", 3)


def lab(*blocks):
    return tuple(tuple(b) for b in blocks)


def bareiss_rank(rep):
    """The generic rank by the fallback alone: fraction-free elimination
    of the one builder's forms, with the lower bound taken at the zero
    vector, where it is 0, and no syzygy degree tried."""
    with mock.patch.object(syzygy, "MAX_SYZYGY_DEGREE", 0), \
            mock.patch.object(syzygy, "generic_point", lambda dim: [0] * dim):
        return syzygy.generic_rank_certified(rep)


def transpose(forms, ncols):
    return [dict(col) for col in linalg.columns(forms, ncols)]


SPARSE_INTEGER_SYSTEMS = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.dictionaries(st.integers(0, n - 1),
                                         st.integers(-3, 3), max_size=3),
                         max_size=8)))


def one_wrong_entry(rows, n):
    """sparse_nullspace_mod_p with one entry of its first vector moved
    by 1 in a column that some row reads, so that row no longer
    vanishes on it."""
    basis = linalg.sparse_nullspace_mod_p(rows, n)
    cols = [k for row in rows for k, c in row.items() if c]
    if not basis or not cols:
        return basis
    wrong = dict(basis[0])
    wrong[cols[0]] = wrong.get(cols[0], 0) + 1
    return [wrong] + basis[1:]


class TestSparseNullspace:
    def test_simple(self):
        rows = [{0: 1, 1: 1}, {1: 1, 2: -1}]
        ns = syzygy.sparse_nullspace(rows, 3)
        assert len(ns) == 1
        x = ns[0]
        for row in rows:
            assert sum(c * x.get(k, 0) for k, c in row.items()) == 0

    def test_full_rank(self):
        rows = [{0: 1}, {1: 2}]
        assert syzygy.sparse_nullspace(rows, 2) == []

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.dictionaries(st.integers(0, n - 1),
                        st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4),
                        max_size=3),
        max_size=8))))
    @settings(max_examples=100, deadline=None)
    def test_modular_matches_exact(self, system):
        # both give the one basis that is 1 on its free column, 0 on the
        # others, so equal lists mean equal spans
        n, rows = system
        assert syzygy.sparse_nullspace(rows, n) == linalg.nullspace(rows, n)

    @given(SPARSE_INTEGER_SYSTEMS)
    @settings(max_examples=100, deadline=None)
    def test_no_modular_basis_gives_the_exact_one(self, system):
        n, rows = system
        with mock.patch.object(syzygy, "sparse_nullspace_mod_p",
                               lambda r, m: None):
            assert syzygy.sparse_nullspace(rows, n) == linalg.nullspace(
                rows, n)

    @given(SPARSE_INTEGER_SYSTEMS)
    @settings(max_examples=100, deadline=None)
    def test_wrong_modular_basis_gives_the_exact_one(self, system):
        n, rows = system
        with mock.patch.object(syzygy, "sparse_nullspace_mod_p",
                               one_wrong_entry):
            assert syzygy.sparse_nullspace(rows, n) == linalg.nullspace(
                rows, n)

    def test_one_wrong_entry_is_wrong(self):
        # x0 + x1 = 0, x1 - x2 = 0: the basis (-1, 1, 1), moved at x0
        rows = [{0: 1, 1: 1}, {1: 1, 2: -1}]
        assert linalg.sparse_nullspace_mod_p(rows, 3) == [{2: 1, 1: 1, 0: -1}]
        assert one_wrong_entry(rows, 3) == [{2: 1, 1: 1, 0: 0}]
        with mock.patch.object(syzygy, "sparse_nullspace_mod_p",
                               one_wrong_entry):
            assert syzygy.sparse_nullspace(rows, 3) == [{2: 1, 1: 1, 0: -1}]

    def test_wrong_lift_falls_back_to_exact(self):
        # 2**40 lifts to 1/2**21 mod PRIME; the exact check rejects it
        rows = [{0: 1, 1: -(2 ** 40)}]
        assert linalg.sparse_nullspace_mod_p(rows, 2) == [
            {1: 1, 0: Fraction(1, 2 ** 21)}]
        assert syzygy.sparse_nullspace(rows, 2) == [{1: 1, 0: 2 ** 40}]

    def test_failed_lift_falls_back_to_exact(self, monkeypatch):
        rows = [{0: 1, 1: 1}, {1: 1, 2: -1}]
        exact = linalg.nullspace(rows, 3)
        calls = []
        monkeypatch.setattr(linalg, "rational_reconstruction", lambda u: None)
        monkeypatch.setattr(syzygy, "nullspace",
                            lambda r, n: calls.append(n) or exact)
        assert linalg.sparse_nullspace_mod_p(rows, 3) is None
        assert syzygy.sparse_nullspace(rows, 3) == exact
        assert calls == [3]

    def test_denominator_divisible_by_prime(self):
        rows = [{0: Fraction(1, linalg.PRIME), 1: 1}]
        assert linalg.sparse_nullspace_mod_p(rows, 2) is None
        assert syzygy.sparse_nullspace(rows, 2) == [{1: 1, 0: -linalg.PRIME}]


NONZERO = (st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)).filter(bool)


@st.composite
def peelable_systems(draw):
    """(n, rows): a chain of forced zeros (a singleton row, then rows
    each adding one unknown to the ones before), a few other rows that
    may store zeros, all in a random order."""
    n = draw(st.integers(1, 10))
    cols = draw(st.permutations(range(n)))
    depth = draw(st.integers(0, n))
    rows = [{cols[0]: draw(NONZERO)}] if depth else []
    rows += [{a: draw(NONZERO), b: draw(NONZERO)}
             for a, b in zip(cols[:depth - 1], cols[1:depth])]
    rows += draw(st.lists(st.dictionaries(st.integers(0, n - 1),
                                          NONZERO | st.just(0), max_size=3),
                          max_size=6))
    return n, draw(st.permutations(rows))


class TestPeel:
    @given(peelable_systems())
    @settings(max_examples=150, deadline=None)
    def test_same_basis_as_exact(self, system):
        # the same list in the same order, not just the same span
        n, rows = system
        assert syzygy.sparse_nullspace(rows, n) == linalg.nullspace(rows, n)

    def test_chain_of_forced_zeros(self, monkeypatch):
        # x1, then x2, then x3 are forced; the solver sees x0 + 2 x4 = 0
        rows = [{2: 1, 3: 1}, {1: 1, 2: -1}, {1: 4}, {0: 1, 3: 1, 4: 2}]
        seen = []

        def modular(r, n):
            seen.append((r, n))
            return linalg.sparse_nullspace_mod_p(r, n)
        monkeypatch.setattr(syzygy, "sparse_nullspace_mod_p", modular)
        assert syzygy.sparse_nullspace(rows, 5) == [{4: 1, 0: -2}]
        assert seen == [([{0: 1, 1: 2}], 2)]

    def test_stored_zero_forces_nothing(self):
        # {0: 0} is no equation; x0 = -x1 stays free of it
        rows = [{0: 0}, {0: 1, 1: 1}]
        assert syzygy.sparse_nullspace(rows, 2) == [{1: 1, 0: -1}]
        assert syzygy.sparse_nullspace([{0: 0, 1: 1}], 2) == [{0: 1}]

    def test_fractions_after_the_peel(self):
        rows = [{0: Fraction(1, 2)}, {0: 1, 1: Fraction(2, 3), 2: -1}]
        assert syzygy.sparse_nullspace(rows, 3) == [{2: 1, 1: Fraction(3, 2)}]

    def test_exact_fallback_on_the_reduced_system(self, monkeypatch):
        rows = [{0: 5}, {0: 1, 1: Fraction(1, linalg.PRIME), 2: 1}]
        sizes = []

        def exact(r, n):
            sizes.append((len(r), n))
            return linalg.nullspace(r, n)
        monkeypatch.setattr(syzygy, "nullspace", exact)
        assert syzygy.sparse_nullspace(rows, 3) == [{2: 1, 1: -linalg.PRIME}]
        assert sizes == [(1, 2)]


class TestCoordinateBlocks:
    def test_direct_sum_blocks(self):
        r = direct_sum([natural(A2), natural(A2)])
        blocks = syzygy.coordinate_blocks(r.action, r.dim)
        assert blocks == [[0, 1, 2], [3, 4, 5]]

    def test_irreducible_single_block(self):
        r = natural(A2)
        assert syzygy.coordinate_blocks(r.action, r.dim) == [[0, 1, 2]]


class TestKernelSyzygies:
    def test_adjoint_sl2_has_killing_gradient(self):
        adj = realize_label(spec_of(A1), lab((2,)))
        ks = syzygy.kernel_syzygies(adj, 1)
        assert len(ks) >= 1
        # each verified syzygy kills the evaluation matrix at every point
        for w in ks:
            for pt in syzygy.sample_points(3)[:5]:
                vals = [symrank.poly_eval(w[c], pt) for c in range(3)]
                ev = evaluation_matrix(adj, pt)
                prod = [sum(vals[a] * ev.matrix[a][j] for a in range(3))
                        for j in range(3)]
                assert prod == [0, 0, 0]

    def test_natural_sl2_has_none(self):
        # the natural module is prehomogeneous: no kernel syzygies at all
        nat = natural(A1)
        assert syzygy.kernel_syzygies(nat, 1) == []
        assert syzygy.kernel_syzygies(nat, 2) == []


class TestStabilizerSyzygies:
    def test_adjoint_contains_identity_map(self):
        # ad(v) v = 0, so x(v) = v is a degree-1 stabilizer syzygy
        adj = realize_label(spec_of(A1), lab((2,)))
        ss = syzygy.stabilizer_syzygies(adj, 1)
        assert len(ss) >= 1
        for xs in ss:
            for pt in syzygy.sample_points(3)[:5]:
                coeffs = [symrank.poly_eval(xs[j], pt) for j in range(3)]
                ev = evaluation_matrix(adj, pt)
                out = [sum(ev.matrix[a][j] * coeffs[j] for j in range(3))
                       for a in range(3)]
                assert out == [0, 0, 0]


class TestZeroModule:
    # no coordinate means no monomial of positive degree, so no syzygy
    @pytest.mark.parametrize("degree", [1, 2])
    def test_no_syzygies(self, degree):
        zero = trivial(spec_of(A1), 0)
        assert syzygy.kernel_syzygies(zero, degree) == []
        assert syzygy.stabilizer_syzygies(zero, degree) == []
        assert syzygy.invariant_gradients(zero, degree) == []
        assert syzygy.generic_rank_certified(zero) == 0

    def test_sectors_without_blocks(self):
        assert syzygy._sector_multidegrees(0, 0) == [()]
        assert syzygy._sector_multidegrees(0, 3) == []


class TestLinearForms:
    def test_natural_sl2(self):
        rep = natural(A1)
        forms = syzygy.linear_forms(rep.action)
        assert len(forms) == 2 and all(set(row) <= {0, 1, 2} for row in forms)
        assert bareiss_rank(rep) == 2

    def test_evaluates_to_the_evaluation_matrix(self):
        # at any point the forms give the evaluation matrix, which
        # evaluation_rows builds on its own
        for rep in [natural(A1), direct_sum([natural(A2), natural(A2)]),
                    realize(spec_of(C2), ModuleDescriptor([lab((0, 1))]))]:
            forms = syzygy.linear_forms(rep.action)
            ds = len(rep.action)
            for v in syzygy.sample_points(rep.dim, 8):
                got = [[symrank.poly_eval(row.get(j, {}), v)
                        for j in range(ds)] for row in forms]
                assert got == syzygy.evaluation_rows(rep, v)

    def test_rows_of_exact_forms(self):
        # row a maps column j to (rho(b_j) v)_a; zero forms are left out
        action = [[{0: Fraction(1, 2), 1: 3}, {}], [{}, {0: Fraction(-2, 3)}]]
        v = symrank.var_monomial
        assert syzygy.linear_forms(action) == [
            {0: {v(0): Fraction(1, 2), v(1): 3}}, {1: {v(0): Fraction(-2, 3)}}]

    def test_cleared_per_equation_index(self):
        # the forms of one key r share one scale, the lcm of their
        # denominators, whatever row they sit in
        forms = [{0: {1: Fraction(1, 2)}, 1: {1: 5}},
                 {0: {1: Fraction(1, 3)}, 1: {1: Fraction(3, 4)}}]
        assert syzygy._cleared(forms) == [{0: {1: 3}, 1: {1: 20}},
                                          {0: {1: 2}, 1: {1: 3}}]


class TestVerifySyzygies:
    def test_one_verifier_for_both_kinds(self):
        # kernel syzygies pair with the rows of the linear forms,
        # stabilizer syzygies with their columns; a perturbed one fails
        adj = realize_label(spec_of(A1), lab((2,)))
        forms = syzygy.linear_forms(adj.action)
        for kind, found, mat in [
                ("kernel", syzygy.kernel_syzygies(adj, 1), forms),
                ("stabilizer", syzygy.stabilizer_syzygies(adj, 1),
                 transpose(forms, 3))]:
            assert found
            syzygy._verify_syzygies(mat, found, kind)
            bad = [dict(p) for p in found[0]]
            c = next(i for i, p in enumerate(bad) if p)
            mono = next(iter(bad[c]))
            bad[c][mono] += 1
            with pytest.raises(AssertionError, match=kind):
                syzygy._verify_syzygies(mat, [tuple(bad)], kind)


def rescaled_adjoint_sl2():
    """(scales, the adjoint module of sl2, its action with action[j]
    multiplied by scales[j])."""
    adj = realize_label(spec_of(A1), lab((2,)))
    scales = [Fraction(1, 3), Fraction(-2, 5), 7]
    scaled = SimpleNamespace(dim=adj.dim, action=[
        [{b: c * x for b, x in row.items()} for row in m]
        for c, m in zip(scales, adj.action)])
    return scales, adj, scaled


class TestIntegerAction:
    def test_syzygies_of_a_rescaled_action(self):
        # scaling action[j] by c_j leaves the kernel syzygies alone and
        # divides x_j by c_j, up to one factor per syzygy; both kinds are
        # re-verified against the scaled action inside the calls
        scales, adj, scaled = rescaled_adjoint_sl2()
        assert (syzygy.kernel_syzygies(scaled, 1)
                == syzygy.kernel_syzygies(adj, 1))
        plain = syzygy.stabilizer_syzygies(adj, 1)
        got = syzygy.stabilizer_syzygies(scaled, 1)
        assert len(got) == len(plain) >= 1
        for xs, ys in zip(got, plain):
            back = {(j, m): c * scales[j]
                    for j, x in enumerate(xs) for m, c in x.items()}
            flat = {(j, m): c for j, y in enumerate(ys) for m, c in y.items()}
            assert back.keys() == flat.keys()
            ratio = {Fraction(back[k]) / flat[k] for k in flat}
            assert len(ratio) == 1

    def test_fallback_on_a_rescaled_action(self, monkeypatch):
        # with no syzygy degree to try, the elimination decides; it sees
        # the forms cleared to ints and gives the rank of the unscaled
        # action
        _, adj, scaled = rescaled_adjoint_sl2()
        calls = []
        real = symrank.generic_rank
        monkeypatch.setattr(symrank, "generic_rank",
                            lambda m, n: calls.append(m) or real(m, n))
        monkeypatch.setattr(syzygy, "MAX_SYZYGY_DEGREE", 0)
        assert syzygy.generic_rank_certified(scaled) == 2
        assert syzygy.generic_rank_certified(adj) == 2
        assert len(calls) == 2
        assert all(type(c) is int for m in calls for row in m for p in row
                   for c in p.values())


class TestGenericRankCertified:
    @pytest.mark.parametrize("t,labels,expected", [
        (A1, [lab((1,))], 2),              # natural sl2: full
        (A1, [lab((2,))], 2),              # adjoint sl2: orbit dim 2
        (A2, [lab((1, 0)), lab((0, 1))], 5),
        (C2, [lab((0, 1)), lab((0, 1))], 7),
    ])
    def test_values(self, t, labels, expected):
        rep = realize(spec_of(t), ModuleDescriptor(labels))
        assert syzygy.generic_rank_certified(rep) == expected

    @pytest.mark.parametrize("spec,labels,expected", [
        (spec_of(A1, A1), [lab((1,), (1,))], 3),
        (spec_of(A2), [lab((2, 0))], 5),
        (spec_of(A3), [lab((0, 0, 1)), lab((1, 0, 0))], 7),
    ], ids=["A1xA1", "A2", "A3"])
    def test_every_sector_over_budget_falls_back(self, spec, labels, expected,
                                                 monkeypatch):
        # with no sector in budget no syzygy is found, and the one
        # elimination decides
        rep = realize(spec, ModuleDescriptor(labels))
        solves, ranks = [], []
        real_rank = symrank.generic_rank
        monkeypatch.setattr(syzygy, "MAX_UNKNOWNS", 0)
        monkeypatch.setattr(syzygy, "sparse_nullspace",
                            lambda *a: solves.append(a))
        monkeypatch.setattr(symrank, "generic_rank",
                            lambda *a: ranks.append(a) or real_rank(*a))
        assert syzygy.generic_rank_certified(rep) == expected
        assert solves == [] and len(ranks) == 1

    def test_agrees_with_bareiss(self):
        # the sandwich and the elimination engine agree on a small suite
        for t, labels in [
            (A1, [lab((1,))]),
            (A1, [lab((2,))]),
            (A1, [lab((1,)), lab((1,))]),
            (A2, [lab((1, 0))]),
            (A2, [lab((1, 0)), lab((0, 1))]),
            (C2, [lab((0, 1))]),
        ]:
            rep = realize(spec_of(t), ModuleDescriptor(labels))
            assert syzygy.generic_rank_certified(rep) == bareiss_rank(rep)

    def test_upper_bounds_every_specialization(self):
        rep = realize(spec_of(A2), ModuleDescriptor([lab((1, 0)), lab((0, 1))]))
        g = syzygy.generic_rank_certified(rep)
        import random
        rnd = random.Random(3)
        for _ in range(50):
            v = [rnd.randint(-8, 8) for _ in range(rep.dim)]
            assert rank(evaluation_matrix(rep, v).matrix) <= g

    @pytest.mark.slow
    def test_sandwich_matches_bareiss_on_hard_deficit(self):
        # doubled spin module of B3: sixteen variables, deficit 3
        B3 = SimpleType("B", 3)
        rep = realize(spec_of(B3), ModuleDescriptor([(lab((0, 0, 1)), 2)]))
        assert syzygy.generic_rank_certified(rep) == bareiss_rank(rep) == 13


def two_sided_rank(rep):
    """generic_rank_certified as it was before a side could close alone
    and before one generic point replaced the sample points: the largest
    rank over the 40 sample points as the lower bound, stacks ranked at
    up to three points that reach it, and both syzygy sides at each
    degree, closing on the smaller bound.  Returns (rank, every syzygy
    either builder gave)."""
    d, ds = rep.dim, len(rep.action)
    if d == 0:
        return 0, []
    sampled = [(v, linalg.rank_mod_p(syzygy.evaluation_rows(rep, v), stop_at=d))
               for v in syzygy.sample_points(d)]
    best = max(rk for _, rk in sampled)
    if best == min(d, ds):
        return best, []
    points = [v for v, rk in sampled if rk == best][:3]
    kernel, stab = [], []
    for degree in range(1, syzygy.MAX_SYZYGY_DEGREE + 1):
        kernel += syzygy.kernel_syzygies(rep, degree)
        stab += syzygy.stabilizer_syzygies(rep, degree)
        if best == min(d - max(syzygy._stack_rank(kernel, v, d)
                               for v in points),
                       ds - max(syzygy._stack_rank(stab, v, ds)
                                for v in points)):
            return best, kernel + stab
    return bareiss_rank(rep), kernel + stab


def spy_degrees(monkeypatch, *names):
    """{name: the degrees it is called with} for syzygy functions."""
    degrees = {name: [] for name in names}
    for name in names:
        real = getattr(syzygy, name)

        def spy(rep, degree, _real=real, _name=name):
            degrees[_name].append(degree)
            return _real(rep, degree)
        monkeypatch.setattr(syzygy, name, spy)
    return degrees


@pytest.fixture(scope="module")
def cross_check_modules():
    """(descriptor, module, two_sided_rank) over the A3 and C3
    cross-check lists."""
    out = []
    for t in (A3, C3):
        spec = spec_of(t)
        for desc in enumerate_modules(spec, DESK_BOUNDS[t]):
            rep = realize(spec, desc)
            out.append((desc, rep, two_sided_rank(rep)))
    return out


class TestSandwichPerSide:
    def test_matches_two_sided_reference(self, cross_check_modules):
        # each side alone bounds the rank from above, so closing on one
        # side gives the rank the two-sided loop gives
        for desc, rep, (expect, _) in cross_check_modules:
            assert syzygy.generic_rank_certified(rep) == expect, str(desc)

    def test_stabilizer_side_skipped_once_kernel_closes(self, monkeypatch):
        # C3 L(0,1,0)+L(1,0,0): at step 2 the gradients of the cubic
        # invariants close the kernel side, so no degree-2 stabilizer
        # system is solved; on a weight basis the kernel side is found
        # as invariants of one degree more than the step
        degrees = spy_degrees(monkeypatch, "invariant_gradients",
                              "kernel_syzygies", "stabilizer_syzygies")
        rep = realize(spec_of(C3), ModuleDescriptor([lab((0, 1, 0)),
                                                     lab((1, 0, 0))]))
        assert syzygy.generic_rank_certified(rep) == 18
        assert degrees == {"invariant_gradients": [2, 3],
                           "kernel_syzygies": [],
                           "stabilizer_syzygies": [1]}


def a3_type1_radical_module(weightless=False):
    """The radical module of an A3 type-1 algebra: with a weight basis as
    constructed, weightless once read back from its structure constants
    (as --sc reads an algebra), which records no Levi spec."""
    g = construct_type1(A3, lab((0, 0, 1)), lab((0, 1, 0)))
    levi = g.levi_basis
    if weightless:
        g = loads(dumps(g))
        levi = Subspace(g, levi.basis)
    return adjoint_radical_module(g, levi)[0]


class TestInvariantGradients:
    @pytest.mark.parametrize("t,labels", [
        (A1, [lab((2,))]),                  # the Killing form
        (A3, [lab((0, 1, 0))]),             # the Pfaffian
        (SimpleType("B", 3), [lab((0, 0, 1))]),   # the spin quadratic form
        (A2, [lab((1, 0)), lab((0, 1))]),   # the pairing
    ])
    def test_one_quadratic_invariant(self, t, labels):
        rep = realize(spec_of(t), ModuleDescriptor(labels))
        assert syzygy.invariant_gradients(rep, 1) == []
        (grad,) = syzygy.invariant_gradients(rep, 2)
        # linear, with a symmetric Jacobian: the gradient of a quadratic
        coeff = {(a, b): c for a, p in enumerate(grad) for m, c in p.items()
                 for b in range(rep.dim) if m == symrank.var_monomial(b)}
        assert len(coeff) == sum(map(len, grad))
        assert all(coeff.get((b, a)) == c for (a, b), c in coeff.items())

    def test_prehomogeneous_module_has_none(self):
        rep = realize_label(spec_of(C3), lab((1, 0, 0)))
        for degree in (1, 2, 3, 4):
            assert syzygy.invariant_gradients(rep, degree) == [], degree

    def test_in_the_span_of_the_kernel_syzygies(self, cross_check_modules):
        # the gradient of an invariant of degree d + 1 is a kernel
        # syzygy of degree d, so stacking it adds no rank at the point
        for desc, rep, _ in cross_check_modules:
            assert rep.weight_basis
            point = syzygy.generic_point(rep.dim)
            for degree in (1, 2):
                kernel = syzygy.kernel_syzygies(rep, degree)
                both = kernel + syzygy.invariant_gradients(rep, degree + 1)
                assert (syzygy._stack_rank(both, point, rep.dim)
                        == syzygy._stack_rank(kernel, point, rep.dim)), \
                    (str(desc), degree)

    def test_changed_coefficient_fails_verification(self):
        rep = realize_label(spec_of(A3), lab((0, 1, 0)))
        forms = syzygy.linear_forms(rep.action)
        (grad,) = syzygy.invariant_gradients(rep, 2)
        for a, p in enumerate(grad):
            for mono in p:
                bad = [dict(q) for q in grad]
                bad[a][mono] += 1
                with pytest.raises(AssertionError, match="kernel"):
                    syzygy._verify_syzygies(forms, [tuple(bad)], "kernel")

    def test_radical_module_takes_invariant_gradients(self, monkeypatch):
        weightless = syzygy.generic_rank_certified(
            a3_type1_radical_module(weightless=True))
        rep = a3_type1_radical_module()
        assert rep.weight_basis
        degrees = spy_degrees(monkeypatch, "invariant_gradients",
                              "kernel_syzygies")
        assert syzygy.generic_rank_certified(rep) == weightless < rep.dim
        assert degrees["invariant_gradients"] and not degrees["kernel_syzygies"]

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: a3_type1_radical_module(weightless=True),
                     id="a3_type1_radical_module"),
        lambda: sym2(sl2_efh_natural()),    # the adjoint module of sl2
    ])
    def test_without_a_weight_basis_takes_kernel_syzygies(self, build,
                                                          monkeypatch):
        rep = build()
        assert not rep.weight_basis
        degrees = spy_degrees(monkeypatch, "invariant_gradients",
                              "kernel_syzygies")
        assert syzygy.generic_rank_certified(rep) < rep.dim
        assert degrees["kernel_syzygies"] and not degrees["invariant_gradients"]


class TestIntegerSyzygies:
    def test_cross_check_syzygies_have_int_coefficients(self, cross_check_modules):
        found = [s for _, _, (_, syzygies) in cross_check_modules
                 for s in syzygies]
        assert found
        assert all(type(c) is int for s in found for p in s for c in p.values())


class TestGoldenCounts:
    def test_counts_match_the_recorded_ones(self):
        # per module of the A3 and C3 cross-check lists: the number of
        # kernel and stabilizer syzygies at degrees 1 and 2 and the
        # generic rank, as recorded before the two builders became one
        path = Path(__file__).parent / "golden" / "syzygy_counts.json"
        golden = json.loads(path.read_text())
        for t in (A3, C3):
            spec = spec_of(t)
            modules = list(enumerate_modules(spec, DESK_BOUNDS[t]))
            assert sorted(map(str, modules)) == sorted(golden[str(t)])
            for desc in modules:
                rep = realize(spec, desc)
                got = {
                    "kernel": [len(syzygy.kernel_syzygies(rep, d))
                               for d in (1, 2)],
                    "stabilizer": [len(syzygy.stabilizer_syzygies(rep, d))
                                   for d in (1, 2)],
                    "generic_rank": syzygy.generic_rank_certified(rep),
                }
                assert got == golden[str(t)][str(desc)], str(desc)
