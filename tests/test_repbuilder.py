import pytest

from disemi.liealg import LieAlgebra
from disemi.rootdata import SimpleType, cartan_matrix, weyl_dim
from disemi.repbuilder import (ModuleDescriptor, Representation, decompose,
                               direct_sum, dual, embeds, highest_weight_vectors,
                               multiplicity, natural, outer_tensor, realize,
                               realize_label, realize_simple, spec_of,
                               spin16_d5, sym2, tensor, trivial, wedge2,
                               wedge_power, _spin_rep)

A1 = SimpleType("A", 1)
A2 = SimpleType("A", 2)
A3 = SimpleType("A", 3)
A4 = SimpleType("A", 4)
A6 = SimpleType("A", 6)
C2 = SimpleType("C", 2)
C3 = SimpleType("C", 3)
B3 = SimpleType("B", 3)
D4 = SimpleType("D", 4)
D5 = SimpleType("D", 5)


def lab(*blocks):
    return tuple(tuple(b) for b in blocks)


class TestNatural:
    @pytest.mark.parametrize("t,dim", [(A1, 2), (C2, 4), (A4, 5), (B3, 7),
                                       (D5, 10)])
    def test_dims(self, t, dim):
        r = natural(t)
        assert r.dim == dim
        assert r.weight_basis

    @pytest.mark.parametrize("t", [A1, A2, C2, B3])
    def test_homomorphism(self, t):
        assert natural(t).check_homomorphism()

    def test_irreducible(self):
        assert decompose(natural(A2)).labels() == [((1, 0),)]


class TestConstructors:
    def test_outer_tensor_matches_kronecker(self):
        r = outer_tensor(natural(A1), natural(A2))
        assert r.dim == 6
        assert r.check_homomorphism()
        # the A1 part acts as phi(x) ox id3, the A2 part as id2 ox psi(y)
        h_a1 = r.action[0]
        assert [h_a1[i].get(i, 0) for i in range(6)] == [1, 1, 1, -1, -1, -1]
        # A2's h_1 and h_2 act as diag(1, -1, 0) and diag(0, 1, -1) on
        # each of the two copies of its natural module
        h1_a2, h2_a2 = r.action[3], r.action[4]
        assert [h1_a2[i].get(i, 0) for i in range(6)] == [1, -1, 0, 1, -1, 0]
        assert [h2_a2[i].get(i, 0) for i in range(6)] == [0, 1, -1, 0, 1, -1]
        ws = r.weights()
        assert ws[0] == (1, 1, 0)

    def test_wedge2_a4(self):
        r = wedge2(natural(A4))
        assert r.dim == 10
        assert decompose(r) == ModuleDescriptor([lab((0, 1, 0, 0))])

    def test_sym2_a2(self):
        r = sym2(natural(A2))
        assert r.dim == 6
        assert decompose(r) == ModuleDescriptor([lab((2, 0))])

    def test_trivial(self):
        r = trivial(spec_of(A1), 1)
        assert r.dim == 1
        assert all(m == [{}] for m in r.action)

    def test_tensor_dims_and_split(self):
        r = natural(A3)
        t = tensor(r, r)
        assert t.dim == 16
        w = wedge2(r)
        s = sym2(r)
        assert w.dim == 6 and s.dim == 10
        combined = ModuleDescriptor(decompose(w).labels() + decompose(s).labels())
        assert decompose(t) == combined

    def test_dual_dual_same_decomposition(self):
        r = realize_label(spec_of(A2), lab((1, 1)))
        assert decompose(dual(dual(r))) == decompose(r)

    def test_dual_decompose_elementwise(self):
        spec = spec_of(A4)
        for label in (lab((1, 0, 0, 0)), lab((0, 1, 0, 0)), lab((2, 0, 0, 0))):
            r = realize_label(spec, label)
            got = decompose(dual(r))
            want = decompose(r).dual(spec)
            assert got == want

    def test_mismatched_algebras_rejected(self):
        with pytest.raises(ValueError):
            tensor(natural(A1), natural(A2))
        with pytest.raises(ValueError):
            direct_sum([natural(A1), natural(A2)])


# sl2 in the basis (e, f, h): the same algebra as chevalley(A1), built by
# hand, so the generator positions of spec_of(A1) do not describe it
SL2_EFH = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})


def sl2_efh_natural():
    h, e, f = natural(A1).action
    return Representation(spec_of(A1), SL2_EFH, [e, f, h])


class TestGeneratorIndices:
    @pytest.mark.parametrize("spec", [spec_of(C2, A1, ("D", 4)),
                                      spec_of(A2, B3)])
    def test_chevalley_relations_in_every_factor(self, spec):
        g = spec.algebra()
        hs, es, fs = spec.generator_indices()
        pos = 0
        for t in spec.factors:
            a = cartan_matrix(t)
            h, e, f = (x[pos:pos + t.rank] for x in (hs, es, fs))
            for i in range(t.rank):
                assert g.structure(e[i], f[i]) == {h[i]: 1}
                for j in range(t.rank):
                    c = a[j][i]
                    assert g.structure(h[i], e[j]) == ({e[j]: c} if c else {})
                    assert g.structure(h[i], f[j]) == ({f[j]: -c} if c else {})
            pos += t.rank

    def test_hand_built_algebra_skips_the_spot_check(self, monkeypatch):
        r = sl2_efh_natural()
        with monkeypatch.context() as m:
            m.setattr(Representation, "_bracket_holds",
                      lambda *args: pytest.fail("spot check ran"))
            t = tensor(r, r)
        assert t.algebra is SL2_EFH and t.dim == 4
        assert t.check_homomorphism()

    def test_weight_basis_over_a_hand_built_algebra_refused(self):
        # the Cartan matrix h is diagonal, but spec_of(A1) does not
        # describe SL2_EFH, so no weight basis is worked out
        r = sl2_efh_natural()
        assert r.check_homomorphism() and not r.weight_basis


class TestSpin:
    def test_spin16(self):
        r = spin16_d5()
        assert r.dim == 16
        assert r.check_homomorphism()
        desc = decompose(r)
        assert desc == ModuleDescriptor([lab((0, 0, 0, 1, 0))])
        assert weyl_dim(D5, (0, 0, 0, 1, 0)) == 16

    def test_other_parity(self):
        r = _spin_rep(D5, parity=1)
        assert decompose(r) == ModuleDescriptor([lab((0, 0, 0, 0, 1))])

    def test_b3_spin(self):
        r = _spin_rep(B3)
        assert r.dim == 8
        assert decompose(r) == ModuleDescriptor([lab((0, 0, 1))])


class TestHighestWeights:
    def test_natural_single(self):
        hw = highest_weight_vectors(natural(A2))
        assert len(hw) == 1
        assert hw[0][1] == ((1, 0),)

    def test_a1_tensor_kernel(self):
        # frozen oracle: kernel of e ox 1 + 1 ox e on the 4-dim space is
        # spanned by e1 ox e1 (weight 2) and e1 ox e2 - e2 ox e1 (weight 0)
        t = tensor(natural(A1), natural(A1))
        hw = highest_weight_vectors(t)
        labels = sorted(lab_ for _, lab_ in hw)
        assert labels == [((0,),), ((2,),)]
        for v, lab_ in hw:
            if lab_ == ((2,),):
                assert v == [1, 0, 0, 0]
            else:
                # proportional to e1 ox e2 - e2 ox e1
                assert v[0] == v[3] == 0 and v[1] == -v[2] != 0

    def test_direct_sum_copies(self):
        r = direct_sum([natural(A2)] * 3)
        hw = highest_weight_vectors(r)
        assert len(hw) == 3
        assert all(lab_ == ((1, 0),) for _, lab_ in hw)

    def test_requires_weight_basis(self):
        with pytest.raises(ValueError):
            highest_weight_vectors(sl2_efh_natural())


class TestDecompose:
    def test_tensor_natural_a2(self):
        t = tensor(natural(A2), natural(A2))
        assert decompose(t) == ModuleDescriptor([lab((0, 1)), lab((2, 0))])

    @pytest.mark.parametrize("t", [A2, A3, A4])
    def test_tensor_splits_wedge_sym(self, t):
        nat = natural(t)
        got = decompose(tensor(nat, nat))
        w2 = tuple(1 if i == 1 else 0 for i in range(t.rank))
        two_w1 = tuple(2 if i == 0 else 0 for i in range(t.rank))
        assert got == ModuleDescriptor([lab(w2), lab(two_w1)])

    @pytest.mark.parametrize("t", [A4, A6])
    def test_wedge2_of_wedge2(self, t):
        r = wedge2(wedge_power(natural(t), 2))
        target = tuple(1 if i in (0, 2) else 0 for i in range(t.rank))
        assert decompose(r) == ModuleDescriptor([lab(target)])

    def test_a1_tensor(self):
        t = tensor(natural(A1), natural(A1))
        assert decompose(t) == ModuleDescriptor([lab((2,)), lab((0,))])


class TestMultiplicity:
    def test_wedge_embeds(self):
        assert embeds(lab((0, 1, 0)), wedge2(natural(A3)))

    def test_natural_not_in_own_tensor_square(self):
        # the computational content behind the type-1/2 exclusions:
        # L(w1) never embeds in L(w1) ox L(w1), and dually for L(wl)
        for t in (A2, A3, A4):
            spec = spec_of(t)
            w1 = tuple(1 if i == 0 else 0 for i in range(t.rank))
            wl = tuple(1 if i == t.rank - 1 else 0 for i in range(t.rank))
            nat = natural(t)
            assert multiplicity(tensor(nat, nat), lab(w1)) == 0
            conat = realize_label(spec, lab(wl))
            assert multiplicity(tensor(conat, conat), lab(wl)) == 0

    def test_trivial_not_in_natural(self):
        assert not embeds(lab((0,)), natural(A1))


class TestRealize:
    def test_two_copies(self):
        spec = spec_of(A2)
        r = realize(spec, ModuleDescriptor([(lab((1, 0)), 2)]))
        assert r.dim == 6
        assert decompose(r) == ModuleDescriptor([(lab((1, 0)), 2)])

    def test_worked_module(self):
        spec = spec_of(A1, A2)
        r = realize(spec, ModuleDescriptor([lab((1,), (0, 1))]))
        assert r.dim == 6

    def test_sym_square_label(self):
        spec = spec_of(A4)
        r = realize(spec, ModuleDescriptor([lab((2, 0, 0, 0))]))
        assert r.dim == 15
        assert weyl_dim(A4, (2, 0, 0, 0)) == 15

    @pytest.mark.parametrize("t,bound", [(A2, 30), (A3, 30), (C2, 30)])
    def test_decompose_realize_identity(self, t, bound):
        from disemi.classify import enumerate_modules
        spec = spec_of(t)
        for desc in enumerate_modules(spec, bound):
            r = realize(spec, desc)
            assert decompose(r) == desc
            assert r.dim == desc.total_dim(spec)

    def test_realize_respects_weyl_dims(self):
        for t, coords in [(C3, (0, 1, 0)), (C3, (0, 0, 1)), (B3, (0, 0, 1)),
                          (A4, (1, 0, 0, 1)), (A2, (2, 1))]:
            r = realize_simple(t, coords)
            assert r.dim == weyl_dim(t, coords)
            assert decompose(r).labels() == [(tuple(coords),)]

    def test_matrix_construction_matches_formula_sampled(self):
        # independent cross-validation: explicit matrices vs the closed
        # dimension formula, over every dominant weight of dim <= 35
        for t in (A2, A3, C2, B3):
            from disemi.classify import simple_labels_upto
            for coords in simple_labels_upto(t, 35):
                r = realize_simple(t, coords)
                assert r.dim == weyl_dim(t, coords), (str(t), coords)

    def test_empty_descriptor(self):
        r = realize(spec_of(A1), ModuleDescriptor([]))
        assert r.dim == 0


class TestDescriptor:
    def test_canonical_and_total(self):
        spec = spec_of(A2)
        d = ModuleDescriptor([lab((1, 0)), lab((0, 1)), lab((1, 0))])
        assert d.multiplicity(lab((1, 0))) == 2
        assert d.total_dim(spec) == 9
        assert str(d) == "L(0,1) + 2L(1,0)"

    def test_equality_order_independent(self):
        a = ModuleDescriptor([lab((1, 0)), lab((0, 1))])
        b = ModuleDescriptor([lab((0, 1)), lab((1, 0))])
        assert a == b and hash(a) == hash(b)


def _cross_check_modules(t):
    from disemi.classify import DESK_BOUNDS, enumerate_modules
    spec = spec_of(t)
    return [realize(spec, desc)
            for desc in enumerate_modules(spec, DESK_BOUNDS[t])]


def _tau_modules(t):
    # the module tau that construct_type1/2 acts by on the free 2-step
    # algebra, one per type-1/2 candidate
    from disemi.classify import type12_candidates
    from disemi.liealg import free_two_step
    spec = spec_of(t)
    out = []
    for cand in type12_candidates(t):
        gens = [realize_label(spec, label) for label in cand.labels[:-1]]
        out.append(free_two_step(direct_sum(gens))[1])
    return out


class TestSparseAction:
    @pytest.mark.parametrize("modules", [
        lambda: _cross_check_modules(A3),
        lambda: _cross_check_modules(C3),
        lambda: _tau_modules(A3),
    ], ids=["crosscheck-A3", "crosscheck-C3", "tau-A3"])
    def test_normalised_entries_and_full_homomorphism_check(self, modules):
        from fractions import Fraction
        reps = modules()
        assert reps
        for r in reps:
            assert len(r.action) == r.algebra.dim
            for m in r.action:
                assert len(m) == r.dim
                for row in m:
                    for b, x in row.items():
                        assert 0 <= b < r.dim
                        assert x != 0
                        assert not (isinstance(x, Fraction) and x.denominator == 1)
            assert r.check_homomorphism(), r

    def test_constructor_normalises(self):
        from fractions import Fraction
        from disemi.repbuilder import Representation
        r = natural(A1)
        action = [[dict(row) for row in m] for m in r.action]
        action[0][0][1] = 0
        action[0][0][0] = Fraction(2, 2)
        action[1][1][0] = Fraction(1, 2)
        got = Representation(r.spec, r.algebra, action).action
        assert got[0][0] == {0: 1} and type(got[0][0][0]) is int
        assert got[1][1] == {0: Fraction(1, 2)}

    def test_corrupted_entry_fails_the_check(self):
        from disemi.liealg import semidirect
        from disemi.repbuilder import Representation
        r = realize_label(spec_of(A3), lab((0, 1, 0)))
        h = r.spec.generator_indices()[0][0]
        action = [[dict(row) for row in m] for m in r.action]
        action[h][0][0] = action[h][0].get(0, 0) + 1
        bad = Representation(r.spec, r.algebra, action)
        assert not bad.check_homomorphism()
        with pytest.raises(ValueError):
            semidirect(r.algebra, bad)
        assert r.check_homomorphism()
        semidirect(r.algebra, r)


def scan_highest_weight_vectors(r, coord_mask=None):
    """The per-row scan: for every weight block, restrict every row of
    every raising operator to the block's columns.  The oracle the
    column-indexed highest_weight_vectors is checked against."""
    from disemi.linalg import nullspace
    e_idx = r.spec.generator_indices()[1]
    weights = r.weights()
    blocks = {}
    for c in range(r.dim):
        if coord_mask is None or c in coord_mask:
            blocks.setdefault(weights[c], []).append(c)
    out = []
    for w in sorted(blocks, reverse=True):
        cols = blocks[w]
        rows = []
        for e in e_idx:
            for row in r.action[e]:
                vals = {i: row[c] for i, c in enumerate(cols) if c in row}
                if vals:
                    rows.append(vals)
        for kv in nullspace(rows, len(cols)):
            v = [0] * r.dim
            for i, x in kv.items():
                v[cols[i]] = x
            out.append((v, r.split_weight(w)))
    return out


def _fundamental(t, k):
    return realize_simple(t, tuple(1 if i == k else 0 for i in range(t.rank)))


class TestHighestWeightsMatchScan:
    @pytest.mark.parametrize("t", [A3, A4, C3, B3, D4], ids=str)
    def test_wedge2_tensor_direct_sum(self, t):
        nat, second = _fundamental(t, 0), _fundamental(t, 1)
        for r in (wedge2(nat), wedge2(second), tensor(nat, second),
                  tensor(nat, nat), direct_sum([nat, second, nat])):
            assert highest_weight_vectors(r) == scan_highest_weight_vectors(r)

    @pytest.mark.parametrize("t", [A3, A4], ids=str)
    def test_type2_coord_mask(self, t):
        from itertools import combinations
        from disemi.classify import type12_candidates
        spec = spec_of(t)
        seen = 0
        for cand in type12_candidates(t):
            if len(cand.labels) != 3:
                continue
            rep_a, rep_b = (realize_label(spec, label)
                            for label in cand.labels[:2])
            gen = direct_sum([rep_a, rep_b])
            pairs = combinations(range(gen.dim), 2)
            mask = [k for k, (i, j) in enumerate(pairs) if i < rep_a.dim <= j]
            w = wedge2(gen)
            # the unmasked vectors supported in A x B are the masked ones
            got = [(v, label) for v, label in highest_weight_vectors(w)
                   if all(k in mask for k, x in enumerate(v) if x)]
            assert got == scan_highest_weight_vectors(w, coord_mask=set(mask))
            assert cand.labels[2] in [label for _, label in got]
            seen += 1
        assert seen == 4


def all_pairs_homomorphism(r):
    """The bracket check on every unordered basis pair, the reference the
    generator check is compared with."""
    return all(r._bracket_holds(i, j)
               for j in range(r.algebra.dim) for i in range(j))


def _homomorphism_modules():
    from disemi.classify import DESK_BOUNDS, simple_labels_upto
    for t, bound in DESK_BOUNDS.items():
        for coords in simple_labels_upto(t, bound):
            yield realize_label(spec_of(t), (coords,))
    a1xa2 = spec_of(A1, A2)
    for label in (lab((1,), (1, 0)), lab((2,), (0, 1)), lab((1,), (1, 1))):
        yield realize_label(a1xa2, label)
    yield outer_tensor(natural(A1), natural(A2))
    yield _spin_rep(B3)
    yield _spin_rep(D4, parity=0)
    yield _spin_rep(D4, parity=1)
    yield spin16_d5()


def _corrupt(r, k):
    """A copy of r whose basis element k acts with entry (0, 0) raised
    by one."""
    action = [[dict(row) for row in m] for m in r.action]
    action[k][0][0] = action[k][0].get(0, 0) + 1
    return Representation(r.spec, r.algebra, action)


class TestGeneratorHomomorphismCheck:
    def test_agrees_with_all_pairs(self):
        count = 0
        for r in _homomorphism_modules():
            assert r.check_homomorphism() and all_pairs_homomorphism(r), r
            # a corrupted last basis element, never a generator
            bad = _corrupt(r, r.algebra.dim - 1)
            assert not bad.check_homomorphism()
            assert not all_pairs_homomorphism(bad)
            count += 1
        assert count >= 30

    def test_corrupt_non_simple_root_vector(self):
        from disemi.liealg import semidirect
        r = realize_label(spec_of(A3), lab((0, 1, 0)))
        _, e, _ = r.spec.generator_indices()
        # the root vector of alpha_1 + alpha_2 is [e_1, e_2]
        (k,) = r.algebra.structure(e[0], e[1])
        assert k not in r.generating_indices()
        bad = _corrupt(r, k)
        assert not bad.check_homomorphism()
        with pytest.raises(ValueError, match="homomorphism"):
            semidirect(r.algebra, bad)

    @pytest.mark.parametrize("make,pairs", [
        (lambda: natural(A4), 156),
        (spin16_d5, 395),
        (lambda: sl2_efh_natural(), 3),
    ], ids=["A4-L(1,0,0,0)", "D5-half-spin", "sl2-efh"])
    def test_pair_counts(self, monkeypatch, make, pairs):
        r = make()
        calls = []
        holds = Representation._bracket_holds
        monkeypatch.setattr(Representation, "_bracket_holds",
                            lambda self, i, j: calls.append((i, j))
                            or holds(self, i, j))
        assert r.check_homomorphism()
        assert len(calls) == len(set(calls)) == pairs

    def test_generating_indices(self):
        r = natural(A3)
        assert r.generating_indices() == frozenset(range(3, 9))
        assert sl2_efh_natural().generating_indices() == frozenset(range(3))


def _weight_basis_producers():
    """(name, module) for every constructor of repbuilder."""
    from disemi.classify import DESK_BOUNDS, simple_labels_upto
    a2 = spec_of(A2)
    yield "natural", natural(A2)
    for k in (0, 1, 3):
        yield "trivial-%d" % k, trivial(a2, k)
    yield "dual", dual(natural(A2))
    yield "tensor", tensor(natural(A2), natural(A2))
    yield "direct_sum", direct_sum([natural(A2), trivial(a2, 1)])
    yield "outer_tensor", outer_tensor(natural(A1), natural(A2))
    yield "wedge_power", wedge_power(natural(A3), 2)
    yield "sym2", sym2(natural(C2))
    yield "spin-B3", _spin_rep(B3)
    yield "spin-D4", _spin_rep(D4, parity=1)
    yield "spin16", spin16_d5()
    for t, bound in DESK_BOUNDS.items():
        for coords in simple_labels_upto(t, bound):
            yield "%s %s" % (t, coords), realize_label(spec_of(t), (coords,))


def _conjugated_natural_a1():
    """natural(A1) in the basis (v1, v1 + v2), where h is not diagonal."""
    from disemi.linalg import matmul
    p, p_inv = [{0: 1, 1: 1}, {1: 1}], [{0: 1, 1: -1}, {1: 1}]
    return [matmul(matmul(p_inv, m), p) for m in natural(A1).action]


class TestWorkedOutWeightBasis:
    def test_every_producer_gives_a_weight_basis(self):
        count = 0
        for name, r in _weight_basis_producers():
            assert r.weight_basis and r.algebra is r.spec.algebra(), name
            count += 1
        assert count == 38

    def test_non_diagonal_cartan_gives_none(self):
        spec = spec_of(A1)
        conj = _conjugated_natural_a1()
        assert conj[0][0] == {0: 1, 1: 2}
        r = Representation(spec, spec.algebra(), conj)
        assert r.check_homomorphism() and not r.weight_basis
        with pytest.raises(ValueError):
            highest_weight_vectors(r)
        # a module over a weightless one inherits no weight basis
        assert not tensor(r, natural(A1)).weight_basis

    def test_no_spec_or_another_algebra_gives_none(self):
        from disemi.liealg import dumps, loads
        r = natural(A2)
        assert not Representation(None, r.algebra, r.action).weight_basis
        # equal structure constants in another object: h is diagonal, but
        # spec.generator_indices() does not describe that algebra
        copy = Representation(r.spec, loads(dumps(r.algebra)), r.action)
        assert copy.check_homomorphism() and not copy.weight_basis


def commutator_bracket_holds(r, i, j):
    """The check that builds [A_i, A_j] and sum_k c_k A_k as matrices
    and compares them: the oracle for the fused defect pass of
    Representation._bracket_holds."""
    from disemi.linalg import combination, commutator
    expect = combination(((c, r.action[k]) for k, c
                          in r.algebra.structure(i, j).items()), r.dim)
    return commutator(r.action[i], r.action[j]) == expect


class TestFusedBracketCheck:
    @pytest.mark.parametrize("t", [A3, C3, B3, D4, D5], ids=str)
    def test_agrees_with_commutators(self, t):
        nat = natural(t)
        modules = ([spin16_d5()] if t == D5 else
                   [nat, wedge2(nat), tensor(nat, nat), dual(nat)])
        for r in modules:
            n = r.algebra.dim
            _, e, _ = r.spec.generator_indices()
            # the module, a corrupted last basis element and a corrupted
            # generator: every pair agrees, failing pairs included
            for bad in (r, _corrupt(r, n - 1), _corrupt(r, e[0])):
                verdicts = [bad._bracket_holds(i, j)
                            for i in range(n) for j in range(n)]
                assert verdicts == [commutator_bracket_holds(bad, i, j)
                                    for i in range(n) for j in range(n)], r
                assert all(verdicts) == (bad is r)


def single_span_cyclic_submodule(r, v0):
    """The closure with dense images and one IncrementalSpan over the
    whole module: the oracle for cyclic_submodule."""
    from disemi.linalg import IncrementalSpan, apply
    f_idx = r.spec.generator_indices()[2]
    span = IncrementalSpan()
    span.add(v0)
    basis = [list(v0)]
    frontier = [list(v0)]
    while frontier:
        new = []
        for v in frontier:
            for f in f_idx:
                img = apply(r.action[f], v)
                if any(img) and span.add(img):
                    basis.append(img)
                    new.append(img)
        frontier = new
    return basis


class TestCyclicSubmoduleMatchesSingleSpan:
    @pytest.mark.parametrize("t", [A3, A4], ids=str)
    def test_type12_wedge2(self, t):
        from disemi.classify import type12_candidates
        from disemi.repbuilder import cyclic_submodule
        spec = spec_of(t)
        count = 0
        for cand in type12_candidates(t):
            gens = [realize_label(spec, label) for label in cand.labels[:-1]]
            w = wedge2(gens[0] if len(gens) == 1 else direct_sum(gens))
            for v, _ in highest_weight_vectors(w):
                assert (cyclic_submodule(w, v)
                        == single_span_cyclic_submodule(w, v))
                count += 1
        assert count >= 12

    @pytest.mark.parametrize("t,coords", [
        (A3, (1, 1, 0)), (C3, (2, 0, 0)), (B3, (1, 1, 0)), (D4, (2, 0, 0, 0)),
    ], ids=str)
    def test_top_component(self, monkeypatch, t, coords):
        import disemi.repbuilder as rb
        calls = []
        cyclic = rb.cyclic_submodule

        def spy(r, v0):
            calls.append((r, v0, cyclic(r, v0)))
            return calls[-1][2]
        monkeypatch.setattr(rb, "cyclic_submodule", spy)
        rep = realize_simple.__wrapped__(t, coords)
        assert rep.dim == weyl_dim(t, coords) and calls
        for r, v0, got in calls:
            assert got == single_span_cyclic_submodule(r, v0)

    def test_no_weight_basis_or_weight_vector(self):
        from disemi.repbuilder import cyclic_submodule
        a1 = natural(A1)
        bent = Representation(a1.spec, a1.algebra, _conjugated_natural_a1())
        assert not bent.weight_basis
        with pytest.raises(ValueError, match="weight basis"):
            cyclic_submodule(bent, [1, 0])
        nat = natural(A2)
        with pytest.raises(ValueError, match="weight vectors"):
            cyclic_submodule(nat, [1, 1, 0])
        assert cyclic_submodule(nat, [1, 0, 0]) == [[1, 0, 0], [0, 1, 0],
                                                    [0, 0, 1]]

