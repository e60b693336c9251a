import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

from disemi import prehom, symrank, syzygy
from disemi.classify import DESK_BOUNDS, enumerate_modules, vinberg_table
from disemi.linalg import dense, identity, rank, rank_mod_p, sparse
from disemi.liealg import (LieAlgebra, Subspace, chevalley, dumps,
                           full_subspace, loads, semidirect)
from disemi.liealg import direct_sum as direct_sum_algebras
from disemi.prehom import (DecompositionCertificate, Randomized, Refusal,
                           Symbolic, adjoint_radical_module,
                           certify_disemisimple, evaluation_matrix,
                           has_trivial_summand, is_etale, is_prehomogeneous,
                           DIMENSION_BOUND, ETALE_EXCLUSION, TRIVIAL_SUMMAND,
                           SYMBOLIC_RANK_DEFICIT)
from disemi.repbuilder import (ModuleDescriptor, Representation, direct_sum,
                               dual, natural, realize, realize_label, spec_of,
                               spin16_d5, trivial)
from disemi.rootdata import SimpleType

A1 = SimpleType("A", 1)
A2 = SimpleType("A", 2)
C2 = SimpleType("C", 2)
A3 = SimpleType("A", 3)
A4 = SimpleType("A", 4)
C3 = SimpleType("C", 3)
D5 = SimpleType("D", 5)


def lab(*blocks):
    return tuple(tuple(b) for b in blocks)


class TestEvaluationMatrix:
    def test_zero_vector(self):
        r = natural(A1)
        ev = evaluation_matrix(r, [0, 0])
        assert ev.matrix == [[0, 0, 0], [0, 0, 0]]
        assert ev.rank() == 0

    def test_worked_witness(self):
        # the 6x11 matrix at v = (0,0,1,0,1,0) has exact rank 6
        r = realize_label(spec_of(A1, A2), lab((1,), (0, 1)))
        ev = evaluation_matrix(r, [0, 0, 1, 0, 1, 0])
        assert ev.shape == (6, 11)
        assert ev.rank() == 6

    def test_natural_sl2(self):
        r = natural(A1)
        ev = evaluation_matrix(r, [1, 0])
        assert ev.shape == (2, 3)
        assert ev.rank() == 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluation_matrix(natural(A1), [1, 0, 0])


class TestFastPaths:
    def test_zero_module(self):
        cert = is_prehomogeneous(trivial(spec_of(A1), 0))
        assert cert and cert.witness == []

    def test_dimension_bound(self):
        cert = is_prehomogeneous(realize_label(spec_of(A1), lab((3,))))
        assert not cert and cert.reason == DIMENSION_BOUND

    def test_etale_exclusion(self):
        cert = is_prehomogeneous(realize_label(spec_of(A1), lab((2,))))
        assert not cert and cert.reason == ETALE_EXCLUSION

    def test_trivial_summand(self):
        cert = is_prehomogeneous(trivial(spec_of(A1), 1))
        assert not cert and cert.reason == TRIVIAL_SUMMAND
        r = direct_sum([natural(A2), trivial(spec_of(A2), 1)])
        assert has_trivial_summand(r)
        cert = is_prehomogeneous(r)
        assert cert.reason == TRIVIAL_SUMMAND

    @pytest.mark.parametrize("mode", ["bogus", 0, Symbolic])
    def test_unknown_mode_raises_before_the_fast_paths(self, mode):
        # a zero module, a dimension bound and a trivial summand would
        # each be decided before any mode is used
        for r in (trivial(spec_of(A1), 0), realize_label(spec_of(A1), lab((4,))),
                  trivial(spec_of(A1), 1)):
            with pytest.raises(ValueError, match="unknown mode"):
                is_prehomogeneous(r, mode=mode)
        # a certified Yes and a Refusal by the etale exclusion
        for module in (natural(A1), realize_label(spec_of(A1), lab((2,)))):
            with pytest.raises(ValueError, match="unknown mode"):
                certify_disemisimple(semidirect(chevalley(A1), module),
                                     mode=mode)


class TestVerdicts:
    def test_worked_example_yes(self):
        r = realize_label(spec_of(A1, A2), lab((1,), (0, 1)))
        cert = is_prehomogeneous(r)
        assert cert
        assert cert.rank == 6

    def test_two_naturals_no(self):
        r = realize_label(spec_of(A1, A1), lab((1,), (1,)))
        cert = is_prehomogeneous(r, mode=Symbolic())
        assert not cert
        assert cert.reason == SYMBOLIC_RANK_DEFICIT
        assert cert.generic_rank == 3

    def test_no_ranks_one_generic_point(self, monkeypatch):
        r = realize_label(spec_of(A1, A1), lab((1,), (1,)))
        ranked = []
        build = syzygy.evaluation_rows
        monkeypatch.setattr(syzygy, "evaluation_rows",
                            lambda rep, v: ranked.append(v) or build(rep, v))
        assert not is_prehomogeneous(r, mode=Symbolic())
        assert ranked == [syzygy.generic_point(r.dim)]

    def test_symbolic_yes_is_the_first_full_rank_sample_point(self):
        # over the Yes items of the A3 and C3 cross-check lists
        yes = 0
        for t in (A3, C3):
            for desc in enumerate_modules(spec_of(t), DESK_BOUNDS[t]):
                r = realize(spec_of(t), desc)
                cert = is_prehomogeneous(r, mode=Symbolic())
                if cert and cert.mode == "symbolic":
                    yes += 1
                    first = next(v for v in syzygy.sample_points(r.dim)
                                 if rank_mod_p(syzygy.evaluation_rows(r, v))
                                 == r.dim)
                    assert cert.witness == first, str(desc)
        assert yes

    @pytest.mark.parametrize("types,labels,verdict,generic_rank", [
        ((A1, A2), lab((1,), (0, 1)), True, None),
        ((A1, A1), lab((1,), (1,)), False, 3)])
    def test_zero_generic_point_costs_only_the_shortcut(
            self, monkeypatch, types, labels, verdict, generic_rank):
        # the rank at the zero vector is 0, far below the generic rank:
        # the elimination then gives the exact rank, and the verdict and
        # certificate stay as they are
        r = realize_label(spec_of(*types), labels)
        expect = is_prehomogeneous(r, mode=Symbolic())
        eliminations = []
        real = symrank.generic_rank
        monkeypatch.setattr(syzygy, "generic_point", lambda dim: [0] * dim)
        monkeypatch.setattr(symrank, "generic_rank",
                            lambda m, n: eliminations.append(n) or real(m, n))
        cert = is_prehomogeneous(r, mode=Symbolic())
        assert cert.to_json_dict() == expect.to_json_dict()
        assert bool(cert) is verdict and cert.generic_rank == generic_rank
        assert eliminations == [r.dim]

    def test_witness_from_the_stream_when_no_sample_point_has_full_rank(
            self, monkeypatch):
        r = realize_label(spec_of(A1, A2), lab((1,), (0, 1)))
        monkeypatch.setattr(syzygy, "sample_points",
                            lambda dim, count=40: [[0] * dim] * count)
        rnd = random.Random(syzygy.SAMPLE_SEED)
        while True:
            v = [rnd.randint(-99, 99) for _ in range(r.dim)]
            if rank_mod_p(syzygy.evaluation_rows(r, v)) == r.dim:
                break
        cert = is_prehomogeneous(r, mode=Symbolic())
        assert cert and cert.mode == "symbolic" and cert.witness == v

    def test_mixed_pair_yes(self):
        spec = spec_of(A1, A1)
        r = realize(spec, ModuleDescriptor([lab((0,), (1,)), lab((1,), (0,))]))
        assert is_prehomogeneous(r)

    def test_spin16_yes(self):
        cert = is_prehomogeneous(spin16_d5())
        assert cert and cert.rank == 16

    def test_randomized_escalates(self):
        # a deficient module must end at a certified No even in the
        # randomized mode
        r = realize_label(spec_of(A1, A1), lab((1,), (1,)))
        cert = is_prehomogeneous(r, mode=Randomized(seed=5, trials=3))
        assert not cert and cert.reason == SYMBOLIC_RANK_DEFICIT

    def test_witness_revalidation(self):
        r = natural(A1)
        cert = is_prehomogeneous(r)
        ev = evaluation_matrix(r, cert.witness)
        assert ev.rank() == r.dim

    def test_seed_determinism(self):
        r = realize_label(spec_of(A2), lab((1, 0)))
        a = is_prehomogeneous(r, mode=Randomized(seed=11))
        b = is_prehomogeneous(r, mode=Randomized(seed=11))
        assert a.witness == b.witness and a.trials_used == b.trials_used


class TestSoundness:
    def test_deficit_bounds_every_point(self):
        r = realize_label(spec_of(A1, A1), lab((1,), (1,)))
        cert = is_prehomogeneous(r, mode=Symbolic())
        rnd = random.Random(17)
        for _ in range(100):
            v = [rnd.randint(-30, 30) for _ in range(r.dim)]
            assert rank(evaluation_matrix(r, v).matrix) <= cert.generic_rank

    def test_modes_agree_on_suites(self):
        suites = [
            (spec_of(A2), 7),
            (spec_of(C2), 9),
            (spec_of(A1, A1), 5),
            (spec_of(A1, A2), 10),
        ]
        for spec, bound in suites:
            for desc in enumerate_modules(spec, bound):
                rep = realize(spec, desc)
                r1 = is_prehomogeneous(rep, mode=Randomized())
                r2 = is_prehomogeneous(rep, mode=Symbolic())
                assert bool(r1) == bool(r2), "%s over %s" % (desc, spec)

    def test_duality_invariance(self):
        for t, bound in [(A2, 7), (C2, 9)]:
            spec = spec_of(t)
            for desc in enumerate_modules(spec, bound):
                rep = realize(spec, desc)
                a = bool(is_prehomogeneous(rep, mode=Symbolic()))
                b = bool(is_prehomogeneous(dual(rep), mode=Symbolic()))
                assert a == b, str(desc)


class TestEtale:
    def test_dimensions_decide_first(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dim V != dim s needs no verdict")
        monkeypatch.setattr(prehom, "is_prehomogeneous", refuse)
        assert is_etale(natural(A1)) is False

    def test_never_etale_semisimple(self):
        assert not is_etale(realize_label(spec_of(A1), lab((2,))))
        assert not is_etale(realize_label(spec_of(A2), lab((1, 1))))
        assert not is_etale(natural(A1))  # prehomogeneous but dim 2 != 3


class TestCertify:
    def test_sl2_v2_certificate(self):
        g = semidirect(chevalley(A1), natural(A1))
        res = certify_disemisimple(g)
        assert isinstance(res, DecompositionCertificate)
        assert res.intersection_dim == 1
        # z lies in the radical block and is nonzero
        assert res.z[:3] == [0, 0, 0]
        assert any(res.z[3:])
        assert res.prehom is not None and res.prehom.witness is not None

    def test_sl2_v3_refused(self):
        g = semidirect(chevalley(A1), realize_label(spec_of(A1), lab((2,))))
        res = certify_disemisimple(g)
        assert isinstance(res, Refusal)
        assert res.reason == "radical_not_prehomogeneous"
        assert res.inner.reason == ETALE_EXCLUSION

    def test_sl2_n3_refused(self):
        n3 = LieAlgebra(3, {(0, 1): {2: 1}})
        mats = [[dict(row) for row in m] + [{}] for m in natural(A1).action]
        rho = Representation(spec_of(A1), chevalley(A1), mats)
        g = semidirect(chevalley(A1), rho, n3)
        res = certify_disemisimple(g)
        assert isinstance(res, Refusal)
        assert res.reason == "radical_not_prehomogeneous"

    def test_solvable_radical_not_nilpotent_refused(self):
        # sl2 + r2 with [x, y] = y: the radical r2 is solvable and not
        # nilpotent, so the paper's first condition fails
        r2 = LieAlgebra(2, {(0, 1): {1: 1}})
        g = direct_sum_algebras([chevalley(A1), r2])
        levi = Subspace(g, [g.basis_vector(i) for i in range(3)])
        res = certify_disemisimple(g, levi)
        assert res == Refusal(reason="radical_not_nilpotent", inner=None)
        assert res.to_json_dict() == {"refused": True,
                                      "reason": "radical_not_nilpotent"}

    def test_semisimple_self(self):
        g = chevalley(A1)
        res = certify_disemisimple(g, levi=full_subspace(g))
        assert isinstance(res, DecompositionCertificate)
        assert res.z == [0, 0, 0]
        assert res.intersection_dim == 3
        assert res.s2_basis == full_subspace(g)

    def test_certificate_invariants(self):
        from disemi.liealg import is_semisimple, subalgebra, sum_spans
        g = semidirect(chevalley(A1), natural(A1))
        res = certify_disemisimple(g)
        spans, inter = sum_spans(g, res.levi_basis, res.s2_basis)
        assert spans and inter == res.intersection_dim
        assert is_semisimple(subalgebra(g, res.s2_basis))
        # the converse construction recovers the radical: [s1, z] spans it
        from disemi.liealg import solvable_radical
        rad = solvable_radical(g)
        span_rows = [g.bracket(u, res.z) for u in res.levi_basis.basis]
        assert rank(span_rows) == rad.dim
        for row in span_rows:
            assert rad.contains(row)

    def test_certify_in_scrambled_coordinates(self):
        res = certify_disemisimple(*scrambled_sl2_natural())
        assert isinstance(res, DecompositionCertificate)
        assert res.intersection_dim == 1

    def test_bracket_check_rejects_one_corrupted_entry(self):
        # phi = exp(ad z) for a rational z has Fraction entries, and the
        # check sums them exactly; it must reject phi with any one entry
        # moved by 1/7
        from disemi.liealg import LinearMap, exp_ad
        from disemi.prehom import _is_bracket_preserving
        g = semidirect(chevalley(A1), natural(A1))
        phi = exp_ad(g, [0, 0, 0, Fraction(1, 3), Fraction(-2, 5)])
        assert any(type(x) is Fraction for row in phi.matrix
                   for x in row.values())
        assert _is_bracket_preserving(g, phi)
        for a in range(g.dim):
            for b in range(g.dim):
                m = [dict(row) for row in phi.matrix]
                m[a][b] = m[a].get(b, 0) + Fraction(1, 7)
                assert not _is_bracket_preserving(
                    g, LinearMap(g.dim, g.dim, m))

    def test_missing_levi_raises(self):
        n3 = LieAlgebra(3, {(0, 1): {2: 1}})
        with pytest.raises(ValueError):
            certify_disemisimple(n3)

    def test_bad_levi_raises(self):
        g = semidirect(chevalley(A1), natural(A1))
        bad = Subspace(g, [g.basis_vector(3), g.basis_vector(4)])
        with pytest.raises(ValueError):
            certify_disemisimple(g, levi=bad)


def conjugated(g, t):
    """g in the basis of the columns of the invertible matrix t, from
    raw structure constants, and the map from g's coordinates to the
    new ones (dense)."""
    from disemi.linalg import IncrementalSpan
    from disemi.liealg import check_jacobi
    n = g.dim
    cols = [[t[a][b] for a in range(n)] for b in range(n)]
    # the solution x of t x = v is v's coordinates over t's columns
    col_span = IncrementalSpan()
    assert all(col_span.add(c) for c in cols)

    def coords(v):
        out = col_span.solve(v)
        assert out is not None
        return dense(out, n)

    table = {}
    for j in range(n):
        for i in range(j):
            row = sparse(coords(g.bracket(cols[i], cols[j])))
            if row:
                table[(i, j)] = row
    g2 = LieAlgebra(n, table)
    assert check_jacobi(g2)
    return g2, coords


def scrambled_sl2_natural():
    """sl2 x| V(2) conjugated by an invertible rational matrix, with its
    Levi as an explicit Subspace whose rows are not unit vectors."""
    g = semidirect(chevalley(A1), natural(A1))
    g2, coords = conjugated(g, [[1, 2, 0, 0, 1],
                                [0, 1, 0, 3, 0],
                                [1, 0, 1, 0, 0],
                                [0, 0, 2, 1, 0],
                                [0, 1, 0, 0, 1]])
    return g2, Subspace(g2, [coords(g.basis_vector(i)) for i in range(3)])


@pytest.fixture(scope="module")
def type12_algebras():
    """(type, candidate, algebra) for the 12 A3/A4 type-1/2 candidates."""
    from disemi.classify import (construct_type1, construct_type2,
                                 type12_candidates)
    out = []
    for t in (A3, A4):
        for c in type12_candidates(t):
            build = construct_type1 if c.kind == "type1" else construct_type2
            out.append((t, c, build(t, *c.labels)))
    assert len(out) == 12
    return out


def type12_digests(type12_algebras):
    """{"type candidate": {"algebra": sha256 of dumps(g), "radical_action":
    sha256 of the radical module's action matrices}} for the 12
    constructions; tests/golden/type12_constructions.json holds them."""
    out = {}
    for t, c, g in type12_algebras:
        rep, _ = adjoint_radical_module(g, g.levi_basis)
        action = json.dumps([[[[b, str(Fraction(x))] for b, x in sorted(
            row.items())] for row in m] for m in rep.action],
            separators=(",", ":"))
        out["%s %s" % (t, c)] = {
            "algebra": hashlib.sha256(dumps(g).encode()).hexdigest(),
            "radical_action": hashlib.sha256(action.encode()).hexdigest()}
    return out


def test_type12_constructions_golden(type12_algebras):
    path = Path(__file__).parent / "golden" / "type12_constructions.json"
    assert type12_digests(type12_algebras) == json.loads(path.read_text())


def spy_calls(monkeypatch, module, *names):
    """{name: number of calls} for functions of a module."""
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, spy)
    return calls


def sc_round_trip(g):
    """g and its Levi as --sc reads them: from the JSON structure
    constants, with no Levi metadata."""
    g2 = loads(dumps(g))
    return g2, Subspace(g2, g.levi_basis.basis)


class TestWeightBasisRadical:
    def test_type12_radicals_have_a_weight_basis(self, type12_algebras):
        for t, c, g in type12_algebras:
            rep, _ = adjoint_radical_module(g, g.levi_basis)
            assert rep.weight_basis and rep.spec == spec_of(t), str(c)
            assert rep.algebra is spec_of(t).algebra()
            # an equal Levi that is not the recorded one: the same matrices
            plain, _ = adjoint_radical_module(g, Subspace(g, g.levi_basis.basis))
            assert not plain.weight_basis
            assert plain.action == rep.action

    def test_certify_takes_invariant_gradients(self, type12_algebras,
                                               monkeypatch):
        calls = spy_calls(monkeypatch, syzygy, "invariant_gradients",
                          "kernel_syzygies")
        for _, c, g in type12_algebras[:2]:
            res = certify_disemisimple(g)
            assert res.reason == "radical_not_prehomogeneous", str(c)
        assert calls["invariant_gradients"] and not calls["kernel_syzygies"]

    def test_cli_semidirect_has_a_weight_basis(self):
        from disemi.modexpr import parse_module, to_representation
        spec = spec_of(A3)
        module = to_representation(parse_module("3L(1,0,0)", spec), spec)
        g = semidirect(spec.algebra(), module)
        assert g.levi_spec == spec
        rep, _ = adjoint_radical_module(g, g.levi_basis)
        assert rep.weight_basis and rep.action == module.action
        assert certify_disemisimple(g)

    def test_sc_algebra_stays_weightless(self, type12_algebras, monkeypatch):
        g, levi = sc_round_trip(type12_algebras[0][2])
        assert g.levi_spec is None
        assert not adjoint_radical_module(g, levi)[0].weight_basis
        calls = spy_calls(monkeypatch, syzygy, "invariant_gradients",
                          "kernel_syzygies")
        assert not certify_disemisimple(g, levi)
        assert calls["kernel_syzygies"] and not calls["invariant_gradients"]

    @pytest.mark.slow
    def test_sc_round_trip_gives_the_same_refusal(self, type12_algebras):
        for _, c, g in type12_algebras:
            g2, levi2 = sc_round_trip(g)
            res, res2 = certify_disemisimple(g), certify_disemisimple(g2, levi2)
            assert res.inner.generic_rank is not None, str(c)
            assert res.to_json_dict() == res2.to_json_dict(), str(c)

    def test_mismatched_spec_falls_back(self, type12_algebras):
        # a trivial action is diagonal for any spec, so only the structure
        # constants tell A1xA2 from A2xA1 (both of dimension 11)
        spec = spec_of(A1, A2)
        g = semidirect(spec.algebra(), trivial(spec, 2))
        assert adjoint_radical_module(g, g.levi_basis)[0].weight_basis
        h = type12_algebras[0][2]
        for alg, other in ((g, spec_of(A2, A1)),
                           (h, spec_of(A1, A1, A1, A1, A1))):
            recorded = alg.levi_spec
            try:
                alg.levi_spec = other
                rep, _ = adjoint_radical_module(alg, alg.levi_basis)
            finally:
                alg.levi_spec = recorded
            assert not rep.weight_basis and rep.spec is None

    def test_non_diagonal_cartan_falls_back(self):
        # natural(A1) in the basis (v1, v1 + v2): h is not diagonal
        spec = spec_of(A1)
        m = [[{b: x for b, x in row.items()} for row in mat]
             for mat in natural(A1).action]
        conj = [[{0: r[0].get(0, 0) - r[1].get(0, 0),
                  1: r[0].get(0, 0) + r[0].get(1, 0) - r[1].get(0, 0)
                  - r[1].get(1, 0)},
                 {0: r[1].get(0, 0), 1: r[1].get(0, 0) + r[1].get(1, 0)}]
                for r in m]
        assert conj[0][0] == {0: 1, 1: 2}
        module = Representation(spec, spec.algebra(), conj)
        assert module.check_homomorphism()
        g = semidirect(spec.algebra(), module)
        assert g.levi_spec == spec
        rep, _ = adjoint_radical_module(g, g.levi_basis)
        assert not rep.weight_basis and rep.action == module.action
        assert certify_disemisimple(g)


def cli_semidirect(algebra="A3", module="3L(1,0,0)"):
    """s |x V for certify ALGEBRA MODULE, as the CLI builds it."""
    from disemi.modexpr import parse_algebra, parse_module, to_representation
    spec = parse_algebra(algebra)
    return semidirect(spec.algebra(), to_representation(
        parse_module(module, spec), spec))


def spy_solves(monkeypatch):
    """{"subalgebra": calls, "solve": calls of IncrementalSpan.solve}."""
    from disemi.linalg import IncrementalSpan
    calls = spy_calls(monkeypatch, prehom, "subalgebra")
    calls["solve"] = 0
    solve = IncrementalSpan.solve

    def spy(self, v):
        calls["solve"] += 1
        return solve(self, v)
    monkeypatch.setattr(IncrementalSpan, "solve", spy)
    return calls


class TestOneRadicalBuilder:
    def test_constructed_radicals_are_read_not_solved(self, type12_algebras,
                                                      monkeypatch):
        algebras = [g for _, _, g in type12_algebras] + [cli_semidirect()]
        calls = spy_solves(monkeypatch)
        for g in algebras:
            rep, rad = adjoint_radical_module(g, g.levi_basis)
            assert rep.weight_basis and rep.algebra is g.levi_spec.algebra()
            assert rad.dim == rep.dim == g.dim - g.levi_basis.dim
        assert calls == {"subalgebra": 0, "solve": 0}

    def test_certify_solves_nothing_on_constructions(self, type12_algebras,
                                                     monkeypatch):
        calls = spy_solves(monkeypatch)
        for _, c, g in type12_algebras:
            assert isinstance(certify_disemisimple(g), Refusal), str(c)
        assert calls == {"subalgebra": 0, "solve": 0}

    def test_other_bases_take_the_solve(self, type12_algebras, monkeypatch):
        for _, c, g in type12_algebras + [(A3, "3L(1,0,0)", cli_semidirect())]:
            rep, rad = adjoint_radical_module(g, g.levi_basis)
            with monkeypatch.context() as m:
                calls = spy_solves(m)
                # the radical with every row doubled: the same matrices
                scaled = Subspace(g, [[2 * x for x in r] for r in rad.basis])
                rep2, _ = adjoint_radical_module(g, g.levi_basis, scaled)
                ds, brackets = rep.algebra.dim, rep.dim * rep.algebra.dim
                assert calls == {"subalgebra": 0, "solve": brackets}
                assert rep2.weight_basis and rep2.action == rep.action, str(c)
                # the --sc round trip: no recorded spec, same matrices
                rep3, _ = adjoint_radical_module(*sc_round_trip(g))
                assert calls == {"subalgebra": 1,
                                 "solve": 2 * brackets + ds * (ds - 1) // 2}
            assert rep3.spec is None and not rep3.weight_basis
            assert rep3.action == rep.action, str(c)

    def test_recorded_levi_with_scaled_rows_is_solved(self):
        g = cli_semidirect()
        rep, _ = adjoint_radical_module(g, g.levi_basis)
        g.levi_basis = Subspace(g, [[2 * x for x in r]
                                    for r in g.levi_basis.basis])
        doubled, _ = adjoint_radical_module(g, g.levi_basis)
        assert doubled.spec is None and not doubled.weight_basis
        assert doubled.action == [[{b: 2 * x for b, x in row.items()}
                                   for row in m] for m in rep.action]

    def test_bracket_leaving_the_radical_raises(self):
        # read path: sl2 recorded on e_0..e_2, but [h, e_3] = e
        spec = spec_of(A1)
        g = LieAlgebra(4, {**spec.algebra().table, (0, 3): {1: 1}})
        g.levi_basis = Subspace(g, [g.basis_vector(i) for i in range(3)])
        g.levi_spec = spec
        with pytest.raises(ValueError, match="not stable"):
            adjoint_radical_module(g, g.levi_basis,
                                   Subspace(g, [g.basis_vector(3)]))
        # solve path: a second row that is no ideal
        g = semidirect(spec.algebra(), natural(A1))
        odd = Subspace(g, [g.basis_vector(3), [0, 0, 1, 0, 1]])
        with pytest.raises(ValueError, match="not stable"):
            adjoint_radical_module(g, g.levi_basis, odd)

    @pytest.mark.parametrize("table", [{}, {(0, 1): {2: 1}}],
                             ids=["abelian", "heisenberg"])
    def test_zero_levi(self, table):
        from disemi.liealg import zero_subspace
        g = LieAlgebra(len(table) + 2, table)
        levi = zero_subspace(g)
        with pytest.raises(ValueError, match="zero Levi"):
            adjoint_radical_module(g, levi)
        res = certify_disemisimple(g, levi)
        assert isinstance(res, Refusal)
        assert res.reason == "radical_not_prehomogeneous"
        assert res.inner.reason == DIMENSION_BOUND


def parent_certify(g, levi=None, mode=None):
    """(result, radical rows) of certify_disemisimple as it ran before
    the radical was read off the Levi split, as an oracle: the radical
    is solvable_radical's, and its lower central series comes after."""
    from disemi.liealg import (apply_map_subspace, exp_ad, is_semisimple,
                               lower_central_series, solvable_radical,
                               subalgebra, sum_spans)
    mode = prehom._checked_mode(mode)
    levi = levi if levi is not None else g.levi_basis
    spec = prehom._recorded_spec(g, levi)
    lev_alg = spec.algebra() if spec is not None else subalgebra(g, levi)
    assert is_semisimple(lev_alg)
    rad = solvable_radical(g)
    rows = [list(r) for r in rad.basis]
    assert levi.dim + rad.dim == g.dim
    assert sum_spans(g, levi, rad) == (True, 0)
    if lower_central_series(g, rad)[-1].dim:
        return Refusal(reason="radical_not_nilpotent"), rows
    cert = prehom.dimension_verdict(rad.dim, levi.dim)
    if cert is not None and not cert:
        return Refusal(reason="radical_not_prehomogeneous", inner=cert), rows
    rep, rad = adjoint_radical_module(g, levi, rad, lev_alg)
    cert = is_prehomogeneous(rep, mode=mode)
    if not cert:
        return Refusal(reason="radical_not_prehomogeneous", inner=cert), rows
    v = [0] * g.dim
    for c, row in zip(cert.witness, rad.basis):
        v = [x + c * y for x, y in zip(v, row)]
    z = [-x for x in v]
    phi = exp_ad(g, z)
    assert prehom._is_bracket_preserving(g, phi)
    s2 = apply_map_subspace(g, phi, levi)
    assert is_semisimple(subalgebra(g, s2))
    spans, inter = sum_spans(g, levi, s2)
    assert spans
    return DecompositionCertificate(levi_basis=levi, z=z, phi=phi,
                                    s2_basis=s2, intersection_dim=inter,
                                    prehom=cert), rows


def certify_seen(monkeypatch, g, levi=None):
    """(certify_disemisimple's result, the radical rows it checks
    against the Levi, calls of solvable_radical)."""
    seen = []
    with monkeypatch.context() as m:
        def spy(g, u1, u2, _real=prehom.sum_spans):
            seen.append([list(r) for r in u2.basis])
            return _real(g, u1, u2)
        m.setattr(prehom, "sum_spans", spy)
        calls = spy_calls(m, prehom, "solvable_radical")
        res = certify_disemisimple(g, levi)
    return res, seen[0], calls["solvable_radical"]


def sc_algebras(tmp_path):
    """{name: (algebra, Levi)} read by the CLI from the --sc fixtures of
    test_cli."""
    from disemi.cli import _read_sc
    from test_cli import sc_payload, sl2_natural_rescaled, sl3_sym2
    r2 = LieAlgebra(2, {(0, 1): {1: 1}})
    payloads = {
        "sl2-natural": sc_payload(semidirect(chevalley(A1), natural(A1)), 3),
        "sl2-natural-rescaled": sl2_natural_rescaled(),
        "sl3-sym2": sl3_sym2(),
        "sl2+r2": sc_payload(direct_sum_algebras([chevalley(A1), r2]), 3),
        "abelian": {"algebra": {"dim": 2, "entries": []}, "levi_basis": []},
        "heisenberg": {"algebra": {"dim": 3, "entries": [[0, 1, [[2, 1]]]]},
                       "levi_basis": []},
    }
    out = {}
    for name, payload in payloads.items():
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(payload))
        out[name] = _read_sc(path)
    return out


class TestRadicalReadOffTheSplit:
    """certify_disemisimple against parent_certify: an equal result and
    the same radical, row for row; the read-off runs no
    solvable_radical, the fallback and the general path run it once."""

    def check(self, monkeypatch, g, levi=None, searched=0):
        res, rows, calls = certify_seen(monkeypatch, g, levi)
        expect, expect_rows = parent_certify(g, levi)
        assert res == expect and res.to_json_dict() == expect.to_json_dict()
        assert rows == expect_rows and calls == searched
        return res

    def test_type12_constructions(self, type12_algebras, monkeypatch):
        for _, c, g in type12_algebras:
            res = self.check(monkeypatch, g)
            assert res.reason == "radical_not_prehomogeneous", str(c)

    @pytest.mark.parametrize("algebra,module", [
        ("A1", "nat"), ("A3", "3L(1,0,0)"), ("A4", "2L(0,0,1,0)"),
        ("C3", "L(1,0,0)"), ("A2", "L(2,0)"), ("C3", "L(0,1,0)")])
    def test_cli_certify_examples(self, monkeypatch, algebra, module):
        self.check(monkeypatch, cli_semidirect(algebra, module))

    def test_sc_fixtures(self, monkeypatch, tmp_path):
        verdicts = {}
        for name, (g, levi) in sc_algebras(tmp_path).items():
            # sl2 + r2: r2 is an ideal, but not nilpotent
            searched = 1 if name == "sl2+r2" else 0
            res = self.check(monkeypatch, g, levi, searched)
            verdicts[name] = getattr(res, "reason", "certified")
        assert verdicts == {
            "sl2-natural": "certified", "sl2-natural-rescaled": "certified",
            "sl3-sym2": "radical_not_prehomogeneous",
            "sl2+r2": "radical_not_nilpotent",
            "abelian": "radical_not_prehomogeneous",
            "heisenberg": "radical_not_prehomogeneous"}

    def test_semisimple_algebra_reads_a_zero_radical(self, monkeypatch):
        g = chevalley(A1)
        res = self.check(monkeypatch, g, full_subspace(g))
        assert isinstance(res, DecompositionCertificate)

    def test_sl2_plus_r2_falls_back(self, monkeypatch):
        r2 = LieAlgebra(2, {(0, 1): {1: 1}})
        g = direct_sum_algebras([chevalley(A1), r2])
        levi = Subspace(g, [g.basis_vector(i) for i in range(3)])
        res = self.check(monkeypatch, g, levi, searched=1)
        assert res.reason == "radical_not_nilpotent"

    def test_solvable_module_algebra_with_a_recorded_spec_falls_back(
            self, monkeypatch):
        # sl2 acting trivially on r2: the trailing unit vectors span a
        # solvable ideal that is not nilpotent
        spec = spec_of(A1)
        g = semidirect(spec.algebra(), trivial(spec, 2),
                       LieAlgebra(2, {(0, 1): {1: 1}}))
        assert g.levi_spec == spec
        res = self.check(monkeypatch, g, searched=1)
        assert res.reason == "radical_not_nilpotent"

    def test_scrambled_levi_takes_the_general_path(self, monkeypatch):
        res = self.check(monkeypatch, *scrambled_sl2_natural(), searched=1)
        assert isinstance(res, DecompositionCertificate)

    def test_scrambled_levi_over_the_trailing_radical(self, monkeypatch):
        # sl2 x| V(2) in the basis h + v1, e + 2 v2, f, v1, v2: the
        # radical is still e_3, e_4, but the Levi rows leave e_0..e_2
        g, coords = conjugated(semidirect(chevalley(A1), natural(A1)),
                               [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                [0, 0, 1, 0, 0], [1, 0, 0, 1, 0],
                                [0, 2, 0, 0, 1]])
        levi = Subspace(g, [coords(r) for r in identity(5)[:3]])
        assert levi.basis[:2] == [[1, 0, 0, -1, 0], [0, 1, 0, 0, -2]]
        assert isinstance(self.check(monkeypatch, g, levi, searched=1),
                          DecompositionCertificate)

    def test_nilpotent_non_ideal_falls_back(self, monkeypatch):
        # sl2 x| V(2) in the basis h, e, f, v1, v2 + e: the Levi still
        # spans e_0..e_2, and e_3, e_4 span an abelian subalgebra, but
        # [f, v2 + e] = -h leaves it; the radical is e_3 and e_4 - e_1
        g, _ = conjugated(semidirect(chevalley(A1), natural(A1)),
                          [[1, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 1, 0, 0],
                           [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
        levi = Subspace(g, [g.basis_vector(i) for i in range(3)])
        _, rows, _ = certify_seen(monkeypatch, g, levi)
        assert rows == [[0, 0, 0, 1, 0], [0, -1, 0, 0, 1]]
        assert isinstance(self.check(monkeypatch, g, levi, searched=1),
                          DecompositionCertificate)


def a4_type1_radical_module(type12_algebras):
    g = next(g for t, c, g in type12_algebras
             if t == A4 and c.kind == "type1")
    return adjoint_radical_module(g, g.levi_basis)[0]


class TestEarlyEscalation:
    @pytest.mark.parametrize("build", [
        lambda _: realize_label(spec_of(SimpleType("B", 3)), lab((0, 0, 1))),
        lambda _: realize_label(spec_of(A1, A1), lab((1,), (1,))),
        a4_type1_radical_module,
    ])
    def test_no_takes_one_trial(self, build, type12_algebras, monkeypatch):
        r = build(type12_algebras)
        expect = is_prehomogeneous(r, mode=Symbolic())
        calls = spy_calls(monkeypatch, prehom, "_witness_rank")
        certified = spy_calls(monkeypatch, syzygy, "generic_rank_certified")
        ranked = []
        rows = syzygy.evaluation_rows
        monkeypatch.setattr(syzygy, "evaluation_rows",
                            lambda rep, v: ranked.append(v) or rows(rep, v))
        cert = is_prehomogeneous(r)
        assert calls["_witness_rank"] == certified["generic_rank_certified"] == 1
        assert ranked.count(syzygy.generic_point(r.dim)) == 1
        assert cert == expect and not cert

    @pytest.mark.parametrize("r,seed,witness", [
        (natural(A1), 473, [-9, -10]),
        (realize_label(spec_of(A1, A2), lab((1,), (0, 1))), 184,
         [9, 7, -4, 4, 8, -10]),
    ])
    def test_yes_after_a_failed_trial_keeps_its_witness(self, r, seed, witness,
                                                        monkeypatch):
        # the witness and trial count the search gave before it escalated
        # early; the one missed box takes the generic rank once
        calls = spy_calls(monkeypatch, syzygy, "generic_rank_certified")
        cert = is_prehomogeneous(r, mode=Randomized(seed=seed))
        assert cert.mode == "randomized" and cert.seed == seed
        assert cert.witness == witness and cert.trials_used == 2
        assert calls["generic_rank_certified"] == 1

    @pytest.mark.parametrize("mode,certified", [
        (Randomized(), 0), (Randomized(trials=0), 1), (Symbolic(), 1)])
    def test_yes_certifies_at_most_once(self, mode, certified, monkeypatch):
        # natural(A1) has a witness in the first box of the default seed
        calls = spy_calls(monkeypatch, syzygy, "generic_rank_certified")
        assert is_prehomogeneous(natural(A1), mode=mode)
        assert calls["generic_rank_certified"] == certified


def two_flow_decide(r, mode=None):
    """is_prehomogeneous as it was before the box search and the
    symbolic engine were one flow, with the mod-PRIME rank at the generic
    point as the escalation test: the reference for the one flow."""
    mode = mode if mode is not None else Randomized()
    cert = prehom.dimension_verdict(r.dim, r.algebra.dim)
    if cert is not None:
        return cert
    if has_trivial_summand(r):
        return prehom.PrehomCertificate(verdict="not_prehomogeneous",
                                        reason=TRIVIAL_SUMMAND,
                                        mode="fast_path")
    if isinstance(mode, Randomized):
        rnd = random.Random(mode.seed)
        for trial in range(mode.trials):
            v = [rnd.randint(-prehom.COORD_BOUND, prehom.COORD_BOUND)
                 for _ in range(r.dim)]
            rows = syzygy.evaluation_rows(r, v)
            if rank_mod_p(rows, stop_at=r.dim) == r.dim:
                return prehom._validated_yes(r, v, rows, mode="randomized",
                                             seed=mode.seed,
                                             trials_used=trial + 1)
            if not trial and rank_mod_p(
                    syzygy.evaluation_rows(r, syzygy.generic_point(r.dim)),
                    stop_at=r.dim) < r.dim:
                break
    grank = syzygy.generic_rank_certified(r)
    if grank < r.dim:
        return prehom.PrehomCertificate(verdict="not_prehomogeneous",
                                        reason=SYMBOLIC_RANK_DEFICIT,
                                        generic_rank=grank, mode="symbolic")
    rnd = random.Random(syzygy.SAMPLE_SEED)
    stream = ([rnd.randint(-99, 99) for _ in range(r.dim)]
              for _ in range(1000))
    for v in chain(syzygy.sample_points(r.dim), stream):
        rows = syzygy.evaluation_rows(r, v)
        if rank_mod_p(rows, stop_at=r.dim) == r.dim:
            return prehom._validated_yes(r, v, rows, mode="symbolic")
    raise AssertionError("full generic rank but no witness found")


ORACLE_MODES = [Symbolic()] + [Randomized(seed=s) for s in (1, 2, 3)]


def assert_flows_agree(modules):
    for name, r in modules:
        for mode in ORACLE_MODES:
            got = is_prehomogeneous(r, mode=mode).to_json_dict()
            assert got == two_flow_decide(r, mode).to_json_dict(), (name, mode)


class TestOneFlowMatchesTwoFlows:
    """is_prehomogeneous gives the certificates of two_flow_decide, in
    the Symbolic mode and in three Randomized seeds."""

    @pytest.mark.parametrize("t", [
        A3, C3, pytest.param(SimpleType("D", 4), marks=pytest.mark.slow)],
        ids=str)
    def test_cross_check_lists(self, t):
        spec = spec_of(t)
        assert_flows_agree([(str(d), realize(spec, d))
                            for d in enumerate_modules(spec, DESK_BOUNDS[t])])

    @pytest.mark.parametrize("t", [
        A3, pytest.param(A4, marks=pytest.mark.slow)], ids=str)
    def test_type12_radicals(self, t, type12_algebras):
        assert_flows_agree([
            (str(c), adjoint_radical_module(g, g.levi_basis)[0])
            for s, c, g in type12_algebras if s == t])

    @pytest.mark.parametrize("t", [
        A2, A3, pytest.param(A4, marks=pytest.mark.slow), C2, C3], ids=str)
    def test_vinberg_entries(self, t):
        modules = [(str(d), realize(spec_of(t), d)) for d in vinberg_table(t)]
        assert modules
        assert_flows_agree(modules)


class TestWitnessRowsBuiltOnce:
    """The evaluation matrix at each point is built once: the mod-PRIME
    screen and the exact re-validation of a witness share it."""

    @pytest.mark.parametrize("mode", [Randomized(), Randomized(seed=184),
                                      Symbolic()], ids=str)
    def test_each_point_is_evaluated_once(self, mode, monkeypatch):
        r = realize_label(spec_of(A1, A2), lab((1,), (0, 1)))
        expect = two_flow_decide(r, mode)
        points = Counter()
        rows = syzygy.evaluation_rows
        monkeypatch.setattr(syzygy, "evaluation_rows", lambda rep, v: (
            points.update([tuple(v)]) or rows(rep, v)))
        cert = is_prehomogeneous(r, mode=mode)
        assert cert and cert.to_json_dict() == expect.to_json_dict()
        assert points[tuple(cert.witness)] == 1
        assert max(points.values()) == 1


class TestSerialization:
    def test_prehom_json(self):
        r = natural(A1)
        cert = is_prehomogeneous(r)
        d = cert.to_json_dict()
        assert d["verdict"] == "prehomogeneous"
        assert all(isinstance(x, str) for x in d["witness"])
        assert d["rank"] == 2
        import json
        assert json.loads(cert.to_json()) == d

    def test_deficit_json(self):
        r = realize_label(spec_of(A1, A1), lab((1,), (1,)))
        cert = is_prehomogeneous(r, mode=Symbolic())
        d = cert.to_json_dict()
        assert d["reason"] == SYMBOLIC_RANK_DEFICIT
        assert d["generic_rank"] == 3

    def test_certificate_json(self):
        g = semidirect(chevalley(A1), natural(A1))
        res = certify_disemisimple(g)
        d = res.to_json_dict()
        assert d["refused"] is False
        assert d["intersection_dim"] == 1
        assert len(d["phi"]) == 5


class TestEtaleDimensionModules:
    def test_the_four_exist(self):
        # exactly these modules with dim V = dim s exist over A1, A2, C2
        found = {}
        for t in (A1, A2, C2):
            spec = spec_of(t)
            found[str(t)] = [str(d) for d in enumerate_modules(spec, spec.dim)
                             if d.total_dim(spec) == spec.dim]
        assert found == {
            "A1": ["L(2)"],
            "A2": ["L(1,1)"],
            "C2": ["2L(0,1)", "L(2,0)"],
        }
