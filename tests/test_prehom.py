import random
from fractions import Fraction

import pytest

from disemi.linalg import rank, zeros
from disemi.liealg import (LieAlgebra, Subspace, chevalley, full_subspace,
                           semidirect)
from disemi.prehom import (DecompositionCertificate, PrehomCertificate,
                           Randomized, Refusal, Symbolic, certify_disemisimple,
                           evaluation_matrix, has_trivial_summand,
                           is_etale, is_prehomogeneous, symbolic_generic_rank,
                           DIMENSION_BOUND, ETALE_EXCLUSION, TRIVIAL_SUMMAND,
                           SYMBOLIC_RANK_DEFICIT)
from disemi.repbuilder import (ModuleDescriptor, Representation, decompose,
                               direct_sum, dual, natural, outer_tensor,
                               realize, realize_label, spec_of, spin16_d5,
                               trivial)
from disemi.rootdata import SimpleType

A1 = SimpleType("A", 1)
A2 = SimpleType("A", 2)
C2 = SimpleType("C", 2)
D5 = SimpleType("D", 5)


def lab(*blocks):
    return tuple(tuple(b) for b in blocks)


class TestEvaluationMatrix:
    def test_zero_vector(self):
        r = natural(A1)
        ev = evaluation_matrix(r, [0, 0])
        assert ev.matrix == zeros(2, 3)
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

    def test_no_ranks_each_sample_point_once(self, monkeypatch):
        from disemi import syzygy
        r = realize_label(spec_of(A1, A1), lab((1,), (1,)))
        ranked = []
        build = syzygy.evaluation_rows
        monkeypatch.setattr(syzygy, "evaluation_rows",
                            lambda rep, v: ranked.append(v) or build(rep, v))
        assert not is_prehomogeneous(r, mode=Symbolic())
        assert ranked == syzygy.sample_points(r.dim)

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
        from disemi.classify import enumerate_modules
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
        from disemi.classify import enumerate_modules
        for t, bound in [(A2, 7), (C2, 9)]:
            spec = spec_of(t)
            for desc in enumerate_modules(spec, bound):
                rep = realize(spec, desc)
                a = bool(is_prehomogeneous(rep, mode=Symbolic()))
                b = bool(is_prehomogeneous(dual(rep), mode=Symbolic()))
                assert a == b, str(desc)


class TestEtale:
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
        rho = Representation(spec_of(A1), chevalley(A1), mats, False)
        g = semidirect(chevalley(A1), rho, n3)
        res = certify_disemisimple(g)
        assert isinstance(res, Refusal)
        assert res.reason == "radical_not_prehomogeneous"

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
        # conjugate sl2 x| V(2) by an invertible rational matrix and
        # certify from raw structure constants plus an explicit Levi
        from disemi.linalg import IncrementalSpan, matvec
        g = semidirect(chevalley(A1), natural(A1))
        t = [[1, 2, 0, 0, 1],
             [0, 1, 0, 3, 0],
             [1, 0, 1, 0, 0],
             [0, 0, 2, 1, 0],
             [0, 1, 0, 0, 1]]
        cols = [[t[a][b] for a in range(5)] for b in range(5)]
        # the solution x of t x = v is v's coordinates over t's columns
        col_span = IncrementalSpan(5)
        assert all(col_span.add(c) for c in cols)

        def transform(v):
            return matvec(t, v)

        def untransform(v):
            out = col_span.solve(v)
            assert out is not None
            return out

        table = {}
        for j in range(5):
            for i in range(j):
                w = untransform(g.bracket(cols[i], cols[j]))
                row = {k: c for k, c in enumerate(w) if c}
                if row:
                    table[(i, j)] = row
        g2 = LieAlgebra(5, table)
        from disemi.liealg import check_jacobi
        assert check_jacobi(g2)
        levi_rows = [untransform(g.basis_vector(i)) for i in range(3)]
        res = certify_disemisimple(g2, levi=Subspace(g2, levi_rows))
        assert isinstance(res, DecompositionCertificate)
        assert res.intersection_dim == 1

    def test_missing_levi_raises(self):
        n3 = LieAlgebra(3, {(0, 1): {2: 1}})
        with pytest.raises(ValueError):
            certify_disemisimple(n3)

    def test_bad_levi_raises(self):
        g = semidirect(chevalley(A1), natural(A1))
        bad = Subspace(g, [g.basis_vector(3), g.basis_vector(4)])
        with pytest.raises(ValueError):
            certify_disemisimple(g, levi=bad)


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
        from disemi.classify import enumerate_modules
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
