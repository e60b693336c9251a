"""One verified Levi split per algebra: prehom.levi_split, shared by
classify's constructions and certify_disemisimple, and the column test
of liealg.is_ideal.  The oracles keep the construct and certify flow
from before the split was shared, each computing its own series,
radical module and residue-path ideal test."""

from collections import Counter
from itertools import combinations

import pytest

from disemi import classify, liealg, prehom
from disemi.classify import (construct_type1, construct_type2,
                             type12_candidates)
from disemi.linalg import matmul, rank, sparse
from disemi.liealg import (LieAlgebra, Subspace, chevalley, dumps, is_ideal,
                           is_semisimple, semidirect, subalgebra)
from disemi.liealg import direct_sum as direct_sum_algebras
from disemi.prehom import certify_disemisimple, levi_split
from disemi.repbuilder import (ModuleDescriptor, Representation,
                               cyclic_submodule, decompose,
                               highest_weight_vectors, natural,
                               realize_label, spec_of, tensor, trivial,
                               wedge2)
from disemi.rootdata import SimpleType

from test_prehom import conjugated, sc_algebras, spy_calls

A1 = SimpleType("A", 1)
A3 = SimpleType("A", 3)
A4 = SimpleType("A", 4)


def residue_is_ideal(g, sub):
    """is_ideal before the column test: every nonzero [r, b_i] goes
    through Subspace.contains."""
    for r in map(sparse, sub.basis):
        out = {}
        for j, x in r.items():
            for i, row in g.brackets[j].items():
                v = out.setdefault(i, {})
                for k, c in row.items():
                    v[k] = v.get(k, 0) + x * c
        if not all(map(sub.contains, out.values())):
            return False
    return True


def facts(rad, series, module):
    """(radical rows, series dimensions, radical-module action or None)."""
    return ([list(r) for r in rad.basis], [s.dim for s in series],
            module.action if module is not None else None)


def parent_construct(t, labels):
    """(g, facts) of classify._construct_two_step before the shared
    split: its own series of the trailing unit vectors and its own
    radical module for the checks."""
    spec = classify._spec(t)
    labels = tuple(spec.coerce_label(label) for label in labels)
    gens = [realize_label(spec, label) for label in labels[:-1]]
    derived = wedge2(gens[0]) if len(gens) == 1 else tensor(*gens)
    hws = highest_weight_vectors(derived)
    keep = next(v for v, label in hws if label == labels[-1])
    f, tau = liealg.free_two_step(*gens, derived=derived)
    d = f.dim - derived.dim
    u = Subspace(f, [[0] * d + w for v, _ in hws if v is not keep
                     for w in cyclic_submodule(derived, v)])
    n, proj = liealg.quotient_by_ideal(f, u)
    pivots = set(u.pivots)
    index = {c: a for a, c in enumerate(c for c in range(f.dim)
                                         if c not in pivots)}
    action = [matmul(proj.matrix, [{index[c]: y for c, y in row.items()
                                    if c in index} for row in m])
              for m in tau.action]
    s = spec.algebra()
    g = semidirect(s, Representation(spec, s, action), n)
    assert g.dim == spec.dim + d + spec.label_dim(labels[-1])
    rad = Subspace(g, [g.basis_vector(i) for i in range(s.dim, g.dim)])
    series = liealg.lower_central_series(g, rad)
    assert len(series) == 3 and series[-1].dim == 0
    module = prehom.adjoint_radical_module(g, g.levi_basis, rad)[0]
    assert decompose(module) == ModuleDescriptor(labels)
    return g, facts(rad, series, module)


def parent_certify(g, levi=None):
    """(result, facts) of certify_disemisimple before the shared split:
    _recorded_spec, the series and the radical module computed afresh,
    the ideal test on the residue path."""
    levi = levi if levi is not None else g.levi_basis
    spec = prehom._recorded_spec(g, levi)
    lev_alg = spec.algebra() if spec is not None else subalgebra(g, levi)
    assert rank(liealg.killing_form(lev_alg)) == lev_alg.dim
    ds, series = levi.dim, None
    if not any(x for r in levi.basis for x in r[ds:]):
        rad = Subspace(g, [g.basis_vector(i) for i in range(ds, g.dim)])
        if residue_is_ideal(g, rad):
            series = liealg.lower_central_series(g, rad)
    if series is None or series[-1].dim:
        rad = liealg.solvable_radical(g)
        series = liealg.lower_central_series(g, rad)
    assert levi.dim + rad.dim == g.dim
    assert liealg.sum_spans(g, levi, rad) == (True, 0)
    if series[-1].dim:
        return (prehom.Refusal(reason=prehom.RADICAL_NOT_NILPOTENT),
                facts(rad, series, None))
    cert = prehom.dimension_verdict(rad.dim, levi.dim)
    if cert is not None and not cert:
        return (prehom.Refusal(reason=prehom.RADICAL_NOT_PREHOMOGENEOUS,
                               inner=cert), facts(rad, series, None))
    rep, rad = prehom.adjoint_radical_module(g, levi, rad, lev_alg)
    cert = prehom.is_prehomogeneous(rep)
    if not cert:
        return (prehom.Refusal(reason=prehom.RADICAL_NOT_PREHOMOGENEOUS,
                               inner=cert), facts(rad, series, rep))
    v = [0] * g.dim
    for c, row in zip(cert.witness, rad.basis):
        v = [x + c * y for x, y in zip(v, row)]
    z = [-x for x in v]
    phi = liealg.exp_ad(g, z)
    assert prehom._is_bracket_preserving(g, phi)
    s2 = liealg.apply_map_subspace(g, phi, levi)
    assert is_semisimple(subalgebra(g, s2))
    spans, inter = liealg.sum_spans(g, levi, s2)
    assert spans
    return (prehom.DecompositionCertificate(
        levi_basis=levi, z=z, phi=phi, s2_basis=s2, intersection_dim=inter,
        prehom=cert), facts(rad, series, rep))


def certify_observed(monkeypatch, g, levi=None):
    """(certify_disemisimple's result, facts as it reached them): the
    radical it checks against the Levi, the series of its split (kept
    on g) or of the searched radical, and the module it decides."""
    seen = {"rows": [], "series": [], "module": []}
    with monkeypatch.context() as m:
        def sums(g, u1, u2, _real=prehom.sum_spans):
            seen["rows"].append(u2)
            return _real(g, u1, u2)

        def lower(g, sub, _real=prehom.lower_central_series):
            seen["series"].append(_real(g, sub))
            return seen["series"][-1]

        def decide(r, mode=None, _real=prehom.is_prehomogeneous):
            seen["module"].append(r)
            return _real(r, mode=mode)
        m.setattr(prehom, "sum_spans", sums)
        m.setattr(prehom, "lower_central_series", lower)
        m.setattr(prehom, "is_prehomogeneous", decide)
        res = certify_disemisimple(g, levi)
    split = levi_split(g, levi)
    series = split.series if split.radical is not None else seen["series"][-1]
    module = seen["module"][0] if seen["module"] else None
    return res, facts(seen["rows"][0], series, module)


def type12_items():
    return [(t, c) for t in (A3, A4) for c in type12_candidates(t)]


def construct(t, c):
    build = construct_type1 if c.kind == "type1" else construct_type2
    return build(t, *c.labels)


def fallback_cases():
    """(name, g, levi) for the three algebras whose trailing unit
    vectors do not give the radical."""
    r2 = LieAlgebra(2, {(0, 1): {1: 1}})
    sl2_r2 = direct_sum_algebras([chevalley(A1), r2])
    spec = spec_of(A1)
    trivial_r2 = semidirect(spec.algebra(), trivial(spec, 2), r2)
    # sl2 x| V(2) in the basis h, e, f, v1, v2 + e
    non_ideal, _ = conjugated(semidirect(chevalley(A1), natural(A1)),
                              [[1, 0, 0, 0, 0], [0, 1, 0, 0, 1],
                               [0, 0, 1, 0, 0], [0, 0, 0, 1, 0],
                               [0, 0, 0, 0, 1]])
    return [("sl2+r2", sl2_r2, leading(sl2_r2, 3)),
            ("sl2 trivially on r2", trivial_r2, None),
            ("nilpotent non-ideal", non_ideal, leading(non_ideal, 3))]


def leading(g, ds):
    return Subspace(g, [g.basis_vector(i) for i in range(ds)])


class TestSplitMatchesTheParentFlow:
    """Construct and certify over one split give what the parent's
    flow gave: the algebra, the certificate JSON, the radical rows, the
    series dimensions and the radical-module matrices."""

    @pytest.mark.parametrize("t,c", type12_items(), ids=str)
    def test_type12_constructions(self, t, c, monkeypatch):
        expect_g, expect_built = parent_construct(t, c.labels)
        g = construct(t, c)
        assert dumps(g) == dumps(expect_g)
        split = g.split
        assert facts(split.radical, split.series,
                     split.module) == expect_built
        res, seen = certify_observed(monkeypatch, g)
        expect, expect_seen = parent_certify(expect_g)
        assert res == expect and res.to_json_dict() == expect.to_json_dict()
        assert seen == expect_seen == expect_built
        # a second certify reads the same split and says the same
        assert certify_disemisimple(g).to_json_dict() == res.to_json_dict()
        assert g.split is split

    def test_sc_fixtures(self, monkeypatch, tmp_path):
        for name, (g, levi) in sc_algebras(tmp_path).items():
            res, seen = certify_observed(monkeypatch, g, levi)
            expect, expect_seen = parent_certify(g, levi)
            assert res == expect, name
            assert res.to_json_dict() == expect.to_json_dict(), name
            assert seen == expect_seen, name

    def test_fallback_cases(self, monkeypatch):
        for name, g, levi in fallback_cases():
            calls = spy_calls(monkeypatch, prehom, "solvable_radical")
            res, seen = certify_observed(monkeypatch, g, levi)
            expect, expect_seen = parent_certify(g, levi)
            assert res == expect, name
            assert res.to_json_dict() == expect.to_json_dict(), name
            assert seen == expect_seen, name
            # the searched radical is not kept: each certify searches
            assert calls["solvable_radical"] == 1, name
            assert levi_split(g, levi).radical is None, name


class TestOneSplitPerAlgebra:
    def test_a4_type1_runs_the_series_once(self, monkeypatch):
        c = next(c for c in type12_candidates(A4) if c.kind == "type1")
        series = Counter()
        for module in (prehom, liealg):
            real = module.lower_central_series

            def spy(g, sub=None, _real=real):
                series[sub.dim if sub is not None else None] += 1
                return _real(g, sub)
            monkeypatch.setattr(module, "lower_central_series", spy)
        calls = spy_calls(monkeypatch, prehom, "_recorded_spec",
                          "solvable_radical", "adjoint_radical_module")
        g = construct(A4, c)
        assert list(series.values()) == [1]
        assert not certify_disemisimple(g)
        assert series == {g.dim - g.levi_basis.dim: 1}
        assert calls == {"_recorded_spec": 1, "solvable_radical": 0,
                         "adjoint_radical_module": 0}

    def test_killing_form_ranked_once_per_levi_algebra(self, monkeypatch):
        ranked = []
        real = liealg.killing_form

        def spy(g):
            ranked.append(g)      # keeps g alive, so ids stay distinct
            return real(g)
        monkeypatch.setattr(liealg, "killing_form", spy)
        for t, c in type12_items()[:4]:
            g = construct(t, c)
            certify_disemisimple(g)
            certify_disemisimple(g)
        levi = chevalley(A1)
        g = semidirect(levi, natural(A1))
        assert certify_disemisimple(g) and certify_disemisimple(g)
        assert max(Counter(map(id, ranked)).values()) == 1
        assert sum(h is levi for h in ranked) <= 1

    def test_memo_follows_the_recorded_levi(self):
        spec = spec_of(A1)
        g = semidirect(spec.algebra(), natural(A1))
        split = levi_split(g)
        assert split.spec == spec and levi_split(g) is split
        # an equal Levi that is another object: a split of its own
        other = levi_split(g, Subspace(g, g.levi_basis.basis))
        assert other is not split and other.spec is None
        assert other.radical.basis == split.radical.basis
        recorded = g.levi_spec
        try:
            g.levi_spec = spec_of(SimpleType("A", 2))
            assert levi_split(g).spec is None
        finally:
            g.levi_spec = recorded
        assert levi_split(g).spec == spec

    def test_no_levi_raises(self):
        g = LieAlgebra(2, {(0, 1): {1: 1}})
        with pytest.raises(ValueError, match="no Levi"):
            levi_split(g)
        assert g.split is None


def unit_spans(g):
    """Every Subspace of g spanned by unit vectors, one row scaled by 2."""
    for k in range(g.dim + 1):
        for cols in combinations(range(g.dim), k):
            rows = [g.basis_vector(i) for i in cols]
            if rows:
                rows[0] = [2 * x for x in rows[0]]
            yield Subspace(g, rows)


class TestColumnTest:
    """is_ideal on a span of unit vectors decides by the columns of
    g.brackets, as the residue path does, and asks no residue."""

    def named_spans(self):
        sl2 = chevalley(A1)
        sd = semidirect(chevalley(A1), natural(A1))
        sl2_r2 = direct_sum_algebras(
            [chevalley(A1), LieAlgebra(2, {(0, 1): {1: 1}})])
        return [(sl2, Subspace(sl2, [sl2.basis_vector(1)]), False),
                (sd, sd.levi_basis, False),
                (sl2_r2, Subspace(sl2_r2, [sl2_r2.basis_vector(3),
                                           sl2_r2.basis_vector(4)]), True)]

    def test_named_spans(self, monkeypatch):
        residues = spy_calls(monkeypatch, Subspace, "contains")
        for g, sub, ideal in self.named_spans():
            assert is_ideal(g, sub) is ideal
        assert residues == {"contains": 0}
        for g, sub, ideal in self.named_spans():
            assert residue_is_ideal(g, sub) is ideal

    def test_every_unit_span(self):
        sl2_r2 = direct_sum_algebras(
            [chevalley(A1), LieAlgebra(2, {(0, 1): {1: 1}})])
        for g in (chevalley(A1), semidirect(chevalley(A1), natural(A1)),
                  sl2_r2, chevalley(SimpleType("A", 2))):
            verdicts = Counter()
            for sub in unit_spans(g):
                verdicts[is_ideal(g, sub)] += 1
                assert is_ideal(g, sub) == residue_is_ideal(g, sub)
            assert verdicts[True] >= 2 and verdicts[False], g

    def test_constructed_radicals(self):
        for t, c in type12_items():
            g = construct(t, c)
            ds = g.levi_basis.dim
            rad = Subspace(g, [g.basis_vector(i) for i in range(ds, g.dim)])
            assert is_ideal(g, rad) and residue_is_ideal(g, rad)
            assert not is_ideal(g, g.levi_basis)
            assert not residue_is_ideal(g, g.levi_basis)
