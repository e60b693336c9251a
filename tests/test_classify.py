import gc
import itertools

import pytest

from disemi import classify, repbuilder
from disemi.classify import (DESK_BOUNDS, NotAFreeError, SKTriple,
                             TypedModuleCandidate, VINBERG_ENTRIES,
                             _character, _multiplicity,
                             _tensor_character, _wedge2_character,
                             a_free_structure, candidate_labels,
                             castling_transform,
                             construct_type1, construct_type2,
                             cross_check_vinberg,
                             enumerate_modules,
                             search_type12, simple_labels_upto,
                             sk_reduced_table, type12_candidates,
                             vinberg_table)
from disemi.liealg import (LieAlgebra, check_jacobi, dumps, is_perfect,
                           lower_central_series, quotient_by_ideal,
                           semidirect, Subspace)
from disemi.linalg import matmul
from disemi.prehom import (DecompositionCertificate, Refusal, Symbolic,
                           adjoint_radical_module, certify_disemisimple,
                           is_prehomogeneous)
from disemi.repbuilder import (ModuleDescriptor, Representation,
                               cyclic_submodule, decompose, direct_sum,
                               highest_weight_vectors, natural, outer_tensor,
                               realize, realize_label, spec_of, spin16_d5,
                               tensor, trivial, wedge2)
from disemi.rootdata import SimpleType, weyl_dim

A1 = SimpleType("A", 1)
A2 = SimpleType("A", 2)
A3 = SimpleType("A", 3)
A4 = SimpleType("A", 4)
C2 = SimpleType("C", 2)
C3 = SimpleType("C", 3)
B3 = SimpleType("B", 3)
D4 = SimpleType("D", 4)
D5 = SimpleType("D", 5)
B4 = SimpleType("B", 4)
C4 = SimpleType("C", 4)
A5 = SimpleType("A", 5)


def lab(*blocks):
    return tuple(tuple(b) for b in blocks)


def parent_vinberg_table(t):
    """The table in its earlier order: entries deduplicated as met, then
    sorted by each descriptor's total re-derived from its labels."""
    spec = spec_of(t)
    seen, out = set(), []
    for entry in VINBERG_ENTRIES:
        for desc, _ in entry.instantiate(t):
            if desc not in seen:
                seen.add(desc)
                out.append(desc)
    return sorted(out, key=lambda d: (d.total_dim(spec), str(d)))


class TestVinbergTable:
    @pytest.mark.parametrize("t", [SimpleType("A", l) for l in range(1, 8)]
                             + [SimpleType("B", l) for l in range(3, 6)]
                             + [SimpleType("C", l) for l in range(2, 6)]
                             + [SimpleType("D", l) for l in range(4, 7)],
                             ids=str)
    def test_order_matches_the_totals_from_labels(self, t):
        assert vinberg_table(t) == parent_vinberg_table(t)

    def test_a2(self):
        got = {str(d) for d in vinberg_table(A2)}
        assert got == {"L(1,0)", "L(0,1)", "2L(1,0)", "2L(0,1)"}

    def test_c3(self):
        assert [str(d) for d in vinberg_table(C3)] == ["L(1,0,0)"]

    def test_b3_empty(self):
        assert vinberg_table(B3) == []

    def test_d4_d6_empty(self):
        assert vinberg_table(D4) == []
        assert vinberg_table(SimpleType("D", 6)) == []

    def test_d5(self):
        got = {str(d) for d in vinberg_table(D5)}
        assert got == {"L(0,0,0,1,0)", "L(0,0,0,0,1)"}

    def test_a4_mixed_rows(self):
        got = {str(d) for d in vinberg_table(A4)}
        assert "L(0,0,1,0) + L(1,0,0,0)" in got
        assert "L(0,0,0,1) + L(0,1,0,0)" in got
        assert "2L(0,1,0,0)" in got and "2L(0,0,1,0)" in got

    def test_iso_redirect(self):
        with pytest.raises(ValueError):
            vinberg_table(SimpleType("B", 2))
        with pytest.raises(ValueError):
            vinberg_table(SimpleType("D", 3))

    @pytest.mark.parametrize("t", [A2, A3, A4, C2, C3, D5])
    def test_dim_formulas_match_realizations(self, t):
        spec = spec_of(t)
        for desc in vinberg_table(t):
            assert realize(spec, desc).dim == desc.total_dim(spec)

    @pytest.mark.parametrize("t", [A2, A3, C2, C3, D5])
    def test_every_entry_prehomogeneous(self, t):
        spec = spec_of(t)
        for desc in vinberg_table(t):
            assert is_prehomogeneous(realize(spec, desc)), str(desc)

    def test_a4_entries_prehomogeneous(self):
        spec = spec_of(A4)
        for desc in vinberg_table(A4):
            assert is_prehomogeneous(realize(spec, desc)), str(desc)


class TestSKTable:
    def test_rows_present(self):
        names = [r.name for r in sk_reduced_table()]
        assert names == ["mixed_tensor", "two_naturals", "even_wedge",
                         "sl2_times_wedge", "symplectic_tensor",
                         "half_spin_d5"]

    def test_sl2_wedge_row(self):
        row = next(r for r in sk_reduced_table() if r.name == "sl2_times_wedge")
        for m in (1, 2):
            triple = row.instantiate(m=m)
            assert triple.dim == 2 * m * (2 * m + 1)
            assert triple.dim == triple.module.total_dim(triple.spec)

    def test_d5_row(self):
        row = next(r for r in sk_reduced_table() if r.name == "half_spin_d5")
        triple = row.instantiate()
        assert triple.dim == 16
        assert str(triple.module) == "L(0,0,0,1,0)"

    def test_symplectic_row_dims(self):
        row = next(r for r in sk_reduced_table()
                   if r.name == "symplectic_tensor")
        triple = row.instantiate(n=2, m=1)
        assert triple.dim == 4 * 3
        assert triple.module.total_dim(triple.spec) == 12
        solo = row.instantiate(n=3, m=0)
        assert solo.dim == 6 and len(solo.spec.factors) == 1

    def test_mixed_tensor_row(self):
        row = next(r for r in sk_reduced_table() if r.name == "mixed_tensor")
        triple = row.instantiate(s1=C2, lam=(1, 0), m=4)
        assert triple.dim == 4 * 5
        assert triple.conditions == "m > n > 2"
        with pytest.raises(ValueError):
            row.instantiate(s1=SimpleType("A", 3), lam=(1, 0, 0), m=4)

    def test_realize_dims(self):
        rows = {r.name: r for r in sk_reduced_table()}
        cases = [
            rows["two_naturals"].instantiate(n=1, m=3),
            rows["even_wedge"].instantiate(m=2),
            rows["sl2_times_wedge"].instantiate(m=1),
            rows["symplectic_tensor"].instantiate(n=2, m=1),
            rows["half_spin_d5"].instantiate(),
        ]
        for triple in cases:
            assert realize(triple.spec, triple.module).dim == triple.dim


class TestCastling:
    def test_drop_degenerate_factor(self):
        spec = spec_of(A1, A1)
        triple = SKTriple(spec, ModuleDescriptor([lab((2,), (1,))]), 6, "", "")
        out = castling_transform(triple)
        assert len(out.spec.factors) == 1
        assert out.spec.factors[0] == A1
        assert str(out.module) == "L(2)"
        assert out.dim == 3

    def test_sk_row_castles_to_vinberg_row(self):
        # (A1 + A2, L(w1) x L(w2), 6): the A1 factor is natural, m = 3 > 2
        spec = spec_of(A2, A1)
        triple = SKTriple(spec, ModuleDescriptor([lab((0, 1), (1,))]), 6, "", "")
        out = castling_transform(triple)
        assert [str(t) for t in out.spec.factors] == ["A2"]
        assert str(out.module) == "L(1,0)"
        assert out.dim == 3

    def test_dimension_bookkeeping(self):
        spec = spec_of(C2, A1)
        triple = SKTriple(spec, ModuleDescriptor([lab((1, 0), (1,))]), 8, "", "")
        out = castling_transform(triple)
        # m = 4, n = 2: lands on (C2 + A1, dual x natural, 4 * 2)
        assert out.dim == 8
        assert [str(t) for t in out.spec.factors] == ["C2", "A1"]

    def test_fixed_shape_error(self):
        triple = SKTriple(spec_of(D5), ModuleDescriptor([lab((0, 0, 0, 1, 0))]),
                          16, "", "")
        with pytest.raises(ValueError):
            castling_transform(triple)

    def test_double_castling_returns_input(self):
        # both moves proper: castling is an involution on such triples
        cases = [
            SKTriple(spec_of(C2, A1), ModuleDescriptor([lab((1, 0), (1,))]), 8,
                     "", ""),
            SKTriple(spec_of(D5, A2),
                     ModuleDescriptor([lab((0, 0, 0, 1, 0), (1, 0))]), 48,
                     "", ""),
        ]
        for triple in cases:
            out = castling_transform(castling_transform(triple))
            assert out.spec == triple.spec
            assert out.module == triple.module
            assert out.dim == triple.dim

    def test_verdict_preserved(self):
        cases = [
            SKTriple(spec_of(A1, A1), ModuleDescriptor([lab((2,), (1,))]), 6,
                     "", ""),
            SKTriple(spec_of(A2, A1), ModuleDescriptor([lab((0, 1), (1,))]), 6,
                     "", ""),
            SKTriple(spec_of(C2, A1), ModuleDescriptor([lab((1, 0), (1,))]), 8,
                     "", ""),
        ]
        for triple in cases:
            out = castling_transform(triple)
            before = bool(is_prehomogeneous(
                realize(triple.spec, triple.module), mode=Symbolic()))
            after = bool(is_prehomogeneous(
                realize(out.spec, out.module), mode=Symbolic()))
            assert before == after


def oracle_enumeration(spec, bound):
    """Independent brute force: enumerate label tuples coordinatewise up
    to the bound, then multisets via combinations_with_replacement."""
    per_factor = []
    for t in spec.factors:
        weights = []
        # every coordinate is at most bound since dims grow coordinatewise
        for coords in itertools.product(range(bound + 1), repeat=t.rank):
            if weyl_dim(t, coords) <= bound:
                weights.append(coords)
        per_factor.append(weights)
    labels = []
    for combo in itertools.product(*per_factor):
        if all(all(c == 0 for c in block) for block in combo):
            continue
        d = 1
        for t, block in zip(spec.factors, combo):
            d *= weyl_dim(t, block)
        if d <= bound:
            labels.append((combo, d))
    found = set()
    max_count = bound // 2 if labels else 0
    for k in range(1, max_count + 1):
        for multi in itertools.combinations_with_replacement(labels, k):
            if sum(d for _, d in multi) <= bound:
                found.add(ModuleDescriptor([l for l, _ in multi]).entries)
    return found


def parent_enumeration_order(spec, bound):
    """enumerate_modules sorted as before: by the total each descriptor
    re-derives from its labels, then by the labels."""
    return sorted(enumerate_modules(spec, bound),
                  key=lambda d: (d.total_dim(spec),
                                 [str(lab) for lab in d.labels()]))


class TestEnumeration:
    @pytest.mark.parametrize("t,bound", list(DESK_BOUNDS.items()) + [
        (B4, 35), (C4, 35), (D5, 44), (A5, 34)], ids=str)
    def test_order_matches_the_totals_from_labels(self, t, bound):
        spec = spec_of(t)
        assert list(enumerate_modules(spec, bound)) == \
            parent_enumeration_order(spec, bound)

    def test_totals_come_from_the_stack(self, monkeypatch):
        expected = [str(d) for d in enumerate_modules(spec_of(A4), 23)]

        def refuse(self, spec):
            raise AssertionError("total_dim re-derived")

        monkeypatch.setattr(ModuleDescriptor, "total_dim", refuse)
        assert [str(d) for d in enumerate_modules(spec_of(A4), 23)] == expected
        assert [str(d) for d in enumerate_modules(spec_of(A1, A2), 14)]

    def test_a1_bound_3(self):
        got = [str(d) for d in enumerate_modules(spec_of(A1), 3)]
        assert got == ["L(1)", "L(2)"]

    def test_a2_bound_0_empty(self):
        assert list(enumerate_modules(spec_of(A2), 0)) == []

    def test_a2_bound_7_against_oracle(self):
        spec = spec_of(A2)
        got = {d.entries for d in enumerate_modules(spec, 7)}
        assert got == oracle_enumeration(spec, 7)
        assert len(got) == 7

    def test_product_spec_against_oracle(self):
        spec = spec_of(A1, A1)
        got = {d.entries for d in enumerate_modules(spec, 6)}
        assert got == oracle_enumeration(spec, 6)

    def test_c2_against_oracle(self):
        spec = spec_of(C2)
        got = {d.entries for d in enumerate_modules(spec, 10)}
        assert got == oracle_enumeration(spec, 10)

    def test_deterministic_order(self):
        spec = spec_of(A2)
        a = [str(d) for d in enumerate_modules(spec, 7)]
        b = [str(d) for d in enumerate_modules(spec, 7)]
        assert a == b
        dims = [d.total_dim(spec) for d in enumerate_modules(spec, 7)]
        assert dims == sorted(dims)

    def test_labels_exclude_trivial(self):
        labels = simple_labels_upto(A2, 6)
        assert (0, 0) not in labels
        assert (1, 0) in labels and (2, 0) in labels

    def test_accepts_bare_simple_type(self):
        got = [str(d) for d in enumerate_modules(A1, 3)]
        assert got == ["L(1)", "L(2)"]

    @pytest.mark.parametrize("call", [
        lambda: list(enumerate_modules(spec_of(A4), 23)),
        lambda: candidate_labels(spec_of(A4), 23),
        lambda: type12_candidates(A4),
    ], ids=["enumerate_modules", "candidate_labels", "type12_candidates"])
    def test_enumerations_leave_no_reference_cycles(self, call):
        call()              # fills the realisation caches
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestCrossCheck:
    def test_a2(self):
        report = cross_check_vinberg(A2)
        assert report.clean
        assert report.tested_count == 7
        assert {str(d) for d in report.positives} == \
            {str(d) for d in vinberg_table(A2)}

    def test_c2(self):
        report = cross_check_vinberg(C2)
        assert report.clean
        assert [str(d) for d in report.positives] == ["L(1,0)"]

    def test_b3_no_positives(self):
        report = cross_check_vinberg(B3)
        assert report.clean and report.positives == []

    def test_report_json_shape(self):
        report = cross_check_vinberg(A2)
        d = report.to_json_dict()
        assert set(d) == {"type", "bound", "tested_count", "positives",
                          "table", "diff"}
        assert d["diff"] == {"missing": [], "extra": []}

    def test_parallel_agrees(self):
        seq = cross_check_vinberg(A2, jobs=1)
        par = cross_check_vinberg(A2, jobs=2)
        assert seq.to_json_dict() == par.to_json_dict()

    @pytest.mark.parametrize("t,bound", [(SimpleType("B", 2), 9),
                                         (SimpleType("D", 3), 14)])
    def test_isomorphic_type_refused_before_deciding(self, t, bound,
                                                     monkeypatch):
        def refuse(*args):
            raise AssertionError("modules decided before the table refused")
        monkeypatch.setattr(classify, "_decide_all", refuse)
        with pytest.raises(ValueError, match="isomorphic"):
            cross_check_vinberg(t, bound)

    def test_unknown_type_needs_bound(self):
        with pytest.raises(ValueError):
            cross_check_vinberg(SimpleType("A", 5))

    def test_a3(self):
        report = cross_check_vinberg(A3)
        assert report.clean and report.tested_count == 22

    def test_d4_only_zero(self):
        # triality types: nothing below the bound is prehomogeneous
        report = cross_check_vinberg(D4)
        assert report.clean and report.positives == []
        assert report.tested_count == 19


class TestWorkers:
    def test_pools_get_the_capped_count(self, monkeypatch):
        # a stand-in executor records max_workers and starts no process
        import concurrent.futures
        from disemi import classify
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(classify.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        # A2 has 7 modules below its bound and 2 type-1/2 candidates
        assert cross_check_vinberg(A2, jobs=1000).clean
        assert search_type12(A2, jobs=1000) == []
        assert cross_check_vinberg(A2, jobs=2).clean
        assert cross_check_vinberg(A2, jobs=1).clean
        assert seen == [3, 2, 2]
        monkeypatch.setattr(classify.os, "cpu_count", lambda: None)
        assert search_type12(A2, jobs=8) == []
        assert seen == [3, 2, 2]


def oracle_type12_candidates(t, bound):
    """The decompose-based enumeration: build wedge^2 A and A x B as
    modules and read the multiplicities off their highest weight
    vectors."""
    spec = spec_of(t)
    labels = candidate_labels(spec, bound)
    if not labels:
        return []
    min_dim = min(dim for _, dim in labels)
    out = []
    for label_a, dim_a in labels:
        partner = bound - dim_a
        if partner < min_dim:
            continue
        wdesc = decompose(wedge2(realize_label(spec, label_a)))
        for label_b, dim_b in labels:
            if dim_b <= partner and wdesc.multiplicity(label_b) >= 1:
                out.append(TypedModuleCandidate("type1", (label_a, label_b)))
    for ia, (label_a, dim_a) in enumerate(labels):
        for label_b, dim_b in labels[ia:]:
            rest = bound - dim_a - dim_b
            if rest < min_dim:
                continue
            tdesc = decompose(tensor(realize_label(spec, label_a),
                                     realize_label(spec, label_b)))
            for label_c, dim_c in labels:
                if dim_c <= rest and tdesc.multiplicity(label_c) >= 1:
                    out.append(TypedModuleCandidate(
                        "type2", (label_a, label_b, label_c)))
    return out


def character_decomposition(t, chi):
    """{dominant nu: n_nu} read off the character chi by the Weyl
    alternation, over every dominant weight of chi."""
    out = {}
    for nu in chi:
        if min(nu) >= 0:
            n = _multiplicity(t, chi, nu)
            if n:
                out[nu] = n
    return out


class TestType12:
    def test_a2_candidates(self):
        cands = type12_candidates(A2)
        assert {str(c) for c in cands} == \
            {"type1(L(0,1), L(1,0))", "type1(L(1,0), L(0,1))"}

    def test_type_outside_the_bound_table_needs_bound(self):
        with pytest.raises(ValueError, match="explicit bound"):
            type12_candidates(B4)
        assert type12_candidates(B4, 9) == []

    def test_searches_empty(self):
        assert search_type12(A2) == []
        assert search_type12(C2) == []

    def test_search_a3(self):
        assert search_type12(A3) == []

    @pytest.mark.parametrize("t", list(DESK_BOUNDS), ids=str)
    def test_desk_bounds_match_the_oracle(self, t):
        bound = DESK_BOUNDS[t]
        assert type12_candidates(t) == oracle_type12_candidates(t, bound)

    @pytest.mark.parametrize("t,bound,count", [
        (B4, 35, 0), (C4, 35, 1), (D5, 44, 4), (A5, 34, 10),
    ], ids=str)
    def test_next_ranks_match_the_oracle(self, t, bound, count):
        got = type12_candidates(t, bound)
        assert got == oracle_type12_candidates(t, bound)
        assert len(got) == count

    @pytest.mark.parametrize("t", [A3, B3, C3], ids=str)
    def test_character_multiplicities_match_decompose(self, t):
        spec = spec_of(t)
        labels = [label for label, _ in candidate_labels(spec, DESK_BOUNDS[t])]
        for ia, label_a in enumerate(labels):
            rep_a = realize_label(spec, label_a)
            chi_a = _character(spec, label_a)
            pairs = [(wedge2(rep_a), _wedge2_character(chi_a))]
            for label_b in labels[ia:]:
                pairs.append((tensor(rep_a, realize_label(spec, label_b)),
                              _tensor_character(
                                  chi_a, _character(spec, label_b))))
            for rep, chi in pairs:
                mults = character_decomposition(t, chi)
                assert sum(n * weyl_dim(t, nu)
                           for nu, n in mults.items()) == rep.dim
                desc = decompose(rep)
                assert mults == {label[0]: n for label, n in desc.items()}

    def test_a2_exterior_square_of_the_adjoint(self):
        chi = _wedge2_character(_character(spec_of(A2), lab((1, 1))))
        assert character_decomposition(A2, chi) == \
            {(0, 3): 1, (1, 1): 1, (3, 0): 1}

    def test_no_module_product_is_built(self, monkeypatch):
        # the irreducibles are realised, and cached, by repbuilder; warm
        # that cache so only type12_candidates' own work is guarded
        expected = type12_candidates(A4)

        def refuse(*args):
            raise AssertionError("type12_candidates built a module product")

        for name in ("wedge2", "tensor", "decompose",
                     "highest_weight_vectors"):
            monkeypatch.setattr(repbuilder, name, refuse)
            if hasattr(classify, name):
                monkeypatch.setattr(classify, name, refuse)
        assert type12_candidates(A4) == expected


class TestConstructions:
    def test_type1_a2(self):
        g = construct_type1(A2, lab((1, 0)), lab((0, 1)))
        assert g.dim == 14
        assert check_jacobi(g)
        assert is_perfect(g)
        rad_rows = [g.basis_vector(i) for i in range(8, 14)]
        series = lower_central_series(g, Subspace(g, rad_rows))
        assert [s.dim for s in series] == [6, 3, 0]
        res = certify_disemisimple(g)
        assert isinstance(res, Refusal)

    def test_type1_a3_radical_structure(self):
        g = construct_type1(A3, lab((1, 0, 0)), lab((0, 1, 0)))
        rad, _ = adjoint_radical_module(g, g.levi_basis)
        assert decompose(rad) == ModuleDescriptor([lab((1, 0, 0)),
                                                   lab((0, 1, 0))])
        # derived part of the radical is the wedge-square image
        rad_rows = [g.basis_vector(i) for i in range(15, g.dim)]
        series = lower_central_series(g, Subspace(g, rad_rows))
        assert series[1].dim == 6

    def test_type2_a2(self):
        g = construct_type2(A2, lab((1, 0)), lab((1, 0)), lab((0, 1)))
        assert g.dim == 17
        assert check_jacobi(g)
        res = certify_disemisimple(g)
        assert isinstance(res, Refusal)

    @pytest.mark.parametrize("kind,labels", [
        ("type1", (lab((1, 0)), lab((0, 1)))),
        ("type2", (lab((1, 0)), lab((1, 0)), lab((0, 1)))),
    ])
    def test_one_exterior_square_per_construction(self, monkeypatch, kind,
                                                  labels):
        # type 1 builds wedge^2 A; type 2 builds A x B and no exterior
        # square
        import disemi.classify
        import disemi.repbuilder
        calls = []
        for name in ("wedge2", "tensor"):
            original = getattr(disemi.repbuilder, name)

            def counting(*rs, name=name, original=original):
                calls.append(name)
                return original(*rs)
            # classify imports both by name; free_two_step looks them up
            # in repbuilder at call time
            monkeypatch.setattr(disemi.classify, name, counting)
            monkeypatch.setattr(disemi.repbuilder, name, counting)
        build = construct_type1 if kind == "type1" else construct_type2
        build(A2, *labels)
        assert calls == (["wedge2"] if kind == "type1" else ["tensor"])

    @pytest.mark.parametrize("t,labels", [
        (A2, (lab((1, 1)), lab((1, 1)))),
        (A2, (lab((1, 0)), lab((1, 0)), lab((0, 1)))),
        (A3, (lab((0, 0, 1)), lab((0, 1, 0)), lab((1, 0, 0)))),
    ], ids=["type1-A2", "type2-A2", "type2-A3"])
    def test_one_semidirect_on_the_quotient(self, monkeypatch, t, labels):
        import disemi.classify
        calls = []
        original = disemi.classify.semidirect

        def spy(s, rho, n):
            calls.append((s.dim, n.dim))
            return original(s, rho, n)
        monkeypatch.setattr(disemi.classify, "semidirect", spy)
        build = construct_type1 if len(labels) == 2 else construct_type2
        g = build(t, *labels)
        # s acts on the quotient, the radical of g, not on the free
        # 2-step algebra, which is larger in all three cases
        assert len(calls) == 1
        s_dim, n_dim = calls[0]
        assert n_dim == g.dim - s_dim

    def test_type2_bad_c_rejected(self):
        with pytest.raises(ValueError):
            construct_type2(A2, lab((1, 0)), lab((1, 0)), lab((1, 0)))

    def test_type1_bad_b_rejected(self):
        with pytest.raises(ValueError):
            construct_type1(A2, lab((1, 0)), lab((1, 0)))


def parent_free_two_step(rho, wedge):
    """The free 2-step algebra on rho, bracket part wedge^2 rho, and its
    module structure, as free_two_step builds it for one module."""
    d = rho.dim
    pairs = list(itertools.combinations(range(d), 2))
    f = LieAlgebra(d + len(pairs), {p: {d + k: 1} for k, p in enumerate(pairs)},
                   labels=["v%d" % (a + 1) for a in range(d + len(pairs))])
    return f, direct_sum([rho, wedge])


def full_wedge_construction(t, labels):
    """(g, rho): the type-1/2 construction over the free 2-step algebra
    on all the generators, whose bracket part is wedge^2 (A + B) for
    type 2, with the kept highest weight vector the first one supported
    in the A x B pairs; rho is the action semidirect gets.  The oracle
    for _construct_two_step, which builds A x B alone for type 2."""
    spec = classify._spec(t)
    labels = tuple(spec.coerce_label(label) for label in labels)
    gens = [realize_label(spec, label) for label in labels[:-1]]
    gen_rep = gens[0] if len(gens) == 1 else direct_sum(gens)
    wedge_rep = wedge2(gen_rep)
    hws = highest_weight_vectors(wedge_rep)
    allowed = [len(gens) == 1 or i < gens[0].dim <= j
               for i, j in itertools.combinations(range(gen_rep.dim), 2)]
    keep = next(v for v, label in hws if label == labels[-1] and all(
        allowed[k] for k, x in enumerate(v) if x))
    f, tau = parent_free_two_step(gen_rep, wedge_rep)
    u = Subspace(f, [[0] * gen_rep.dim + w for v, _ in hws if v is not keep
                     for w in cyclic_submodule(wedge_rep, v)])
    n, proj = quotient_by_ideal(f, u)
    pivots = set(u.pivots)
    index = {c: a for a, c in enumerate(c for c in range(f.dim)
                                         if c not in pivots)}
    action = [matmul(proj.matrix, [{index[c]: y for c, y in row.items()
                                    if c in index} for row in m])
              for m in tau.action]
    s = spec.algebra()
    rho = Representation(spec, s, action)
    return semidirect(s, rho, n), rho


class TestTensorBlockMatchesFullWedge:
    @pytest.mark.parametrize("t,bound,count", [
        (A3, None, 6), (A4, None, 6), (B3, None, 1), (C3, None, 1),
        (D4, None, 3), (C4, 35, 1), (D5, 44, 4), (A5, 34, 10),
    ], ids=str)
    def test_candidates(self, monkeypatch, t, bound, count):
        cands = type12_candidates(t, bound)
        assert len(cands) == count
        for cand in cands:
            self.check(monkeypatch, t, cand.labels)

    def test_a1xa1_type2(self, monkeypatch):
        self.check(monkeypatch, spec_of(A1, A1),
                   (lab((1,), (0,)), lab((0,), (1,)), lab((1,), (1,))))

    @staticmethod
    def check(monkeypatch, t, labels):
        seen = []
        original = classify.semidirect
        monkeypatch.setattr(classify, "semidirect", lambda s, rho, n:
                            seen.append(rho) or original(s, rho, n))
        g = classify._construct_two_step(t, labels)
        want, rho = full_wedge_construction(t, labels)
        assert dumps(g) == dumps(want), (t, labels)
        assert g.labels == want.labels
        assert [rho_g.action for rho_g in seen] == [rho.action]


class TestAFree:
    def test_paired_example(self):
        spec = spec_of(C2, D5)
        rep = direct_sum([
            outer_tensor(natural(C2), trivial(spec_of(D5), 1)),
            outer_tensor(trivial(spec_of(C2), 1), spin16_d5()),
        ])
        pairs = a_free_structure(spec, rep)
        assert [(str(t), str(d)) for t, d in pairs] == \
            [("C2", "L(1,0)"), ("D5", "L(0,0,0,1,0)")]

    def test_semisimple_empty_blocks(self):
        pairs = a_free_structure(spec_of(C2), trivial(spec_of(C2), 0))
        assert [(str(t), str(d)) for t, d in pairs] == [("C2", "0")]

    def test_a_factor_refused(self):
        with pytest.raises(NotAFreeError):
            a_free_structure(spec_of(A1), natural(A1))

    def test_shared_summand_rejected(self):
        # a summand on which both factors act non-trivially
        spec = spec_of(C2, C2)
        rep = outer_tensor(natural(C2), natural(C2))
        with pytest.raises(ValueError):
            a_free_structure(spec, rep)


class TestDeskBounds:
    def test_bounds_are_dim_minus_one(self):
        for t, bound in DESK_BOUNDS.items():
            assert bound == t.algebra_dim - 1

    def test_the_seven_desk_types(self):
        assert DESK_BOUNDS == {A2: 7, A3: 14, A4: 23, C2: 9, C3: 20,
                               B3: 20, D4: 27}
        assert list(DESK_BOUNDS) == [A2, A3, A4, C2, C3, B3, D4]


class TestConverseOverBiggerTypes:
    @pytest.mark.parametrize("t", [A3, A4, C3, D5])
    def test_every_table_entry_certifies(self, t):
        spec = spec_of(t)
        for desc in vinberg_table(t):
            g = semidirect(spec.algebra(), realize(spec, desc))
            res = certify_disemisimple(g)
            assert isinstance(res, DecompositionCertificate), str(desc)
