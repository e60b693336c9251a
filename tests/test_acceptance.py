"""Acceptance suite: one test per criterion, exact tolerances.

Each test prints a single PASS line with its measured runtime (visible
with pytest -s or in the -rA summary); failures raise with the exact
mismatch.  The A4 completeness cross-check is tagged slow.
"""

import random
import time

import pytest

from disemi.classify import (cross_check_vinberg, construct_type1,
                             construct_type2, search_type12,
                             type12_candidates, vinberg_table)
from disemi.cli import main as cli_main
from disemi.liealg import (chevalley, is_semisimple, semidirect, subalgebra,
                           sum_spans)
from disemi.linalg import rank
from disemi.modexpr import parse_algebra, parse_module, print_module
from disemi.prehom import (DecompositionCertificate, Refusal, Symbolic,
                           certify_disemisimple, evaluation_matrix,
                           is_prehomogeneous, ETALE_EXCLUSION)
from disemi.repbuilder import (ModuleDescriptor, Representation, decompose,
                               direct_sum, dual, natural, outer_tensor,
                               realize, realize_label, spec_of, spin16_d5,
                               tensor, trivial, wedge2)
from disemi.rootdata import SimpleType, weyl_dim
from disemi.syzygy import generic_rank_certified

A1 = SimpleType("A", 1)
A2 = SimpleType("A", 2)
A3 = SimpleType("A", 3)
A4 = SimpleType("A", 4)
A6 = SimpleType("A", 6)
C2 = SimpleType("C", 2)
C3 = SimpleType("C", 3)
B3 = SimpleType("B", 3)
D5 = SimpleType("D", 5)


def lab(*blocks):
    return tuple(tuple(b) for b in blocks)


def report(number, detail, started):
    print("ACCEPTANCE %2d PASS (%.1fs): %s"
          % (number, time.time() - started, detail))


def test_criterion_01_worked_example(capsys):
    t0 = time.time()
    with capsys.disabled():
        pass
    code = cli_main(["prehom", "A1xA2", "L(1)#L(0,1)"])
    capsys.readouterr()
    assert code == 0
    rep = realize_label(spec_of(A1, A2), lab((1,), (0, 1)))
    ev = evaluation_matrix(rep, [0, 0, 1, 0, 1, 0])
    assert ev.shape == (6, 11)
    assert ev.rank() == 6
    report(1, "prehom A1xA2 L(1)#L(0,1) exit 0; published witness has exact "
              "rank 6", t0)


def test_criterion_02_four_dimensional_pair():
    t0 = time.time()
    spec = spec_of(A1, A1)
    twisted = realize_label(spec, lab((1,), (1,)))
    cert = is_prehomogeneous(twisted, mode=Symbolic())
    assert not cert and cert.generic_rank is not None
    assert cert.generic_rank < twisted.dim
    mixed = realize(spec, ModuleDescriptor([lab((0,), (1,)), lab((1,), (0,))]))
    assert is_prehomogeneous(mixed)
    report(2, "L(1)#L(1) refused with generic rank %d; the mixed pair is "
              "prehomogeneous" % cert.generic_rank, t0)


@pytest.mark.parametrize("t", [A2, A3, C2, B3])
def test_criterion_03_completeness_fast(t):
    t0 = time.time()
    rep = cross_check_vinberg(t)
    assert rep.clean, rep.to_json_dict()
    report(3, "cross-check %s (bound %d): tested %d, diff empty"
              % (t, rep.bound, rep.tested_count), t0)


@pytest.mark.slow
def test_criterion_03_completeness_a4():
    t0 = time.time()
    rep = cross_check_vinberg(A4)
    assert rep.clean, rep.to_json_dict()
    report(3, "cross-check A4 (bound 23): tested %d, diff empty"
              % rep.tested_count, t0)


def test_criterion_04_no_etale_modules():
    t0 = time.time()
    from disemi.classify import enumerate_modules
    confirmed = 0
    for t in (A1, A2, C2):
        spec = spec_of(t)
        square = [d for d in enumerate_modules(spec, spec.dim)
                  if d.total_dim(spec) == spec.dim]
        assert square, str(t)
        for desc in square:
            rep = realize(spec, desc)
            cert = is_prehomogeneous(rep)
            assert cert.reason == ETALE_EXCLUSION, str(desc)
            grank = generic_rank_certified(rep)
            assert grank < rep.dim, str(desc)
            confirmed += 1
    # only four such modules exist over A1, A2, C2; the A3 adjoint
    # (dim 15 = dim sl4) is the fifth sampled confirmation
    adj = realize_label(spec_of(A3), lab((1, 0, 1)))
    assert is_prehomogeneous(adj).reason == ETALE_EXCLUSION
    assert generic_rank_certified(adj) < adj.dim
    confirmed += 1
    assert confirmed >= 5
    report(4, "%d modules with dim V = dim s, all refused with symbolic "
              "rank deficits" % confirmed, t0)


def test_criterion_05_low_dimensional_trio():
    t0 = time.time()
    sl2 = chevalley(A1)
    g1 = semidirect(sl2, natural(A1))
    res1 = certify_disemisimple(g1)
    assert isinstance(res1, DecompositionCertificate)
    assert res1.intersection_dim == 1
    spans, inter = sum_spans(g1, res1.levi_basis, res1.s2_basis)
    assert spans and inter == 1
    assert is_semisimple(subalgebra(g1, res1.s2_basis))
    # phi preservation is asserted inside certify; re-check two brackets
    phi = res1.phi
    for i, j in [(0, 1), (1, 4)]:
        lhs = phi(g1.bracket(g1.basis_vector(i), g1.basis_vector(j)))
        rhs = g1.bracket(phi(g1.basis_vector(i)), phi(g1.basis_vector(j)))
        assert lhs == rhs
    g2 = semidirect(sl2, realize_label(spec_of(A1), lab((2,))))
    assert isinstance(certify_disemisimple(g2), Refusal)
    from disemi.liealg import LieAlgebra
    n3 = LieAlgebra(3, {(0, 1): {2: 1}})
    mats = [[dict(row) for row in m] + [{}] for m in natural(A1).action]
    rho = Representation(spec_of(A1), sl2, mats)
    g3 = semidirect(sl2, rho, n3)
    assert isinstance(certify_disemisimple(g3), Refusal)
    report(5, "certify succeeds exactly on sl2 x| V(2) among the three "
              "perfect candidates (intersection dim 1)", t0)


def test_criterion_06_tensor_and_wedge_decompositions():
    t0 = time.time()
    for t in (A2, A3, A4):
        nat = natural(t)
        w2 = tuple(1 if i == 1 else 0 for i in range(t.rank))
        two_w1 = tuple(2 if i == 0 else 0 for i in range(t.rank))
        assert decompose(tensor(nat, nat)) == \
            ModuleDescriptor([lab(w2), lab(two_w1)]), str(t)
    for t in (A4, A6):
        w2rep = realize_label(spec_of(t), lab(tuple(
            1 if i == 1 else 0 for i in range(t.rank))))
        target = tuple(1 if i in (0, 2) else 0 for i in range(t.rank))
        assert decompose(wedge2(w2rep)) == ModuleDescriptor([lab(target)]), str(t)
    report(6, "tensor squares split as L(w2) + L(2w1) on A2/A3/A4; "
              "wedge2(L(w2)) = L(w1+w3) on A4/A6", t0)


def test_criterion_07_no_type12_and_refusals():
    t0 = time.time()
    tested = 0
    for t in (A2, A3, A4, C2, C3):
        hits = search_type12(t)
        assert hits == [], "%s: %s" % (t, [str(h) for h in hits])
        for cand in type12_candidates(t):
            if cand.kind == "type1":
                g = construct_type1(t, *cand.labels)
            else:
                g = construct_type2(t, *cand.labels)
            res = certify_disemisimple(g)
            assert isinstance(res, Refusal), str(cand)
            tested += 1
    report(7, "search12 empty on A2/A3/A4/C2/C3; all %d constructed "
              "candidates refused" % tested, t0)


def test_criterion_08_half_spin_row():
    t0 = time.time()
    rep = spin16_d5()
    assert rep.check_homomorphism()
    assert weyl_dim(D5, (0, 0, 0, 1, 0)) == 16
    cert = is_prehomogeneous(rep)
    assert cert and cert.rank == 16
    ev = evaluation_matrix(rep, cert.witness)
    assert ev.shape == (16, 45)
    assert rank(ev.matrix) == 16
    report(8, "spin16 passes the full homomorphism check and is "
              "prehomogeneous with an exact 16x45 witness", t0)


def test_criterion_09_converse_construction():
    t0 = time.time()
    count = 0
    for t in (A2, C2):
        spec = spec_of(t)
        for desc in vinberg_table(t):
            g = semidirect(spec.algebra(), realize(spec, desc))
            res = certify_disemisimple(g)
            assert isinstance(res, DecompositionCertificate), str(desc)
            spans, _ = sum_spans(g, res.levi_basis, res.s2_basis)
            assert spans
            assert is_semisimple(subalgebra(g, res.s2_basis))
            count += 1
    g = semidirect(chevalley(D5), spin16_d5())
    res = certify_disemisimple(g)
    assert isinstance(res, DecompositionCertificate)
    spans, _ = sum_spans(g, res.levi_basis, res.s2_basis)
    assert spans and is_semisimple(subalgebra(g, res.s2_basis))
    count += 1
    report(9, "all %d table entries over A2, C2 and the D5 half-spin yield "
              "certified decompositions" % count, t0)


def test_criterion_10_direct_sum_structure():
    t0 = time.time()
    from disemi.classify import a_free_structure
    spec = spec_of(C2, D5)
    rep = direct_sum([
        outer_tensor(natural(C2), trivial(spec_of(D5), 1)),
        outer_tensor(trivial(spec_of(C2), 1), spin16_d5()),
    ])
    pairs = a_free_structure(spec, rep)
    assert [(str(t), str(d)) for t, d in pairs] == \
        [("C2", "L(1,0)"), ("D5", "L(0,0,0,1,0)")]
    for t, desc in pairs:
        sub_spec = spec_of(t)
        g = semidirect(sub_spec.algebra(), realize(sub_spec, desc))
        assert isinstance(certify_disemisimple(g), DecompositionCertificate)
    report(10, "(C2 + D5) x| (nat + spin16) splits into per-factor blocks, "
               "each certified disemisimple", t0)


def test_criterion_11_duality_invariance():
    t0 = time.time()
    from disemi.classify import enumerate_modules
    checked = 0
    for t, bound in [(A2, 7), (C2, 9)]:
        spec = spec_of(t)
        for desc in enumerate_modules(spec, bound):
            rep = realize(spec, desc)
            a = bool(is_prehomogeneous(rep, mode=Symbolic()))
            b = bool(is_prehomogeneous(dual(rep), mode=Symbolic()))
            assert a == b, str(desc)
            checked += 1
    report(11, "verdicts agree with duals across all %d modules of the A2 "
               "and C2 suites" % checked, t0)


def test_criterion_12_parser_round_trip():
    t0 = time.time()
    from test_modexpr import random_ast
    rnd = random.Random(987)
    specs = [parse_algebra("A2"), parse_algebra("A1xA2"), parse_algebra("C2"),
             parse_algebra("B3xA1")]
    for i in range(200):
        spec = specs[i % len(specs)]
        ast = random_ast(rnd, spec, 4)
        assert parse_module(print_module(ast), spec) == ast
    from disemi.classify import sk_reduced_table
    from disemi.modexpr import descriptor_to_ast, to_descriptor
    table_count = 0
    for t in (A2, A3, A4, C2, C3, D5):
        spec = spec_of(t)
        for desc in vinberg_table(t):
            ast = descriptor_to_ast(desc)
            assert to_descriptor(parse_module(print_module(ast), spec),
                                 spec) == desc
            table_count += 1
    rows = {r.name: r for r in sk_reduced_table()}
    for triple in [rows["two_naturals"].instantiate(n=1, m=3),
                   rows["even_wedge"].instantiate(m=2),
                   rows["sl2_times_wedge"].instantiate(m=1),
                   rows["symplectic_tensor"].instantiate(n=2, m=1),
                   rows["mixed_tensor"].instantiate(s1=C2, lam=(1, 0), m=4),
                   rows["half_spin_d5"].instantiate()]:
        ast = descriptor_to_ast(triple.module)
        assert to_descriptor(parse_module(print_module(ast), triple.spec),
                             triple.spec) == triple.module
        table_count += 1
    report(12, "200 random ASTs and %d instantiated table descriptors "
               "round-trip" % table_count, t0)
