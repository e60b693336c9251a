import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from disemi.rootdata import (DominantWeight, SimpleType, cartan_matrix,
                             dual_weight, fundamental, num_positive_roots,
                             root_system, weyl_dim, weyl_shifts,
                             zero_weight)


def reflection_closure_count(t):
    """Independent positive-root count: orbit of the simple roots under
    all simple reflections, computed directly from the Cartan matrix."""
    l = t.rank
    a = cartan_matrix(t)
    roots = set()
    frontier = {tuple(1 if j == i else 0 for j in range(l)) for i in range(l)}
    frontier |= {tuple(-x for x in r) for r in frontier}
    while frontier:
        roots |= frontier
        new = set()
        for r in frontier:
            for i in range(l):
                pairing = sum(r[j] * a[j][i] for j in range(l))
                img = list(r)
                img[i] -= pairing
                img = tuple(img)
                if img not in roots:
                    new.add(img)
        frontier = new
    return sum(1 for r in roots if all(x >= 0 for x in r))


class TestSimpleType:
    def test_valid(self):
        assert str(SimpleType("A", 1)) == "A1"
        assert SimpleType("D", 3).rank == 3  # permitted, isomorphic to A3

    @pytest.mark.parametrize("family,rank", [
        ("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 8), ("G", 2), ("F", 4),
    ])
    def test_rejects(self, family, rank):
        with pytest.raises(ValueError):
            SimpleType(family, rank)

    def test_dims(self):
        assert SimpleType("A", 2).algebra_dim == 8
        assert SimpleType("C", 2).algebra_dim == 10
        assert SimpleType("D", 5).algebra_dim == 45
        assert SimpleType("B", 3).algebra_dim == 21


class TestRootSystem:
    def test_a1(self):
        rs = root_system(SimpleType("A", 1))
        assert rs.cartan_matrix == ((2,),)
        assert len(rs.positive_roots) == 1

    def test_a2_count(self):
        assert num_positive_roots(SimpleType("A", 2)) == 3

    def test_d5_count(self):
        t = SimpleType("D", 5)
        assert num_positive_roots(t) == 20
        assert num_positive_roots(t) == t.rank * (t.rank - 1)

    @pytest.mark.parametrize("family,rank", [
        ("A", 1), ("A", 4), ("B", 2), ("B", 4), ("C", 3), ("D", 4), ("D", 5),
    ])
    def test_counts_match_reflection_closure(self, family, rank):
        t = SimpleType(family, rank)
        assert num_positive_roots(t) == reflection_closure_count(t)

    def test_cartan_shape(self):
        for t in (SimpleType("B", 3), SimpleType("C", 3), SimpleType("D", 4)):
            a = cartan_matrix(t)
            for i in range(t.rank):
                assert a[i][i] == 2
                for j in range(t.rank):
                    if i != j:
                        assert a[i][j] <= 0

    def test_rho(self):
        assert root_system(SimpleType("C", 2)).rho == (1, 1)

    @pytest.mark.parametrize("family,rank", [
        ("A", 4), ("B", 3), ("C", 3), ("D", 5),
    ])
    def test_count_is_half_of_dim_minus_rank(self, family, rank):
        t = SimpleType(family, rank)
        assert num_positive_roots(t) == (t.algebra_dim - t.rank) // 2


def weyl_order(t):
    """|W| from its closed form: (l+1)! for A, 2^l l! for B and C,
    2^(l-1) l! for D."""
    l = t.rank
    if t.family == "A":
        return math.factorial(l + 1)
    if t.family in ("B", "C"):
        return 2 ** l * math.factorial(l)
    return 2 ** (l - 1) * math.factorial(l)


class TestWeylShifts:
    @pytest.mark.parametrize("family,rank", [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
        ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4),
        ("D", 4), ("D", 5),
    ])
    def test_one_pair_per_weyl_element(self, family, rank):
        t = SimpleType(family, rank)
        shifts = weyl_shifts(t)
        assert len(shifts) == weyl_order(t)
        assert len({s for _, s in shifts}) == len(shifts)
        assert sum(e for e, _ in shifts) == 0
        assert shifts[0] == (1, zero_weight(t))

    def test_a2_by_hand(self):
        # over S3: the simple reflections shift rho by alpha_1 = (2,-1)
        # and alpha_2 = (-1,2), the two rotations by alpha_1 + 2 alpha_2
        # and 2 alpha_1 + alpha_2, and the longest element by 2 rho
        assert set(weyl_shifts(SimpleType("A", 2))) == {
            (1, (0, 0)), (-1, (2, -1)), (-1, (-1, 2)),
            (1, (0, 3)), (1, (3, 0)), (-1, (2, 2))}


def fraction_weyl_dim(t, lam):
    """The Weyl dimension formula over Fraction through the half squared
    root lengths (alpha_i, alpha_i) / 2, long roots of squared length 2:
    the product over positive roots alpha of (lam + rho, alpha) /
    (rho, alpha)."""
    l = t.rank
    half = {"B": [1] * (l - 1) + [Fraction(1, 2)],
            "C": [Fraction(1, 2)] * (l - 1) + [1]}.get(t.family, [1] * l)
    dim = Fraction(1)
    for alpha in root_system(t).positive_roots:
        dim *= Fraction(
            sum(c * d * (m + 1) for c, d, m in zip(alpha, half, lam)),
            sum(c * d for c, d in zip(alpha, half)))
    return dim


# A1-A7, B2-B5, C2-C5 and D3-D6
GRID_TYPES = ([SimpleType("A", l) for l in range(1, 8)]
              + [SimpleType(f, l) for f in "BC" for l in range(2, 6)]
              + [SimpleType("D", l) for l in range(3, 7)])


class TestWeylDim:
    def test_integer_formula_matches_fractions(self):
        # every weight with coordinates <= 2: 5,079 of them
        count = 0
        for t in GRID_TYPES:
            for lam in itertools.product(range(3), repeat=t.rank):
                d = weyl_dim(t, lam)
                assert type(d) is int and d == fraction_weyl_dim(t, lam), (
                    str(t), lam)
                count += 1
        assert count == 5079

    @pytest.mark.parametrize("spec,lam,expected", [
        (("A", 2), (1, 0), 3),
        (("A", 4), (0, 1, 0, 0), 10),
        (("C", 3), (1, 0, 0), 6),
        (("D", 5), (0, 0, 0, 1, 0), 16),
        (("A", 1), (0,), 1),
        (("B", 3), (0, 0, 1), 8),
        (("A", 2), (1, 1), 8),
        (("C", 2), (0, 1), 5),
    ])
    def test_values(self, spec, lam, expected):
        assert weyl_dim(SimpleType(*spec), lam) == expected

    def test_zero_weight_every_type(self):
        for t in (SimpleType("A", 3), SimpleType("B", 2), SimpleType("C", 4),
                  SimpleType("D", 5)):
            assert weyl_dim(t, zero_weight(t)) == 1

    def test_binomials_type_a(self):
        for l in range(1, 7):
            t = SimpleType("A", l)
            for k in range(1, l + 1):
                assert weyl_dim(t, fundamental(t, k)) == math.comb(l + 1, k)

    def test_dual_invariance_small_grid(self):
        import random
        # full grid with coordinates <= 3 at rank 2, sampled at ranks 3..5
        for t in (SimpleType("A", 2), SimpleType("B", 2), SimpleType("C", 2)):
            for lam in itertools.product(range(4), repeat=2):
                assert weyl_dim(t, lam) == weyl_dim(t, dual_weight(t, lam))
        rnd = random.Random(4)
        for t in (SimpleType("A", 3), SimpleType("A", 5), SimpleType("C", 3),
                  SimpleType("D", 5), SimpleType("B", 3), SimpleType("D", 4)):
            for _ in range(40):
                lam = tuple(rnd.randint(0, 3) for _ in range(t.rank))
                assert weyl_dim(t, lam) == weyl_dim(t, dual_weight(t, lam))

    def test_strictly_monotone(self):
        # sampled grid; this is what lets enumeration terminate
        for t in (SimpleType("A", 2), SimpleType("C", 3), SimpleType("B", 3),
                  SimpleType("D", 4)):
            base_weights = [zero_weight(t), fundamental(t, 1),
                            fundamental(t, t.rank)]
            for lam in base_weights:
                d0 = weyl_dim(t, lam)
                for i in range(t.rank):
                    bumped = tuple(c + 1 if j == i else c
                                   for j, c in enumerate(lam))
                    assert weyl_dim(t, bumped) > d0

    @given(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)))
    @settings(max_examples=60, deadline=None)
    def test_dual_involution_and_dim_a3(self, lam):
        t = SimpleType("A", 3)
        assert dual_weight(t, dual_weight(t, lam)) == lam
        assert weyl_dim(t, lam) == weyl_dim(t, dual_weight(t, lam))


class TestDualWeight:
    def test_a4_fundamentals(self):
        t = SimpleType("A", 4)
        assert dual_weight(t, (1, 0, 0, 0)) == (0, 0, 0, 1)
        assert dual_weight(t, (0, 1, 0, 0)) == (0, 0, 1, 0)

    def test_c2_natural_self_dual_via_module(self):
        # derived: decompose the dual of the natural sp4 module
        from disemi.repbuilder import decompose, dual, natural
        t = SimpleType("C", 2)
        desc = decompose(dual(natural(t)))
        assert desc.labels() == [((1, 0),)]
        assert dual_weight(t, (1, 0)) == (1, 0)

    def test_d_parity(self):
        assert dual_weight(SimpleType("D", 5), (0, 0, 0, 1, 0)) == (0, 0, 0, 0, 1)
        assert dual_weight(SimpleType("D", 4), (0, 0, 1, 0)) == (0, 0, 1, 0)


class TestDominantWeight:
    def test_validation(self):
        w = DominantWeight((1, 0, 2))
        assert w.valid_for(SimpleType("A", 3))
        assert not w.valid_for(SimpleType("A", 2))
        with pytest.raises(ValueError):
            DominantWeight((-1, 0))

    def test_weyl_dim_accepts_instances(self):
        t = SimpleType("A", 2)
        assert weyl_dim(t, DominantWeight((1, 0))) == 3
