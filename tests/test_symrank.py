import random
from fractions import Fraction

import pytest

from disemi import symrank
from disemi.linalg import rank as rational_rank


def const(c):
    return {0: c} if c else {}


def v(i, c=1):
    return {symrank.var_monomial(i): c}


class TestPolyArithmetic:
    def test_add_cancel(self):
        p = symrank.poly_add(v(0), {symrank.var_monomial(0): -1})
        assert p == {}

    def test_mul(self):
        # (v0 + 1)(v0 - 1) = v0^2 - 1
        p = symrank.poly_add(v(0), const(1))
        q = symrank.poly_add(v(0), const(-1))
        prod = symrank.poly_mul(p, q)
        sq = 2 * symrank.var_monomial(0)
        assert prod == {sq: 1, 0: -1}

    def test_div_exact(self):
        guard = symrank._carry_guard(2)
        p = symrank.poly_mul(symrank.poly_add(v(0), v(1)),
                             symrank.poly_add(v(0), const(3)))
        q = symrank.poly_add(v(0), v(1))
        quo = symrank.poly_div_exact(p, q, guard)
        assert quo == symrank.poly_add(v(0), const(3))

    def test_div_inexact_raises(self):
        guard = symrank._carry_guard(2)
        with pytest.raises(ArithmeticError):
            symrank.poly_div_exact(v(0), v(1), guard)

    def test_eval(self):
        p = symrank.poly_mul(v(0, 2), v(1, 3))  # 6 v0 v1
        assert symrank.poly_eval(p, [Fraction(1, 2), 5]) == 15


class TestGenericRank:
    def test_identity_blocks(self):
        m = [[v(0), const(0)], [const(0), v(1)]]
        assert symrank.generic_rank(m, 2) == 2

    def test_proportional_rows(self):
        # rows (v0, v1) and (2v0, 2v1) are dependent over Q(v)
        m = [[v(0), v(1)], [v(0, 2), v(1, 2)]]
        assert symrank.generic_rank(m, 2) == 1

    def test_generic_vs_specializations(self):
        rnd = random.Random(5)
        for _ in range(25):
            nv, nr, nc = 3, 4, 4
            m = [[{symrank.var_monomial(k): rnd.randint(-2, 2)
                   for k in range(nv)} for _ in range(nc)] for _ in range(nr)]
            m = [[{mm: c for mm, c in p.items() if c} for p in row] for row in m]
            g = symrank.generic_rank([list(r) for r in m], nv)
            for _ in range(6):
                pt = [rnd.randint(-5, 5) for _ in range(nv)]
                num = [[symrank.poly_eval(p, pt) for p in row] for row in m]
                assert rational_rank(num) <= g

    def test_rank_attained_somewhere(self):
        rnd = random.Random(9)
        for _ in range(10):
            nv = 2
            m = [[{symrank.var_monomial(k): rnd.randint(-1, 1)
                   for k in range(nv)} for _ in range(3)] for _ in range(3)]
            m = [[{mm: c for mm, c in p.items() if c} for p in row] for row in m]
            g = symrank.generic_rank([list(r) for r in m], nv)
            best = 0
            for _ in range(60):
                pt = [rnd.randint(-6, 6) for _ in range(nv)]
                num = [[symrank.poly_eval(p, pt) for p in row] for row in m]
                best = max(best, rational_rank(num))
            assert best == g

