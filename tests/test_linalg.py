from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

from heapq import heapify, heappop, heappush

import pytest

from disemi import liealg
from disemi.liealg import _chevalley_with_matrices, _natural_generators
from disemi.linalg import (LIFT_BOUND, PRIME, TAG, IncrementalSpan, clear,
                           clear_denominators, combination, commutator, dense,
                           divide, identity, matmul, nullspace, primitive,
                           rank, rank_mod_p, rational_reconstruction, rref,
                           sparse)
from disemi.rootdata import SimpleType


def residue(x):
    """x mod PRIME for an int or Fraction; None when PRIME divides the
    denominator, where reduction is undefined."""
    x = Fraction(x)
    den = x.denominator % PRIME
    return None if not den else x.numerator * pow(den, -1, PRIME) % PRIME


def dense_rref(a):
    """Textbook Gauss-Jordan on dense rows: (reduced nonzero rows,
    pivot columns).  The oracle the span-based eliminations are checked
    against, sharing no code with them."""
    rows = [[Fraction(x) for x in r] for r in a]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for j in range(len(rows)):
            if j != r and rows[j][c]:
                f = rows[j][c]
                rows[j] = [x - f * y for x, y in zip(rows[j], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def apply_rows(a, v):
    """The dense rows of a applied to the sparse vector v."""
    return [sum(x * v.get(k, 0) for k, x in enumerate(row)) for row in a]


def test_rref_rank_nullspace():
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    rows, pivots = rref(a)
    assert rows == [{0: 1, 2: 1}, {1: 1, 2: 1}] and pivots == [0, 1]
    assert rank(a) == 2
    ns = nullspace(a, 3)
    assert ns == [{2: 1, 0: -1, 1: -1}]
    for v in ns:
        assert apply_rows(a, v) == [0, 0, 0]


def test_rank_early_stop():
    a = identity(5)
    assert rank(a, stop_at=3) == 3
    assert rank(a) == 5


def test_matmul_commutator():
    e = [{1: 1}, {}]
    f = [{}, {0: 1}]
    h = commutator(e, f)
    assert h == [{0: 1}, {1: -1}]
    assert matmul(e, f) == [{0: 1}, {}]


def test_incremental_span_solve():
    span = IncrementalSpan()
    assert span.add([1, 1, 0])
    assert span.add([0, 1, 1])
    assert not span.add([1, 2, 1])
    coeffs = span.solve([2, 3, 1])
    assert coeffs is not None
    assert coeffs == {0: 2, 1: 1}
    got = [0, 0, 0]
    for i, c in coeffs.items():
        got = [g + c * x for g, x in zip(got, [[1, 1, 0], [0, 1, 1]][i])]
    assert got == [2, 3, 1]
    assert span.solve([0, 0, 1]) is None


@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_nullspace_property(rows):
    ns = nullspace(rows, 4)
    assert len(dense_rref(rows)[1]) + len(ns) == 4
    assert nullspace([sparse(r) for r in rows], 4) == ns
    for v in ns:
        assert apply_rows(rows, v) == [0] * len(rows)


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_incremental_span_matches_rank(rows):
    span = IncrementalSpan()
    added = 0
    for r in rows:
        if span.add(r):
            added += 1
    assert added == rank(rows) == len(dense_rref(rows)[1])
    for r in rows:
        assert span.solve(r) is not None


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-3, 3) | small_fractions, min_size=n,
                      max_size=n), min_size=1, max_size=6),
    st.lists(st.integers(-5, 5), min_size=n, max_size=n))))
@settings(max_examples=100, deadline=None)
def test_incremental_span_matches_dense_rref(case):
    rows, v = case
    n = len(v)
    span = IncrementalSpan()
    added = [r for r in rows if span.add(r)]
    reduced, pivots = dense_rref(rows)
    assert len(added) == len(pivots) == rank([sparse(r) for r in rows])
    assert span.pivots == pivots
    assert rref(rows) == ([sparse(r) for r in reduced], pivots)
    for r in rows:
        coeffs = span.solve(r)
        assert span.solve(sparse(r)) == coeffs
        assert [sum(c * added[i][k] for i, c in coeffs.items())
                for k in range(n)] == r
    # the residue vanishes on every pivot column and is the one rref gives
    res = span.residue(v)
    assert not set(res) & set(pivots)
    expect = list(v)
    for row, pc in zip(reduced, pivots):
        expect = [x - v[pc] * y for x, y in zip(expect, row)]
    assert dense(res, n) == expect
    assert not span.residue([x - y for x, y in zip(v, expect)])


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4) | small_fractions, min_size=n, max_size=n),
    min_size=1, max_size=5)), st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_rank_mod_p_matches_rank(rows, stop_at):
    # a lower bound always; on small entries no minor is divisible by PRIME
    assert rank_mod_p(rows) == rank(rows)
    assert rank_mod_p(rows, stop_at=stop_at) == rank(rows, stop_at=stop_at)


def test_rank_mod_p_can_only_drop():
    a = [[PRIME, 0], [0, 1]]
    assert rank_mod_p(a) == 1 < rank(a) == 2


def test_rank_mod_p_denominator_divisible_by_prime_is_exact():
    a = [[Fraction(1, PRIME), 0], [0, 1]]
    assert residue(a[0][0]) is None
    # reading 1/PRIME as anything mod PRIME is undefined; the exact rank is 2
    assert rank_mod_p(a) == 2


@given(st.integers(-LIFT_BOUND, LIFT_BOUND), st.integers(1, LIFT_BOUND))
@settings(max_examples=200, deadline=None)
def test_rational_reconstruction_round_trip(n, d):
    q = Fraction(n, d)
    assert rational_reconstruction(residue(q)) == q


def test_rational_reconstruction_out_of_bound():
    assert rational_reconstruction(LIFT_BOUND + 1) is None
    assert rational_reconstruction(residue(Fraction(1, 2 ** 31))) is None
    # a value past the bound may also lift to a wrong small fraction,
    # which is why lifted vectors are only candidates
    assert rational_reconstruction(2 ** 40) == Fraction(1, 2 ** 21)


def typed(v):
    """A sparse vector as {index: (type, value)}, so that comparisons see
    int against Fraction."""
    return {k: (type(x), x) for k, x in v.items()}


def canonical(v):
    """The nonzero entries of a dense Fraction vector as a sparse dict,
    an int wherever the value is integral: the types the span returns."""
    return {k: x.numerator if x.denominator == 1 else x
            for k, x in enumerate(v) if x}


# large denominators and numerators next to small ones: PRIME itself,
# a power of two past 64 bits, and a large odd denominator
wide_rationals = (st.integers(-3, 3) | small_fractions
                  | st.sampled_from([Fraction(1, PRIME), Fraction(5, 2 ** 70),
                                     Fraction(-7, 3 ** 40), 2 ** 70 + 1,
                                     Fraction(2 ** 65, 3)]))


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(wide_rationals, min_size=n, max_size=n),
             min_size=1, max_size=6),
    st.lists(wide_rationals, min_size=n, max_size=n))))
@settings(max_examples=150, deadline=None)
def test_integer_span_matches_fraction_oracle(case):
    # the fraction-free span against textbook Gauss-Jordan over Fraction:
    # same rank, pivots, rref, nullspace and residues, value for value
    # and type for type; solve round-trips
    rows, v = case
    n = len(v)
    reduced, pivots = dense_rref(rows)
    span = IncrementalSpan()
    added = [r for r in rows if span.add(r)]
    assert rank(rows) == len(added) == len(pivots)
    assert span.pivots == pivots
    got_rows, got_pivots = rref(rows)
    assert got_pivots == pivots
    assert [typed(r) for r in got_rows] == [typed(canonical(r)) for r in reduced]
    free = [c for c in range(n) if c not in pivots]
    expect_null = []
    for fc in free:
        x = [Fraction(0)] * n
        x[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            x[pc] = -row[fc]
        expect_null.append(typed(canonical(x)))
    assert [typed(x) for x in nullspace(rows, n)] == expect_null
    expect = [Fraction(x) for x in v]
    for row, pc in zip(reduced, pivots):
        expect = [x - v[pc] * y for x, y in zip(expect, row)]
    assert typed(span.residue(v)) == typed(canonical(expect))
    for r in rows + [[x - y for x, y in zip(v, expect)]]:
        coeffs = span.solve(r)
        assert all(type(c) is int or c.denominator > 1
                   for c in coeffs.values())
        assert [sum(c * added[i][k] for i, c in coeffs.items())
                for k in range(n)] == r
    assert span.solve(v) is None if any(expect) else span.solve(v) is not None


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(wide_rationals, min_size=n, max_size=n), min_size=1,
    max_size=8)))
@settings(max_examples=100, deadline=None)
def test_pivot_rows_are_primitive_integer_rows(rows):
    span = IncrementalSpan()
    for r in rows:
        span.add(r)
        for pc, row in span.rows.items():
            assert all(type(x) is int for x in row.values())
            assert gcd(*row.values()) == 1
            assert row[pc] and min(row) == pc


def test_clear_denominators():
    m = [{0: Fraction(1, 2)}, {0: Fraction(-2, 3), 1: 5}]
    assert clear_denominators(m) == (6, [{0: 3}, {0: -4, 1: 30}])
    assert clear_denominators([{0: Fraction(4), 1: 2}]) == (1, [{0: 4, 1: 2}])


def test_residue_of_a_zero_vector_reduces_nothing(monkeypatch):
    span = IncrementalSpan()
    span.add([1, 2, 0])
    monkeypatch.setattr(span, "_reduce", None)   # a call would raise
    # brackets keep cancelled entries as zeros
    for v in ({}, {0: 0, 2: Fraction(0)}, [0, 0, 0]):
        assert span.residue(v) == {}
    monkeypatch.undo()
    assert span.residue({1: 1}) == {1: 1}


class BookkeepingSpan:
    """The span as it solved before coordinates were read off residues,
    the oracle for IncrementalSpan.solve: _reduce keeps K r = s v -
    sum_q mu[q] P_q, add stores (K, s, mu) per pivot row, and the first
    solve after an add builds that row's D P = sum X[q] added_q."""

    def __init__(self):
        self.rows = {}
        self._added = {}
        self._exprs = {}

    def _reduce(self, v):
        scale, r = clear(v)
        cont = 1
        mu = {}
        rows = self.rows
        todo = [k for k in r if k in rows]
        heapify(todo)
        while todo:
            pc = heappop(todo)
            c = r.get(pc)
            if not c:
                continue
            row = rows[pc]
            p = row[pc]
            scaled = c % p
            if scaled:
                g = gcd(p, c) if p > 0 else -gcd(p, c)
                alpha, c = p // g, c // g
                r = {k: alpha * x for k, x in r.items()}
                scale *= alpha
                mu = {q: alpha * m for q, m in mu.items()}
            else:
                c //= p
            mu[pc] = c * cont
            for k, y in row.items():
                x = r.get(k, 0) - c * y
                if x:
                    if k not in r and k in rows:
                        heappush(todo, k)
                    r[k] = x
                else:
                    del r[k]
            if scaled:
                g, r = primitive(r)
                cont *= g
        return cont, scale, r, mu

    def add(self, v):
        cont, scale, r, mu = self._reduce(v)
        if not r:
            return False
        g, r = primitive(r)
        pc = min(r)
        self.rows[pc], self._added[pc] = r, (cont * g, scale, mu)
        return True

    def _combine(self, mu):
        exprs = self._exprs
        d = lcm(*[exprs[q][0] for q in mu])
        num = {}
        for q, m in mu.items():
            dq, x = exprs[q]
            f = m * (d // dq)
            for k, e in x.items():
                num[k] = num.get(k, 0) + f * e
        return num, d

    def solve(self, v):
        """A dense list of coefficients over the added generators, or
        None."""
        for pc in list(self._added)[len(self._exprs):]:
            cont, s, mu = self._added[pc]
            num, d = self._combine(mu)
            num[pc] = -d * s
            g = gcd(d * cont, *num.values())
            self._exprs[pc] = (d * cont // g,
                               {q: -e // g for q, e in num.items() if e})
        _, scale, r, mu = self._reduce(v)
        if r:
            return None
        num, d = self._combine(mu)
        d *= scale
        return [divide(num[q], d) if q in num else 0 for q in self._added]


solve_steps = st.integers(1, 5).flatmap(lambda n: st.lists(st.tuples(
    st.sampled_from(["add", "solve"]),
    st.sampled_from(["row", "combination", "zero"]),
    st.lists(wide_rationals, min_size=n, max_size=n),
    st.booleans()), max_size=12))


@given(solve_steps)
@settings(max_examples=150, deadline=None)
def test_solve_matches_bookkeeping_oracle(steps):
    # interleaved adds and solves of rows, combinations of earlier rows
    # (dependent ones) and zero vectors, dense or sparse, from an empty
    # span on: the same coordinates, value for value and type for type
    span, oracle = IncrementalSpan(), BookkeepingSpan()
    seen = []
    for op, kind, v, as_dict in steps:
        n = len(v)
        if kind == "combination":
            v = [sum(c * r[k] for c, r in zip(v, seen)) for k in range(n)]
        elif kind == "zero":
            v = [0] * n
        seen.append(v)
        v = sparse(v) if as_dict else v
        if op == "add":
            assert span.add(v) == oracle.add(v)
        want = oracle.solve(v)
        got = span.solve(v)
        if want is None:
            assert got is None
        else:
            assert typed(got) == typed(sparse(want))
    for v in seen:
        want = oracle.solve(v)
        assert span.solve(v) == (None if want is None else sparse(want))


def test_solve_on_empty_span_interleaved_and_tag_bound():
    span = IncrementalSpan()
    assert span.solve([0, 0]) == {} and span.solve({1: 3}) is None
    assert span.add({0: 1})
    assert span.solve({0: 5}) == {0: 5}
    # an add after the first solve extends the tagged twin
    assert span.add([1, 2])
    assert typed(span.solve([3, 1])) == {0: (Fraction, Fraction(5, 2)),
                                         1: (Fraction, Fraction(1, 2))}
    # a generator column at or above TAG would collide with a tag; the
    # span itself still works, and every solve raises
    assert span.add({TAG + 1: 1}) and span.residue({TAG + 1: 2}) == {}
    for _ in range(2):
        with pytest.raises(ValueError, match="not below TAG"):
            span.solve([1, 0])
    fresh = IncrementalSpan()
    assert fresh.add({TAG: 1})
    with pytest.raises(ValueError, match="not below TAG"):
        fresh.solve({TAG: 1})


def parent_commutator(a, b):
    """ab - ba as two products and a combination, the oracle for the
    one-pass commutator."""
    return combination(((1, matmul(a, b)), (-1, matmul(b, a))), len(a))


row_dict_matrices = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.dictionaries(st.integers(0, n - 1),
                             st.integers(-3, 3).filter(bool)
                             | small_fractions.filter(bool), max_size=n),
             min_size=n, max_size=n), min_size=2, max_size=2))


@given(row_dict_matrices)
def test_commutator_matches_two_products(pair):
    a, b = pair
    got = commutator(a, b)
    assert got == parent_commutator(a, b)
    assert all(x for row in got for x in row.values())
    if all(type(x) is int for m in pair for row in m for x in row.values()):
        assert all(type(x) is int for row in got for x in row.values())


def bookkeeping_closure(t):
    """The Chevalley closure of liealg._chevalley_with_matrices as it was
    before brackets were read off weights: each commutator (two products
    and a combination) solved over the flattened span by BookkeepingSpan.
    (table, basis matrices, defs, labels)."""
    h, e, f = _natural_generators(t)
    l = t.rank
    n = len(h[0])
    basis = list(h) + list(e) + list(f)
    span = BookkeepingSpan()

    def flat(m):
        return {a * n + b: x for a, row in enumerate(m) for b, x in row.items()}

    assert all(span.add(flat(m)) for m in basis)
    defs, table = {}, {}
    queue = [(i, j) for j in range(len(basis)) for i in range(j)]
    for i, j in queue:
        c = parent_commutator(basis[i], basis[j])
        if not any(c):
            continue
        coeffs = span.solve(flat(c))
        if coeffs is None:
            span.add(flat(c))
            m = len(basis)
            basis.append(c)
            defs[m] = (i, j)
            table[(i, j)] = {m: 1}
            queue.extend((k, m) for k in range(m))
        else:
            table[(i, j)] = sparse(coeffs)
    labels = (["h%d" % (i + 1) for i in range(l)]
              + ["e%d" % (i + 1) for i in range(l)]
              + ["f%d" % (i + 1) for i in range(l)]
              + ["x%d" % m for m in range(3 * l, len(basis))])
    return table, basis, defs, labels


CLOSURE_TYPES = (["A%d" % r for r in range(1, 8)] + ["B%d" % r for r in range(2, 6)]
                 + ["C%d" % r for r in range(2, 6)] + ["D%d" % r for r in range(3, 7)])


@pytest.mark.parametrize("t", CLOSURE_TYPES)
def test_chevalley_tables_match_bookkeeping_closure(t):
    t = SimpleType(t[0], int(t[1:]))
    g, basis, defs = _chevalley_with_matrices(t)
    table, oracle_basis, oracle_defs, labels = bookkeeping_closure(t)
    assert basis == oracle_basis and defs == oracle_defs
    assert g.labels == labels
    # entry order too: it is the order the table is read in
    assert ({k: [(c, type(x), x) for c, x in row.items()]
             for k, row in g.table.items()}
            == {k: [(c, type(x), x) for c, x in row.items()]
                for k, row in table.items()})
    # every basis matrix is homogeneous for the diagonal Cartan: its
    # entries (a, b) share one weight diag[a] - diag[b]
    diag = [tuple(basis[i][a].get(a, 0) for i in range(t.rank))
            for a in range(len(basis[0]))]
    assert len(set(diag)) == len(diag)
    for m in basis:
        assert len({tuple(x - y for x, y in zip(diag[a], diag[b]))
                    for a, row in enumerate(m) for b in row}) == 1


def closure_with(monkeypatch, t, **patches):
    """The uncached closure of t with liealg names patched."""
    for name, value in patches.items():
        monkeypatch.setattr(liealg, name, value)
    return _chevalley_with_matrices.__wrapped__(SimpleType(*t))


def test_closure_checks_each_coefficient_it_reads(monkeypatch):
    wrong = lambda x, d: divide(x, d) + 1  # noqa: E731
    with pytest.raises(AssertionError, match="off its weight"):
        closure_with(monkeypatch, ("C", 2), divide=wrong)


def test_closure_raises_on_a_cartan_bracket_outside_the_cartan(monkeypatch):
    def plus_identity(a, b):
        c = commutator(a, b)
        if all(set(row) <= {i} for i, row in enumerate(c)):
            c = [{i: row.get(i, 0) + 1} if row.get(i, 0) != -1 else {}
                 for i, row in enumerate(c)]
        return c
    with pytest.raises(AssertionError, match="off its weight"):
        closure_with(monkeypatch, ("A", 2), commutator=plus_identity)


def test_closure_checks_its_dimension(monkeypatch):
    def no_top_root(a, b):
        c = commutator(a, b)
        return [{} for _ in c] if c[0].get(2) else c
    with pytest.raises(AssertionError, match="reached dim 7, expected 8"):
        closure_with(monkeypatch, ("A", 2), commutator=no_top_root)


def test_closure_refuses_dependent_generators(monkeypatch):
    h, e, f = _natural_generators(SimpleType("A", 2))
    with pytest.raises(AssertionError, match="bad Chevalley generators"):
        closure_with(monkeypatch, ("A", 2), _natural_generators=lambda t: (
            [h[0], h[0]], e, f))
