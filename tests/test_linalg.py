from fractions import Fraction

from hypothesis import given, settings, strategies as st

from disemi.linalg import (LIFT_BOUND, PRIME, IncrementalSpan, commutator,
                           dense, identity, matmul, matvec, nullspace, rank,
                           rank_mod_p, rational_reconstruction, residue, rref,
                           sparse)


def test_rref_rank_nullspace():
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    rows, pivots = rref(a)
    assert len(rows) == 2 and pivots == [0, 1]
    assert rank(a) == 2
    ns = nullspace(a)
    assert len(ns) == 1
    for v in ns:
        assert matvec(a[0:1], v) == [0]
        assert matvec(a, v) == [0, 0, 0]


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
    span = IncrementalSpan(3)
    assert span.add([1, 1, 0])
    assert span.add([0, 1, 1])
    assert not span.add([1, 2, 1])
    coeffs = span.solve([2, 3, 1])
    assert coeffs is not None
    got = [0, 0, 0]
    for c, vec in zip(coeffs, [[1, 1, 0], [0, 1, 1]]):
        got = [g + c * x for g, x in zip(got, vec)]
    assert got == [2, 3, 1]
    assert span.solve([0, 0, 1]) is None


@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_nullspace_property(rows):
    ns = nullspace(rows, ncols=4)
    assert rank(rows) + len(ns) == 4
    for v in ns:
        assert matvec(rows, v) == [0] * len(rows)


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_incremental_span_matches_rank(rows):
    span = IncrementalSpan(3)
    added = 0
    for r in rows:
        if span.add(r):
            added += 1
    assert added == rank(rows)
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
    span = IncrementalSpan(n)
    added = [r for r in rows if span.add(r)]
    reduced, pivots = rref(rows)
    assert len(added) == rank(rows)
    assert span.pivots == pivots
    for r in rows:
        coeffs = span.solve(r)
        assert span.solve(sparse(r)) == coeffs
        assert [sum(c * a[k] for c, a in zip(coeffs, added))
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
