"""Exact rational linear algebra: the one kernel of modules and Lie algebras.

Entries are ints or fractions.Fraction; no floating point anywhere.
Matrices are row dicts: a list of rows, and row a maps a column b to the
nonzero entry (a, b).  Module actions, ad matrices, the Chevalley
matrices and every LinearMap use this format.  Vectors are flat lists
or sparse {index: entry} dicts; the eliminations take either.
Functions do not mutate their arguments unless the name says so.

There is one elimination per field.  Over Q it is IncrementalSpan,
which also gives rank, rref and nullspace.  The modular kernel at the
end reduces mod PRIME for ranks and sparse nullspaces; its answers are
lower bounds or candidates, and each docstring says what has to be
checked exactly before one counts.
"""

from bisect import insort
from heapq import heapify, heappop, heappush
from fractions import Fraction
from math import gcd, isqrt

PRIME = 2 ** 61 - 1
# Wang's bound: a fraction n/d with |n|, d <= LIFT_BOUND is the only one
# of that size with its residue, since 2 * LIFT_BOUND**2 < PRIME.
LIFT_BOUND = isqrt((PRIME - 1) // 2)


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def sparse(v):
    """A dense list or a dict as a {index: entry} dict of its nonzero
    entries."""
    items = v.items() if isinstance(v, dict) else enumerate(v)
    return {k: x for k, x in items if x}


def dense(v, n):
    """A sparse vector as a dense list of length n."""
    return [v.get(k, 0) for k in range(n)]


# ---------------------------------------------------------------------------
# Row-dict matrices
# ---------------------------------------------------------------------------

def combination(terms, n):
    """sum of c * m over the (c, m) pairs of n-row matrices, zero
    entries dropped."""
    out = [{} for _ in range(n)]
    for c, m in terms:
        for row, mrow in zip(out, m):
            for b, x in mrow.items():
                row[b] = row.get(b, 0) + c * x
    return [{b: x for b, x in row.items() if x} for row in out]


def matmul(a, b):
    """The matrix product a b, zero entries dropped."""
    out = []
    for arow in a:
        row = {}
        for k, x in arow.items():
            for j, y in b[k].items():
                row[j] = row.get(j, 0) + x * y
        out.append({j: x for j, x in row.items() if x})
    return out


def commutator(a, b):
    """[a, b] = ab - ba, zero entries dropped."""
    return combination(((1, matmul(a, b)), (-1, matmul(b, a))), len(a))


def columns(m, n):
    """Per column b < n of m, the (row, entry) pairs of its nonzero
    entries."""
    cols = [[] for _ in range(n)]
    for a, row in enumerate(m):
        for b, x in row.items():
            cols[b].append((a, x))
    return cols


def apply(m, v):
    """The dense vector m v, for a dense vector v."""
    return [sum(x * v[b] for b, x in row.items()) for row in m]


def entry(x):
    """x as an int when it is an integral Fraction, else x itself."""
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


class IncrementalSpan:
    """Grows a row space one vector at a time, with coordinate recovery.

    This is the one elimination over Q in the package: rank, rref and
    nullspace below run on it too.  A vector is a dense list or a
    sparse {column: entry} dict.  Each pivot row is a sparse dict with 1
    at its pivot column, zeros left of it and at every pivot column that
    existed when it was added; it is kept with its expression, also a
    sparse dict, over the vectors that were actually added.  solve() then writes any vector of the span as a
    combination of the added generators.

    pivots lists the pivot columns in increasing order, and as a set it
    depends only on the row space, not on the order or scaling of the
    generators.  The pivot rows have distinct leading columns, so a
    combination of them leads at the smallest leading column it uses;
    hence c is a pivot exactly when the span has more vectors vanishing
    left of c than vanishing left of c + 1, a property of the space
    alone.  The same argument makes residue() unique: two vectors of
    v + span that vanish on every pivot column differ by a vector of the
    span that vanishes there, which is 0.  So coordinates read off the
    pivots and residues agree with those of any other echelon form, the
    reduced one of rref included.
    """

    def __init__(self):
        self.pivots = []
        self.rows = {}      # pivot col -> (reduced row, expr over added vecs)
        self.nadded = 0

    def _reduce(self, v, track=True):
        """(r, expr) with v = r + sum_k expr[k] . added_k and r zero on
        every pivot column; expr is None unless track.  Pivot rows are
        zero left of their pivot, so clearing the pivot columns of r in
        increasing order (a heap of those r has) clears them all."""
        r = sparse(v)
        expr = {} if track else None
        rows = self.rows
        todo = [k for k in r if k in rows]
        heapify(todo)
        while todo:
            pc = heappop(todo)
            c = r.get(pc)
            if not c:
                continue
            row, rexpr = rows[pc]
            for k, y in row.items():
                x = r.get(k, 0) - c * y
                if x:
                    if k not in r and k in rows:
                        heappush(todo, k)
                    r[k] = x
                else:
                    del r[k]
            if track:
                for k, e in rexpr.items():
                    expr[k] = expr.get(k, 0) + c * e
        return r, expr

    def add(self, v):
        """Add v as a generator; True if it enlarged the span.

        Vectors already in the span are rejected and do not get a
        coordinate slot, so solve() coordinates match the accepted ones.
        """
        r, expr = self._reduce(v)
        if not r:
            return False
        pc = min(r)
        p = r[pc]
        # v = r + sum expr_k . added_k, so r/p = (v - sum expr_k . added_k)/p
        rexpr = {k: -e for k, e in expr.items() if e}
        rexpr[self.nadded] = 1
        if p != 1:
            r = {k: entry(Fraction(x, p)) for k, x in r.items()}
            rexpr = {k: entry(Fraction(e, p)) for k, e in rexpr.items()}
        self.rows[pc] = (r, rexpr)
        insort(self.pivots, pc)
        self.nadded += 1
        return True

    def solve(self, v):
        """Coefficients of v over the added generators, or None."""
        r, expr = self._reduce(v)
        return None if r else [expr.get(k, 0) for k in range(self.nadded)]

    def residue(self, v):
        """The vector of v + span that vanishes on every pivot column,
        as a sparse dict; unique, see the class docstring."""
        return self._reduce(v, track=False)[0]


def rank(a, stop_at=None):
    """Rank of the rows of a, dense lists or sparse dicts: the number an
    IncrementalSpan accepts.  Stops once stop_at rows are accepted."""
    span = IncrementalSpan()
    r = 0
    for row in a:
        if span.add(row):
            r += 1
            if r == stop_at:
                break
    return r


def rref(a):
    """Reduced row echelon form of the rows of a, dense lists or sparse
    dicts.

    Returns (rows, pivots): the nonzero reduced rows as sparse dicts and
    the column of each leading 1, in increasing order.  A pivot row of
    the span is 1 at its pivot pc and zero left of it; the residue of
    the rest of it is the one vector of row - e_pc + span that vanishes
    on every pivot column, so adding e_pc back gives the reduced row.
    """
    span = IncrementalSpan()
    for row in a:
        span.add(row)
    rows = []
    for pc in span.pivots:
        rest = dict(span.rows[pc][0])
        del rest[pc]
        rows.append({pc: 1, **span.residue(rest)})
    return rows, list(span.pivots)


def nullspace(a, ncols):
    """Basis of the right kernel of the rows of a (dense lists or sparse
    dicts) with ncols columns, as sparse dicts: one vector per free
    column of rref(a), 1 there, 0 on the other free columns and minus
    that column of each reduced row on the row's pivot."""
    rows, pivots = rref(a)
    pivot_set = set(pivots)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in pivot_set}
    for row, pc in zip(rows, pivots):
        for k, x in row.items():
            if k != pc:
                basis[k][pc] = -x
    return list(basis.values())


# ---------------------------------------------------------------------------
# Modular kernel
# ---------------------------------------------------------------------------

def residue(x):
    """x mod PRIME for an int or Fraction; None when PRIME divides the
    denominator, where reduction is undefined."""
    if isinstance(x, int):
        return x % PRIME
    den = x.denominator % PRIME
    if not den:
        return None
    return x.numerator * pow(den, -1, PRIME) % PRIME


def _echelon_mod_p(rows, stop_at=None):
    """Row echelon form of rows reduced mod PRIME, or None when PRIME
    divides a denominator.

    rows are dense lists or sparse dicts over Q; each is reduced mod
    PRIME only when the elimination reaches it, so no second copy of the
    system is held.  Short rows go first, so that most later rows meet
    short pivots; the order changes nothing else, since the pivot
    columns of an echelon form depend only on the row space.  Returns
    {pivot column: row}, each row a sparse dict mod PRIME with 1 at its
    pivot and zeros left of it.  Stops once stop_at pivots are found.
    """
    p = PRIME
    pivots = {}
    for row in sorted(rows, key=len):
        red = {}
        for k, v in (row.items() if isinstance(row, dict) else enumerate(row)):
            if v:
                v = residue(v)
                if v is None:
                    return None
                if v:
                    red[k] = v
        while red:
            c = min(red)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(red[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in red.items()}
                break
            f = red.pop(c)
            for k, v in piv.items():
                if k == c:
                    continue
                nv = (red.get(k, 0) - f * v) % p
                if nv:
                    red[k] = nv
                else:
                    red.pop(k, None)
        if len(pivots) == stop_at:
            break
    return pivots


def rank_mod_p(a, stop_at=None):
    """Rank of a reduced mod PRIME; a lower bound for rank(a).

    Reduction mod PRIME is a ring homomorphism on the rationals whose
    denominators PRIME does not divide, so it commutes with every minor:
    a minor that is nonzero mod PRIME is nonzero over Q, and the rank
    mod PRIME never exceeds the rank over Q.  It is equal unless PRIME
    divides every maximal nonzero minor.  When PRIME divides a
    denominator the exact rank is returned instead.  stop_at as in rank.
    """
    pivots = _echelon_mod_p(a, stop_at)
    return rank(a, stop_at) if pivots is None else len(pivots)


def rational_reconstruction(u):
    """The fraction n/d with |n|, d <= LIFT_BOUND and n = u*d mod PRIME,
    or None.

    Wang's half extended Euclidean algorithm.  The answer is unique when
    it exists, but it equals the rational that u came from only if that
    rational is within the bound: a lifted value is a candidate until it
    is checked exactly.
    """
    r0, r1 = PRIME, u % PRIME
    t0, t1 = 0, 1
    while r1 > LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > LIFT_BOUND or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def sparse_nullspace_mod_p(rows, ncols):
    """Nullspace of a sparse system mod PRIME, lifted to Q; or None.

    rows are {col: coeff} dicts over Q, reduced by _echelon_mod_p.  The
    basis has one vector per free column of the echelon form mod PRIME,
    1 there and 0 on the other free columns, and every entry lifted by
    rational_reconstruction.  None when PRIME divides a denominator or
    an entry does not lift.

    The vectors are candidates only.  If every one of them is checked
    exactly to satisfy every row, they are a basis of the nullspace over
    Q: they are independent, and there are ncols - rank mod PRIME >=
    ncols - rank over Q of them.
    """
    p = PRIME
    pivots = _echelon_mod_p(rows)
    if pivots is None:
        return None
    order = sorted(pivots, reverse=True)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        x = {fc: 1}
        for pc in order:
            s = 0
            for k, v in pivots[pc].items():
                if k != pc and k in x:
                    s += v * x[k]
            s %= p
            if s:
                x[pc] = p - s
        lifted = {}
        for k, v in x.items():
            q = rational_reconstruction(v)
            if q is None:
                return None
            lifted[k] = q
        basis.append(lifted)
    return basis
