"""Exact rational linear algebra: the one kernel of modules and Lie algebras.

Entries are ints or fractions.Fraction; no floating point anywhere.
Matrices are row dicts: a list of rows, and row a maps a column b to the
nonzero entry (a, b).  Module actions, ad matrices, the Chevalley
matrices and every LinearMap use this format.  Vectors are flat lists
or sparse {index: entry} dicts; the eliminations take either.
Functions do not mutate their arguments unless the name says so.

There is one elimination per field.  Over Q it is IncrementalSpan,
which also gives rank, rref and nullspace: it keeps primitive int rows,
and a Fraction appears only in a value it returns that is not integral.
The modular kernel reduces mod PRIME for ranks and sparse nullspaces;
its answers are bounds or candidates, each checked as its docstring says.
"""

from bisect import insort
from heapq import heapify, heappop, heappush
from fractions import Fraction
from math import gcd, isqrt, lcm

PRIME = 2 ** 61 - 1
# Wang's bound: a fraction n/d with |n|, d <= LIFT_BOUND is the only one
# of that size with its residue, since 2 * LIFT_BOUND**2 < PRIME.
LIFT_BOUND = isqrt((PRIME - 1) // 2)
# IncrementalSpan.solve tags generator i with column TAG + i, right of
# every coordinate column
TAG = 2 ** 62


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
    """[a, b] = ab - ba, zero entries dropped, summed one row at a time."""
    out = []
    for arow, brow in zip(a, b):
        row = {}
        for k, x in arow.items():
            for j, y in b[k].items():
                row[j] = row.get(j, 0) + x * y
        for k, x in brow.items():
            for j, y in a[k].items():
                row[j] = row.get(j, 0) - x * y
        out.append({j: x for j, x in row.items() if x})
    return out


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


def clear(v):
    """(den, den * v) for a vector of ints and Fractions, dense or
    sparse: den is the least positive int making it integral, and
    den * v comes back as a sparse dict of ints."""
    out = sparse(v)
    # a sum of ints is an int, and one Fraction makes it a Fraction
    if type(sum(out.values())) is int:
        return 1, out
    den = lcm(*[x.denominator for x in out.values()])
    return den, {k: x.numerator * (den // x.denominator) for k, x in out.items()}


def clear_denominators(m):
    """(D, D*m) for the least positive integer D making the row-dict
    matrix m integral."""
    pairs = [clear(row) for row in m]
    den = lcm(1, *(d for d, _ in pairs))
    return den, [{b: x * (den // d) for b, x in row.items()} if d < den
                 else row for d, row in pairs]


def primitive(v):
    """(g, v / g) for an int vector v with content g (1 if v = 0)."""
    g = gcd(*v.values())
    return (g, {k: x // g for k, x in v.items()}) if g > 1 else (1, v)


def divide(x, d):
    """x / d for ints, as an int when d divides x, else a Fraction."""
    return Fraction(x, d) if x % d else x // d


def normal(v):
    """The nonzero entries of a sparse vector of ints and Fractions,
    each an int where it is integral and a Fraction otherwise."""
    return {k: x.numerator if x.denominator == 1 else x
            for k, x in v.items() if x}


class IncrementalSpan:
    """Grows a row space one vector at a time, with coordinate recovery.

    This is the one elimination over Q in the package: rank, rref and
    nullspace below run on it too.  A vector is a dense list or a
    sparse {column: entry} dict of ints and Fractions, with every
    column below TAG.

    It computes over Z, fraction-free as in Bareiss.  A vector v is
    cleared to ints r (clear) and reduced: where r has c at the pivot of
    a row P with p there, r <- r - (c/p) P if p | c, else r <- (p/g) r -
    (c/g) P for g = gcd(p, c) signed like p, and r is made primitive
    (primitive).  Throughout, K r - s v lies in the span for ints K and
    s > 0.  Pivot rows are primitive int vectors, nonzero at their
    pivot, zero left of it and at every pivot column that existed when
    they were added.

    pivots lists the pivot columns in increasing order, and as a set it
    depends only on the row space, not on the order or scaling of the
    generators.  The pivot rows have distinct leading columns, so a
    combination of them leads at the smallest leading column it uses;
    hence c is a pivot exactly when the span has more vectors vanishing
    left of c than vanishing left of c + 1, a property of the space
    alone.  The same argument makes residue() unique: two vectors of
    v + span that vanish on every pivot column differ by a vector of the
    span that vanishes there, which is 0.  So pivots, residues and the
    coordinates read off them are those of any echelon form over Q,
    whatever the scaling of rows and steps.

    Coordinates are residues too.  solve() keeps a twin span of the
    accepted generators g_i, each tagged with a 1 in column TAG + i,
    right of every coordinate.  The g_i are independent, so no nonzero
    combination of the tagged ones vanishes on the coordinates: every
    vector of the twin leads at a coordinate column, and the twin has
    the pivots of this span.  If v = sum c_i g_i, then v - sum c_i
    (g_i + e_{TAG+i}) = -sum c_i e_{TAG+i} lies in v + twin and
    vanishes on every pivot, so it is the residue of v over the twin;
    conversely a residue with no coordinate entry writes v over the g_i.

    Fractions appear only where a value leaves the span: residue, solve
    and rref divide once, at the end, and give ints where they can.
    """

    def __init__(self):
        self.pivots = []
        self.rows = {}      # pivot col -> pivot row
        self._gens = []     # the accepted vectors, sparse, in order
        self._twin = None   # their tagged span, grown by solve()

    def _reduce(self, v):
        """(K, s, r), r zero on every pivot column.  Pivot rows are
        zero left of their pivot, so clearing the pivot columns of r in
        increasing order (a heap of those r has) clears them all."""
        scale, r = clear(v)
        cont = 1
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
            else:
                c //= p
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
        return cont, scale, r

    def _insert(self, v):
        """Keep v's reduction as a pivot row unless it is 0; True if kept."""
        r = self._reduce(v)[2]
        if not r:
            return False
        pc = min(r)
        self.rows[pc] = primitive(r)[1]
        insort(self.pivots, pc)
        return True

    def add(self, v):
        """Add v as a generator; True if it enlarged the span.

        Vectors already in the span are rejected and do not get a
        coordinate slot, so solve() coordinates match the accepted ones.
        """
        if not self._insert(v):
            return False
        self._gens.append(sparse(v))
        return True

    def solve(self, v):
        """The coordinates of v over the accepted generators as a sparse
        {slot: coefficient} dict, or None when v is outside the span:
        minus the tag part of v's residue over the twin, which first
        takes in the generators accepted since the last call."""
        twin = self._twin = self._twin or IncrementalSpan()
        for i in range(len(twin.pivots), len(self._gens)):
            g = self._gens[i]
            if max(g) >= TAG:
                raise ValueError("generator column %d is not below TAG" % max(g))
            twin._insert({**g, TAG + i: 1})
        res = sorted(twin.residue(v).items())
        if res and res[0][0] < TAG:
            return None
        return {k - TAG: -x for k, x in res}

    def residue(self, v):
        """The vector K r / s of v + span, which vanishes on every pivot
        column, as a sparse dict; unique, see the class docstring."""
        # many are zero, some with the zeros a bracket keeps
        if not any(v.values() if isinstance(v, dict) else v):
            return {}
        cont, scale, r = self._reduce(v)
        return r if cont == scale else {
            k: divide(cont * x, scale) for k, x in r.items()}


def rank(a, stop_at=None):
    """Rank of the rows of a, dense lists or sparse dicts: the number an
    IncrementalSpan accepts.  Stops once stop_at rows are accepted."""
    span = IncrementalSpan()
    for row in a:
        if span._insert(row) and len(span.pivots) == stop_at:
            break
    return len(span.pivots)


def rref(a):
    """Reduced row echelon form of the rows of a, dense lists or sparse
    dicts: (rows, pivots), the nonzero reduced rows as sparse dicts and
    the column of each leading 1, in increasing order.  A pivot row P
    with p at pc reduces to e_pc + K r / (s p), where K r / s is the
    residue of P - p e_pc."""
    span = IncrementalSpan()
    for row in a:
        span._insert(row)
    rows = []
    for pc in span.pivots:
        row = span.rows[pc]
        cont, scale, r = span._reduce({**row, pc: 0})
        d = scale * row[pc]
        rows.append({pc: 1, **{k: divide(cont * x, d) for k, x in r.items()}})
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

def _echelon_mod_p(rows, stop_at=None):
    """Row echelon form of rows reduced mod PRIME, or None when PRIME
    divides a denominator.

    rows are dense lists or sparse dicts over Q; each is reduced mod
    PRIME only when the elimination reaches it, so no second copy of the
    system is held, and one that holds a Fraction is cleared first, a
    scaling by a unit mod PRIME.
    Short rows go first, so that most later rows meet short pivots; the
    order changes nothing else, since the pivot columns of an echelon
    form depend only on the row space.  Returns
    {pivot column: row}, each row a sparse dict mod PRIME with 1 at its
    pivot and zeros left of it.  Stops once stop_at pivots are found.
    """
    p = PRIME
    pivots = {}
    for row in sorted(rows, key=len):
        vals = row.values() if isinstance(row, dict) else row
        # a sum of ints is an int, and one Fraction makes it a Fraction
        if type(sum(vals)) is not int:
            den, row = clear(row)
            if not den % p:
                return None
        items = row.items() if isinstance(row, dict) else enumerate(row)
        red = {k: r for k, v in items if (r := v % p)}
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
        lifted = {k: rational_reconstruction(v) for k, v in x.items()}
        if None in lifted.values():
            return None
        basis.append(lifted)
    return basis
