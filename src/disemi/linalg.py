"""Exact rational linear algebra on plain list-of-lists matrices.

Entries are ints or fractions.Fraction; no floating point anywhere.
Matrices are lists of row lists, vectors are flat lists.  Functions do
not mutate their arguments unless the name says so.

The modular kernel at the end computes ranks and sparse nullspaces over
the prime field GF(PRIME).  Its answers are lower bounds or candidates;
each docstring says what has to be checked exactly before one counts.
"""

from fractions import Fraction
from math import gcd, isqrt

PRIME = 2 ** 61 - 1
# Wang's bound: a fraction n/d with |n|, d <= LIFT_BOUND is the only one
# of that size with its residue, since 2 * LIFT_BOUND**2 < PRIME.
LIFT_BOUND = isqrt((PRIME - 1) // 2)


def zeros(n, m):
    return [[0] * m for _ in range(n)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def matmul(a, b):
    """Sparse-aware product; skips zero entries of the left factor."""
    n = len(a)
    m = len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    brows = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    for i, arow in enumerate(a):
        oi = out[i]
        for k, c in enumerate(arow):
            if c:
                for j, x in brows[k]:
                    oi[j] += c * x
    return out


def matvec(a, v):
    out = []
    for row in a:
        s = 0
        for c, x in zip(row, v):
            if c and x:
                s += c * x
        out.append(s)
    return out


def commutator(a, b):
    return mat_sub(matmul(a, b), matmul(b, a))


def is_zero_matrix(a):
    return all(x == 0 for row in a for x in row)


def is_zero_vector(v):
    return all(x == 0 for x in v)


def rref(a):
    """Reduced row echelon form.

    Returns (rows, pivots) where rows are the nonzero reduced rows and
    pivots the column index of each leading 1.
    """
    rows = [list(r) for r in a]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        if p != 1:
            rows[r] = [Fraction(x, 1) / p if not isinstance(x, Fraction) else x / p
                       for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows[:r], pivots


def rank(a, stop_at=None):
    """Rank by forward elimination; stops early once stop_at is reached."""
    if not a:
        return 0
    rows = [list(r) for r in a]
    nr, nc = len(rows), len(rows[0])
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        for i in range(r + 1, nr):
            if rows[i][c]:
                f = Fraction(rows[i][c], 1) / p
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if stop_at is not None and r >= stop_at:
            return r
        if r == nr:
            break
    return r


def nullspace(a, ncols=None):
    """Basis of the right kernel of a, one vector per free column."""
    if not a:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)] \
            if ncols else []
    nc = len(a[0])
    rows, pivots = rref(a)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * nc
        v[fc] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def solve_exact(a, b):
    """One solution x of a x = b, or None if inconsistent."""
    nc = len(a[0]) if a else 0
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    rows, pivots = rref(aug)
    for row, pc in zip(rows, pivots):
        if pc == nc:
            return None
    x = [0] * nc
    for row, pc in zip(rows, pivots):
        x[pc] = row[nc]
    return x


class IncrementalSpan:
    """Grows a row space one vector at a time, with coordinate recovery.

    Keeps reduced pivot rows plus, for each, its expression in terms of
    the vectors that were actually added.  solve() then writes any
    vector of the span as a combination of the added generators.
    """

    def __init__(self, width):
        self.width = width
        self.rows = []      # (pivot col, reduced row, expr over added vecs)
        self.nadded = 0

    def _reduce(self, v):
        r = list(v)
        expr = [0] * self.nadded
        for pc, row, rexpr in self.rows:
            c = r[pc]
            if c:
                r = [x - c * y for x, y in zip(r, row)]
                for k, e in enumerate(rexpr):
                    if e:
                        expr[k] += c * e
        return r, expr

    def add(self, v):
        """Add v as a generator; True if it enlarged the span.

        Vectors already in the span are rejected and do not get a
        coordinate slot, so solve() coordinates match the accepted ones.
        """
        r, expr = self._reduce(v)
        pc = next((i for i, x in enumerate(r) if x), None)
        if pc is None:
            return False
        self.nadded += 1
        for row in self.rows:
            row[2].append(0)
        p = r[pc]
        row = [Fraction(x, 1) / p if not isinstance(x, Fraction) else x / p for x in r]
        # v = r + sum expr_k . added_k, so row = (v - sum expr_k . added_k)/p
        rexpr = [-Fraction(e, 1) / p if not isinstance(e, Fraction) else -e / p
                 for e in expr] + [0]
        rexpr[self.nadded - 1] = Fraction(1, 1) / p
        self.rows.append([pc, row, rexpr])
        self.rows.sort(key=lambda t: t[0])
        return True

    def solve(self, v):
        """Coefficients of v over the added generators, or None."""
        r, expr = self._reduce(v)
        return expr if is_zero_vector(r) else None


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


def rank_mod_p(a, stop_at=None):
    """Rank of a reduced mod PRIME; a lower bound for rank(a).

    Reduction mod PRIME is a ring homomorphism on the rationals whose
    denominators PRIME does not divide, so it commutes with every minor:
    a minor that is nonzero mod PRIME is nonzero over Q, and the rank
    mod PRIME never exceeds the rank over Q.  It is equal unless PRIME
    divides every maximal nonzero minor.  When PRIME divides a
    denominator the exact rank is returned instead.  stop_at as in rank.
    """
    if not a:
        return 0
    p = PRIME
    rows = []
    for row in a:
        red = [residue(x) for x in row]
        if None in red:
            return rank(a, stop_at)
        rows.append(red)
    nr, nc = len(rows), len(rows[0])
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        inv = pow(prow[c], -1, p)
        for i in range(r + 1, nr):
            f = rows[i][c]
            if f:
                f = f * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        r += 1
        if stop_at is not None and r >= stop_at:
            return r
        if r == nr:
            break
    return r


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

    rows are {col: coeff} dicts over Q; each is reduced mod PRIME only
    when the elimination reaches it, so no second copy of the system is
    held.  Short rows go first, so that most later rows meet short
    pivots; the order changes nothing else, since the free columns of
    an echelon form depend only on the row space.  The basis has one
    vector per free column of the echelon form mod PRIME, 1 there and 0
    on the other free columns, and every entry lifted by
    rational_reconstruction.  None when PRIME divides a denominator or
    an entry does not lift.

    The vectors are candidates only.  If every one of them is checked
    exactly to satisfy every row, they are a basis of the nullspace over
    Q: they are independent, and there are ncols - rank mod PRIME >=
    ncols - rank over Q of them.
    """
    p = PRIME
    pivots = {}
    for row in sorted(rows, key=len):
        red = {}
        for k, v in row.items():
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
