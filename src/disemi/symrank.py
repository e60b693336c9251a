"""Generic rank of matrices with polynomial entries, exactly.

Sparse polynomials over Z are dicts {packed monomial: int}; a monomial
packs one 16-bit exponent field per variable into a single int, so
monomial multiplication is integer addition.  The rank over the rational
function field is computed by fraction-free (Bareiss) elimination with
full pivoting, every division being exact in Z[v].  The rank at any
specialisation never exceeds the generic rank, which is what makes the
result a certificate for rank deficits.
"""

from .linalg import clear_denominators

FIELD_BITS = 16


def var_monomial(i):
    """The packed monomial v_i."""
    return 1 << (FIELD_BITS * i)


def _carry_guard(nvars):
    hi = 0
    for i in range(nvars):
        hi |= 1 << (FIELD_BITS * i + FIELD_BITS - 1)
    return hi


def poly_const(c):
    return {0: c} if c else {}


def poly_is_zero(p):
    return not p


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def poly_mul(p, q):
    if not p or not q:
        return {}
    if len(q) < len(p):
        p, q = q, p
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def poly_div_exact(p, q, guard):
    """Exact division in Z[v]; guard is the carry mask for the ambient
    variable count.  Raises if q does not divide p."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return {}
    qlead = max(q)
    qc = q[qlead]
    rem = dict(p)
    quo = {}
    while rem:
        rlead = max(rem)
        rc = rem[rlead]
        if ((rlead | guard) - qlead) & guard != guard or rc % qc:
            raise ArithmeticError("inexact polynomial division")
        mono = rlead - qlead
        c = rc // qc
        quo[mono] = c
        for m2, c2 in q.items():
            m = mono + m2
            s = rem.get(m, 0) - c * c2
            if s:
                rem[m] = s
            else:
                rem.pop(m, None)
    return quo


def unpack_monomial(m, nvars):
    mask = (1 << FIELD_BITS) - 1
    return tuple((m >> (FIELD_BITS * i)) & mask for i in range(nvars))


def poly_eval(p, point):
    total = 0
    nvars = len(point)
    for mono, c in p.items():
        term = c
        for e, x in zip(unpack_monomial(mono, nvars), point):
            if e:
                term *= x ** e
        total += term
    return total


def generic_rank(matrix, nvars):
    """Rank over Q(v) of a matrix of packed sparse polynomials.

    Full pivoting on the entry with the fewest terms limits expression
    growth; elimination stops when the live submatrix is zero.
    """
    if not matrix or not matrix[0]:
        return 0
    guard = _carry_guard(nvars)
    m = [list(r) for r in matrix]
    row_live = list(range(len(m)))
    col_live = list(range(len(m[0])))
    prev = None
    rnk = 0
    while row_live and col_live:
        best = None
        for i in row_live:
            row = m[i]
            for j in col_live:
                p = row[j]
                if p:
                    size = len(p)
                    if best is None or size < best[0]:
                        best = (size, i, j)
                        if size == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        pivot = m[pi][pj]
        rnk += 1
        row_live.remove(pi)
        col_live.remove(pj)
        prow = m[pi]
        for i in row_live:
            row = m[i]
            top = row[pj]
            for j in col_live:
                acc = {}
                entry = row[j]
                if entry:
                    for m1, c1 in pivot.items():
                        for m2, c2 in entry.items():
                            k = m1 + m2
                            s = acc.get(k, 0) + c1 * c2
                            if s:
                                acc[k] = s
                            else:
                                acc.pop(k, None)
                if top and prow[j]:
                    for m1, c1 in top.items():
                        for m2, c2 in prow[j].items():
                            k = m1 + m2
                            s = acc.get(k, 0) - c1 * c2
                            if s:
                                acc[k] = s
                            else:
                                acc.pop(k, None)
                if prev is not None and acc:
                    acc = poly_div_exact(acc, prev, guard)
                row[j] = acc
            row[pj] = {}
        prev = pivot
    return rnk


def linear_forms_matrix(action, dim):
    """The evaluation matrix of a module action at a generic vector.

    Column j is action[j] applied to v, so entry (a, j) is the linear
    form sum_b action[j][a][b] v_b, for row-dict matrices as in
    Representation.action.  Denominators are cleared per column, which
    rescales columns and leaves all ranks unchanged.
    """
    ncols = len(action)
    rows = [[{} for _ in range(ncols)] for _ in range(dim)]
    for j, m in enumerate(action):
        _, m = clear_denominators(m)
        for a, row in enumerate(m):
            rows[a][j] = {var_monomial(b): x for b, x in row.items()}
    return rows
