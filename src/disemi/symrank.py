"""Generic rank of matrices with polynomial entries, exactly.

Sparse polynomials over Z are dicts {packed monomial: int}; a monomial
packs one 16-bit exponent field per variable into a single int, so
monomial multiplication is integer addition.  The rank over the rational
function field is computed by fraction-free (Bareiss) elimination with
full pivoting, every division being exact in Z[v].  The rank at any
specialisation never exceeds the generic rank, which is what makes the
result a certificate for rank deficits.  syzygy's fallback ranks its one
matrix of linear forms here, cleared to integers column by column.
"""

FIELD_BITS = 16


def var_monomial(i):
    """The packed monomial v_i."""
    return 1 << (FIELD_BITS * i)


def _carry_guard(nvars):
    hi = 0
    for i in range(nvars):
        hi |= 1 << (FIELD_BITS * i + FIELD_BITS - 1)
    return hi


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _add_product(acc, p, q):
    """acc + p q, accumulated in acc, zero terms dropped."""
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 + m2
            s = acc.get(m, 0) + c1 * c2
            if s:
                acc[m] = s
            else:
                acc.pop(m, None)
    return acc


def poly_mul(p, q):
    if len(q) < len(p):
        p, q = q, p
    return _add_product({}, p, q)


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


def poly_eval(p, point):
    mask = (1 << FIELD_BITS) - 1
    total = 0
    for mono, c in p.items():
        for i, x in enumerate(point):
            e = (mono >> (FIELD_BITS * i)) & mask
            if e:
                c *= x ** e
        total += c
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
        # the first entry with the fewest terms, in row-major order
        live = [(len(m[i][j]), i, j)
                for i in row_live for j in col_live if m[i][j]]
        if not live:
            break
        _, pi, pj = min(live)
        pivot = m[pi][pj]
        rnk += 1
        row_live.remove(pi)
        col_live.remove(pj)
        prow = m[pi]
        for i in row_live:
            row = m[i]
            neg_top = {k: -c for k, c in row[pj].items()}
            for j in col_live:
                # pivot * row[j] - row[pj] * prow[j]
                acc = _add_product(_add_product({}, pivot, row[j]),
                                   neg_top, prow[j])
                if prev is not None and acc:
                    acc = poly_div_exact(acc, prev, guard)
                row[j] = acc
            row[pj] = {}
        prev = pivot
    return rnk
