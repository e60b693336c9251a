"""Certified generic-rank computation through polynomial syzygies.

For a module action the evaluation matrix M_v has columns rho(b_j) v.
Three exact facts bound its rank over the rational function field:

  * the rank at any rational point is a lower bound;
  * a polynomial map w with w(v)^T M_v identically zero is a left
    kernel vector over Q(v), so k independent ones (witnessed by
    independence at a point) bound the rank by dim V - k;
  * a polynomial map x into the algebra with rho(x(v)) v identically
    zero is a right kernel vector, bounding the rank by dim s - k.

When either upper bound meets the lower one, the generic rank is known
exactly without any elimination; otherwise fraction-free elimination
decides.  Syzygies are found in low degree by sparse linear algebra mod
a prime, lifted to Q, scaled to primitive integer vectors, and
re-verified by symbolic expansion over the exact action before use.
Ranks at points are taken mod the same prime: they only serve as the
lower bound and in the upper bound's subtracted term, where a smaller
value can only loosen the sandwich, never make it unsound.
"""

import random
from itertools import combinations_with_replacement

from .linalg import (clear, clear_denominators, nullspace, primitive,
                     rank_mod_p, sparse_nullspace_mod_p)
from . import symrank

MAX_SYZYGY_DEGREE = 3
MAX_UNKNOWNS = 20000
SAMPLE_SEED = 20240601


def _monomials(coords, degree):
    """Packed monomials of the exact degree in the given coordinates."""
    out = []
    for combo in combinations_with_replacement(coords, degree):
        m = 0
        for i in combo:
            m += symrank.var_monomial(i)
        out.append(m)
    return out


def coordinate_blocks(action, dim):
    """Partition of the module coordinates into action-stable blocks.

    Coordinates linked by a nonzero matrix entry share a block; for a
    direct sum of irreducibles these are exactly the summands.
    """
    parent = list(range(dim))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in action:
        for a, row in enumerate(m):
            for b in row:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for c in range(dim):
        groups.setdefault(find(c), []).append(c)
    return sorted(groups.values())


def _sector_multidegrees(nblocks, degree):
    """All compositions of the degree over the blocks."""
    out = []

    def rec(pos, left, acc):
        if pos == nblocks - 1:
            out.append(tuple(acc + [left]))
            return
        for d in range(left + 1):
            rec(pos + 1, left - d, acc + [d])

    rec(0, degree, [])
    return out


def _sector_monomials(blocks, mdeg):
    """Packed monomials with the given degree in each block."""
    parts = [_monomials(blk, d) for blk, d in zip(blocks, mdeg)]
    out = [0]
    for p in parts:
        out = [m + q for m in out for q in p]
    return out


def sparse_nullspace(rows, ncols):
    """Nullspace basis of a sparse system; rows are {col: coeff} dicts.

    Returns sparse basis vectors as {col: coeff} dicts, one per free
    column of the row echelon form.  rows must be re-iterable.  The
    basis is solved mod PRIME and lifted by rational reconstruction;
    it is returned only after every vector is checked exactly against
    every row, which makes it a basis over Q (see
    linalg.sparse_nullspace_mod_p).  Otherwise the exact
    linalg.nullspace decides.
    """
    basis = sparse_nullspace_mod_p(rows, ncols)
    if basis is None or not _annihilated(rows, basis):
        return nullspace(rows, ncols)
    return basis


def _annihilated(rows, basis):
    """Exact check that every row vanishes on every basis vector.

    Each vector is first cleared to integers, which keeps the answer and
    keeps Fraction arithmetic out of the loop over the rows.
    """
    by_col = {}
    for b, x in enumerate(basis):
        for k, v in clear(x)[1].items():
            by_col.setdefault(k, []).append((b, v))
    for row in rows:
        acc = {}
        for k, c in row.items():
            for b, xv in by_col.get(k, ()):
                acc[b] = acc.get(b, 0) + c * xv
        if any(acc.values()):
            return False
    return True


def kernel_syzygies(rep, degree, blocks=None, cleared=None):
    """Polynomial maps w of the exact degree with w(v)^T M_v = 0.

    Each result is a tuple of dim V sparse polynomials.  The system
    splits along the multidegree grading over the action-stable
    coordinate blocks, so each sector is solved independently; sectors
    over the size budget are skipped (missing a syzygy only costs the
    shortcut, never correctness).  cleared, (D_j, D_j action[j]) per
    j, is passed by callers that solve at several degrees.
    """
    d = rep.dim
    blocks = blocks or coordinate_blocks(rep.action, d)
    cleared = cleared or [clear_denominators(m) for m in rep.action]
    # scaling action[j] scales the equations (j, .) only: same nullspace
    mats = [m for _, m in cleared]
    out = []
    for grade in _sector_multidegrees(len(blocks), degree + 1):
        unknowns = []      # (c, mono)
        for s, blk in enumerate(blocks):
            if grade[s] == 0:
                continue
            mdeg = tuple(g - 1 if i == s else g for i, g in enumerate(grade))
            monos = _sector_monomials(blocks, mdeg)
            unknowns.extend((c, mono) for c in blk for mono in monos)
        if not unknowns or len(unknowns) > MAX_UNKNOWNS:
            continue
        equations = {}
        for u, (c, mono) in enumerate(unknowns):
            for j, m in enumerate(mats):
                for e, coeff in m[c].items():
                    key = (j, mono + symrank.var_monomial(e))
                    row = equations.setdefault(key, {})
                    row[u] = row.get(u, 0) + coeff
        for x in sparse_nullspace(equations.values(), len(unknowns)):
            w = [{} for _ in range(d)]
            # multiples of syzygies are syzygies, and just as independent
            for u, coeff in primitive(clear(x)[1])[1].items():
                c, mono = unknowns[u]
                w[c][mono] = coeff
            out.append(tuple(w))
    _verify_syzygies(_action_forms(rep), out, "kernel")
    return out


def stabilizer_syzygies(rep, degree, blocks=None, cleared=None):
    """Polynomial maps x into the algebra with rho(x(v)) v = 0.

    Each result is a tuple of dim s sparse polynomials (coefficients of
    the algebra basis).  Solved per multidegree sector over the
    coordinate blocks; oversized sectors are skipped.  cleared as in
    kernel_syzygies.
    """
    d = rep.dim
    ds = len(rep.action)
    blocks = blocks or coordinate_blocks(rep.action, d)
    cleared = cleared or [clear_denominators(m) for m in rep.action]
    out = []
    for mdeg in _sector_multidegrees(len(blocks), degree):
        monos = _sector_monomials(blocks, mdeg)
        nm = len(monos)
        if not nm or ds * nm > MAX_UNKNOWNS:
            continue
        equations = {}
        # x_j solves the system of scale_j * action[j] as x_j / scale_j
        for j, (_, m) in enumerate(cleared):
            for a, mrow in enumerate(m):
                for e, coeff in mrow.items():
                    ve = symrank.var_monomial(e)
                    for u, mono in enumerate(monos, j * nm):
                        row = equations.setdefault((a, mono + ve), {})
                        row[u] = row.get(u, 0) + coeff
        for x in sparse_nullspace(equations.values(), ds * nm):
            xs = [{} for _ in range(ds)]
            for u, coeff in primitive(clear(x)[1])[1].items():
                j, mi = divmod(u, nm)
                xs[j][monos[mi]] = coeff * cleared[j][0]
            out.append(tuple(xs))
    _verify_syzygies(list(zip(*_action_forms(rep))), out, "stabilizer")
    return out


def _action_forms(rep):
    """Entry (j, a) is the linear form (rho(b_j) v)_a, over the exact
    action with its denominators: a stabilizer solution was rescaled by
    each column's clearing factor, so only the uncleared action checks
    the identity the caller relies on."""
    return [[{symrank.var_monomial(b): x for b, x in row.items()} for row in m]
            for m in rep.action]


def _verify_syzygies(forms, syzygies, kind):
    """Exact expansion of sum_i forms[r][i] * s[i] = 0 in Q[v] for every
    row r of the matrix of linear forms and every syzygy s.  Kernel
    syzygies pair with _action_forms(rep) itself, stabilizer syzygies
    with its transpose."""
    for s in syzygies:
        for row in forms:
            total = {}
            for form, p in zip(row, s):
                if form and p:
                    total = symrank.poly_add(total, symrank.poly_mul(p, form))
            if total:
                raise AssertionError("%s syzygy fails exact verification" % kind)


def sample_points(dim, count=40):
    pts = [
        [1] * dim,
        [1 if i % 2 == 0 else 0 for i in range(dim)],
        [0 if i % 2 == 0 else 1 for i in range(dim)],
        [i + 1 for i in range(dim)],
        [1 if i % 3 == 0 else (-1 if i % 3 == 2 else 0) for i in range(dim)],
    ]
    rnd = random.Random(SAMPLE_SEED)
    while len(pts) < count:
        pts.append([rnd.randint(-7, 7) for _ in range(dim)])
    return pts


def evaluation_rows(rep, v):
    """The evaluation matrix at v: entry (a, j) is (rho(b_j) v)_a."""
    return [[sum(x * v[b] for b, x in m[a].items()) for m in rep.action]
            for a in range(rep.dim)]


def generic_rank_certified(rep, sampled=None):
    """The exact rank of the evaluation matrix over Q(v).

    sampled holds (point, rank) pairs the caller already ranked, each
    rank a lower bound for the rank at its point; by default the points
    of sample_points are ranked mod PRIME here.  The largest is a lower
    bound for the generic rank.  Tries the syzygy sandwich at increasing
    degree, kernel side first, and falls back to fraction-free
    elimination when no upper bound meets it.
    """
    d = rep.dim
    if d == 0:
        return 0
    ds = len(rep.action)
    if sampled is None:
        sampled = ((v, rank_mod_p(evaluation_rows(rep, v), stop_at=d))
                   for v in sample_points(d))
    best_rank = 0
    best_points = []
    for v, rk in sampled:
        if rk > best_rank:
            best_rank = rk
            best_points = [v]
        elif rk == best_rank and len(best_points) < 3:
            best_points.append(v)
        if best_rank == min(d, ds):
            return best_rank
    blocks = coordinate_blocks(rep.action, d)
    cleared = [clear_denominators(m) for m in rep.action]
    kernel_all = []
    stab_all = []
    for degree in range(1, MAX_SYZYGY_DEGREE + 1):
        kernel_all.extend(kernel_syzygies(rep, degree, blocks, cleared))
        if d - _stack_rank(kernel_all, best_points, d) == best_rank:
            return best_rank
        stab_all.extend(stabilizer_syzygies(rep, degree, blocks, cleared))
        if ds - _stack_rank(stab_all, best_points, ds) == best_rank:
            return best_rank
    # the rank is the same for the integral matrices
    rows = symrank.linear_forms_matrix([m for _, m in cleared], d)
    grank = symrank.generic_rank(rows, d)
    if grank < best_rank:
        raise AssertionError("elimination rank below a specialisation rank")
    return grank


def _stack_rank(syzygies, points, width):
    """Largest rank mod PRIME of the syzygies evaluated at the points: a
    lower bound for the number of syzygies independent over Q(v)."""
    if not syzygies:
        return 0
    return max((rank_mod_p([[symrank.poly_eval(s[i], v) for i in range(width)]
                            for s in syzygies]) for v in points), default=0)
