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
decides.  All three work on one matrix of linear forms, M_v at a
generic v (linear_forms): kernel syzygies solve against its rows,
stabilizer syzygies against its columns, with one solver, and the
elimination ranks it.  The forms of one equation index are cleared to
integers together, which scales whole equations (or, for the
elimination, a column) and so changes no solution and no rank.
Syzygies are found in low degree by sparse linear algebra mod a prime,
lifted to Q, scaled to primitive integer vectors, and re-verified by
symbolic expansion over the exact forms before use; most unknowns of a
system are forced to 0 by one-entry rows, and sparse_nullspace peels
them off exactly before the modular solve.

Ranks at points are taken mod the same prime: they only serve as the
lower bound and in the upper bound's subtracted term, where a smaller
value can only loosen the sandwich, never make it unsound.  Both are
taken at one point, generic_point, whose coordinates are drawn from
[0, PRIME).  That one point is enough for efficiency: a polynomial of
degree r that is nonzero mod PRIME, such as an r x r minor of M_v or of
a syzygy stack, vanishes at a uniform point with probability at most
r / PRIME (Schwartz 1980, Zippel 1979), and a shortfall only costs the
shortcut.

On a module with a weight basis the kernel side is found as invariants
(invariant_gradients).  For a polynomial f on V and x in s, D_x f =
grad f(v)^T rho(x) v is the derivative of f along v -> rho(x) v, so the
gradient of an invariant (D_x f = 0 for every x, in particular for the
columns of M_v) is a kernel syzygy one degree below f.  The -D_x make
each space of forms of one degree an s-module, in which D_h scales a
monomial by its weight; an invariant has weight 0 and is killed by each
D_{e_i} for the simple root vectors e_i, and conversely a weight-0 form
killed by every D_{e_i} is a highest weight vector of weight 0, so it
spans a trivial submodule and is invariant.  Solving only those
equations on the weight-0 monomials therefore misses no invariant.  As
s is semisimple, the invariant polynomials generate the field of
rational invariants, whose transcendence degree is the codimension of
a generic orbit (Rosenlicht; Popov-Vinberg, Invariant Theory, 2-3), and
algebraically independent invariants have gradients independent at a
generic point: so enough invariants close the kernel side.  That only
decides when the side closes.  Soundness rests, as on the other paths,
on exact verification: every gradient is expanded over every column of
linear_forms by _verify_syzygies before it is ranked.
"""

import random
from itertools import combinations, combinations_with_replacement
from math import lcm

from .linalg import (PRIME, clear, columns, nullspace, primitive,
                     rank_mod_p, sparse_nullspace_mod_p)
from . import symrank

MAX_SYZYGY_DEGREE = 3
MAX_UNKNOWNS = 20000
SAMPLE_SEED = 20240601


def coordinate_blocks(action, dim):
    """Partition of the module coordinates into action-stable blocks.

    Coordinates linked by a nonzero matrix entry share a block; for a
    direct sum of irreducibles these are exactly the summands.
    """
    block = [{c} for c in range(dim)]
    for m in action:
        for a, row in enumerate(m):
            for b in row:
                x, y = block[a], block[b]
                if x is not y:
                    if len(x) < len(y):
                        x, y = y, x
                    x |= y
                    for c in y:
                        block[c] = x
    return sorted({id(x): sorted(x) for x in block}.values())


def _sector_multidegrees(nblocks, degree):
    """All compositions of the degree over the blocks, in lexicographic
    order: the parts between nblocks - 1 bars among degree + nblocks - 1
    places; with no blocks (no variable), only degree 0 has one."""
    if not nblocks:
        return [] if degree else [()]
    n = degree + nblocks - 1
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (n,)))
            for bars in combinations(range(n), nblocks - 1)]


def _sector_monomials(blocks, mdeg):
    """Packed monomials with the given degree in each block."""
    out = [0]
    for blk, d in zip(blocks, mdeg):
        part = [sum(map(symrank.var_monomial, combo))
                for combo in combinations_with_replacement(blk, d)]
        out = [m + q for m in out for q in part]
    return out


def sparse_nullspace(rows, ncols):
    """Nullspace basis of a sparse system; rows are {col: coeff} dicts.

    Returns sparse basis vectors as {col: coeff} dicts, one per free
    column of the row echelon form.

    A row whose one stored entry off the forced columns is nonzero
    forces that unknown to 0 over Q; the peel repeats this until no new
    one appears, then drops the forced columns and the rows with at most
    one entry off them.  The zeros are exact, so the nullspace is the
    zero-padded one of the reduced system.  Column c is free in the
    echelon form iff some x in the nullspace has support in {0..c} and
    x_c = 1: never for a forced c, and for the others alike in both
    systems.  So the free columns, and the basis (1 on its free column,
    0 on the others), are the same vector for vector and in order.

    The reduced system is solved mod PRIME and lifted by rational
    reconstruction; the basis is returned only after every vector is
    checked exactly against every reduced row (a dropped row vanishes
    where the forced columns do, as every padded vector does), which
    makes it a basis over Q (see linalg.sparse_nullspace_mod_p).
    Otherwise the exact linalg.nullspace decides.
    """
    forced, kept, new = set(), rows, True
    while new:
        live, kept, new = kept, [], set()
        for row in live:
            ks = row.keys() - forced if forced else row.keys()
            if len(ks) > 1:
                kept.append(row)
            elif ks and row[min(ks)]:
                new.update(ks)
        forced |= new
    keep = [c for c in range(ncols) if c not in forced]
    index = {c: i for i, c in enumerate(keep)}
    reduced = [{index[k]: c for k, c in row.items() if k in index}
               for row in kept]
    basis = sparse_nullspace_mod_p(reduced, len(keep))
    if basis is None or not _annihilated(reduced, basis):
        basis = nullspace(reduced, len(keep))
    return [{keep[i]: x for i, x in v.items()} for v in basis]


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


def linear_forms(action):
    """The evaluation matrix at a generic vector v, in linalg's matrix
    format: row a maps column j to the packed linear form
    (rho(b_j) v)_a = sum_b action[j][a][b] v_b, over the exact action
    entries.  Zero forms are left out."""
    rows = [{} for _ in (action[0] if action else ())]
    for j, m in enumerate(action):
        for row, mrow in zip(rows, m):
            if mrow:
                row[j] = {symrank.var_monomial(b): x for b, x in mrow.items()}
    return rows


def _cleared(forms):
    """forms with all the forms of one equation index r (a key of the
    rows) scaled by the lcm of their denominators, as ints.  Scaling the
    equations (r, .) keeps the nullspace of sum_u p_u forms[u][r] = 0,
    and scaling a row or a column keeps the rank of a matrix."""
    dens = {}
    for row in forms:
        for r, form in row.items():
            dens[r] = lcm(dens.get(r, 1), *(c.denominator for c in form.values()))
    return [{r: {m: c.numerator * (dens[r] // c.denominator)
                 for m, c in form.items()} for r, form in row.items()}
            for row in forms]


def kernel_syzygies(rep, degree):
    """Polynomial maps w of the exact degree with w(v)^T M_v = 0: the
    syzygies of the rows of linear_forms, each a tuple of dim V sparse
    polynomials."""
    blocks = coordinate_blocks(rep.action, rep.dim)
    return _syzygies(linear_forms(rep.action), degree, blocks, "kernel")


def stabilizer_syzygies(rep, degree):
    """Polynomial maps x into the algebra with rho(x(v)) v = 0: the
    syzygies of the columns of linear_forms, each a tuple of dim s
    sparse polynomials (coefficients of the algebra basis)."""
    blocks = coordinate_blocks(rep.action, rep.dim)
    forms = [dict(col) for col in
             columns(linear_forms(rep.action), len(rep.action))]
    return _syzygies(forms, degree, blocks, "stabilizer")


def _syzygies(forms, degree, blocks, kind):
    """Polynomial vectors p of the exact degree with
    sum_u p_u forms[u][r] = 0 in Q[v] for every r, each a tuple of
    sparse polynomials with primitive int coefficients.

    The unknowns are the coefficients (u, mono) of the p_u, graded by
    the multidegree of mono over the coordinate blocks, and on the
    kernel side, where u is a coordinate, one degree up in the block of
    u.  An equation (r, M) meets unknowns of one grade only, as the
    action keeps each block: on the kernel side forms[u][r] lies in the
    block of u and the grade is that of M; on the stabilizer side it
    lies in the block of r and the grade is that of M less that block.
    So each sector is solved alone; sectors over MAX_UNKNOWNS unknowns,
    counted before sparse_nullspace's peel, are skipped (missing a
    syzygy only costs the shortcut, never correctness).  Every syzygy is
    verified over the exact forms.
    """
    lifted = kind == "kernel"
    block_of = {c: s for s, blk in enumerate(blocks) for c in blk}
    # scaling the equations (r, .) keeps the nullspace, so no solution
    # is rescaled and no Fraction enters the equation loop
    cleared = _cleared(forms)
    out = []
    for grade in _sector_multidegrees(len(blocks), degree + lifted):
        monos = {}
        parts = []        # (u, monomials of p_u)
        for u in range(len(forms)):
            mdeg = grade
            if lifted:
                s = block_of[u]
                if not grade[s]:
                    continue
                mdeg = grade[:s] + (grade[s] - 1,) + grade[s + 1:]
            if mdeg not in monos:
                monos[mdeg] = _sector_monomials(blocks, mdeg)
            parts.append((u, monos[mdeg]))
        unknowns = [(u, mono) for u, ms in parts for mono in ms]
        if not unknowns or len(unknowns) > MAX_UNKNOWNS:
            continue
        equations = {}
        k = 0
        for u, ms in parts:
            # one int per unknown, shared by all the rows it enters
            idx = list(enumerate(ms, k))
            for r, form in cleared[u].items():
                for e, coeff in form.items():
                    for i, mono in idx:
                        equations.setdefault((r, mono + e), {})[i] = coeff
            k += len(ms)
        for x in sparse_nullspace(equations.values(), len(unknowns)):
            p = [{} for _ in forms]
            # multiples of syzygies are syzygies, and just as independent
            for i, coeff in primitive(clear(x)[1])[1].items():
                u, mono = unknowns[i]
                p[u][mono] = coeff
            out.append(tuple(p))
    _verify_syzygies(forms, out, kind)
    return out


def invariant_gradients(rep, degree):
    """The gradients of the invariants of the exact degree of a module
    with a weight basis, as primitive int kernel syzygies of degree
    degree - 1 (see the module docstring).

    The unknowns of a sector (a block multidegree, which the e_i keep)
    are its weight-0 monomials, met from per-block tables of weight ->
    monomials; the equations are D_{e_i} f = 0 for the simple root
    vectors e_i, over the columns e_i of linear_forms, each cleared to
    integers (which scales whole equations).  A monomial is held as its
    sorted tuple of coordinates, and a weight is packed like a monomial,
    one signed field per Cartan generator: sums stay exact while every
    weight entry of a monomial is below 2^(FIELD_BITS - 1) in size.
    """
    var = symrank.var_monomial
    blocks = coordinate_blocks(rep.action, rep.dim)
    weights = [sum(x << (symrank.FIELD_BITS * i) for i, x in enumerate(w))
               for w in rep.weights()]
    forms = linear_forms(rep.action)
    raising = rep.spec.generator_indices()[1]
    cleared = _cleared([{e: row[e] for e in raising if e in row}
                        for row in forms])
    tables = {}
    grads = []
    for grade in _sector_multidegrees(len(blocks), degree):
        for s, d in enumerate(grade):
            if (s, d) not in tables:
                table = tables[s, d] = {}
                for combo in combinations_with_replacement(blocks[s], d):
                    table.setdefault(sum(weights[c] for c in combo),
                                     []).append(combo)
        *first, last = sorted((tables[sd] for sd in enumerate(grade)), key=len)
        partial = {0: [()]}
        for table in first:
            partial = _meet(partial, table)
        unknowns = [m + q for w, ms in partial.items() for m in ms
                    for q in last.get(-w, ())]
        if not unknowns or len(unknowns) > MAX_UNKNOWNS:
            continue
        monos = [sum(map(var, combo)) for combo in unknowns]
        equations = {}
        for e in raising:
            for i, (combo, m) in enumerate(zip(unknowns, monos)):
                # once per factor v_a: d/dv_a of v_a^k brings the k
                for a in combo:
                    for q, c in cleared[a].get(e, {}).items():
                        row = equations.setdefault((e, m - var(a) + q), {})
                        row[i] = row.get(i, 0) + c
        for x in sparse_nullspace(list(equations.values()), len(unknowns)):
            flat = {}
            for i, c in clear(x)[1].items():
                for a in unknowns[i]:
                    key = (a, monos[i] - var(a))
                    flat[key] = flat.get(key, 0) + c
            grad = [{} for _ in range(rep.dim)]
            for (a, mono), c in primitive(flat)[1].items():
                grad[a][mono] = c
            grads.append(tuple(grad))
    _verify_syzygies(forms, grads, "kernel")
    return grads


def _meet(partial, table):
    """{w + u: every m + q} over two weight -> monomials tables."""
    out = {}
    for w, ms in partial.items():
        for u, qs in table.items():
            out.setdefault(w + u, []).extend(m + q for m in ms for q in qs)
    return out


def _verify_syzygies(forms, syzygies, kind):
    """Exact expansion of sum_u s[u] forms[u][r] = 0 in Q[v] for every
    r and every syzygy s, over the exact, uncleared forms."""
    for s in syzygies:
        total = {}
        for p, row in zip(s, forms):
            if p:
                for r, form in row.items():
                    total[r] = symrank.poly_add(total.get(r, {}),
                                                symrank.poly_mul(p, form))
        if any(total.values()):
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
    rows = [[0] * len(rep.action) for _ in range(rep.dim)]
    for j, m in enumerate(rep.action):
        for row, mrow in zip(rows, m):
            if mrow:
                row[j] = sum(x * v[b] for b, x in mrow.items())
    return rows


def generic_point(dim):
    """The point whose rank bounds the generic rank from below: integer
    coordinates drawn from [0, PRIME) by a fixed seed."""
    rnd = random.Random(SAMPLE_SEED)
    return [rnd.randrange(PRIME) for _ in range(dim)]


def generic_rank_certified(rep):
    """The exact rank of the evaluation matrix over Q(v).

    The rank mod PRIME at generic_point is the lower bound.  Tries the
    syzygy sandwich at increasing degree, kernel side first, with the
    stacks ranked at that same point, and falls back to fraction-free
    elimination when no upper bound meets it.  At each degree the
    kernel syzygies of a module with a weight basis are the gradients of
    the invariants one degree up.
    """
    d = rep.dim
    if d == 0:
        return 0
    ds = len(rep.action)
    point = generic_point(d)
    lower = rank_mod_p(evaluation_rows(rep, point), stop_at=d)
    if lower == min(d, ds):
        return lower
    kernel_all = []
    stab_all = []
    for degree in range(1, MAX_SYZYGY_DEGREE + 1):
        kernel_all.extend(invariant_gradients(rep, degree + 1)
                          if rep.weight_basis else kernel_syzygies(rep, degree))
        if d - _stack_rank(kernel_all, point, d) == lower:
            return lower
        stab_all.extend(stabilizer_syzygies(rep, degree))
        if ds - _stack_rank(stab_all, point, ds) == lower:
            return lower
    forms = _cleared(linear_forms(rep.action))
    grank = symrank.generic_rank([[row.get(j, {}) for j in range(ds)]
                                  for row in forms], d)
    if grank < lower:
        raise AssertionError("elimination rank below a specialisation rank")
    return grank


def _stack_rank(syzygies, point, width):
    """Rank mod PRIME of the syzygies evaluated at the point: a lower
    bound for the number of syzygies independent over Q(v)."""
    return rank_mod_p([[symrank.poly_eval(s[i], point) for i in range(width)]
                       for s in syzygies])
