"""Lie algebras over exact rationals, given by structure constants.

The simple algebras of type A-D are realised as matrix algebras whose
Cartan subalgebra is diagonal in the natural representation; the full
basis is grown from the Chevalley generators by bracket closure, and
every derived basis element remembers which bracket produced it so that
representations defined on generators extend mechanically.
"""

import json
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .linalg import (IncrementalSpan, apply, columns, combination, commutator,
                     dense, identity, matmul, matvec, nullspace, rank, sparse,
                     zeros)
from .rootdata import SimpleType


@dataclass(frozen=True)
class ChevalleyFactor:
    """Generator bookkeeping for one simple factor inside an algebra."""

    simple_type: SimpleType
    h: tuple
    e: tuple
    f: tuple


class LieAlgebra:
    """Finite-dimensional Lie algebra by sparse structure constants.

    table maps (i, j) with i < j to {k: c} describing [b_i, b_j]; the
    antisymmetric half is implied.  Instances are immutable by
    convention.  factors / bracket_defs are present on algebras built
    from Chevalley generators; levi_basis is metadata recorded by
    constructors that know a Levi subalgebra by construction.
    """

    def __init__(self, dim, table, labels=None, factors=None,
                 bracket_defs=None, levi_basis=None):
        self.dim = dim
        self.table = {k: dict(v) for k, v in table.items() if v}
        self.labels = list(labels) if labels else None
        self.factors = tuple(factors) if factors else None
        self.bracket_defs = dict(bracket_defs) if bracket_defs else None
        self.levi_basis = levi_basis

    def __repr__(self):
        return "LieAlgebra(dim=%d)" % self.dim

    def structure(self, i, j):
        """[b_i, b_j] as a sparse {k: c} dict."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def sparse_bracket(self, x, y):
        """[x, y] for sparse {index: coefficient} vectors, as a dict
        (entries that cancel are kept as zeros)."""
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                if i < j:
                    row, coeff = self.table.get((i, j)), xi * yj
                elif i > j:
                    row, coeff = self.table.get((j, i)), -xi * yj
                else:
                    continue
                if row:
                    for k, c in row.items():
                        out[k] = out.get(k, 0) + coeff * c
        return out

    def bracket(self, x, y):
        """[x, y] for dense coordinate vectors, as a dense vector."""
        return dense(self.sparse_bracket(sparse(x), sparse(y)), self.dim)

    def ad(self, x):
        """ad(x) as a row-dict matrix: entry (k, j) is the coefficient
        of b_k in [x, b_j]."""
        m = [{} for _ in range(self.dim)]
        for (i, j), row in self.table.items():
            xi, xj = x[i], x[j]
            for k, c in row.items():
                if xi:
                    m[k][j] = m[k].get(j, 0) + xi * c
                if xj:
                    m[k][i] = m[k].get(i, 0) - xj * c
        return [{j: v for j, v in row.items() if v} for row in m]

    def basis_vector(self, i):
        v = [0] * self.dim
        v[i] = 1
        return v

    def generator_indices(self):
        """(h, e, f) index tuples across all factors; None if unknown."""
        if not self.factors:
            return None
        h, e, f = [], [], []
        for fac in self.factors:
            h.extend(fac.h)
            e.extend(fac.e)
            f.extend(fac.f)
        return tuple(h), tuple(e), tuple(f)


class Subspace:
    """A subspace of a LieAlgebra, given by independent dense basis rows.

    span is the IncrementalSpan of the rows; membership, coordinates and
    residues all go through it.  pivots are its pivot columns, which
    depend on the subspace only (see IncrementalSpan), so two Subspaces
    with the same rows in another order or scaling have the same ones.
    """

    def __init__(self, parent, basis_rows):
        self.parent = parent
        rows = [list(r) for r in basis_rows]
        for r in rows:
            if len(r) != parent.dim:
                raise ValueError("basis row length %d != algebra dim %d"
                                 % (len(r), parent.dim))
        self.span = IncrementalSpan(parent.dim)
        if not all(self.span.add(r) for r in rows):
            raise ValueError("basis rows are linearly dependent")
        self.basis = rows
        self.pivots = tuple(self.span.pivots)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return not self.span.residue(v)

    def is_ideal(self):
        """True iff [b_i, r] lies in the subspace for every basis vector
        b_i of the parent and every basis row r; each bracket is summed
        sparsely from the structure constants."""
        g = self.parent
        for r in map(sparse, self.basis):
            for i in range(g.dim):
                if not self.contains(g.sparse_bracket({i: 1}, r)):
                    return False
        return True

    def __eq__(self, other):
        # equal dimensions make one inclusion enough for equality
        return (isinstance(other, Subspace) and self.parent is other.parent
                and self.dim == other.dim
                and all(self.contains(r) for r in other.basis))

    def __hash__(self):
        return hash((id(self.parent), self.dim))

    def __repr__(self):
        return "Subspace(dim=%d of %d)" % (self.dim, self.parent.dim)


def full_subspace(g):
    return Subspace(g, identity(g.dim))


def zero_subspace(g):
    return Subspace(g, [])


# ---------------------------------------------------------------------------
# Chevalley construction for the classical families
# ---------------------------------------------------------------------------

def _matrix(n, *entries):
    """The n x n row-dict matrix with the given (row, column, entry)
    triples."""
    m = [{} for _ in range(n)]
    for a, b, c in entries:
        m[a][b] = c
    return m


def _natural_generators(t):
    """Chevalley generator matrices (h, e, f lists) in the natural module.

    Basis orderings: A_l uses the standard basis of C^{l+1}; B/C/D use
    (v_1..v_l, w_1..w_l[, u]) for a hyperbolic basis of the invariant
    form, which makes the Cartan subalgebra diagonal.
    """
    l = t.rank
    fam = t.family
    if fam == "A":
        n = l + 1
        e = [_matrix(n, (i, i + 1, 1)) for i in range(l)]
        f = [_matrix(n, (i + 1, i, 1)) for i in range(l)]
        h = [_matrix(n, (i, i, 1), (i + 1, i + 1, -1)) for i in range(l)]
        return h, e, f
    n = 2 * l + 1 if fam == "B" else 2 * l
    # the first l - 1 simple roots are the same for B, C and D
    e = [_matrix(n, (i, i + 1, 1), (l + i + 1, l + i, -1)) for i in range(l - 1)]
    f = [_matrix(n, (i + 1, i, 1), (l + i, l + i + 1, -1)) for i in range(l - 1)]
    h = [_matrix(n, (i, i, 1), (i + 1, i + 1, -1), (l + i, l + i, -1),
                 (l + i + 1, l + i + 1, 1)) for i in range(l - 1)]
    if fam == "C":
        e.append(_matrix(n, (l - 1, 2 * l - 1, 1)))
        f.append(_matrix(n, (2 * l - 1, l - 1, 1)))
        h.append(_matrix(n, (l - 1, l - 1, 1), (2 * l - 1, 2 * l - 1, -1)))
    elif fam == "B":
        u = 2 * l
        # short root: e maps u -> v_l and w_l -> -u; f is scaled so that
        # (e, f, h) is an sl2 triple with h the coroot
        e.append(_matrix(n, (l - 1, u, 1), (u, 2 * l - 1, -1)))
        f.append(_matrix(n, (u, l - 1, 2), (2 * l - 1, u, -2)))
        h.append(_matrix(n, (l - 1, l - 1, 2), (2 * l - 1, 2 * l - 1, -2)))
    else:
        e.append(_matrix(n, (l - 2, 2 * l - 1, 1), (l - 1, 2 * l - 2, -1)))
        f.append(_matrix(n, (2 * l - 1, l - 2, 1), (2 * l - 2, l - 1, -1)))
        h.append(_matrix(n, (l - 2, l - 2, 1), (l - 1, l - 1, 1),
                         (2 * l - 2, 2 * l - 2, -1), (2 * l - 1, 2 * l - 1, -1)))
    return h, e, f


@lru_cache(maxsize=None)
def _chevalley_with_matrices(t):
    """(LieAlgebra, natural-module row-dict matrices per basis element)
    for type t.

    Bracket closure from the generators: every pair of basis elements is
    bracketed once, and its commutator either joins the basis or is
    solved over it, which gives that pair's structure constants.
    """
    h, e, f = _natural_generators(t)
    l = t.rank
    n = len(h[0])
    basis = list(h) + list(e) + list(f)
    span = IncrementalSpan(n * n)

    def flat(m):
        return {a * n + b: x for a, row in enumerate(m) for b, x in row.items()}

    for m in basis:
        if not span.add(flat(m)):
            raise AssertionError("Chevalley generators dependent for %s" % (t,))
    defs = {}
    table = {}
    queue = deque((i, j) for j in range(len(basis)) for i in range(j))
    while queue:
        i, j = queue.popleft()
        c = commutator(basis[i], basis[j])
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
            table[(i, j)] = {k: v for k, v in enumerate(coeffs) if v}
    dim = len(basis)
    if dim != t.algebra_dim:
        raise AssertionError("closure reached dim %d, expected %d for %s"
                             % (dim, t.algebra_dim, t))
    labels = (["h%d" % (i + 1) for i in range(l)]
              + ["e%d" % (i + 1) for i in range(l)]
              + ["f%d" % (i + 1) for i in range(l)]
              + ["x%d" % m for m in range(3 * l, dim)])
    factor = ChevalleyFactor(simple_type=t,
                             h=tuple(range(l)),
                             e=tuple(range(l, 2 * l)),
                             f=tuple(range(2 * l, 3 * l)))
    alg = LieAlgebra(dim, table, labels=labels, factors=(factor,),
                     bracket_defs=defs)
    return alg, basis


def chevalley(t):
    """The simple Lie algebra of type t with Chevalley generators."""
    if not isinstance(t, SimpleType):
        t = SimpleType(*t)
    return _chevalley_with_matrices(t)[0]


def direct_sum(gs):
    """Direct sum of Lie algebras; each summand embeds as an ideal."""
    dim = sum(g.dim for g in gs)
    table = {}
    labels = []
    factors = []
    defs = {}
    have_factors = all(g.factors for g in gs)
    have_defs = all(g.bracket_defs is not None for g in gs)
    off = 0
    for gi, g in enumerate(gs):
        for (i, j), row in g.table.items():
            table[(i + off, j + off)] = {k + off: c for k, c in row.items()}
        if g.labels:
            labels.extend(("g%d:%s" % (gi + 1, lab)) if len(gs) > 1 else lab
                          for lab in g.labels)
        else:
            labels.extend("g%d:b%d" % (gi + 1, k) for k in range(g.dim))
        if have_factors:
            for fac in g.factors:
                factors.append(ChevalleyFactor(
                    simple_type=fac.simple_type,
                    h=tuple(i + off for i in fac.h),
                    e=tuple(i + off for i in fac.e),
                    f=tuple(i + off for i in fac.f)))
        if have_defs:
            for m, (i, j) in g.bracket_defs.items():
                defs[m + off] = (i + off, j + off)
        off += g.dim
    return LieAlgebra(dim, table, labels=labels,
                      factors=factors if have_factors else None,
                      bracket_defs=defs if have_defs else None)


def zero_algebra():
    return LieAlgebra(0, {})


def abelian_algebra(n, labels=None):
    return LieAlgebra(n, {}, labels=labels)


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def derived_span(g, rows1, rows2):
    """Row basis of span{[x, y] : x in rows1, y in rows2}."""
    out = []
    span = IncrementalSpan(g.dim)
    ys = [sparse(y) for y in rows2]
    for x in map(sparse, rows1):
        for y in ys:
            v = g.sparse_bracket(x, y)
            if span.add(v):
                out.append(dense(v, g.dim))
    return out


def is_perfect(g):
    """True iff [g, g] = g, by spanning all basis brackets."""
    basis = identity(g.dim)
    return len(derived_span(g, basis, basis)) == g.dim


def _series(g, sub, lower):
    """The lower central series (lower) or the derived series of a
    subalgebra (default: g itself), as Subspaces."""
    top = sub.basis if sub is not None else identity(g.dim)
    series = [Subspace(g, top)]
    cur = top
    while cur:
        nxt = derived_span(g, top if lower else cur, cur)
        if len(nxt) == len(cur):
            break
        series.append(Subspace(g, nxt))
        cur = nxt
    return series


def derived_series(g, sub=None):
    """Derived series of a subalgebra (default: g itself), as Subspaces."""
    return _series(g, sub, lower=False)


def lower_central_series(g, sub=None):
    """Lower central series of a subalgebra, as Subspaces."""
    return _series(g, sub, lower=True)


def is_nilpotent(g, sub=None):
    """True iff the lower central series of the subalgebra reaches 0;
    raises ValueError (through subalgebra) if sub is not closed."""
    if sub is not None:
        subalgebra(g, sub)
    return lower_central_series(g, sub)[-1].dim == 0


def is_solvable(g, sub=None):
    return derived_series(g, sub)[-1].dim == 0


def is_abelian(g):
    return not g.table


def killing_form(g):
    """Dense matrix K[i][j] = trace(ad b_i . ad b_j), a system for rank."""
    ads = [g.ad(g.basis_vector(i)) for i in range(g.dim)]
    k = zeros(g.dim, g.dim)
    for i, mi in enumerate(ads):
        for j in range(i, g.dim):
            mj = ads[j]
            s = 0
            for a, row in enumerate(mi):
                for b, c in row.items():
                    x = mj[b].get(a)
                    if x:
                        s += c * x
            k[i][j] = s
            k[j][i] = s
    return k


def is_semisimple(g):
    """True iff the Killing form is nondegenerate."""
    if g.dim == 0:
        return True
    return rank(killing_form(g)) == g.dim


def solvable_radical(g):
    """The maximal solvable ideal.

    In characteristic zero this is the Killing-orthogonal complement of
    [g, g]; the result is re-verified to be a solvable ideal.
    """
    if g.dim == 0:
        return zero_subspace(g)
    k = killing_form(g)
    derived = derived_span(g, identity(g.dim), identity(g.dim))
    eqs = [matvec(k, d) for d in derived]
    rad_rows = nullspace(eqs, ncols=g.dim) if eqs else identity(g.dim)
    radical = Subspace(g, rad_rows)
    if not is_solvable(g, radical):
        raise AssertionError("radical candidate is not solvable")
    if not radical.is_ideal():
        raise AssertionError("radical candidate is not an ideal")
    return radical


def check_jacobi(g):
    """Exact Jacobi check over all basis triples; True when it holds."""
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                s = Counter()
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    s.update(g.sparse_bracket(g.structure(a, b), {c: 1}))
                if any(s.values()):
                    return False
    return True


def subalgebra(g, sub):
    """The Lie algebra structure on a bracket-closed Subspace.

    Structure constants are written in the rows of sub.basis; raises if
    the subspace is not closed.
    """
    rows = [sparse(r) for r in sub.basis]
    table = {}
    for j in range(sub.dim):
        for i in range(j):
            coeffs = sub.span.solve(g.sparse_bracket(rows[i], rows[j]))
            if coeffs is None:
                raise ValueError("subspace is not closed under the bracket")
            row = {k: c for k, c in enumerate(coeffs) if c}
            if row:
                table[(i, j)] = row
    return LieAlgebra(sub.dim, table)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def semidirect(s, rho, n=None):
    """Semidirect product s x| n for a representation rho of s on n.

    n defaults to the abelian algebra on the module space.  Checks that
    rho is a homomorphism of s (rho.check_homomorphism) and that every
    rho(b_i) is a derivation of n; raises ValueError otherwise.
    The bracket is [(x,v),(y,w)] = ([x,y], x.w - y.v + [v,w]_n).
    """
    if n is None:
        n = abelian_algebra(rho.dim)
    if rho.dim != n.dim:
        raise ValueError("module dimension %d != algebra dimension %d"
                         % (rho.dim, n.dim))
    if rho.algebra.dim != s.dim or rho.algebra.table != s.table:
        raise ValueError("representation is over a different algebra")
    if not rho.check_homomorphism():
        raise ValueError("rho is not a Lie algebra homomorphism")
    ds = s.dim
    table = {key: dict(row) for key, row in s.table.items()}
    for i in range(ds):
        # cols[a] is rho(b_i) applied to basis vector a of n
        cols = [dict(col) for col in columns(rho.action[i], n.dim)]
        # vacuous for abelian n
        if n.table and not _is_derivation(n, cols):
            raise ValueError("rho(b_%d) is not a derivation of n" % i)
        for a, col in enumerate(cols):
            if col:
                table[(i, ds + a)] = {ds + k: x for k, x in col.items()}
    for (a, b), row in n.table.items():
        table[(ds + a, ds + b)] = {ds + k: c for k, c in row.items()}
    labels = None
    if s.labels:
        nlabels = n.labels if n.labels else ["v%d" % (a + 1) for a in range(n.dim)]
        labels = list(s.labels) + list(nlabels)
    g = LieAlgebra(ds + n.dim, table, labels=labels, factors=s.factors,
                   bracket_defs=s.bracket_defs)
    g.levi_basis = Subspace(g, [g.basis_vector(i) for i in range(ds)])
    return g


def _is_derivation(n, cols):
    """True iff the linear map D sending basis vector a of n to the
    sparse vector cols[a] is a derivation of n: the defect
    D[e_a, e_b] - [D e_a, e_b] + [D e_b, e_a] vanishes on all ordered
    basis pairs.  Only brackets that are nonzero in n are visited."""
    brackets = [[] for _ in range(n.dim)]     # q -> [(b, [e_q, e_b])]
    for (a, b), row in n.table.items():
        brackets[a].append((b, row))
        brackets[b].append((a, {k: -c for k, c in row.items()}))
    defect = Counter()
    for a in range(n.dim):
        for b, row in brackets[a]:
            for k, c in row.items():
                for q, x in cols[k].items():
                    defect[a, b, q] += c * x
        for q, x in cols[a].items():
            for b, row in brackets[q]:
                for k, c in row.items():
                    defect[a, b, k] -= x * c
                    defect[b, a, k] += x * c
    return not any(defect.values())


def free_two_step(rho, wedge=None):
    """Free 2-step nilpotent algebra on the module space of rho.

    The underlying space is A + wedge^2 A with [a, a'] = a ^ a' and the
    exterior square central; returns (f, tau) where tau is the induced
    module structure on f, which acts by derivations by construction.
    wedge is wedge2(rho), built here when not given.
    """
    from .repbuilder import direct_sum as rep_direct_sum, wedge2
    from itertools import combinations
    d = rho.dim
    pairs = list(combinations(range(d), 2))
    index = {p: i for i, p in enumerate(pairs)}
    table = {}
    for (i, j), k in index.items():
        table[(i, j)] = {d + k: 1}
    f = LieAlgebra(d + len(pairs), table)
    tau = rep_direct_sum([rho, wedge if wedge is not None else wedge2(rho)])
    return f, tau


def quotient_by_ideal(g, u):
    """Quotient of g by an ideal u, with the projection map.

    Returns (q, proj) where proj is a LinearMap from g onto q.  The
    quotient basis is the set of standard coordinates complementary to
    the pivots of u, so Levi metadata survives whenever u avoids it.  A
    vector projects to its residue modulo u (IncrementalSpan.residue),
    which vanishes on the pivots, read on the other coordinates; pivots
    and residue depend on u only, not on its basis rows.
    """
    if not u.is_ideal():
        raise ValueError("subspace is not an ideal")
    pivots = set(u.pivots)
    comp = [c for c in range(g.dim) if c not in pivots]
    qdim = len(comp)
    index = {c: i for i, c in enumerate(comp)}

    def project(v):
        return {index[k]: x for k, x in sorted(u.span.residue(v).items())}

    proj_matrix = [{} for _ in range(qdim)]
    for c in range(g.dim):
        for r, x in project({c: 1}).items():
            proj_matrix[r][c] = x
    table = {}
    for j in range(qdim):
        for i in range(j):
            row = project(g.structure(comp[i], comp[j]))
            if row:
                table[(i, j)] = row
    labels = [g.labels[c] for c in comp] if g.labels else None
    factors = None
    defs = None
    if g.factors:
        gen_max = max(max(fac.h + fac.e + fac.f) for fac in g.factors)
        if all(comp[i] == i for i in range(gen_max + 1)):
            factors = g.factors
            if g.bracket_defs:
                defs = {m: (i, j) for m, (i, j) in g.bracket_defs.items()
                        if m < qdim and comp[m] == m and comp[i] == i and comp[j] == j}
    q = LieAlgebra(qdim, table, labels=labels, factors=factors, bracket_defs=defs)
    if g.levi_basis is not None:
        rows = [dense(project(r), qdim) for r in g.levi_basis.basis]
        if rank(rows) == len(rows):
            q.levi_basis = Subspace(q, rows)
    proj = LinearMap(g.dim, qdim, proj_matrix)
    return q, proj


@dataclass
class LinearMap:
    """A linear map by its row-dict matrix, applied to dense vectors."""

    source_dim: int
    target_dim: int
    matrix: list

    def __post_init__(self):
        if len(self.matrix) != self.target_dim or any(
                not 0 <= b < self.source_dim for row in self.matrix for b in row):
            raise ValueError("matrix shape does not match declared dimensions")

    def __call__(self, v):
        return apply(self.matrix, v)


def exp_ad(g, z):
    """The automorphism exp(ad z) as a LinearMap; z must be ad-nilpotent.

    Nilpotency is decided by exact matrix powering bounded by dim g.
    """
    a = g.ad(z)
    total = [{i: 1} for i in range(g.dim)]
    term = a
    k = 1
    while any(term):
        total = combination(((1, total), (Fraction(1, factorial(k)), term)),
                            g.dim)
        term = matmul(term, a)
        k += 1
        if k > g.dim:
            raise ValueError("ad(z) is not nilpotent")
    return LinearMap(g.dim, g.dim, total)


def sum_spans(g, u1, u2):
    """(spans, intersection_dim) for the vector space sum u1 + u2."""
    rows = list(u1.basis) + list(u2.basis)
    r = rank(rows) if rows else 0
    return r == g.dim, u1.dim + u2.dim - r


def apply_map_subspace(g_target, phi, sub):
    """Image of a Subspace under a LinearMap into g_target."""
    rows = [phi(r) for r in sub.basis]
    return Subspace(g_target, rows)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def to_json_dict(g):
    entries = []
    for (i, j) in sorted(g.table):
        row = g.table[(i, j)]
        entries.append([i, j, [[k, str(Fraction(row[k]))] for k in sorted(row)]])
    out = {"dim": g.dim, "entries": entries}
    if g.labels:
        out["labels"] = list(g.labels)
    return out


def rational(x):
    """A JSON integer, or a string such as "-3/4", as a Fraction; raises
    ValueError for anything else."""
    if type(x) is not int and not isinstance(x, str):
        raise ValueError("%r is not a rational number" % (x,))
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError("%r has a zero denominator" % (x,)) from None


def from_json_dict(data):
    """Inverse of to_json_dict.  The input is checked before use, so a
    malformed one raises ValueError: the schema, integer indices below
    dim with i < j in every entry [i, j, [[k, c], ...]], and rational
    coefficients."""
    try:
        dim = data["dim"]
        table = {(i, j): {k: rational(c) for k, c in row}
                 for i, j, row in data["entries"]}
        labels = data.get("labels")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed algebra: %s" % exc) from None
    indices = [x for (i, j), row in table.items() for x in (i, j, *row)]
    if type(dim) is not int or dim < 0 or not all(
            type(x) is int and 0 <= x < dim for x in indices):
        raise ValueError("'dim' must be a natural number and every index "
                         "an integer below it")
    if any(i >= j for i, j in table):
        raise ValueError("every entry [i, j, ...] needs i < j")
    if labels is not None and not (isinstance(labels, list)
                                   and len(labels) == dim):
        raise ValueError("'labels' must name each of the %d basis vectors" % dim)
    return LieAlgebra(dim, table, labels=labels)


def dumps(g):
    return json.dumps(to_json_dict(g), indent=None, separators=(",", ":"))


def loads(text):
    return from_json_dict(json.loads(text))
