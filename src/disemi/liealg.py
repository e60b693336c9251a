"""Lie algebras over exact rationals, given by structure constants.

The simple algebras of type A-D are realised as matrix algebras whose
Cartan subalgebra is diagonal in the natural representation; the full
basis is grown from the Chevalley generators by bracket closure, and
every derived basis element remembers which bracket produced it so that
representations defined on generators extend mechanically.
"""

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .linalg import (IncrementalSpan, commutator, identity, is_zero_matrix,
                     is_zero_vector, matmul, matvec, mat_add, mat_scale,
                     nullspace, rank, rref, zeros)
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

    def bracket(self, x, y):
        out = [0] * self.dim
        nx = [(i, c) for i, c in enumerate(x) if c]
        ny = [(j, c) for j, c in enumerate(y) if c]
        for i, xi in nx:
            for j, yj in ny:
                if i == j:
                    continue
                coeff = xi * yj
                if i < j:
                    for k, c in self.table.get((i, j), {}).items():
                        out[k] += coeff * c
                else:
                    for k, c in self.table.get((j, i), {}).items():
                        out[k] -= coeff * c
        return out

    def ad(self, x):
        """Matrix of ad(x) acting on coordinate columns."""
        cols = []
        for j in range(self.dim):
            e = [0] * self.dim
            e[j] = 1
            cols.append(self.bracket(x, e))
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

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
    """A subspace of a LieAlgebra with a canonical reduced basis."""

    def __init__(self, parent, basis_rows):
        self.parent = parent
        rows = [list(r) for r in basis_rows]
        for r in rows:
            if len(r) != parent.dim:
                raise ValueError("basis row length %d != algebra dim %d"
                                 % (len(r), parent.dim))
        reduced, pivots = rref(rows) if rows else ([], [])
        if len(reduced) != len(rows):
            raise ValueError("basis rows are linearly dependent")
        self.basis = rows
        self.reduced = [tuple(r) for r in reduced]
        self.pivots = tuple(pivots)

    @property
    def dim(self):
        return len(self.reduced)

    def contains(self, v):
        r = list(v)
        for row, pc in zip(self.reduced, self.pivots):
            c = r[pc]
            if c:
                r = [x - c * y for x, y in zip(r, row)]
        return is_zero_vector(r)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.parent is other.parent
                and self.reduced == other.reduced)

    def __hash__(self):
        return hash((id(self.parent), tuple(self.reduced)))

    def __repr__(self):
        return "Subspace(dim=%d of %d)" % (self.dim, self.parent.dim)


def full_subspace(g):
    return Subspace(g, identity(g.dim))


def zero_subspace(g):
    return Subspace(g, [])


# ---------------------------------------------------------------------------
# Chevalley construction for the classical families
# ---------------------------------------------------------------------------

def _E(n, i, j, c=1):
    m = zeros(n, n)
    m[i][j] = c
    return m


def _madd(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = mat_add(out, m)
    return out


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
        e = [_E(n, i, i + 1) for i in range(l)]
        f = [_E(n, i + 1, i) for i in range(l)]
        h = [_madd(_E(n, i, i), _E(n, i + 1, i + 1, -1)) for i in range(l)]
        return h, e, f
    if fam == "C":
        n = 2 * l
        e, f, h = [], [], []
        for i in range(l - 1):
            e.append(_madd(_E(n, i, i + 1), _E(n, l + i + 1, l + i, -1)))
            f.append(_madd(_E(n, i + 1, i), _E(n, l + i, l + i + 1, -1)))
            h.append(_madd(_E(n, i, i), _E(n, i + 1, i + 1, -1),
                           _E(n, l + i, l + i, -1), _E(n, l + i + 1, l + i + 1)))
        e.append(_E(n, l - 1, 2 * l - 1))
        f.append(_E(n, 2 * l - 1, l - 1))
        h.append(_madd(_E(n, l - 1, l - 1), _E(n, 2 * l - 1, 2 * l - 1, -1)))
        return h, e, f
    if fam == "B":
        n = 2 * l + 1
        u = 2 * l
        e, f, h = [], [], []
        for i in range(l - 1):
            e.append(_madd(_E(n, i, i + 1), _E(n, l + i + 1, l + i, -1)))
            f.append(_madd(_E(n, i + 1, i), _E(n, l + i, l + i + 1, -1)))
            h.append(_madd(_E(n, i, i), _E(n, i + 1, i + 1, -1),
                           _E(n, l + i, l + i, -1), _E(n, l + i + 1, l + i + 1)))
        # short root: e maps u -> v_l and w_l -> -u; f is scaled so that
        # (e, f, h) is an sl2 triple with h the coroot
        e.append(_madd(_E(n, l - 1, u), _E(n, u, 2 * l - 1, -1)))
        f.append(_madd(_E(n, u, l - 1, 2), _E(n, 2 * l - 1, u, -2)))
        h.append(_madd(_E(n, l - 1, l - 1, 2), _E(n, 2 * l - 1, 2 * l - 1, -2)))
        return h, e, f
    # family D
    n = 2 * l
    e, f, h = [], [], []
    for i in range(l - 1):
        e.append(_madd(_E(n, i, i + 1), _E(n, l + i + 1, l + i, -1)))
        f.append(_madd(_E(n, i + 1, i), _E(n, l + i, l + i + 1, -1)))
        h.append(_madd(_E(n, i, i), _E(n, i + 1, i + 1, -1),
                       _E(n, l + i, l + i, -1), _E(n, l + i + 1, l + i + 1)))
    e.append(_madd(_E(n, l - 2, 2 * l - 1), _E(n, l - 1, 2 * l - 2, -1)))
    f.append(_madd(_E(n, 2 * l - 1, l - 2), _E(n, 2 * l - 2, l - 1, -1)))
    h.append(_madd(_E(n, l - 2, l - 2), _E(n, l - 1, l - 1),
                   _E(n, 2 * l - 2, 2 * l - 2, -1), _E(n, 2 * l - 1, 2 * l - 1, -1)))
    return h, e, f


def _flatten(m):
    return [x for row in m for x in row]


@lru_cache(maxsize=None)
def _chevalley_with_matrices(t):
    """(LieAlgebra, natural-module matrices per basis element) for type t."""
    h, e, f = _natural_generators(t)
    l = t.rank
    n = len(h[0])
    basis = list(h) + list(e) + list(f)
    span = IncrementalSpan(n * n)
    for m in basis:
        if not span.add(_flatten(m)):
            raise AssertionError("Chevalley generators dependent for %s" % (t,))
    defs = {}
    from collections import deque
    queue = deque((i, j) for j in range(len(basis)) for i in range(j))
    while queue:
        i, j = queue.popleft()
        c = commutator(basis[i], basis[j])
        if is_zero_matrix(c):
            continue
        if span.add(_flatten(c)):
            m = len(basis)
            basis.append(c)
            defs[m] = (i, j)
            queue.extend((k, m) for k in range(m))
    dim = len(basis)
    if dim != t.algebra_dim:
        raise AssertionError("closure reached dim %d, expected %d for %s"
                             % (dim, t.algebra_dim, t))
    table = {}
    for j in range(dim):
        for i in range(j):
            c = commutator(basis[i], basis[j])
            if is_zero_matrix(c):
                continue
            coeffs = span.solve(_flatten(c))
            table[(i, j)] = {k: v for k, v in enumerate(coeffs) if v}
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
    for x in rows1:
        for y in rows2:
            v = g.bracket(x, y)
            if not is_zero_vector(v) and span.add(v):
                out.append(v)
    return out


def is_perfect(g):
    """True iff [g, g] = g, by spanning all basis brackets."""
    basis = identity(g.dim)
    return len(derived_span(g, basis, basis)) == g.dim


def derived_series(g, sub=None):
    """Derived series of a subalgebra (default: g itself), as Subspaces."""
    cur = sub.basis if sub is not None else identity(g.dim)
    series = [Subspace(g, cur)]
    while cur:
        nxt = derived_span(g, cur, cur)
        if len(nxt) == len(cur):
            break
        series.append(Subspace(g, nxt))
        cur = nxt
    return series


def lower_central_series(g, sub=None):
    """Lower central series of a subalgebra, as Subspaces."""
    top = sub.basis if sub is not None else identity(g.dim)
    series = [Subspace(g, top)]
    cur = top
    while cur:
        nxt = derived_span(g, top, cur)
        if len(nxt) == len(cur):
            break
        series.append(Subspace(g, nxt))
        cur = nxt
    return series


def _check_closed(g, sub):
    for i, x in enumerate(sub.basis):
        for y in sub.basis[i + 1:]:
            if not sub.contains(g.bracket(x, y)):
                return False
    return True


def is_nilpotent(g, sub=None):
    """True iff the lower central series of the subalgebra reaches 0."""
    if sub is not None and not _check_closed(g, sub):
        raise ValueError("subspace is not closed under the bracket")
    return lower_central_series(g, sub)[-1].dim == 0


def is_solvable(g, sub=None):
    return derived_series(g, sub)[-1].dim == 0


def is_abelian(g):
    return not g.table


def killing_form(g):
    """Matrix K[i][j] = trace(ad b_i . ad b_j)."""
    ads = [g.ad(g.basis_vector(i)) for i in range(g.dim)]
    sparse = [[(a, b, c) for a, row in enumerate(m) for b, c in enumerate(row) if c]
              for m in ads]
    k = zeros(g.dim, g.dim)
    for i in range(g.dim):
        for j in range(i, g.dim):
            mj = ads[j]
            s = 0
            for a, b, c in sparse[i]:
                x = mj[b][a]
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
    for i in range(g.dim):
        for r in radical.basis:
            if not radical.contains(g.bracket(g.basis_vector(i), r)):
                raise AssertionError("radical candidate is not an ideal")
    return radical


def check_jacobi(g):
    """Exact Jacobi check over all basis triples; True when it holds."""
    vecs = [g.basis_vector(i) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            bij = g.bracket(vecs[i], vecs[j])
            for k in range(j + 1, g.dim):
                s = g.bracket(bij, vecs[k])
                s = [a + b for a, b in zip(s, g.bracket(g.bracket(vecs[j], vecs[k]), vecs[i]))]
                s = [a + b for a, b in zip(s, g.bracket(g.bracket(vecs[k], vecs[i]), vecs[j]))]
                if not is_zero_vector(s):
                    return False
    return True


def subalgebra(g, sub):
    """The Lie algebra structure on a bracket-closed Subspace.

    Structure constants are written in the rows of sub.basis; raises if
    the subspace is not closed.
    """
    span = IncrementalSpan(g.dim)
    for r in sub.basis:
        span.add(r)
    table = {}
    for j in range(sub.dim):
        for i in range(j):
            v = g.bracket(sub.basis[i], sub.basis[j])
            coeffs = span.solve(v)
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
        cols = [{} for _ in range(n.dim)]
        for k, row in enumerate(rho.action[i]):
            for a, x in row.items():
                cols[a][k] = x
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


def free_two_step(rho):
    """Free 2-step nilpotent algebra on the module space of rho.

    The underlying space is A + wedge^2 A with [a, a'] = a ^ a' and the
    exterior square central; returns (f, tau) where tau is the induced
    module structure on f, which acts by derivations by construction.
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
    tau = rep_direct_sum([rho, wedge2(rho)])
    return f, tau


def quotient_by_ideal(g, u):
    """Quotient of g by an ideal u, with the projection map.

    Returns (q, proj) where proj is a LinearMap from g onto q.  The
    quotient basis is the set of standard coordinates complementary to
    the pivots of u, so Levi metadata survives whenever u avoids it.
    """
    for i in range(g.dim):
        e = g.basis_vector(i)
        for r in u.basis:
            w = g.bracket(e, r)
            if not is_zero_vector(w) and not u.contains(w):
                raise ValueError("subspace is not an ideal")
    pivots = set(u.pivots)
    comp = [c for c in range(g.dim) if c not in pivots]
    qdim = len(comp)

    def project(v):
        r = list(v)
        for row, pc in zip(u.reduced, u.pivots):
            c = r[pc]
            if c:
                r = [x - c * y for x, y in zip(r, row)]
        return [r[c] for c in comp]

    proj_matrix = [[0] * g.dim for _ in range(qdim)]
    for c in range(g.dim):
        e = [0] * g.dim
        e[c] = 1
        col = project(e)
        for r in range(qdim):
            proj_matrix[r][c] = col[r]
    table = {}
    for j in range(qdim):
        for i in range(j):
            w = project(g.bracket(g.basis_vector(comp[i]), g.basis_vector(comp[j])))
            row = {k: c for k, c in enumerate(w) if c}
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
        rows = [project(r) for r in g.levi_basis.basis]
        if rank(rows) == len(rows):
            q.levi_basis = Subspace(q, rows)
    proj = LinearMap(g.dim, qdim, proj_matrix)
    return q, proj


@dataclass
class LinearMap:
    source_dim: int
    target_dim: int
    matrix: list

    def __post_init__(self):
        if len(self.matrix) != self.target_dim or any(
                len(r) != self.source_dim for r in self.matrix):
            raise ValueError("matrix shape does not match declared dimensions")

    def __call__(self, v):
        return matvec(self.matrix, v)


def exp_ad(g, z):
    """The automorphism exp(ad z) as a LinearMap; z must be ad-nilpotent.

    Nilpotency is decided by exact matrix powering bounded by dim g.
    """
    a = g.ad(z)
    total = identity(g.dim)
    term = a
    k = 1
    while not is_zero_matrix(term):
        total = mat_add(total, mat_scale(Fraction(1, factorial(k)), term))
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
