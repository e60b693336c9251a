"""Lie algebras over exact rationals, given by structure constants.

The simple algebras of type A-D are realised as matrix algebras whose
Cartan subalgebra is diagonal in the natural representation; the full
basis is grown from the Chevalley generators by bracket closure, which
records the bracket that produced each derived basis element, so that
representations defined on generators extend mechanically.
"""

import json
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .linalg import (IncrementalSpan, apply, clear_denominators, columns,
                     combination, commutator, dense, divide, identity,
                     matmul, normal, nullspace, rank, sparse)
from .rootdata import SimpleType, record


class LieAlgebra:
    """Finite-dimensional Lie algebra by sparse structure constants.

    table maps (i, j) with 0 <= i < j < dim to {k: c} describing
    [b_i, b_j] where it is nonzero, each c an int where it is integral
    and a Fraction otherwise (normal); the antisymmetric half is
    implied.  Every bracket is read off brackets: brackets[i][j] =
    [b_i, b_j] in both orders where it is nonzero, and for i < j it is
    the table row itself.
    Instances are immutable by convention.  levi_basis is metadata
    recorded by constructors that know a Levi subalgebra by construction;
    levi_spec, when set, is the SemisimpleSpec whose algebra() the
    constructor built it from.
    """

    def __init__(self, dim, table, labels=None):
        self.dim = dim
        self.table = {}
        self.brackets = [{} for _ in range(dim)]
        for (i, j), row in table.items():
            if not (0 <= i < j < dim and all(0 <= k < dim for k in row)):
                raise ValueError("table entry %r: [b_i, b_j] = sum c b_k "
                                 "needs 0 <= i < j < %d and 0 <= k < %d"
                                 % ((i, j), dim, dim))
            row = normal(row)
            if row:
                self.table[i, j] = self.brackets[i][j] = row
                self.brackets[j][i] = {k: -c for k, c in row.items()}
        self.labels = list(labels) if labels else None
        self.levi_basis = None
        self.levi_spec = None

    def __repr__(self):
        return "LieAlgebra(dim=%d)" % self.dim

    def structure(self, i, j):
        """[b_i, b_j] as a sparse {k: c} dict."""
        return self.brackets[i].get(j, {})

    def sparse_bracket(self, x, y):
        """[x, y] for sparse {index: coefficient} vectors, as a dict
        (entries that cancel are kept as zeros), each entry an int where
        it is integral."""
        out = {}
        for i, xi in x.items():
            index = self.brackets[i]
            for j, yj in y.items():
                row = index.get(j)
                if row:
                    coeff = xi * yj
                    for k, c in row.items():
                        out[k] = out.get(k, 0) + coeff * c
        # a sum of ints is an int, and one Fraction makes it a Fraction
        if type(sum(out.values())) is int:
            return out
        return {k: c.numerator if c.denominator == 1 else c
                for k, c in out.items()}

    def bracket(self, x, y):
        """[x, y] for dense coordinate vectors, as a dense vector."""
        return dense(self.sparse_bracket(sparse(x), sparse(y)), self.dim)

    def ad(self, x):
        """ad(x) for a dense x as a row-dict matrix: entry (k, j) is the
        coefficient of b_k in [x, b_j] = sum_i x_i [b_i, b_j]."""
        m = [{} for _ in range(self.dim)]
        for i, xi in enumerate(x):
            if xi:
                for j, row in self.brackets[i].items():
                    for k, c in row.items():
                        m[k][j] = m[k].get(j, 0) + xi * c
        return [normal(row) for row in m]

    def basis_vector(self, i):
        v = [0] * self.dim
        v[i] = 1
        return v


class Subspace:
    """A subspace of a LieAlgebra g, given by independent dense basis
    rows of length ambient = g.dim; it keeps no reference to g.

    span is the IncrementalSpan of the rows; membership, coordinates and
    residues all go through it.  pivots are its pivot columns, which
    depend on the subspace only (see IncrementalSpan), so two Subspaces
    with the same rows in another order or scaling have the same ones.
    """

    def __init__(self, g, basis_rows):
        self.ambient = g.dim
        rows = [list(r) for r in basis_rows]
        for r in rows:
            if len(r) != g.dim:
                raise ValueError("basis row length %d != algebra dim %d"
                                 % (len(r), g.dim))
        self.span = IncrementalSpan()
        if not all(self.span.add(r) for r in rows):
            raise ValueError("basis rows are linearly dependent")
        self.basis = rows
        self.pivots = tuple(self.span.pivots)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, v):
        return not self.span.residue(v)

    def __eq__(self, other):
        # equal dimensions make one inclusion enough for equality
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.dim == other.dim
                and all(self.contains(r) for r in other.basis))

    def __hash__(self):
        return hash((self.ambient, self.dim))

    def __repr__(self):
        return "Subspace(dim=%d of %d)" % (self.dim, self.ambient)


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
    """(LieAlgebra, natural-module row-dict matrices per basis element,
    bracket definitions) for type t.

    The basis starts h_1..h_l, e_1..e_l, f_1..f_l.  Bracket closure from
    the generators: every pair of basis elements is bracketed once, and
    its commutator either joins the basis or is solved over it, which
    gives that pair's structure constants.  defs maps each basis element
    m >= 3l to the pair (i, j) with b_m = [b_i, b_j].
    """
    h, e, f = _natural_generators(t)
    l = t.rank
    n = len(h[0])
    basis = list(h) + list(e) + list(f)
    span = IncrementalSpan()

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
            table[(i, j)] = coeffs
    dim = len(basis)
    if dim != t.algebra_dim:
        raise AssertionError("closure reached dim %d, expected %d for %s"
                             % (dim, t.algebra_dim, t))
    labels = (["h%d" % (i + 1) for i in range(l)]
              + ["e%d" % (i + 1) for i in range(l)]
              + ["f%d" % (i + 1) for i in range(l)]
              + ["x%d" % m for m in range(3 * l, dim)])
    return LieAlgebra(dim, table, labels=labels), basis, defs


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
    off = 0
    for gi, g in enumerate(gs):
        for (i, j), row in g.table.items():
            table[(i + off, j + off)] = {k + off: c for k, c in row.items()}
        if g.labels:
            labels.extend(("g%d:%s" % (gi + 1, lab)) if len(gs) > 1 else lab
                          for lab in g.labels)
        else:
            labels.extend("g%d:b%d" % (gi + 1, k) for k in range(g.dim))
        off += g.dim
    return LieAlgebra(dim, table, labels=labels)


def zero_algebra():
    return LieAlgebra(0, {})


def abelian_algebra(n, labels=None):
    return LieAlgebra(n, {}, labels=labels)


# ---------------------------------------------------------------------------
# Structural predicates
# ---------------------------------------------------------------------------

def derived_span(g, rows1, rows2):
    """Row basis of span{[x, y] : x in rows1, y in rows2}.  When rows1
    is rows2 only the pairs a < b are bracketed, with the same rows: over
    all pairs, the span would reject [x_a, x_b] = -[x_b, x_a] for b < a,
    met earlier, and [x_a, x_a] = 0, and meet the rest in this order."""
    out = []
    span = IncrementalSpan()
    ys = [sparse(y) for y in rows2]
    for a, x in enumerate(map(sparse, rows1)):
        for y in ys[a + 1:] if rows1 is rows2 else ys:
            v = g.sparse_bracket(x, y)
            if span.add(v):
                out.append(dense(v, g.dim))
    return out


def derived_rows(g):
    """Independent sparse rows spanning [g, g], from the
    brackets [b_i, b_j] with i < j, in table order."""
    span = IncrementalSpan()
    return [row for row in (g.brackets[i][j] for i, j in g.table)
            if span.add(row)]


def is_perfect(g):
    """True iff [g, g] = g."""
    return len(derived_rows(g)) == g.dim


def _series(g, sub, lower):
    """The lower central series (lower) or the derived series of a
    subalgebra sub (default: g itself), as Subspaces starting at sub."""
    series = [sub if sub is not None else full_subspace(g)]
    top = cur = series[0].basis
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
    """The row-dict matrix K[i][j] = trace(ad b_i . ad b_j), read off
    brackets: [b_p, b_q] = sum c b_k puts c at (k, q) of ad b_p, and
    K[i][j] sums (ad b_i)[a][b] (ad b_j)[b][a] over the positions (a, b)
    of these entries."""
    entries = {}          # (a, b) -> [(i, entry of ad b_i at (a, b))]
    for p, index in enumerate(g.brackets):
        for q, row in index.items():
            for k, c in row.items():
                entries.setdefault((k, q), []).append((p, c))
    k = [{} for _ in range(g.dim)]
    for (a, b), left in entries.items():
        right = entries.get((b, a))
        if right:
            for i, c in left:
                row = k[i]
                for j, d in right:
                    row[j] = row.get(j, 0) + c * d
    return [normal(row) for row in k]


def is_semisimple(g):
    """True iff the Killing form is nondegenerate."""
    if g.dim == 0:
        return True
    return rank(killing_form(g)) == g.dim


def solvable_radical(g):
    """The maximal solvable ideal.

    In characteristic zero this is the Killing-orthogonal complement of
    [g, g]; the result is re-verified to be a solvable ideal.  Its basis
    comes from rref, which depends only on the row space of the
    equations, so any rows spanning [g, g] give it row for row.
    """
    if g.dim == 0:
        return zero_subspace(g)
    k = killing_form(g)
    # K is symmetric, so the equation K(x, d) = 0 has the row
    # K d = sum_j d_j K[j], a sparse combination of the rows of K
    eqs = [combination(((dj, [k[j]]) for j, dj in d.items()), 1)[0]
           for d in derived_rows(g)]
    radical = Subspace(g, [dense(v, g.dim) for v in nullspace(eqs, g.dim)])
    if not is_solvable(g, radical):
        raise AssertionError("radical candidate is not solvable")
    if not is_ideal(g, radical):
        raise AssertionError("radical candidate is not an ideal")
    return radical


def check_jacobi(g):
    """Exact Jacobi check; True when it holds.  The bracket is
    antisymmetric by construction, so Jacobi holds exactly when every
    ad b_i is a derivation.  Only the b_i with a nonzero bracket are
    checked: any other ad b_i is 0, a derivation."""
    return all(_is_derivation(g, [index.get(a, {}) for a in range(g.dim)])
               for index in g.brackets if index)


def is_ideal(g, sub):
    """True iff [b_i, r] lies in sub for every basis vector b_i of g and
    every basis row r.  Per r, every [r, b_i] = sum_j r_j [b_j, b_i] is
    summed in one pass over g.brackets, and only nonzero ones are
    tested: 0 lies in every subspace."""
    for r in map(sparse, sub.basis):
        out = {}
        for j, x in r.items():
            for i, row in g.brackets[j].items():
                v = out.setdefault(i, {})
                for k, c in row.items():
                    v[k] = v.get(k, 0) + x * c
        if not all(map(sub.contains, out.values())):
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
            row = sub.span.solve(g.sparse_bracket(rows[i], rows[j]))
            if row is None:
                raise ValueError("subspace is not closed under the bracket")
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

    The derivation check runs on rho.generating_indices() only.  Once
    rho is a homomorphism, rho(s) is the Lie algebra generated by the
    images of those generators, and the derivations of n form a Lie
    subalgebra Der(n) of gl(n) (the commutator of two derivations is
    one).  So the generators map into Der(n) iff all of s does.

    The leading ds coordinates are recorded as levi_basis, and rho.spec
    as levi_spec when s is rho.spec.algebra().
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
    gens = rho.generating_indices()
    for i in range(ds):
        # cols[a] is rho(b_i) applied to basis vector a of n
        cols = [dict(col) for col in columns(rho.action[i], n.dim)]
        # vacuous for abelian n
        if n.table and i in gens and not _is_derivation(n, cols):
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
    g = LieAlgebra(ds + n.dim, table, labels=labels)
    g.levi_basis = Subspace(g, [g.basis_vector(i) for i in range(ds)])
    if rho.spec is not None and s is rho.spec.algebra():
        g.levi_spec = rho.spec
    return g


def _is_derivation(n, cols):
    """True iff the linear map D sending basis vector a of n to the
    sparse vector cols[a] is a derivation of n: the defect
    D[e_a, e_b] - [D e_a, e_b] + [D e_b, e_a] vanishes on all ordered
    basis pairs.  Only brackets that are nonzero in n are visited; the
    defect is linear in the brackets, so n.brackets decide it."""
    brackets = n.brackets
    defect = Counter()
    for a in range(n.dim):
        for b, row in brackets[a].items():
            for k, c in row.items():
                for q, x in cols[k].items():
                    defect[a, b, q] += c * x
        for q, x in cols[a].items():
            for b, row in brackets[q].items():
                for k, c in row.items():
                    defect[a, b, k] -= x * c
                    defect[b, a, k] += x * c
    return not any(defect.values())


def free_two_step(rho, wedge=None):
    """Free 2-step nilpotent algebra on the module space of rho.

    The underlying space is A + wedge^2 A with [a, a'] = a ^ a' and the
    exterior square central; returns (f, tau) where tau is the induced
    module structure on f, which acts by derivations by construction.
    wedge is wedge2(rho), built here when not given.  The basis of f is
    labelled v1, v2, ..., the labels semidirect gives an unlabelled n.
    """
    from .repbuilder import direct_sum as rep_direct_sum, wedge2
    from itertools import combinations
    d = rho.dim
    pairs = list(combinations(range(d), 2))
    index = {p: i for i, p in enumerate(pairs)}
    table = {}
    for (i, j), k in index.items():
        table[(i, j)] = {d + k: 1}
    f = LieAlgebra(d + len(pairs), table,
                   labels=["v%d" % (a + 1) for a in range(d + len(pairs))])
    tau = rep_direct_sum([rho, wedge if wedge is not None else wedge2(rho)])
    return f, tau


def quotient_by_ideal(g, u):
    """Quotient of g by an ideal u, with the projection map.

    Returns (q, proj) where proj is a LinearMap from g onto q.  The
    quotient basis is the set of standard coordinates complementary to
    the pivots of u.  A vector projects to its residue modulo u
    (IncrementalSpan.residue), which vanishes on the pivots, read on the
    other coordinates; pivots and residue depend on u only, not on its
    basis rows.
    """
    if not is_ideal(g, u):
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
    return (LieAlgebra(qdim, table, labels=labels),
            LinearMap(g.dim, qdim, proj_matrix))


@record
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
    The series runs over ints: with D ad z = A integral and A^(n+1) = 0,
    exp(ad z) = sum_k n!/k! D^(n-k) A^k / (n! D^n), divided once.
    """
    den, a = clear_denominators(g.ad(z))
    powers = [[{i: 1} for i in range(g.dim)]]
    term = a
    while any(term):
        if len(powers) >= g.dim:
            raise ValueError("ad(z) is not nilpotent")
        powers.append(term)
        term = matmul(term, a)
    n = len(powers) - 1
    total = combination(((factorial(n) // factorial(k) * den ** (n - k), m)
                         for k, m in enumerate(powers)), g.dim)
    d = factorial(n) * den ** n
    return LinearMap(g.dim, g.dim, [{b: divide(x, d) for b, x in row.items()}
                                    for row in total])


def sum_spans(g, u1, u2):
    """(spans, intersection_dim) for the vector space sum u1 + u2."""
    r = rank(list(u1.basis) + list(u2.basis))
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
    malformed one raises ValueError: the schema, a natural number dim,
    integer indices in every entry [i, j, [[k, c], ...]], no repeated
    [i, j] and no repeated k within an entry, and rational coefficients;
    LieAlgebra checks that the indices are below dim with i < j."""
    try:
        dim = data["dim"]
        entries = [((i, j), [(k, rational(c)) for k, c in row])
                   for i, j, row in data["entries"]]
        table = {key: dict(row) for key, row in entries}
        labels = data.get("labels")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError("malformed algebra: %s" % exc) from None
    if len(table) != len(entries) or any(
            len(table[key]) != len(row) for key, row in entries):
        raise ValueError("every [i, j], and every k within an entry, "
                         "may appear once")
    indices = [x for (i, j), row in table.items() for x in (i, j, *row)]
    if type(dim) is not int or dim < 0 or not all(
            type(x) is int for x in indices):
        raise ValueError("'dim' must be a natural number and every index "
                         "an integer")
    if labels is not None and not (isinstance(labels, list)
                                   and len(labels) == dim):
        raise ValueError("'labels' must name each of the %d basis vectors" % dim)
    return LieAlgebra(dim, table, labels=labels)


def dumps(g):
    return json.dumps(to_json_dict(g), indent=None, separators=(",", ":"))


def loads(text):
    return from_json_dict(json.loads(text))
