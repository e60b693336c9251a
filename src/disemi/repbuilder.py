"""Explicit matrix representations of the classical semisimple algebras.

Every Representation stores one exact action matrix per basis element of
its algebra, as sparse row dicts (see Representation).  All constructors
keep the Cartan subalgebra diagonal, so their modules have a weight
basis and highest-weight extraction is plain kernel computation in fixed
coordinate blocks that never needs diagonalisation.
"""

from functools import lru_cache
from itertools import combinations

from .linalg import (IncrementalSpan, apply, columns, combination, commutator,
                     dense, matmul, normal, nullspace, sparse)
from .liealg import (_chevalley_with_matrices, chevalley,
                     direct_sum as algebra_direct_sum)
from .rootdata import SimpleType, as_coords, dual_weight, record, weyl_dim


@record(frozen=True)
class SemisimpleSpec:
    """A semisimple algebra given as an ordered tuple of simple factors."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        if not factors:
            raise ValueError("a semisimple spec needs at least one factor")
        for t in factors:
            if not isinstance(t, SimpleType):
                raise ValueError("factors must be SimpleType instances")
        object.__setattr__(self, "factors", factors)

    def __str__(self):
        return "x".join(str(t) for t in self.factors)

    @property
    def dim(self):
        return sum(t.algebra_dim for t in self.factors)

    def algebra(self):
        return _spec_algebra(self)

    def generator_indices(self):
        """(h, e, f) index tuples of the Chevalley generators in the basis
        of self.algebra(): the block of a factor of rank l starts
        h_1..h_l, e_1..e_l, f_1..f_l (liealg._chevalley_with_matrices),
        and the blocks follow the factors (liealg.direct_sum)."""
        h, e, f = [], [], []
        off = 0
        for t in self.factors:
            l = t.rank
            h.extend(range(off, off + l))
            e.extend(range(off + l, off + 2 * l))
            f.extend(range(off + 2 * l, off + 3 * l))
            off += t.algebra_dim
        return tuple(h), tuple(e), tuple(f)

    def label_dim(self, label):
        d = 1
        for t, coords in zip(self.factors, label):
            d *= weyl_dim(t, coords)
        return d

    def label_dual(self, label):
        return tuple(dual_weight(t, coords)
                     for t, coords in zip(self.factors, label))

    def coerce_label(self, label):
        label = tuple(as_coords(t, coords)
                      for t, coords in zip(self.factors, label))
        if len(label) != len(self.factors):
            raise ValueError("label has %d blocks, spec has %d factors"
                             % (len(label), len(self.factors)))
        return label


def spec_of(*types):
    return SemisimpleSpec(tuple(SimpleType(*t) if not isinstance(t, SimpleType)
                                else t for t in types))


@lru_cache(maxsize=None)
def _spec_algebra(spec):
    if len(spec.factors) == 1:
        return chevalley(spec.factors[0])
    return algebra_direct_sum([chevalley(t) for t in spec.factors])


class ModuleDescriptor:
    """Multiset of irreducible labels, one weight block per simple factor."""

    def __init__(self, labels):
        counts = {}
        for item in labels:
            if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], int) \
                    and item[1] >= 1 and not isinstance(item[0], int):
                label, mult = item
            else:
                label, mult = item, 1
            label = tuple(tuple(int(c) for c in block) for block in label)
            counts[label] = counts.get(label, 0) + mult
        self.entries = tuple(sorted(counts.items()))

    def items(self):
        return self.entries

    def labels(self):
        out = []
        for label, mult in self.entries:
            out.extend([label] * mult)
        return out

    def multiplicity(self, label):
        label = tuple(tuple(int(c) for c in block) for block in label)
        for lab, mult in self.entries:
            if lab == label:
                return mult
        return 0

    def total_dim(self, spec):
        return sum(mult * spec.label_dim(label) for label, mult in self.entries)

    def dual(self, spec):
        return ModuleDescriptor([(spec.label_dual(label), mult)
                                 for label, mult in self.entries])

    def __eq__(self, other):
        return isinstance(other, ModuleDescriptor) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __str__(self):
        if not self.entries:
            return "0"
        parts = []
        for label, mult in self.entries:
            blocks = "#".join("L(" + ",".join(str(c) for c in block) + ")"
                              for block in label)
            parts.append(("%d" % mult) + blocks if mult > 1 else blocks)
        return " + ".join(parts)

    def __repr__(self):
        return "ModuleDescriptor(%s)" % self


def descriptor(spec, *labels):
    """Convenience builder that validates labels against the factors."""
    return ModuleDescriptor([spec.coerce_label(lab) if not (
        len(lab) == 2 and isinstance(lab[1], int) and not isinstance(lab[0], int))
        else (spec.coerce_label(lab[0]), lab[1]) for lab in labels])


class Representation:
    """A module for a semisimple algebra, one matrix per basis element.

    action[k] is the matrix of basis element k as a list of dim row
    dicts: row a maps column b to the entry (a, b) and holds only the
    nonzero entries.  The constructor is the one place where entries are
    normalised: zeros are dropped and integral Fractions become ints.
    weight_basis is worked out, never declared: spec is set, algebra is
    spec.algebra() (whose generator_indices() then hold) and every
    Cartan generator acts diagonally (cartan_is_diagonal).
    """

    def __init__(self, spec, algebra, action):
        if algebra.dim != len(action):
            raise ValueError("need one action matrix per algebra basis element")
        self.spec = spec
        self.algebra = algebra
        self.dim = len(action[0]) if action else 0
        if any(len(m) != self.dim for m in action):
            raise ValueError("every action matrix needs one row per coordinate")
        self.action = [[normal(row) for row in m] for m in action]
        self.weight_basis = (spec is not None and algebra is spec.algebra()
                             and cartan_is_diagonal(spec, self.action))
        self._weights = None

    def __repr__(self):
        return "Representation(%s, dim=%d)" % (self.spec, self.dim)

    def weights(self):
        """Fundamental-coordinate weight of each basis vector, as a flat
        tuple of eigenvalues of all Cartan generators across factors."""
        if not self.weight_basis:
            raise ValueError("weights need a weight basis")
        if self._weights is None:
            h_idx = self.spec.generator_indices()[0]
            out = []
            for c in range(self.dim):
                w = tuple(self.action[h][c].get(c, 0) for h in h_idx)
                if not all(isinstance(x, int) for x in w):
                    raise AssertionError("non-integral weight entry")
                out.append(w)
            self._weights = out
        return self._weights

    def split_weight(self, w):
        """Group a flat Cartan eigenvalue tuple into per-factor blocks."""
        blocks = []
        pos = 0
        for t in self.spec.factors:
            blocks.append(tuple(w[pos:pos + t.rank]))
            pos += t.rank
        return tuple(blocks)

    def _bracket_holds(self, i, j):
        """Exact check of action([b_i, b_j]) = [action(b_i), action(b_j)]:
        with [b_i, b_j] = sum_k c_k b_k, the defect A_i A_j - A_j A_i -
        sum_k c_k A_k is summed one row at a time into one dict, and the
        check fails at the first nonzero row (a matrix is 0 iff its rows
        are), with no commutator or combination matrix built."""
        act = self.action
        terms = [(c, act[k]) for k, c in self.algebra.structure(i, j).items()]
        for a in range(self.dim):
            row = {}
            for p, q, sign in ((act[i], act[j], 1), (act[j], act[i], -1)):
                for m, x in p[a].items():
                    for b, y in q[m].items():
                        row[b] = row.get(b, 0) + sign * x * y
            for c, mat in terms:
                for b, y in mat[a].items():
                    row[b] = row.get(b, 0) - c * y
            if any(row.values()):
                return False
        return True

    def generating_indices(self):
        """Basis indices of a set that generates the algebra as a Lie
        algebra: the Chevalley generators e_i, f_i of every factor when
        the algebra is spec.algebra() (they generate a semisimple
        algebra, Serre; Humphreys section 18), else the whole basis."""
        if self.spec is not None and self.algebra is self.spec.algebra():
            _, e, f = self.spec.generator_indices()
            return frozenset(e + f)
        return frozenset(range(self.algebra.dim))

    def check_homomorphism(self):
        """Exact check of action([x,b]) = [action(x), action(b)] for x in
        generating_indices() and b in the whole basis, each pair a sparse
        product.

        This decides the same as the check on all basis pairs.  Write
        rho for the action.  The x that pass for every b form a subspace
        X.  For x, y in X and any b, Jacobi in the algebra, then x, y in
        X, then Jacobi in gl(V), then x in X at b = y give
            rho([[x,y],b]) = rho([x,[y,b]]) - rho([y,[x,b]])
                           = [rho x, [rho y, rho b]] - [rho y, [rho x, rho b]]
                           = [[rho x, rho y], rho b] = [rho([x,y]), rho b],
        so X is closed under the bracket.  It holds a generating set, so
        it is the whole algebra.  Both sides are antisymmetric in (x, b),
        so each unordered pair is checked once and b = x is skipped."""
        gens = self.generating_indices()
        return all(self._bracket_holds(i, j)
                   for j in range(self.algebra.dim) for i in range(j)
                   if i in gens or j in gens)


def cartan_is_diagonal(spec, action):
    """True iff the matrix of every Cartan generator h_i of spec in
    action has no nonzero entry off the diagonal."""
    return all(b == a for h in spec.generator_indices()[0]
               for a, row in enumerate(action[h]) for b, x in row.items() if x)


def _kron_sum(m1, m2, d1, d2):
    """m1 ox 1 + 1 ox m2 in the Kronecker basis (first factor major)."""
    out = []
    for a in range(d1):
        for i in range(d2):
            row = {a * d2 + j: x for j, x in m2[i].items()}
            for b, x in m1[a].items():
                row[b * d2 + i] = row.get(b * d2 + i, 0) + x
            out.append(row)
    return out


# ---------------------------------------------------------------------------
# Basic constructors
# ---------------------------------------------------------------------------

def _spot_check(rep):
    """One-pair homomorphism check on the first sl2 triple; cheap, and
    catches sign mistakes in new constructors."""
    spec = rep.spec
    if rep.dim == 0 or spec is None or rep.algebra is not spec.algebra():
        return rep
    _, e, f = spec.generator_indices()
    if not rep._bracket_holds(e[0], f[0]):
        raise AssertionError("constructed action fails the spot check")
    return rep


@lru_cache(maxsize=None)
def natural(t):
    """The defining module of t, in a basis with diagonal Cartan action."""
    if not isinstance(t, SimpleType):
        raise ValueError("natural() expects a SimpleType")
    alg, mats, _ = _chevalley_with_matrices(t)
    return Representation(SemisimpleSpec((t,)), alg, mats)


def trivial(spec, k=1):
    """The k-dimensional trivial module over spec."""
    alg = spec.algebra()
    return Representation(spec, alg, [[{} for _ in range(k)]
                                      for _ in range(alg.dim)])


def dual(r):
    """The dual module, acting by x -> -x^T."""
    action = [[{b: -x for b, x in col} for col in columns(m, r.dim)]
              for m in r.action]
    return _spot_check(Representation(r.spec, r.algebra, action))


def tensor(r1, r2):
    """Tensor product of two modules over the same algebra."""
    if r1.algebra is not r2.algebra and r1.spec != r2.spec:
        raise ValueError("tensor needs modules over the same algebra")
    action = [_kron_sum(m1, m2, r1.dim, r2.dim)
              for m1, m2 in zip(r1.action, r2.action)]
    return _spot_check(Representation(r1.spec, r1.algebra, action))


def direct_sum(rs):
    """Direct sum of modules over one common algebra."""
    rs = list(rs)
    if not rs:
        raise ValueError("direct_sum needs at least one module")
    spec, alg = rs[0].spec, rs[0].algebra
    for r in rs[1:]:
        if r.algebra is not alg and r.spec != spec:
            raise ValueError("direct_sum needs modules over the same algebra")
    action = []
    for k in range(alg.dim):
        m = []
        off = 0
        for r in rs:
            m.extend({off + j: x for j, x in row.items()} for row in r.action[k])
            off += r.dim
        action.append(m)
    return _spot_check(Representation(spec, alg, action))


def outer_tensor(r1, r2):
    """Outer tensor product across disjoint factor lists.

    The result is a module for the direct sum algebra, acting by
    x ox id + id ox y in the Kronecker basis (first factor major).
    """
    spec = SemisimpleSpec(r1.spec.factors + r2.spec.factors)
    alg = spec.algebra()
    d1, d2 = r1.dim, r2.dim
    action = ([_kron_sum(m1, [{}] * d2, d1, d2) for m1 in r1.action]
              + [_kron_sum([{}] * d1, m2, d1, d2) for m2 in r2.action])
    return _spot_check(Representation(spec, alg, action))


def wedge2(r):
    """Exterior square, basis e_i ^ e_j for i < j."""
    return wedge_power(r, 2)


def wedge_power(r, k):
    """k-th exterior power on the sorted k-subset basis."""
    n = r.dim
    subsets = list(combinations(range(n), k))
    index = {s: i for i, s in enumerate(subsets)}
    d = len(subsets)
    action = []
    for m in r.action:
        cols = columns(m, n)
        out = [{} for _ in range(d)]
        for si, s in enumerate(subsets):
            inside = set(s)
            for p, sp in enumerate(s):
                for j, c in cols[sp]:
                    if j == sp:
                        row = out[si]
                    elif j in inside:
                        continue
                    else:
                        rest = s[:p] + s[p + 1:]
                        pos = sum(1 for x in rest if x < j)
                        row = out[index[tuple(sorted(rest + (j,)))]]
                        if (p - pos) % 2:
                            c = -c
                    row[si] = row.get(si, 0) + c
        action.append(out)
    return _spot_check(Representation(r.spec, r.algebra, action))


def sym2(r):
    """Symmetric square, basis e_i . e_j for i <= j."""
    n = r.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: i for i, p in enumerate(pairs)}
    d = len(pairs)
    action = []
    for m in r.action:
        cols = columns(m, n)
        out = [{} for _ in range(d)]
        for pi, (a, b) in enumerate(pairs):
            for j, c in cols[a]:
                row = out[index[(j, b) if j <= b else (b, j)]]
                row[pi] = row.get(pi, 0) + c
            for j, c in cols[b]:
                row = out[index[(a, j) if a <= j else (j, a)]]
                row[pi] = row.get(pi, 0) + c
        action.append(out)
    return _spot_check(Representation(r.spec, r.algebra, action))


# ---------------------------------------------------------------------------
# Spin modules via a fermionic mode basis
# ---------------------------------------------------------------------------

def _mode_matrices(l):
    """Creation/annihilation matrices on the 2^l subset masks."""
    d = 1 << l
    create, destroy = [], []
    for i in range(l):
        cm = [{} for _ in range(d)]
        dm = [{} for _ in range(d)]
        for mask in range(d):
            sign = -1 if bin(mask & ((1 << i) - 1)).count("1") % 2 else 1
            if mask & (1 << i):
                dm[mask & ~(1 << i)][mask] = sign
            else:
                cm[mask | (1 << i)][mask] = sign
        create.append(cm)
        destroy.append(dm)
    return create, destroy


def _rep_from_generators(dim, defs, images):
    """Extend generator images along the bracket definitions defs of a
    dim-dimensional algebra (see liealg._chevalley_with_matrices)."""
    action = [None] * dim
    for idx, m in images.items():
        action[idx] = m
    for m in sorted(defs):
        i, j = defs[m]
        action[m] = commutator(action[i], action[j])
    if any(a is None for a in action):
        raise AssertionError("generator images do not cover the algebra")
    return action


@lru_cache(maxsize=None)
def _spin_rep(t, parity=None):
    """Spin module of B_l (all 2^l modes) or a half-spin of D_l (fixed
    subset parity).  The quadratic generator images are assembled on the
    full mode space, where the creation/annihilation matrices live, and
    only then restricted to the parity subspace for type D.  Matrices
    are integral; construction is verified by a full homomorphism check.
    """
    l = t.rank
    alg, _, defs = _chevalley_with_matrices(t)
    spec = SemisimpleSpec((t,))
    h, e, f = spec.generator_indices()
    full = range(1 << l)
    create, destroy = _mode_matrices(l)
    dfull = len(full)
    one = [{m: 1} for m in full]
    number = [matmul(create[i], destroy[i]) for i in range(l)]
    images = {}
    for i in range(l - 1):
        images[e[i]] = matmul(create[i], destroy[i + 1])
        images[f[i]] = matmul(create[i + 1], destroy[i])
        images[h[i]] = combination(((1, number[i]), (-1, number[i + 1])),
                                   dfull)
    if t.family == "D":
        if parity not in (0, 1):
            raise ValueError("D-type spin module needs a subset parity")
        images[e[l - 1]] = matmul(create[l - 2], create[l - 1])
        images[f[l - 1]] = matmul(destroy[l - 1], destroy[l - 2])
        images[h[l - 1]] = combination(
            ((1, number[l - 2]), (1, number[l - 1]), (-1, one)), dfull)
    elif t.family == "B":
        # short-root vectors live in the even Clifford algebra through
        # the parity involution c with c^2 = 1
        c = [{m: -1 if bin(m).count("1") % 2 else 1} for m in full]
        images[e[l - 1]] = matmul(create[l - 1], c)
        images[f[l - 1]] = combination(
            ((-1, matmul(destroy[l - 1], c)),), dfull)
        images[h[l - 1]] = combination(((2, number[l - 1]), (-1, one)),
                                       dfull)
    else:
        raise ValueError("spin modules exist for families B and D only")
    if t.family == "D":
        keep = [m for m in full if bin(m).count("1") % 2 == parity]
        pos = {m: i for i, m in enumerate(keep)}
        restricted = {}
        for idx, m in images.items():
            # the quadratics preserve parity, so nothing may leak out
            if any(b not in pos for a in keep for b in m[a]):
                raise AssertionError("spin generator does not preserve parity")
            restricted[idx] = [{pos[b]: x for b, x in m[a].items()}
                               for a in keep]
        images = restricted
    action = _rep_from_generators(alg.dim, defs, images)
    rep = Representation(spec, alg, action)
    if not rep.check_homomorphism():
        raise AssertionError("spin construction failed the homomorphism check")
    return rep


def spin16_d5():
    """The 16-dimensional half-spin module of D5 with highest weight
    omega_4 (the even subset parity; the odd parity gives omega_5)."""
    return _spin_rep(SimpleType("D", 5), parity=0)


# ---------------------------------------------------------------------------
# Highest-weight analysis
# ---------------------------------------------------------------------------

def highest_weight_vectors(r):
    """Basis of the joint kernel of all raising operators.

    Returns a list of (vector, label) with label the per-factor tuple of
    fundamental coordinates.  Vectors are grouped by ambient weight
    block, so each one is a simultaneous Cartan eigenvector.
    """
    if not r.weight_basis:
        raise ValueError("highest weight extraction needs a weight basis")
    # per raising operator, the nonzero entries of each column
    raising = [columns(r.action[e], r.dim)
               for e in r.spec.generator_indices()[1]]
    weights = r.weights()
    blocks = {}
    for c in range(r.dim):
        blocks.setdefault(weights[c], []).append(c)
    out = []
    for w in sorted(blocks, reverse=True):
        cols = blocks[w]
        rows = []
        for index in raising:
            # the rows of this operator restricted to the block's columns;
            # rref, hence the nullspace, does not depend on their order
            eqs = {}
            for i, c in enumerate(cols):
                for a, x in index[c]:
                    eqs.setdefault(a, {})[i] = x
            rows.extend(eqs.values())
        for kv in nullspace(rows, len(cols)):
            v = [0] * r.dim
            for i, x in kv.items():
                v[cols[i]] = x
            if any(x < 0 for x in w):
                raise AssertionError("non-dominant highest weight %r" % (w,))
            out.append((v, r.split_weight(w)))
    return out


def decompose(r):
    """ModuleDescriptor of r from its highest weight vectors.

    Raises if the multiplicity-weighted dimensions do not add up to
    dim r, which would mean the action is not semisimple.
    """
    hw = highest_weight_vectors(r)
    desc = ModuleDescriptor([label for _, label in hw])
    total = desc.total_dim(r.spec)
    if total != r.dim:
        raise AssertionError(
            "decomposition dimensions sum to %d but the module has dim %d"
            % (total, r.dim))
    return desc


def multiplicity(r, label):
    label = r.spec.coerce_label(label)
    return decompose(r).multiplicity(label)


def embeds(label, r):
    """True iff the irreducible with this label embeds in r."""
    return multiplicity(r, label) >= 1


# ---------------------------------------------------------------------------
# Realisation of descriptors
# ---------------------------------------------------------------------------

class UnconstructibleLabel(ValueError):
    """Raised when a label falls outside the documented constructible set."""


# realize_simple refuses labels of larger Weyl dimension.  It recurses
# once per unit of the highest weight, through tensor products that grow
# with the label: A1 L(1000) would end in a RecursionError, and the cost
# grows quickly long before that.
MAX_LABEL_DIM = 128


def _restrict(r, vectors):
    """Restrict r to the span of the given vectors (must be stable).

    The vectors become the basis of the submodule in the given order.
    """
    span = IncrementalSpan()
    for v in vectors:
        if not span.add(v):
            raise ValueError("restriction basis is dependent")
    action = []
    for m in r.action:
        cols = [span.solve(apply(m, v)) for v in vectors]
        if None in cols:
            raise ValueError("subspace is not action-stable")
        action.append([dict(c) for c in columns(cols, len(vectors))])
    return Representation(r.spec, r.algebra, action)


def cyclic_submodule(r, v0):
    """The submodule generated from a weight vector v0 by the lowering
    operators, breadth first; raises ValueError if r has no weight basis
    or a vector met is not a weight vector.  Images are summed from one
    column index per lowering operator.  Weight spaces are independent,
    so a weight vector lies in the span of earlier ones iff it lies in
    the span of those of its weight: one IncrementalSpan per weight."""
    weights = r.weights()
    lowering = [[dict(c) for c in columns(r.action[f], r.dim)]
                for f in r.spec.generator_indices()[2]]
    spans, basis, queue = {}, [], [sparse(v0)]
    for v in queue:
        w = {weights[c] for c in v}
        if len(w) > 1:
            raise ValueError("cyclic_submodule needs weight vectors")
        if w and spans.setdefault(w.pop(), IncrementalSpan()).add(v):
            basis.append(dense(v, r.dim))
            queue.extend(combination(((y, [cols[b]]) for b, y in v.items()),
                                     1)[0] for cols in lowering)
    return basis


def _top_component(r, target):
    """Extract the irreducible submodule with highest weight target
    (a flat Cartan eigenvalue tuple) from r."""
    flat = next((v for v, label in highest_weight_vectors(r)
                 if sum(label, ()) == tuple(target)), None)
    if flat is None:
        raise UnconstructibleLabel("no highest weight vector of weight %r"
                                   % (target,))
    return _restrict(r, cyclic_submodule(r, flat))


@lru_cache(maxsize=None)
def realize_simple(t, coords):
    """An irreducible module of simple type t with highest weight coords.

    Supported: the zero weight, fundamental weights (wedge powers of the
    natural module, spin constructions for the B/D spin nodes), and
    arbitrary dominant weights through iterated highest-weight extraction
    from tensor products, all up to dimension MAX_LABEL_DIM.  Labels
    outside this set raise UnconstructibleLabel.
    """
    coords = as_coords(t, coords)
    dim = weyl_dim(t, coords)
    if dim > MAX_LABEL_DIM:
        raise UnconstructibleLabel(
            "L(%s) of %s has dimension %d, above the limit of %d for a "
            "realised label" % (",".join(map(str, coords)), t, dim,
                                MAX_LABEL_DIM))
    l = t.rank
    spec = SemisimpleSpec((t,))
    if all(c == 0 for c in coords):
        return trivial(spec, 1)
    nonzero = [i for i, c in enumerate(coords) if c]
    if len(nonzero) == 1 and coords[nonzero[0]] == 1:
        k = nonzero[0] + 1
        if k == 1:
            return natural(t)
        if t.family == "B" and k == l:
            return _spin_rep(t)
        if t.family == "D" and k >= l - 1:
            # even parity carries omega_l for even rank, omega_{l-1} for odd
            even_label = l if l % 2 == 0 else l - 1
            return _spin_rep(t, parity=0 if k == even_label else 1)
        base = wedge_power(natural(t), k)
        if t.family == "A":
            return base
        return _top_component(base, coords)
    if coords == tuple(2 if i == 0 else 0 for i in range(l)):
        return _top_component(sym2(natural(t)), coords)
    lower = tuple(c - 1 if i == nonzero[0] else c for i, c in enumerate(coords))
    part1 = realize_simple(t, lower)
    part2 = realize_simple(t, as_coords(t, tuple(1 if i == nonzero[0] else 0
                                                 for i in range(l))))
    return _top_component(tensor(part1, part2), coords)


def realize_label(spec, label):
    """Outer tensor of per-factor irreducibles for one label."""
    label = spec.coerce_label(label)
    reps = [realize_simple(t, coords) for t, coords in zip(spec.factors, label)]
    out = reps[0]
    for r in reps[1:]:
        out = outer_tensor(out, r)
    return out


def realize(spec, desc):
    """A module with decompose(result) == desc, or UnconstructibleLabel."""
    if not isinstance(desc, ModuleDescriptor):
        desc = ModuleDescriptor(desc)
    parts = []
    for label, mult in desc.items():
        rep = realize_label(spec, label)
        parts.extend([rep] * mult)
    if not parts:
        return trivial(spec, 0)
    return direct_sum(parts)
