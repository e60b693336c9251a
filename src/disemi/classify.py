"""Classification tables and exhaustive desk-scale cross-checks.

Contains the Vinberg tables of prehomogeneous modules for simple
algebras, the castling-reduced Sato-Kimura triples for irreducible
modules of semisimple algebras, bounded enumeration of module
descriptors, the type-1/type-2 searches with their quotient
constructions, and the direct-sum structure analysis for algebras
without type-A factors.
"""

import json
import os
from collections import Counter
from itertools import combinations
from operator import add

from .liealg import (Subspace, free_two_step, lower_central_series,
                     quotient_by_ideal, semidirect)
from .prehom import Symbolic, adjoint_radical_module, is_prehomogeneous
from .repbuilder import (ModuleDescriptor, Representation, SemisimpleSpec,
                         cyclic_submodule, decompose, direct_sum,
                         highest_weight_vectors, realize, realize_label,
                         wedge2)
from .rootdata import (SimpleType, dual_weight, fundamental, record, weyl_dim,
                       weyl_shifts, zero_weight)
from .linalg import matmul


# dim(s) - 1 for each desk-scale type: the dimension bound above which
# no nonzero module can be prehomogeneous
DESK_BOUNDS = {t: t.algebra_dim - 1 for t in (
    SimpleType("A", 2), SimpleType("A", 3), SimpleType("A", 4),
    SimpleType("C", 2), SimpleType("C", 3), SimpleType("B", 3),
    SimpleType("D", 4))}


def _lab(*blocks):
    return tuple(tuple(b) for b in blocks)


# ---------------------------------------------------------------------------
# Vinberg tables
# ---------------------------------------------------------------------------

@record(frozen=True)
class VinbergEntry:
    """One table row: a family/rank pattern with its module pattern."""

    name: str
    rank_condition: str
    module_pattern: str
    dim_formula: str

    def instantiate(self, t):
        """(descriptor, dim-from-formula) pairs for a concrete type."""
        l = t.rank
        out = []
        if self.name == "a_natural" and t.family == "A":
            for w in {fundamental(t, 1), fundamental(t, l)}:
                out.append((ModuleDescriptor([_lab(w)]), l + 1))
        elif self.name == "a_even_wedge" and t.family == "A" and l % 2 == 0 and l >= 4:
            half = l // 2
            for w in (fundamental(t, 2), fundamental(t, l - 1)):
                out.append((ModuleDescriptor([_lab(w)]), half * (2 * half + 1)))
        elif self.name == "c_natural" and t.family == "C":
            out.append((ModuleDescriptor([_lab(fundamental(t, 1))]), 2 * l))
        elif self.name == "d5_half_spin" and t.family == "D" and l == 5:
            for k in (4, 5):
                out.append((ModuleDescriptor([_lab(fundamental(t, k))]), 16))
        elif self.name == "a_multiple_natural" and t.family == "A" and l >= 2:
            for m in range(2, l + 1):
                for w in (fundamental(t, 1), fundamental(t, l)):
                    out.append((ModuleDescriptor([(_lab(w), m)]), m * (l + 1)))
        elif self.name == "a_even_mixed_pairs" and t.family == "A" and l % 2 == 0 and l >= 4:
            half = l // 2
            d = (half + 1) * (2 * half + 1)
            out.append((ModuleDescriptor(
                [_lab(fundamental(t, 1)), _lab(fundamental(t, l - 1))]), d))
            out.append((ModuleDescriptor(
                [_lab(fundamental(t, 2)), _lab(fundamental(t, l))]), d))
        elif self.name == "a_even_wedge_pairs" and t.family == "A" and l % 2 == 0 and l >= 4:
            half = l // 2
            d = 2 * half * (2 * half + 1)
            out.append((ModuleDescriptor([(_lab(fundamental(t, 2)), 2)]), d))
            out.append((ModuleDescriptor([(_lab(fundamental(t, l - 1)), 2)]), d))
        return out


VINBERG_ENTRIES = (
    VinbergEntry("a_natural", "A_l, l >= 1", "L(w1), L(wl)", "l+1"),
    VinbergEntry("a_even_wedge", "A_2k, k >= 2", "L(w2), L(w_{2k-1})", "k(2k+1)"),
    VinbergEntry("c_natural", "C_l, l >= 2", "L(w1)", "2l"),
    VinbergEntry("d5_half_spin", "D_5", "L(w4), L(w5)", "16"),
    VinbergEntry("a_multiple_natural", "A_l, l >= 2",
                 "mL(w1), mL(wl), 2 <= m <= l", "m(l+1)"),
    VinbergEntry("a_even_mixed_pairs", "A_2k, k >= 2",
                 "L(w1)+L(w_{2k-1}), L(w2)+L(w_{2k})", "(k+1)(2k+1)"),
    VinbergEntry("a_even_wedge_pairs", "A_2k, k >= 2",
                 "2L(w2), 2L(w_{2k-1})", "2k(2k+1)"),
)


def vinberg_table(t):
    """All nonzero prehomogeneous module descriptors for the simple type t.

    Empty for B_l (l >= 3), D_4 and D_l (l >= 6); B_2 and D_3 are
    rejected since the classification is stated per isomorphism class
    (use C_2 respectively A_3).
    """
    if t.family == "B" and t.rank == 2:
        raise ValueError("B2 is isomorphic to C2; query the table via C2")
    if t.family == "D" and t.rank == 3:
        raise ValueError("D3 is isomorphic to A3; query the table via A3")
    spec = _spec(t)
    dims = {}
    for entry in VINBERG_ENTRIES:
        for desc, dim in entry.instantiate(t):
            if desc.total_dim(spec) != dim:
                raise AssertionError("table dimension formula mismatch on %s"
                                     % (desc,))
            dims[desc] = dim
    return sorted(dims, key=lambda d: (dims[d], str(d)))


def _spec(t):
    """t as a SemisimpleSpec; a SimpleType is the one-factor spec."""
    return SemisimpleSpec((t,)) if isinstance(t, SimpleType) else t


# ---------------------------------------------------------------------------
# Sato-Kimura castling-reduced triples
# ---------------------------------------------------------------------------

@record(frozen=True)
class SKTriple:
    spec: SemisimpleSpec
    module: ModuleDescriptor
    dim: int
    conditions: str
    row: str

    def __str__(self):
        return "(%s, %s, %d)" % (self.spec, self.module, self.dim)


@record(frozen=True)
class SKRow:
    """One parametric row of the reduced table of irreducible
    prehomogeneous triples over semisimple algebras."""

    name: str
    algebra_pattern: str
    module_pattern: str
    dim_formula: str
    conditions: str
    notes: str = ""

    def instantiate(self, **params):
        if self.name == "mixed_tensor":
            s1, lam, m = params["s1"], tuple(params["lam"]), params["m"]
            if s1.family == "A":
                raise ValueError("the non-A factor of this row cannot be of type A")
            n = weyl_dim(s1, lam) - 1
            am = SimpleType("A", m)
            spec = SemisimpleSpec((s1, am))
            desc = ModuleDescriptor([_lab(lam, fundamental(am, 1))])
            return SKTriple(spec, desc, (n + 1) * (m + 1), self.conditions, self.name)
        if self.name == "two_naturals":
            n, m = params["n"], params["m"]
            an, am = SimpleType("A", n), SimpleType("A", m)
            spec = SemisimpleSpec((an, am))
            desc = ModuleDescriptor([_lab(fundamental(an, 1), fundamental(am, 1))])
            return SKTriple(spec, desc, (n + 1) * (m + 1), self.conditions, self.name)
        if self.name == "even_wedge":
            m = params["m"]
            a = SimpleType("A", 2 * m)
            spec = SemisimpleSpec((a,))
            desc = ModuleDescriptor([_lab(fundamental(a, 2))])
            return SKTriple(spec, desc, m * (2 * m + 1), self.conditions, self.name)
        if self.name == "sl2_times_wedge":
            m = params["m"]
            a1, a = SimpleType("A", 1), SimpleType("A", 2 * m)
            spec = SemisimpleSpec((a1, a))
            desc = ModuleDescriptor([_lab(fundamental(a1, 1), fundamental(a, 2))])
            return SKTriple(spec, desc, 2 * m * (2 * m + 1), self.conditions, self.name)
        if self.name == "symplectic_tensor":
            n, m = params["n"], params["m"]
            cn = SimpleType("C", n)
            if m == 0:
                spec = SemisimpleSpec((cn,))
                desc = ModuleDescriptor([_lab(fundamental(cn, 1))])
            else:
                a = SimpleType("A", 2 * m)
                spec = SemisimpleSpec((cn, a))
                desc = ModuleDescriptor(
                    [_lab(fundamental(cn, 1), fundamental(a, 1))])
            return SKTriple(spec, desc, 2 * n * (2 * m + 1), self.conditions, self.name)
        if self.name == "half_spin_d5":
            d5 = SimpleType("D", 5)
            spec = SemisimpleSpec((d5,))
            desc = ModuleDescriptor([_lab(fundamental(d5, 4))])
            return SKTriple(spec, desc, 16, self.conditions, self.name)
        raise ValueError("unknown row %r" % (self.name,))


SK_ROWS = (
    SKRow("mixed_tensor", "s1 + A_m", "L(lam) x L(w1)", "(n+1)(m+1)",
          "m > n > 2",
          "s1 is semisimple, not of type A, with dim L(lam) = n+1; the "
          "source footnote allows n >= 2, which conflicts with the stated "
          "n > 2 and is recorded verbatim rather than resolved"),
    SKRow("two_naturals", "A_n + A_m", "L(w1) x L(w1)", "(n+1)(m+1)",
          "m >= 2n+1 >= 1"),
    SKRow("even_wedge", "A_2m", "L(w2)", "m(2m+1)", "m >= 1"),
    SKRow("sl2_times_wedge", "A_1 + A_2m", "L(w1) x L(w2)", "2m(2m+1)",
          "m >= 1"),
    SKRow("symplectic_tensor", "C_n + A_2m", "L(w1) x L(w1)", "(2n)(2m+1)",
          "n >= m+1 >= 1",
          "the source table heads this column A_m while its dimension "
          "formulas match A_2m; the A_2m reading keeps the row self-"
          "consistent and is used here"),
    SKRow("half_spin_d5", "D_5", "L(w4)", "16", "-"),
)


def sk_reduced_table():
    return list(SK_ROWS)


def castling_transform(triple):
    """The castling move on a triple whose last factor is a natural
    A-factor: (s + A_{n-1}, sigma x L(w1), m n) with m = dim sigma > n
    maps to (s + A_{m-n-1}, sigma* x L(w1), m(m-n)), dropping a
    degenerate A_0 factor."""
    if len(triple.module.entries) != 1 or triple.module.entries[0][1] != 1:
        raise ValueError("castling applies to irreducible triples")
    label = triple.module.entries[0][0]
    factors = triple.spec.factors
    last = factors[-1]
    if len(factors) < 2 or last.family != "A" or label[-1] != fundamental(last, 1):
        raise ValueError("triple is not of castling shape "
                         "(needs a trailing natural A-factor)")
    n = last.rank + 1
    rest = factors[:-1]
    sigma = label[:-1]
    m = 1
    for t, coords in zip(rest, sigma):
        m *= weyl_dim(t, coords)
    if not m > n:
        raise ValueError("castling needs dim sigma = %d > n = %d" % (m, n))
    sigma_dual = tuple(dual_weight(t, coords) for t, coords in zip(rest, sigma))
    new_rank = m - n - 1
    if new_rank == 0:
        spec = SemisimpleSpec(rest)
        desc = ModuleDescriptor([sigma_dual])
    else:
        a = SimpleType("A", new_rank)
        spec = SemisimpleSpec(rest + (a,))
        desc = ModuleDescriptor([sigma_dual + (fundamental(a, 1),)])
    return SKTriple(spec, desc, m * (m - n), triple.conditions, triple.row)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _label_dims(t, bound):
    """{w: Weyl dimension} over the dominant weights w of t, 0 included,
    of dimension at most bound; the search prunes on monotonicity, as the
    dimension strictly increases in every fundamental coordinate."""
    found = {}
    start = zero_weight(t)
    stack = [start]
    seen = {start}
    while stack:
        w = stack.pop()
        d = weyl_dim(t, w)
        if d > bound:
            continue
        found[w] = d
        for i in range(t.rank):
            nxt = tuple(c + 1 if j == i else c for j, c in enumerate(w))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return found


def simple_labels_upto(t, bound, include_zero=False):
    """Dominant weights of t with Weyl dimension at most bound."""
    found = _label_dims(t, bound)
    return sorted((w for w in found if include_zero or any(w)),
                  key=lambda w: (found[w], w))


def candidate_labels(spec, bound):
    """Non-trivial irreducible labels over spec with dimension <= bound."""
    partial = [(1, ())]
    for t in spec.factors:
        dims = _label_dims(t, bound).items()
        partial = [(dim * d, label + (w,)) for dim, label in partial
                   for w, d in dims if dim * d <= bound]
    out = sorted((dim, label) for dim, label in partial
                 if any(any(block) for block in label))
    return [(label, dim) for dim, label in out]


def enumerate_modules(spec, dim_bound):
    """Every multiset of non-trivial irreducible labels with total
    dimension at most dim_bound, each exactly once, ordered by
    (total dimension, labels)."""
    spec = _spec(spec)
    labels = candidate_labels(spec, dim_bound)
    results = []
    stack = [(0, dim_bound, ())]
    while stack:
        idx, budget, current = stack.pop()
        if current:
            results.append((dim_bound - budget, ModuleDescriptor(current)))
        for k in range(idx, len(labels)):
            label, d = labels[k]
            if d <= budget:
                stack.append((k, budget - d, current + (label,)))
    # each multiset takes non-decreasing indices into distinct labels, so
    # it comes once
    results.sort(key=lambda r: (r[0], [str(lab) for lab in r[1].labels()]))
    for _, desc in results:
        yield desc


# ---------------------------------------------------------------------------
# Cross-check of the tables by exhaustive enumeration
# ---------------------------------------------------------------------------

@record
class Report:
    simple_type: SimpleType
    bound: int
    tested_count: int
    positives: list
    table: list
    missing: list
    extra: list

    @property
    def clean(self):
        return not self.missing and not self.extra

    def to_json_dict(self):
        return {
            "type": str(self.simple_type),
            "bound": self.bound,
            "tested_count": self.tested_count,
            "positives": [str(d) for d in self.positives],
            "table": [str(d) for d in self.table],
            "diff": {"missing": [str(d) for d in self.missing],
                     "extra": [str(d) for d in self.extra]},
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def _decide(args):
    """Verdict on one module over a simple type; module-level so that
    process pools can pick it up."""
    family, rank, items, mode = args
    spec = SemisimpleSpec((SimpleType(family, rank),))
    rep = realize(spec, ModuleDescriptor(list(items)))
    return bool(is_prehomogeneous(rep, mode=mode))


def _decide_all(t, modules, mode, jobs):
    """_decide on each module, given by its descriptor items, in
    min(jobs, CPU count, number of modules) worker processes when that
    is more than one."""
    args = [(t.family, t.rank, items, mode) for items in modules]
    workers = min(jobs, os.cpu_count() or 1, len(args))
    if workers <= 1:
        return [_decide(a) for a in args]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_decide, args))


def _bound(t, bound):
    """bound, or the desk-scale bound of t when it is None."""
    if bound is not None:
        return bound
    if t not in DESK_BOUNDS:
        raise ValueError("%s is not in the desk-scale bound table; pass "
                         "an explicit bound" % (t,))
    return DESK_BOUNDS[t]


def cross_check_vinberg(t, bound=None, jobs=1):
    """Enumerate all modules below the dimension bound, decide each one
    symbolically, and diff the positives against the table."""
    bound = _bound(t, bound)
    # the table refuses B2 and D3 before any module is decided
    table = vinberg_table(t)
    spec = SemisimpleSpec((t,))
    modules = list(enumerate_modules(spec, bound))
    verdicts = _decide_all(t, [d.entries for d in modules], Symbolic(), jobs)
    positives = [d for d, v in zip(modules, verdicts) if v]
    table_set = set(d.entries for d in table)
    pos_set = set(d.entries for d in positives)
    missing = [d for d in table if d.entries not in pos_set
               and d.total_dim(spec) <= bound]
    extra = [d for d in positives if d.entries not in table_set]
    return Report(simple_type=t, bound=bound, tested_count=len(modules),
                  positives=positives, table=table, missing=missing,
                  extra=extra)


# ---------------------------------------------------------------------------
# Type 1 / type 2 modules
# ---------------------------------------------------------------------------

@record(frozen=True)
class TypedModuleCandidate:
    """A module shaped A + B with B inside wedge^2 A (type 1), or
    A + B + C with C inside A x B (type 2); all parts irreducible and
    non-trivial."""

    kind: str            # "type1" | "type2"
    labels: tuple        # (A, B) or (A, B, C)

    def descriptor(self):
        return ModuleDescriptor(list(self.labels))

    def __str__(self):
        return "%s(%s)" % (self.kind,
                           ", ".join(str(ModuleDescriptor([lab]))
                                     for lab in self.labels))


def _character(spec, label):
    """{weight: multiplicity} of the irreducible with this label, read
    off the Cartan eigenvalues of its realised basis."""
    return Counter(realize_label(spec, label).weights())


def _tensor_character(chi, psi):
    """Character of a tensor product: the convolution of the factors'."""
    out = {}
    for mu, m in chi.items():
        for nu, n in psi.items():
            key = tuple(map(add, mu, nu))
            out[key] = out.get(key, 0) + m * n
    return out


def _wedge2_character(chi):
    """Character of the exterior square, (chi^2 - psi^2 chi) / 2: the
    ordered pairs of basis weights less the diagonal, each unordered
    pair i < j counted twice."""
    out = _tensor_character(chi, chi)
    for mu, m in chi.items():
        out[tuple(2 * x for x in mu)] -= m
    return {mu: m // 2 for mu, m in out.items() if m}


def _multiplicity(t, chi, nu):
    """n_nu(V), the multiplicity of L(nu) in a module V of the simple
    type t with character chi (see type12_candidates)."""
    if nu not in chi:
        return 0
    return sum(e * chi.get(tuple(map(add, nu, s)), 0)
               for e, s in weyl_shifts(t))


def type12_candidates(t, dim_bound=None):
    """All embedding-valid type-1 pairs and type-2 triples under the
    dimension bound, in deterministic order.

    Whether B embeds in wedge^2 A, or C in A x B, is read off characters
    and no module product is built.  A character is a {weight:
    multiplicity} dict in fundamental coordinates: an irreducible's is
    read off its realised basis, wedge^2 A's sums the pairs i < j of A's
    basis weights, and A x B's is the convolution of A's and B's.  The
    multiplicity of L(nu) in V is the Weyl alternation

        n_nu(V) = sum over w in W of sign(w) m_V(nu + rho - w rho).

    Soundness: write ch V = sum_mu n_mu ch L(mu), over dominant mu, and
    multiply both sides by the Weyl denominator sum_w sign(w) e^{w rho}.
    By the Weyl character formula the right side becomes
    sum_mu n_mu sum_w sign(w) e^{w(mu + rho)}.  Compare the coefficients
    at nu + rho.  On the left it is the sum above.  On the right,
    w(mu + rho) = nu + rho needs w = 1 and mu = nu: mu + rho and
    nu + rho are strictly dominant, a W-orbit meets the dominant chamber
    in one point, and a strictly dominant point has trivial stabiliser.
    So the coefficient is n_nu.  All of it is exact integer arithmetic,
    with no sampling.  And n_nu <= m_V(nu), since nu is a weight of
    L(nu), so a nu that is not a weight of V has n_nu = 0 at once.
    """
    bound = _bound(t, dim_bound)
    spec = SemisimpleSpec((t,))
    labels = candidate_labels(spec, bound)
    if not labels:
        return []
    min_dim = min(dim for _, dim in labels)
    # every A below, and every B, leaves room for a label of min_dim
    chars = {label: _character(spec, label)
             for label, dim in labels if dim + min_dim <= bound}
    out = []
    for label_a, dim_a in labels:
        partner = bound - dim_a
        if partner < min_dim:
            continue
        chi = _wedge2_character(chars[label_a])
        for label_b, dim_b in labels:
            if dim_b <= partner and _multiplicity(t, chi, label_b[0]):
                out.append(TypedModuleCandidate("type1", (label_a, label_b)))
    for ia, (label_a, dim_a) in enumerate(labels):
        for label_b, dim_b in labels[ia:]:
            rest = bound - dim_a - dim_b
            if rest < min_dim:
                continue
            chi = _tensor_character(chars[label_a], chars[label_b])
            for label_c, dim_c in labels:
                if dim_c <= rest and _multiplicity(t, chi, label_c[0]):
                    out.append(TypedModuleCandidate(
                        "type2", (label_a, label_b, label_c)))
    return out


def search_type12(t, dim_bound=None, mode=None, jobs=1):
    """Candidates whose realized direct sum is prehomogeneous.

    Simple algebras admit none, so the expected result is empty; a
    non-empty result would contradict the classification tables.
    """
    cands = type12_candidates(t, dim_bound)
    verdicts = _decide_all(t, [c.labels for c in cands],
                           mode if mode is not None else Symbolic(), jobs)
    return [c for c, v in zip(cands, verdicts) if v]


# ---------------------------------------------------------------------------
# Quotient constructions with 2-step nilpotent radical
# ---------------------------------------------------------------------------

def _construct_two_step(t, labels):
    """s |x (A + B) for labels (A, B), type 1, or s |x (A + B + C) for
    labels (A, B, C), type 2.

    The generators (A, or A + B) span the free 2-step algebra f =
    gens + wedge^2 gens, on which s acts by tau.  One copy of the last
    label is kept in the derived part: the first highest weight vector of
    that label supported in wedge^2 A (type 1) or in the A x B pairs
    (type 2).  These are the vectors a search restricted to that block
    would find, since the raising operators act block-diagonally on the
    coordinate blocks of wedge^2 (A + B) and rref is canonical.  u is the
    sum of the cyclic modules of every other highest weight vector, an
    s-stable complement of the kept copy, and g = s |x (f / u).

    Soundness: quotient_by_ideal checks that u is an ideal of f, and
    semidirect that s acts on f / u by a homomorphism and by derivations,
    so g is a Lie algebra; u, a sum of submodules, is s-stable, which
    makes g equal to (s |x f) / u.  The
    dimension, the nilpotency class and the decomposition of the radical
    are checked on the result.
    """
    spec = _spec(t)
    labels = tuple(spec.coerce_label(label) for label in labels)
    gens = [realize_label(spec, label) for label in labels[:-1]]
    gen_rep = gens[0] if len(gens) == 1 else direct_sum(gens)
    wedge_rep = wedge2(gen_rep)
    hws = highest_weight_vectors(wedge_rep)
    allowed = [len(gens) == 1 or i < gens[0].dim <= j
               for i, j in combinations(range(gen_rep.dim), 2)]
    keep = next((v for v, label in hws if label == labels[-1] and all(
        allowed[k] for k, x in enumerate(v) if x)), None)
    if keep is None:
        raise ValueError("label %s does not embed in the %s"
                         % (ModuleDescriptor([labels[-1]]),
                            "exterior square" if len(gens) == 1
                            else "tensor product"))
    f, tau = free_two_step(gen_rep, wedge_rep)
    u = Subspace(f, [[0] * gen_rep.dim + w for v, _ in hws if v is not keep
                     for w in cyclic_submodule(wedge_rep, v)])
    n, proj = quotient_by_ideal(f, u)
    pivots = set(u.pivots)
    index = {c: a for a, c in enumerate(c for c in range(f.dim)
                                         if c not in pivots)}
    # column a of x on n is the projection of tau(x) on basis vector a
    action = [matmul(proj.matrix, [{index[c]: y for c, y in row.items()
                                    if c in index} for row in m])
              for m in tau.action]
    s = spec.algebra()
    g = semidirect(s, Representation(spec, s, action), n)
    expected = spec.dim + gen_rep.dim + spec.label_dim(labels[-1])
    if g.dim != expected:
        raise AssertionError("constructed algebra has dim %d, expected %d"
                             % (g.dim, expected))
    rad = Subspace(g, [g.basis_vector(i) for i in range(s.dim, g.dim)])
    series = lower_central_series(g, rad)
    if len(series) != 3 or series[-1].dim != 0:
        raise AssertionError("radical is not nilpotent of class exactly 2")
    want = ModuleDescriptor(labels)
    got = decompose(adjoint_radical_module(g, g.levi_basis, rad)[0])
    if got != want:
        raise AssertionError("radical decomposes as %s, expected %s"
                             % (got, want))
    return g


def construct_type1(t, label_a, label_b):
    """The algebra s |x (A + B) with bracket [A, A] mapped onto B.

    Needs B inside wedge^2 A; the radical has nilpotency class exactly
    two with derived part isomorphic to B.
    """
    return _construct_two_step(t, (label_a, label_b))


def construct_type2(t, label_a, label_b, label_c):
    """The algebra s |x (A + B + C) with [A, B] mapped onto C.

    Needs C inside A x B; A and B bracket to zero among themselves and
    the derived radical is isomorphic to C.
    """
    return _construct_two_step(t, (label_a, label_b, label_c))


# ---------------------------------------------------------------------------
# Direct-sum structure of A-free semidirect products
# ---------------------------------------------------------------------------

class NotAFreeError(ValueError):
    pass


def a_free_structure(spec, rep, mode=None):
    """Split s |x V into per-factor blocks (s_i, V_i).

    Requires every simple factor to avoid type A; pairs each radical
    summand with the unique factor acting non-trivially on it, verifies
    that each V_i is prehomogeneous for its factor, and checks that the
    blocks bracket independently.  Returns [(SimpleType, descriptor)]
    over all factors, with empty descriptors for factors acting only on
    zero.
    """
    spec = _spec(spec)
    for t in spec.factors:
        if t.family == "A":
            raise NotAFreeError("factor %s is of type A" % (t,))
    desc = decompose(rep)
    assignment = {}
    for label, mult in desc.items():
        acting = [i for i, block in enumerate(label) if any(block)]
        if len(acting) != 1:
            raise ValueError(
                "summand %s is not acted on by a unique factor (factors %r); "
                "the direct-sum structure does not apply"
                % (ModuleDescriptor([label]), acting))
        i = acting[0]
        assignment.setdefault(i, []).append(((label[i],), mult))
    out = []
    for i, t in enumerate(spec.factors):
        sub = ModuleDescriptor(assignment.get(i, []))
        if sub:
            sub_spec = SemisimpleSpec((t,))
            cert = is_prehomogeneous(realize(sub_spec, sub), mode=mode)
            if not cert:
                raise ValueError("factor block (%s, %s) is not prehomogeneous"
                                 % (t, sub))
        out.append((t, sub))
    _check_block_brackets(spec, rep)
    return out


def _check_block_brackets(spec, rep):
    """Each module coordinate may be touched by one factor only; factor
    blocks then bracket to zero against the other factors' coordinates."""
    alg = spec.algebra()
    supports = []
    pos = 0
    for t in spec.factors:
        dim_t = t.algebra_dim
        touched = set()
        for k in range(pos, pos + dim_t):
            for a, row in enumerate(rep.action[k]):
                if row:
                    touched.add(a)
                    touched.update(row)
        supports.append(touched)
        pos += dim_t
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            overlap = supports[i] & supports[j]
            if overlap:
                raise ValueError("factors %d and %d both act on module "
                                 "coordinates %r" % (i, j, sorted(overlap)))
