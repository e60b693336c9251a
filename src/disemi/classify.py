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
from dataclasses import dataclass

from .liealg import (Subspace, free_two_step, lower_central_series,
                     quotient_by_ideal, semidirect)
from .prehom import Symbolic, is_prehomogeneous
from .repbuilder import (ModuleDescriptor, Representation, SemisimpleSpec,
                         cyclic_submodule, decompose, direct_sum,
                         highest_weight_vectors, realize, realize_label,
                         tensor, wedge2)
from .rootdata import SimpleType, dual_weight, fundamental, weyl_dim, zero_weight
from .linalg import IncrementalSpan


# dim(s) - 1 for each desk-scale type: the dimension bound above which
# no nonzero module can be prehomogeneous
DESK_BOUNDS = {
    SimpleType("A", 2): 7,
    SimpleType("A", 3): 14,
    SimpleType("A", 4): 23,
    SimpleType("C", 2): 9,
    SimpleType("C", 3): 20,
    SimpleType("B", 3): 20,
    SimpleType("D", 4): 27,
}


def _lab(*blocks):
    return tuple(tuple(b) for b in blocks)


# ---------------------------------------------------------------------------
# Vinberg tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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
    seen = set()
    out = []
    for entry in VINBERG_ENTRIES:
        for desc, dim in entry.instantiate(t):
            if desc.total_dim(_single_spec(t)) != dim:
                raise AssertionError("table dimension formula mismatch on %s"
                                     % (desc,))
            if desc not in seen:
                seen.add(desc)
                out.append(desc)
    out.sort(key=lambda d: (d.total_dim(_single_spec(t)), str(d)))
    return out


def _single_spec(t):
    return SemisimpleSpec((t,))


# ---------------------------------------------------------------------------
# Sato-Kimura castling-reduced triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SKTriple:
    spec: SemisimpleSpec
    module: ModuleDescriptor
    dim: int
    conditions: str
    row: str

    def __str__(self):
        return "(%s, %s, %d)" % (self.spec, self.module, self.dim)


@dataclass(frozen=True)
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

def simple_labels_upto(t, bound, include_zero=False):
    """Dominant weights of t with Weyl dimension at most bound.

    The search tree prunes on monotonicity: the dimension strictly
    increases in every fundamental coordinate.
    """
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
    if not include_zero:
        found.pop(start, None)
    return sorted(found, key=lambda w: (found[w], w))


def candidate_labels(spec, bound):
    """Non-trivial irreducible labels over spec with dimension <= bound."""
    per_factor = [simple_labels_upto(t, bound, include_zero=True)
                  for t in spec.factors]
    out = []

    def rec(pos, prefix, dim):
        if pos == len(spec.factors):
            label = tuple(prefix)
            if any(any(c for c in block) for block in label):
                out.append((dim, label))
            return
        for w in per_factor[pos]:
            d = dim * weyl_dim(spec.factors[pos], w)
            if d <= bound:
                rec(pos + 1, prefix + [w], d)

    rec(0, [], 1)
    out.sort()
    return [(label, dim) for dim, label in out]


def enumerate_modules(spec, dim_bound):
    """Every multiset of non-trivial irreducible labels with total
    dimension at most dim_bound, each exactly once, ordered by
    (total dimension, labels)."""
    if isinstance(spec, SimpleType):
        spec = SemisimpleSpec((spec,))
    labels = candidate_labels(spec, dim_bound)
    results = []

    def rec(idx, budget, current):
        if current:
            results.append(list(current))
        for k in range(idx, len(labels)):
            label, d = labels[k]
            if d > budget:
                continue
            current.append(label)
            rec(k, budget - d, current)
            current.pop()

    rec(0, dim_bound, [])
    descs = [ModuleDescriptor(labels) for labels in results]
    uniq = {}
    for d in descs:
        uniq.setdefault(d.entries, d)
    out = list(uniq.values())
    out.sort(key=lambda d: (d.total_dim(spec), [str(lab) for lab in d.labels()]))
    for d in out:
        yield d


# ---------------------------------------------------------------------------
# Cross-check of the tables by exhaustive enumeration
# ---------------------------------------------------------------------------

@dataclass
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


def cross_check_vinberg(t, bound=None, jobs=1):
    """Enumerate all modules below the dimension bound, decide each one
    symbolically, and diff the positives against the table."""
    if bound is None:
        if t not in DESK_BOUNDS:
            raise ValueError("%s is not in the desk-scale bound table; pass "
                             "an explicit bound" % (t,))
        bound = DESK_BOUNDS[t]
    spec = SemisimpleSpec((t,))
    modules = list(enumerate_modules(spec, bound))
    verdicts = _decide_all(t, [d.entries for d in modules], Symbolic(), jobs)
    positives = [d for d, v in zip(modules, verdicts) if v]
    table = vinberg_table(t)
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

@dataclass(frozen=True)
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


def type12_candidates(t, dim_bound=None):
    """All embedding-valid type-1 pairs and type-2 triples under the
    dimension bound, in deterministic order."""
    if dim_bound is None:
        bound = DESK_BOUNDS[t]
    else:
        bound = dim_bound
    spec = SemisimpleSpec((t,))
    labels = candidate_labels(spec, bound)
    if not labels:
        return []
    min_dim = min(dim for _, dim in labels)
    out = []
    wedge_cache = {}
    for label_a, dim_a in labels:
        partner = bound - dim_a
        if partner < min_dim:
            continue
        if label_a not in wedge_cache:
            wedge_cache[label_a] = decompose(wedge2(realize_label(spec, label_a)))
        wdesc = wedge_cache[label_a]
        for label_b, dim_b in labels:
            if dim_b <= partner and wdesc.multiplicity(label_b) >= 1:
                out.append(TypedModuleCandidate("type1", (label_a, label_b)))
    tensor_cache = {}
    for ia, (label_a, dim_a) in enumerate(labels):
        for label_b, dim_b in labels[ia:]:
            rest = bound - dim_a - dim_b
            if rest < min_dim:
                continue
            key = (label_a, label_b)
            if key not in tensor_cache:
                tensor_cache[key] = decompose(
                    tensor(realize_label(spec, label_a),
                           realize_label(spec, label_b)))
            tdesc = tensor_cache[key]
            for label_c, dim_c in labels:
                if dim_c <= rest and tdesc.multiplicity(label_c) >= 1:
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

def _complement_ideal_vectors(rep, keep_vector, keep_label):
    """Vectors spanning a module complement of the cyclic module of
    keep_vector inside rep; keep_vector must be a highest weight vector
    of weight keep_label."""
    hws = highest_weight_vectors(rep)
    span = IncrementalSpan(rep.dim)
    span.add(keep_vector)
    generators = []
    for v, label in hws:
        if label == keep_label:
            if span.add(v):
                generators.append(v)
        else:
            generators.append(v)
    vectors = []
    vspan = IncrementalSpan(rep.dim)
    for v in generators:
        for w in cyclic_submodule(rep, v):
            if vspan.add(w):
                vectors.append(w)
    return vectors


def _build_two_step(spec, gen_rep, wedge_rep, keep_vector, labels,
                    expected_dim):
    """s |x (free 2-step on gen_rep) modulo the complement of one kept
    copy inside the derived part; wedge_rep is wedge2(gen_rep), and the
    kept copy has the last of the radical's labels."""
    s = spec.algebra()
    f_alg, tau = free_two_step(gen_rep, wedge_rep)
    comp = _complement_ideal_vectors(wedge_rep, keep_vector, labels[-1])
    g_full = semidirect(s, tau, f_alg)
    off = s.dim + gen_rep.dim
    ideal_rows = []
    for v in comp:
        row = [0] * g_full.dim
        for i, x in enumerate(v):
            row[off + i] = x
        ideal_rows.append(row)
    u = Subspace(g_full, ideal_rows)
    g, _proj = quotient_by_ideal(g_full, u)
    if g.dim != expected_dim:
        raise AssertionError("constructed algebra has dim %d, expected %d"
                             % (g.dim, expected_dim))
    rad = Subspace(g, [g.basis_vector(i) for i in range(s.dim, g.dim)])
    series = lower_central_series(g, rad)
    if len(series) != 3 or series[-1].dim != 0:
        raise AssertionError("radical is not nilpotent of class exactly 2")
    want = ModuleDescriptor(labels)
    got = decompose(radical_module(g, spec))
    if got != want:
        raise AssertionError("radical decomposes as %s, expected %s"
                             % (got, want))
    return g


def radical_module(g, spec):
    """The radical of a constructed algebra as a weight-basis module.

    Assumes the Levi block occupies the leading coordinates, which all
    constructors here guarantee.
    """
    ds = spec.dim
    if g.levi_basis is None or g.levi_basis.dim != ds:
        raise ValueError("algebra does not carry the expected Levi metadata")
    nd = g.dim - ds
    action = []
    for i in range(ds):
        m = [{} for _ in range(nd)]
        for b in range(nd):
            for k, c in g.structure(i, ds + b).items():
                if k < ds:
                    raise AssertionError("radical is not an ideal")
                m[k - ds][b] = c
        action.append(m)
    return Representation(spec, spec.algebra(), action, True)


def construct_type1(t, label_a, label_b):
    """The algebra s |x (A + B) with bracket [A, A] mapped onto B.

    Needs B inside wedge^2 A; the radical has nilpotency class exactly
    two with derived part isomorphic to B.
    """
    spec = t if isinstance(t, SemisimpleSpec) else SemisimpleSpec((t,))
    label_a = spec.coerce_label(label_a)
    label_b = spec.coerce_label(label_b)
    rep_a = realize_label(spec, label_a)
    wedge_rep = wedge2(rep_a)
    hws = [v for v, lab in highest_weight_vectors(wedge_rep) if lab == label_b]
    if not hws:
        raise ValueError("label %s does not embed in the exterior square"
                         % (ModuleDescriptor([label_b]),))
    expected = spec.dim + rep_a.dim + spec.label_dim(label_b)
    return _build_two_step(spec, rep_a, wedge_rep, hws[0], (label_a, label_b),
                           expected)


def construct_type2(t, label_a, label_b, label_c):
    """The algebra s |x (A + B + C) with [A, B] mapped onto C.

    Needs C inside A x B; A and B bracket to zero among themselves and
    the derived radical is isomorphic to C.
    """
    spec = t if isinstance(t, SemisimpleSpec) else SemisimpleSpec((t,))
    label_a = spec.coerce_label(label_a)
    label_b = spec.coerce_label(label_b)
    label_c = spec.coerce_label(label_c)
    rep_a = realize_label(spec, label_a)
    rep_b = realize_label(spec, label_b)
    gen_rep = direct_sum([rep_a, rep_b])
    wedge_rep = wedge2(gen_rep)
    # coordinates of the A x B block inside the exterior square
    from itertools import combinations
    pairs = list(combinations(range(gen_rep.dim), 2))
    mask = [idx for idx, (i, j) in enumerate(pairs)
            if i < rep_a.dim <= j]
    hws = [v for v, lab in highest_weight_vectors(wedge_rep, coord_mask=mask)
           if lab == label_c]
    if not hws:
        raise ValueError("label %s does not embed in the tensor product"
                         % (ModuleDescriptor([label_c]),))
    expected = (spec.dim + rep_a.dim + rep_b.dim + spec.label_dim(label_c))
    return _build_two_step(spec, gen_rep, wedge_rep, hws[0],
                           (label_a, label_b, label_c), expected)


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
    if isinstance(spec, SimpleType):
        spec = SemisimpleSpec((spec,))
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
