"""Deciding prehomogeneity and certifying disemisimple decompositions.

A module V over a semisimple algebra s is prehomogeneous when some
vector v has s.v = V, i.e. the evaluation matrix with columns rho(b_j) v
reaches full row rank.  Yes answers carry an exact witness; No answers
are certified either by dimension arguments or by a symbolic rank
computation over the rational function field, which bounds the rank at
every specialisation.
"""

import json
import random
from fractions import Fraction
from itertools import chain

from .linalg import columns, dense, rank, rank_mod_p, sparse
from .liealg import (LinearMap, Subspace, apply_map_subspace, exp_ad,
                     is_ideal, is_semisimple, lower_central_series,
                     solvable_radical, subalgebra, sum_spans)
from .repbuilder import Representation
from .rootdata import record
from . import syzygy

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 8
COORD_BOUND = 10

# refusal / non-prehomogeneity reasons
DIMENSION_BOUND = "dimension_bound"
ETALE_EXCLUSION = "etale_exclusion"
TRIVIAL_SUMMAND = "trivial_summand"
SYMBOLIC_RANK_DEFICIT = "symbolic_rank_deficit"
RADICAL_NOT_NILPOTENT = "radical_not_nilpotent"
RADICAL_NOT_PREHOMOGENEOUS = "radical_not_prehomogeneous"


@record(frozen=True)
class Randomized:
    """Witness search over small integer boxes, escalating to Symbolic."""

    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS


@record(frozen=True)
class Symbolic:
    """Exact generic-rank computation; the source of truth for No."""


@record
class EvaluationMatrix:
    """dim(V) x dim(s) matrix whose column j is rho(b_j) applied to v."""

    matrix: list
    vector: list

    @property
    def shape(self):
        return (len(self.matrix), len(self.matrix[0]) if self.matrix else 0)

    def rank(self):
        return rank(self.matrix)


def evaluation_matrix(r, v):
    if len(v) != r.dim:
        raise ValueError("vector length %d != module dimension %d"
                         % (len(v), r.dim))
    return EvaluationMatrix(matrix=syzygy.evaluation_rows(r, v),
                            vector=list(v))


@record
class PrehomCertificate:
    verdict: str                  # "prehomogeneous" | "not_prehomogeneous"
    reason: str = None            # set for No verdicts
    witness: list = None          # exact witness vector for Yes verdicts
    rank: int = None              # rank of the evaluation matrix at witness
    generic_rank: int = None      # set by symbolic rank deficits
    mode: str = None              # "fast_path" | "randomized" | "symbolic"
    seed: int = None
    trials_used: int = None

    def __bool__(self):
        return self.verdict == "prehomogeneous"

    def to_json_dict(self):
        out = {"verdict": self.verdict}
        if self.reason is not None:
            out["reason"] = self.reason
        if self.witness is not None:
            out["witness"] = [str(Fraction(x)) for x in self.witness]
        if self.rank is not None:
            out["rank"] = self.rank
        if self.generic_rank is not None:
            out["generic_rank"] = self.generic_rank
        if self.mode is not None:
            out["mode"] = self.mode
        if self.seed is not None:
            out["seed"] = self.seed
        if self.trials_used is not None:
            out["trials_used"] = self.trials_used
        return out

    def to_json(self):
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def has_trivial_summand(r):
    """True iff the joint kernel of all action matrices is nonzero.

    For a semisimple action this detects exactly the trivial isotypic
    part and needs no weight basis.
    """
    # exact rank: a rank mod PRIME could fall short and fake a summand
    stacked = [row for m in r.action for row in m if row]
    return rank(stacked, stop_at=r.dim) < r.dim


def _validated_yes(r, v, mode, seed=None, trials_used=None):
    """Build a Yes certificate, re-validating the witness independently."""
    ev = evaluation_matrix(r, v)
    rk = ev.rank()
    if rk != r.dim:
        raise AssertionError("witness failed independent rank validation")
    return PrehomCertificate(verdict="prehomogeneous", witness=list(v),
                             rank=rk, mode=mode, seed=seed,
                             trials_used=trials_used)


def _witness_rank(r, v):
    """Rank mod PRIME of the evaluation matrix at v, a lower bound for
    its rank: a point reaching dim V is a witness, which _validated_yes
    still re-checks exactly."""
    return rank_mod_p(syzygy.evaluation_rows(r, v), stop_at=r.dim)


def dimension_verdict(dim_v, dim_s):
    """The verdict the dimensions alone give, or None: the zero module
    is prehomogeneous; dim V > dim s leaves no room for an open orbit;
    dim V = dim s would need an etale module, which semisimple algebras
    do not admit.  Needs no realised module, so callers can ask first."""
    if dim_v == 0:
        return PrehomCertificate(verdict="prehomogeneous", witness=[],
                                 rank=0, mode="fast_path")
    if dim_v > dim_s:
        return PrehomCertificate(verdict="not_prehomogeneous",
                                 reason=DIMENSION_BOUND, mode="fast_path")
    if dim_v == dim_s:
        return PrehomCertificate(verdict="not_prehomogeneous",
                                 reason=ETALE_EXCLUSION, mode="fast_path")
    return None


def _checked_mode(mode):
    """mode, Randomized() for None; a bad mode raises before a fast path."""
    if not isinstance(mode, (Randomized, Symbolic, type(None))):
        raise ValueError("unknown mode %r" % (mode,))
    return Randomized() if mode is None else mode


def is_prehomogeneous(r, mode=None):
    """Total decision procedure returning a PrehomCertificate.

    Fast paths: the zero module is prehomogeneous; dim V > dim s is a
    dimension obstruction; dim V = dim s would require an etale module,
    which semisimple algebras do not admit; a trivial summand forces
    every evaluation image into a proper submodule.

    Then Randomized tries small integer boxes for a witness, and
    Symbolic is the same flow with no boxes.  The certified generic rank
    is taken once: after the first box that falls short, or at once when
    there are none.  Below dim V it is a No, since it bounds the rank at
    every specialisation.  Otherwise some point has full rank: the
    remaining boxes run as drawn, so a randomized Yes keeps its witness
    and trials_used, and then the first full-rank point among the sample
    points, then a seeded stream of small integer points, is the
    witness.  Every witness is re-validated exactly.
    """
    mode = _checked_mode(mode)
    d = r.dim
    cert = dimension_verdict(d, r.algebra.dim)
    if cert is not None:
        return cert
    if has_trivial_summand(r):
        return PrehomCertificate(verdict="not_prehomogeneous",
                                 reason=TRIVIAL_SUMMAND, mode="fast_path")
    trials = mode.trials if isinstance(mode, Randomized) else 0
    boxes = random.Random(mode.seed) if trials else None
    grank = None
    # the last pass draws no box: with none, it only takes the rank
    for trial in range(trials + 1):
        if trial < trials:
            v = [boxes.randint(-COORD_BOUND, COORD_BOUND) for _ in range(d)]
            if _witness_rank(r, v) == d:
                return _validated_yes(r, v, mode="randomized",
                                      seed=mode.seed, trials_used=trial + 1)
        if grank is None:
            grank = syzygy.generic_rank_certified(r)
            if grank < d:
                return PrehomCertificate(verdict="not_prehomogeneous",
                                         reason=SYMBOLIC_RANK_DEFICIT,
                                         generic_rank=grank, mode="symbolic")
    rnd = random.Random(syzygy.SAMPLE_SEED)
    stream = ([rnd.randint(-99, 99) for _ in range(d)] for _ in range(1000))
    for v in chain(syzygy.sample_points(d), stream):
        if _witness_rank(r, v) == d:
            return _validated_yes(r, v, mode="symbolic")
    raise AssertionError("full generic rank but no witness found")


def is_etale(r, mode=None):
    """Prehomogeneous with dim V = dim s; always False over semisimple
    algebras, but computed honestly."""
    return r.dim == r.algebra.dim and bool(is_prehomogeneous(r, mode=mode))


# ---------------------------------------------------------------------------
# Disemisimple certification
# ---------------------------------------------------------------------------

@record
class Refusal:
    reason: str
    inner: PrehomCertificate = None

    def __bool__(self):
        return False

    def to_json_dict(self):
        out = {"refused": True, "reason": self.reason}
        if self.inner is not None:
            out["radical_certificate"] = self.inner.to_json_dict()
        return out


@record
class DecompositionCertificate:
    """Witness data for a sum of two semisimple subalgebras.

    s2 = phi(s1) for phi = exp(ad z), and s1 + s2 spans the algebra.
    """

    levi_basis: Subspace
    z: list
    phi: LinearMap
    s2_basis: Subspace
    intersection_dim: int
    prehom: PrehomCertificate = None

    def __bool__(self):
        return True

    def to_json_dict(self):
        def vec(v):
            return [str(Fraction(x)) for x in v]
        out = {
            "refused": False,
            "levi_basis": [vec(r) for r in self.levi_basis.basis],
            "z": vec(self.z),
            "phi": [vec(dense(r, self.phi.source_dim))
                    for r in self.phi.matrix],
            "s2_basis": [vec(r) for r in self.s2_basis.basis],
            "intersection_dim": self.intersection_dim,
        }
        if self.prehom is not None:
            out["radical_certificate"] = self.prehom.to_json_dict()
        return out


def _recorded_spec(g, levi):
    """g.levi_spec if levi is g.levi_basis on the leading unit vectors
    and g's table there is spec.algebra().table (so spec.algebra() is
    the Levi's own structure constants), else None."""
    spec = g.levi_spec
    if (spec is None or levi is not g.levi_basis
            or levi.basis != [g.basis_vector(i) for i in range(spec.dim)]):
        return None
    block = {key: row for key, row in g.table.items() if key[1] < spec.dim}
    return spec if block == spec.algebra().table else None


def adjoint_radical_module(g, levi, radical=None, lev_alg=None):
    """The adjoint action of a Levi subalgebra on the solvable radical
    (solvable_radical(g) unless given), as a Representation: over
    spec.algebra() for a _recorded_spec, read off g.structure(i, ds + b)
    when the radical's rows are also the trailing unit vectors; else
    solved for over those rows (over lev_alg, subalgebra(g, levi) unless
    given, without a spec).  Matrices and structure constants, hence
    verdicts, are the same either way; a weight basis only lets syzygy
    find the kernel side as invariant gradients, each verified before it
    is ranked.  Raises ValueError when a bracket leaves the radical, or
    for a zero Levi and a nonzero radical (no action matrix would give
    the dimension)."""
    rad = radical if radical is not None else solvable_radical(g)
    if not levi.dim and rad.dim:
        raise ValueError("a zero Levi cannot act on a nonzero radical")
    spec, ds = _recorded_spec(g, levi), levi.dim
    unstable = "radical is not stable under the Levi action"
    if spec is not None and rad.basis == [g.basis_vector(i)
                                          for i in range(ds, g.dim)]:
        action = [[{} for _ in range(rad.dim)] for _ in range(ds)]
        for i, m in enumerate(action):
            for b in range(rad.dim):
                for k, c in g.structure(i, ds + b).items():
                    if k < ds:
                        raise ValueError(unstable)
                    m[k - ds][b] = c
    else:
        rows = [sparse(r) for r in rad.basis]
        action = []
        for u in map(sparse, levi.basis):
            cols = [rad.span.solve(g.sparse_bracket(u, r)) for r in rows]
            if None in cols:
                raise ValueError(unstable)
            action.append([dict(c) for c in columns(cols, rad.dim)])
    alg = spec.algebra() if spec is not None else lev_alg or subalgebra(g, levi)
    return Representation(spec, alg, action), rad


def certify_disemisimple(g, levi=None, mode=None):
    """Certify g as a vector space sum of two semisimple subalgebras.

    Needs a Levi subalgebra: either passed explicitly or recorded on g
    by a constructor.  The algebra is disemisimple exactly when its
    solvable radical is nilpotent (hence equal to the nilradical) and
    prehomogeneous under the Levi action; the construction then takes
    z = -v for a witness v and maps the Levi through exp(ad z).

    When the Levi spans the leading unit vectors e_0..e_{ds-1}, as every
    constructor's does, the radical is read off the split: if the
    trailing unit vectors span an ideal n whose lower central series
    reaches 0, n is a solvable ideal, so n lies in rad g, and rad g / n
    is a solvable ideal of g/n, which is isomorphic to the Levi, checked
    semisimple, so rad g = n.  Otherwise solvable_radical searches for
    it.  Its basis is the same either way: solvable_radical's nullspace
    basis of the span of the trailing unit vectors is those vectors.

    Returns a DecompositionCertificate or a Refusal.
    """
    mode = _checked_mode(mode)
    if levi is None:
        levi = g.levi_basis
    if levi is None:
        raise ValueError("no Levi subalgebra supplied or recorded on g")
    spec = _recorded_spec(g, levi)      # else subalgebra checks closure
    lev_alg = spec.algebra() if spec is not None else subalgebra(g, levi)
    if not is_semisimple(lev_alg):
        raise ValueError("supplied Levi subalgebra is not semisimple")
    ds, series = levi.dim, None
    # the Levi spans e_0..e_{ds-1}; _recorded_spec and adjoint_radical_module
    # also need its rows to be those vectors, as they read g.table by index
    if not any(x for r in levi.basis for x in r[ds:]):
        rad = Subspace(g, [g.basis_vector(i) for i in range(ds, g.dim)])
        if is_ideal(g, rad):
            series = lower_central_series(g, rad)
    if series is None or series[-1].dim:
        rad = solvable_radical(g)
        series = lower_central_series(g, rad)
    if levi.dim + rad.dim != g.dim:
        raise ValueError("Levi dimension %d plus radical dimension %d "
                         "does not fill the algebra" % (levi.dim, rad.dim))
    spans, inter = sum_spans(g, levi, rad)
    if not spans or inter != 0:
        raise ValueError("Levi subalgebra does not complement the radical")
    # a radical strictly larger than the nilradical; either path has
    # verified rad as an ideal, so is_nilpotent's closure check would
    # only repeat that
    if series[-1].dim:
        return Refusal(reason=RADICAL_NOT_NILPOTENT)
    # a No by dimensions needs no module (a zero Levi gives no matrices)
    cert = dimension_verdict(rad.dim, levi.dim)
    if cert is not None and not cert:
        return Refusal(reason=RADICAL_NOT_PREHOMOGENEOUS, inner=cert)
    rep, rad = adjoint_radical_module(g, levi, rad, lev_alg)
    cert = is_prehomogeneous(rep, mode=mode)
    if not cert:
        return Refusal(reason=RADICAL_NOT_PREHOMOGENEOUS, inner=cert)
    v_global = [0] * g.dim
    for c, row in zip(cert.witness, rad.basis):
        if c:
            v_global = [x + c * y for x, y in zip(v_global, row)]
    z = [-x for x in v_global]
    phi = exp_ad(g, z)
    if not _is_bracket_preserving(g, phi):
        raise AssertionError("exp(ad z) failed the automorphism check")
    s2 = apply_map_subspace(g, phi, levi)
    if not is_semisimple(subalgebra(g, s2)):
        raise AssertionError("image of the Levi is not semisimple")
    spans, inter = sum_spans(g, levi, s2)
    if not spans:
        raise AssertionError("constructed subalgebras do not span")
    return DecompositionCertificate(levi_basis=levi, z=z, phi=phi,
                                    s2_basis=s2, intersection_dim=inter,
                                    prehom=cert)


def _is_bracket_preserving(g, phi):
    """Exact check of phi([b_i, b_j]) = [phi b_i, phi b_j] on all basis
    pairs, on the sparse columns of phi."""
    images = [dict(col) for col in columns(phi.matrix, g.dim)]
    for j in range(g.dim):
        for i in range(j):
            lhs = {}
            for k, c in g.structure(i, j).items():
                for a, x in images[k].items():
                    lhs[a] = lhs.get(a, 0) + c * x
            if sparse(lhs) != sparse(g.sparse_bracket(images[i], images[j])):
                return False
    return True
