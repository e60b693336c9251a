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
from dataclasses import dataclass
from fractions import Fraction

from .linalg import columns, dense, rank, rank_mod_p, sparse
from .liealg import (LinearMap, Subspace, apply_map_subspace, exp_ad,
                     is_nilpotent, is_semisimple, solvable_radical,
                     subalgebra, sum_spans)
from .repbuilder import Representation
from . import syzygy

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 8
DEFAULT_COORD_BOUND = 10

# refusal / non-prehomogeneity reasons
DIMENSION_BOUND = "dimension_bound"
ETALE_EXCLUSION = "etale_exclusion"
TRIVIAL_SUMMAND = "trivial_summand"
SYMBOLIC_RANK_DEFICIT = "symbolic_rank_deficit"
RADICAL_NOT_NILPOTENT = "radical_not_nilpotent"
RADICAL_NOT_PREHOMOGENEOUS = "radical_not_prehomogeneous"


@dataclass(frozen=True)
class Randomized:
    """Witness search over small integer boxes, escalating to Symbolic."""

    seed: int = DEFAULT_SEED
    trials: int = DEFAULT_TRIALS
    coord_bound: int = DEFAULT_COORD_BOUND


@dataclass(frozen=True)
class Symbolic:
    """Exact generic-rank computation; the source of truth for No."""


@dataclass
class EvaluationMatrix:
    """dim(V) x dim(s) matrix whose column j is rho(b_j) applied to v."""

    matrix: list
    vector: list

    @property
    def shape(self):
        return (len(self.matrix), len(self.matrix[0]) if self.matrix else 0)

    def rank(self):
        return rank(self.matrix) if self.matrix else 0


def evaluation_matrix(r, v):
    if len(v) != r.dim:
        raise ValueError("vector length %d != module dimension %d"
                         % (len(v), r.dim))
    return EvaluationMatrix(matrix=syzygy.evaluation_rows(r, v),
                            vector=list(v))


@dataclass
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
    if r.dim == 0:
        return False
    # exact rank: a rank mod PRIME could fall short and fake a summand
    stacked = [dense(row, r.dim) for m in r.action for row in m if row]
    if not stacked:
        return True
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
    return rank_mod_p(evaluation_matrix(r, v).matrix, stop_at=r.dim)


def symbolic_generic_rank(r):
    """Exact rank of the evaluation matrix over Q(v_1..v_dim)."""
    return syzygy.generic_rank_certified(r)


def _symbolic_decide(r):
    """Certified verdict by specialisation plus symbolic elimination.

    Any specialisation with full row rank is already a witness; if every
    sampled point is deficient, the generic rank decides, since the rank
    at each point is bounded by the generic rank.  Each sampled point is
    ranked once: its rank also serves as the generic rank's lower bound.
    """
    d = r.dim
    sampled = []
    for v in syzygy.sample_points(d):
        rk = _witness_rank(r, v)
        if rk == d:
            return _validated_yes(r, v, mode="symbolic")
        sampled.append((v, rk))
    grank = syzygy.generic_rank_certified(r, sampled)
    if grank < d:
        return PrehomCertificate(verdict="not_prehomogeneous",
                                 reason=SYMBOLIC_RANK_DEFICIT,
                                 generic_rank=grank, mode="symbolic")
    # generically full rank: keep specialising until a witness appears
    rnd = random.Random(syzygy.SAMPLE_SEED)
    for _ in range(1000):
        v = [rnd.randint(-99, 99) for _ in range(d)]
        if _witness_rank(r, v) == d:
            return _validated_yes(r, v, mode="symbolic")
    raise AssertionError("full generic rank but no witness found")


def is_prehomogeneous(r, mode=None):
    """Total decision procedure returning a PrehomCertificate.

    Fast paths: the zero module is prehomogeneous; dim V > dim s is a
    dimension obstruction; dim V = dim s would require an etale module,
    which semisimple algebras do not admit; a trivial summand forces
    every evaluation image into a proper submodule.
    """
    if mode is None:
        mode = Randomized()
    ds = r.algebra.dim
    if r.dim == 0:
        return PrehomCertificate(verdict="prehomogeneous", witness=[],
                                 rank=0, mode="fast_path")
    if r.dim > ds:
        return PrehomCertificate(verdict="not_prehomogeneous",
                                 reason=DIMENSION_BOUND, mode="fast_path")
    if r.dim == ds:
        return PrehomCertificate(verdict="not_prehomogeneous",
                                 reason=ETALE_EXCLUSION, mode="fast_path")
    if has_trivial_summand(r):
        return PrehomCertificate(verdict="not_prehomogeneous",
                                 reason=TRIVIAL_SUMMAND, mode="fast_path")
    if isinstance(mode, Randomized):
        rnd = random.Random(mode.seed)
        for trial in range(mode.trials):
            v = [rnd.randint(-mode.coord_bound, mode.coord_bound)
                 for _ in range(r.dim)]
            if _witness_rank(r, v) == r.dim:
                return _validated_yes(r, v, mode="randomized",
                                      seed=mode.seed, trials_used=trial + 1)
        # inconclusive-toward-No: escalate to the certified engine
        return _symbolic_decide(r)
    if isinstance(mode, Symbolic):
        return _symbolic_decide(r)
    raise ValueError("unknown mode %r" % (mode,))


def is_etale(r, mode=None):
    """Prehomogeneous with dim V = dim s; always False over semisimple
    algebras, but computed honestly."""
    cert = is_prehomogeneous(r, mode=mode)
    return bool(cert) and r.dim == r.algebra.dim


# ---------------------------------------------------------------------------
# Disemisimple certification
# ---------------------------------------------------------------------------

@dataclass
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


@dataclass
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


def adjoint_radical_module(g, levi, radical=None):
    """The adjoint action of a Levi subalgebra on the solvable radical,
    as a Representation over the Levi's own structure constants."""
    rad = radical if radical is not None else solvable_radical(g)
    lev_alg = subalgebra(g, levi)
    rows = [sparse(r) for r in rad.basis]
    action = []
    for u in map(sparse, levi.basis):
        m = [{} for _ in range(rad.dim)]
        for b, rbasis in enumerate(rows):
            coeffs = rad.span.solve(g.sparse_bracket(u, rbasis))
            if coeffs is None:
                raise ValueError("radical is not stable under the Levi action")
            for a, x in enumerate(coeffs):
                m[a][b] = x
        action.append(m)
    return Representation(None, lev_alg, action, False), rad


def certify_disemisimple(g, levi=None, mode=None):
    """Certify g as a vector space sum of two semisimple subalgebras.

    Needs a Levi subalgebra: either passed explicitly or recorded on g
    by a constructor.  The algebra is disemisimple exactly when its
    solvable radical is nilpotent (hence equal to the nilradical) and
    prehomogeneous under the Levi action; the construction then takes
    z = -v for a witness v and maps the Levi through exp(ad z).

    Returns a DecompositionCertificate or a Refusal.
    """
    if levi is None:
        levi = g.levi_basis
    if levi is None:
        raise ValueError("no Levi subalgebra supplied or recorded on g")
    lev_alg = subalgebra(g, levi)          # raises if not closed
    if not is_semisimple(lev_alg):
        raise ValueError("supplied Levi subalgebra is not semisimple")
    rad = solvable_radical(g)
    if levi.dim + rad.dim != g.dim:
        raise ValueError("Levi dimension %d plus radical dimension %d "
                         "does not fill the algebra" % (levi.dim, rad.dim))
    spans, inter = sum_spans(g, levi, rad)
    if not spans or inter != 0:
        raise ValueError("Levi subalgebra does not complement the radical")
    if rad.dim and not is_nilpotent(g, rad):
        # radical strictly larger than the nilradical
        return Refusal(reason=RADICAL_NOT_NILPOTENT)
    rep, rad = adjoint_radical_module(g, levi, rad)
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
    pairs, on the sparse columns phi b_i of phi."""
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
