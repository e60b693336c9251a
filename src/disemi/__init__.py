"""Exact computational tools for prehomogeneous modules over classical
semisimple Lie algebras and for writing Lie algebras as vector space
sums of two semisimple subalgebras."""

from .rootdata import SimpleType, DominantWeight, root_system, weyl_dim, dual_weight
from .liealg import (LieAlgebra, Subspace, LinearMap, chevalley, direct_sum,
                     exp_ad, free_two_step, is_nilpotent, is_perfect,
                     is_semisimple, killing_form, quotient_by_ideal,
                     semidirect, solvable_radical, sum_spans)
from .repbuilder import (ModuleDescriptor, Representation, SemisimpleSpec,
                         decompose, dual, embeds, highest_weight_vectors,
                         multiplicity, natural, outer_tensor, realize,
                         spec_of, spin16_d5, sym2, tensor, trivial, wedge2)
from .prehom import (DecompositionCertificate, EvaluationMatrix,
                     PrehomCertificate, Randomized, Refusal, Symbolic,
                     certify_disemisimple, evaluation_matrix, is_etale,
                     is_prehomogeneous)
from .modexpr import parse_algebra, parse_module, print_module

__version__ = "0.1.0"

# only table, crosscheck, search12 and construct run classify: it loads
# on first use
_CLASSIFY_NAMES = ("SKTriple", "VinbergEntry", "castling_transform",
                   "construct_type1", "construct_type2", "cross_check_vinberg",
                   "enumerate_modules", "search_type12", "sk_reduced_table",
                   "a_free_structure", "vinberg_table")


def __getattr__(name):
    if name in _CLASSIFY_NAMES:
        from . import classify
        return getattr(classify, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
