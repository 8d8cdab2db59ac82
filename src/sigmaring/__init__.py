"""Exact computer algebra for trace invariants of matrices with transposes.

The free objects are words in letters and their formal transposes; trace
generators s_t(word) live in a free commutative ring subject to rewriting
(expansion over sums, scalar extraction, power reduction, cyclic and
transpose identification).  On top of that sit the mixed polynomials
sigma_{t,r} and their partial linearizations, two-column arrow tableaux
computing the same functions on matrices, exact evaluation over Q and F_p,
and enumeration plus verification of relation-ideal generators.
"""

from .words import (
    Letter,
    LinComb,
    Naming,
    Word,
    canonicalize,
    glue,
    is_primitive,
    lincomb_text,
    mdeg,
    parse_lincomb,
    parse_word,
    word_text,
)
from .ring import (
    SigmaGen,
    SigmaPoly,
    lin,
    make_gen,
    multiplicity_stats,
    normalize,
    parse_poly,
    poly_json_obj,
    poly_text,
    power_reduce,
    sigma_of_word,
    substitute,
)
from .quiver import Quiver, QuiverCycle, index_sets
from .sigmatr import (
    sigma_lin,
    sigma_partial,
    sigma_partial_subst,
    sigma_tr,
)
from .matrices import (
    EvalContext,
    ExactMatrix,
    matrix_from_json_obj,
    random_matrix,
    random_symmetric,
)
from .tableau import (
    Arrow,
    Tableau,
    bpf,
    build_T,
    closed_path_reps,
    decompose,
    dp,
    path_sign_closed_form,
    path_sign_rules,
    path_word,
)
from .relations import (
    Relation,
    certificate,
    gl_relation_generators,
    o_relation_generators,
    replay_certificate,
    verify_exact,
    verify_randomized,
)

__version__ = "0.1.0"
