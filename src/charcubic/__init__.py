"""charcubic: exact arithmetic for the cubic surface family

    x^2 + y^2 + z^2 - x*y*z - P*x - Q*y - R*z - 2 = 0

and the polynomial automorphisms, homology representations, singular-fiber
data, lines, and SL(2) trace identities attached to it.  Everything is
computed over the rationals with no floating point and no tolerances.
"""

from .autgroup import (ALL_LETTERS, FOUR_POINTS, GAMMA_LETTERS, TAU_LETTERS,
                       GroupWord, SignedPerm, affine_stabilizer, apply_word,
                       dehn_twist, gamma_to_s4, generator, horowitz_decompose,
                       is_automorphism, reduce_tau_word, sign_character,
                       word_to_map)
from .characters import (BoundaryTraces, Sl2Matrix, SphereCharacter,
                         TorusCharacter, sphere_character, torus_character,
                         traces_to_params)
from .family import (CriticalPoint, KappaParams, as_params, build_kappa,
                     critical_points, critical_values, eliminant,
                     fiber_is_smooth, hessian, kappa_gradient,
                     total_multiplicity)
from .homology import (ALPHA_GRAM, BASIS_CHANGE, VANISHING_CYCLE_GRAM,
                       IntersectionForm, basis_change, homology_action,
                       intersection_form, link_h1, link_monodromy)
from .lines import (Line, class_gram, fiber_residual, line_contained_in_fiber,
                    line_incidence, lines_on_fiber)
from .matrices import Matrix, SnfResult, char_poly, cokernel, smith_normal_form
from .modular import PglCharacters, PglClass, mod2_cycle_string, pgl_characters, word_to_pgl
from .multipoly import MAP_VARS, MultiPoly, PolyMap, jacobian_determinant, map_compose
from .parsing import (ParseError, parse_matrix, parse_poly, parse_poly_map,
                      parse_rational, parse_triple, parse_word, word_tokens)
from .sqrtalgebra import SqrtAlgebraElem, ZeroDivisorError, instantiation

__version__ = "0.1.0"

__all__ = [
    "ALL_LETTERS", "ALPHA_GRAM", "BASIS_CHANGE", "BoundaryTraces",
    "CriticalPoint", "FOUR_POINTS", "GAMMA_LETTERS", "GroupWord",
    "IntersectionForm", "KappaParams", "Line", "MAP_VARS", "Matrix",
    "MultiPoly", "ParseError", "PglCharacters", "PglClass", "PolyMap",
    "SignedPerm", "Sl2Matrix", "SnfResult", "SphereCharacter",
    "SqrtAlgebraElem", "TAU_LETTERS", "TorusCharacter",
    "VANISHING_CYCLE_GRAM", "ZeroDivisorError", "affine_stabilizer", "apply_word",
    "as_params", "basis_change", "build_kappa", "char_poly", "class_gram",
    "cokernel", "critical_points", "critical_values", "dehn_twist",
    "eliminant", "fiber_is_smooth", "fiber_residual", "gamma_to_s4",
    "generator", "hessian", "homology_action", "horowitz_decompose",
    "instantiation", "intersection_form", "is_automorphism",
    "jacobian_determinant", "kappa_gradient", "line_contained_in_fiber",
    "line_incidence", "lines_on_fiber", "link_h1", "link_monodromy",
    "map_compose", "mod2_cycle_string", "parse_matrix", "parse_poly",
    "parse_poly_map", "parse_rational", "parse_triple", "parse_word",
    "pgl_characters", "reduce_tau_word", "sign_character",
    "smith_normal_form", "sphere_character", "torus_character",
    "total_multiplicity", "traces_to_params", "word_to_map", "word_to_pgl",
    "word_tokens",
]
