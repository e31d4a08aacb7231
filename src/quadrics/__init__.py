"""Exact plane quadric/line configuration analysis with a numerical
value-distribution engine."""

__version__ = "0.1.0"

from .polynomials import (HomPoly, ProjPointNum, QuadricForm, parse_poly,
                          quadric_form, resultant, gaussian_extension_eval)
from .arrangements import (Configuration, GenericityReport, IntersectionRecord,
                           LineSystem, build_line_system, composite_morphism,
                           contact_classification, contact_obstruction_check,
                           cor31_hypothesis_check, genericity_check_s4,
                           genericity_check_s6, intersection_points,
                           pencil_membership, select_general_position,
                           tangent_line)
from .squares import (DegeneracyCurve, SignProductPoly, SquareCombination,
                      b4_solve, degeneracy_curve, example_verify, expand_S,
                      fermat_check, generate_R, monomial_equivalence_reduce,
                      pencil_rank1_members, square_combination)
from .nevanlinna import (CountingSample, DefectEstimate, ExpCurve, ExpSum,
                         GrowthSample, ahlfors_limit, characteristic, counting,
                         defect_estimate, functoriality_check,
                         main_theorem_check, order_estimate,
                         three_quadrics_certificate)
