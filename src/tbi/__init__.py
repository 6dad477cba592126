"""Invariants of principal holomorphic torus bundles over complex tori.

The package takes bundle data in lattice form -- an alternating integer form
on a rank-2m lattice with values in a rank-2d lattice, plus period matrices
for the base and fibre complex structures -- and computes membership of the
structure pair in the compatibility variety, the split blocks of the form,
the classifying cocycle, sheaf-cohomology dimensions of the structure, 1-form
and tangent sheaves, and closed-form deformation counts for torus bundles
over curves.
"""

__version__ = "0.1.0"

from .catalog import (catalog_datum, iwasawa_datum, iwasawa_form, product_datum,
                      product_form)
from .cohomology import (CohomologyReport, KodairaSpencerReport, OneFormsSpace,
                         RankDecision, SpectralTable, TangentTable, ThetaCohomology,
                         bundle_report, classify_blocks, closed_forms_dim, h0_forms,
                         h1_structure_sheaf, is_parallelizable, kodaira_spencer_report,
                         leray_table, numerical_rank, require_table_fits,
                         structure_sheaf_dims, tangent_table, theta_cohomology)
from .curves import CurveBundleClass, divisibility_index, kuranishi_dim
from .decomposition import (BundleDatum, DecomposedForm, MembershipResult,
                            cocycle_defect, cocycle_eval, decompose,
                            lattice_vector_from_fibre, reconstruct, riemann_check,
                            split_form)
from .errors import (FormInvalidError, MembershipError, ParseError,
                     StructureDegenerateError, TableTooLargeError, TbiError,
                     ToleranceAmbiguityError)
from .lattices import (ExtensionForm, GroupElement, basis_lift, central_lift,
                       commutator, extension_cocycle, group_inverse, group_multiply,
                       validate_form)
from .periods import (ComplexStructure, DEFAULT_TOL, basis_change, random_structure,
                      split_coordinates, standard_structure, validate_structure)
from .serialize import (InputDocument, complex_to_pairs, dumps, input_document,
                        parse_input, sha256_hex)
from .variety import (LocalEquations, SampleResult, chart_structure, codim_bound,
                      graph_chart, local_equations, pairwise_values, sample_point)
