"""The public names of the tbi package, pinned: an addition to or a removal
from the API shows up here as a change to one reviewed list."""

import subprocess
import sys

from support import subprocess_env

PUBLIC_NAMES = [
    "BundleDatum", "CohomologyReport", "ComplexStructure",
    "DEFAULT_TOL", "DecomposedForm", "ExtensionForm", "FormInvalidError",
    "GroupElement", "InputDocument", "LocalEquations", "MembershipError",
    "MembershipResult", "OneFormsSpace", "ParseError", "RankDecision", "SampleResult",
    "SpectralTable", "StructureDegenerateError", "TableTooLargeError", "TangentTable",
    "TbiError", "ThetaCohomology", "ToleranceAmbiguityError", "basis_change",
    "basis_lift", "bundle_report", "catalog", "catalog_datum", "central_lift",
    "chart_structure", "classify_blocks", "closed_forms_dim", "cocycle_defect",
    "cocycle_eval", "cohomology", "commutator", "complex_to_pairs",
    "curves", "decompose", "decomposition", "divisibility_index", "dumps", "errors",
    "extension_cocycle", "graph_chart", "group_inverse", "group_multiply", "h0_forms",
    "h1_structure_sheaf", "input_document", "is_parallelizable", "iwasawa_datum",
    "iwasawa_form", "kuranishi_dim", "lattice_vector_from_fibre", "lattices",
    "leray_table", "local_equations", "numerical_rank", "pairwise_values",
    "parse_input", "periods", "product_datum", "product_form", "random_structure",
    "reconstruct", "require_table_fits", "riemann_check", "sample_point", "serialize",
    "sha256_hex", "split_coordinates", "split_form", "standard_structure",
    "structure_sheaf_dims", "tangent_table", "theta_cohomology", "validate_form",
    "validate_structure", "variety",
]


def test_public_names_are_pinned():
    # A fresh interpreter: importing tbi.cli elsewhere in the suite would add
    # the submodule to dir(tbi).
    listed = subprocess.run(
        [sys.executable, "-c",
         "import tbi; print(*sorted(n for n in dir(tbi) if not n.startswith('_')))"],
        capture_output=True, text=True, check=True, env=subprocess_env())
    assert listed.stdout.split() == PUBLIC_NAMES
