"""The public names of the tbi package and the parameters of its callables,
pinned: an addition to or a removal from the API, or a parameter added,
removed or given another default, shows up here as a change to one reviewed
line.  The documentation is held to the code too: every public function and
class has a docstring, and the README's library example computes the values
its comments state."""

import ast
import dataclasses
import inspect
import io
import json
import pathlib
import subprocess
import sys
import tokenize

import tbi

from support import subprocess_env

PUBLIC_NAMES = [
    "BundleDatum", "CohomologyReport", "ComplexStructure",
    "DEFAULT_TOL", "DecomposedForm", "ExtensionForm", "FormInvalidError",
    "GroupElement", "InputDocument", "MembershipError",
    "MembershipResult", "ParseError", "RankDecision", "SampleResult",
    "SpectralTable", "StructureDegenerateError", "TableTooLargeError", "TangentTable",
    "TbiError", "ToleranceAmbiguityError", "basis_change",
    "basis_lift", "bundle_report", "catalog", "catalog_datum", "central_lift",
    "closed_forms_dim", "cocycle_defect",
    "cocycle_eval", "cohomology", "commutator", "complex_to_pairs",
    "curves", "decompose", "decomposition", "divisibility_index", "dumps", "errors",
    "extension_cocycle", "group_inverse", "group_multiply", "h0_forms",
    "h1_structure_sheaf", "input_document", "iwasawa_datum",
    "iwasawa_form", "kuranishi_dim", "lattice_vector_from_fibre", "lattices",
    "leray_table", "numerical_rank", "pairwise_values",
    "parse_input", "periods", "product_datum", "product_form", "random_structure",
    "require_table_fits", "riemann_check", "sample_point", "serialize",
    "sha256_hex", "split_coordinates", "standard_structure",
    "tangent_table", "validate_form",
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


# Name and default of each parameter of every public function and class, and
# of the public methods those classes define; exception classes are left out.
SIGNATURES = {
    "BundleDatum": "(form, base, fibre, translation=None, tol=1e-09)",
    "BundleDatum.checked": "(form, base, fibre, tol=1e-09)",
    "BundleDatum.require_member": "(self)",
    "BundleDatum.translation_value": "(self, gamma)",
    "CohomologyReport": "(e2, e3, h_structure, h0_one_forms, closed_one_forms, h1_structure, "
                        "parallelizable, h_tangent, deformation_target, classification, "
                        "decisions)",
    "ComplexStructure": "(period)",
    "DecomposedForm": "(holomorphic, hermitian, antiholomorphic, scale)",
    "ExtensionForm": "(coefficients)",
    "GroupElement": "(fibre, base)",
    "InputDocument": "(m, d, form, base, fibre, translation, seed, effective_tol=1e-09)",
    "MembershipResult": "(member, residual, scale)",
    "RankDecision": "(label, rank, smallest_kept, largest_dropped, threshold, near)",
    "SampleResult": "(found, base, fibre, attempts, best_residual)",
    "SpectralTable": "(e2, e3, representatives, decisions)",
    "SpectralTable.basis": "(self, i, j)",
    "SpectralTable.total_dims": "(self)",
    "TangentTable": "(coker, ker, decisions)",
    "basis_change": "(structure, tol=1e-09)",
    "basis_lift": "(form, index)",
    "bundle_report": "(datum)",
    "catalog_datum": "(name, m=2, d=1)",
    "central_lift": "(form, index)",
    "closed_forms_dim": "(datum, decisions=None)",
    "cocycle_defect": "(datum, gamma1, gamma2, z)",
    "cocycle_eval": "(datum, gamma, z)",
    "commutator": "(form, g1, g2)",
    "complex_to_pairs": "(matrix)",
    "decompose": "(form, base, fibre, tol=1e-09)",
    "divisibility_index": "(chern_vector)",
    "dumps": "(value)",
    "extension_cocycle": "(form, g1_base, g2_base)",
    "group_inverse": "(form, g)",
    "group_multiply": "(form, g1, g2)",
    "h0_forms": "(datum, decisions=None)",
    "h1_structure_sheaf": "(datum, decisions=None)",
    "input_document": "(form, base=None, fibre=None, translation=None, tol=None, seed=None)",
    "iwasawa_datum": "()",
    "iwasawa_form": "()",
    "kuranishi_dim": "(genus, fibre_dim)",
    "lattice_vector_from_fibre": "(datum, value, tol=None)",
    "leray_table": "(datum)",
    "numerical_rank": "(matrix, tol, scale, label, decisions=None)",
    "pairwise_values": "(form, base)",
    "parse_input": "(text, require_structures=True, tol=1e-09, tol_override=None)",
    "product_datum": "(m=2, d=1)",
    "product_form": "(m=2, d=1)",
    "random_structure": "(n, seed)",
    "require_table_fits": "(datum)",
    "riemann_check": "(form, base, fibre, tol=1e-09)",
    "sample_point": "(form, seed=0, max_attempts=100, tol=1e-09)",
    "sha256_hex": "(data)",
    "split_coordinates": "(structure, x, tol=1e-09)",
    "standard_structure": "(n)",
    "tangent_table": "(datum, table)",
    "validate_form": "(form)",
    "validate_structure": "(structure, tol=1e-09)",
}

_LIST_SIGNATURES = """
import inspect, json, tbi

def parameters(obj):
    sig = inspect.signature(obj)
    return str(sig.replace(parameters=[p.replace(annotation=p.empty)
                                       for p in sig.parameters.values()],
                           return_annotation=sig.empty))

listed = {}
for name in dir(tbi):
    obj = getattr(tbi, name)
    if name.startswith("_") or not callable(obj) \\
            or isinstance(obj, type) and issubclass(obj, Exception):
        continue
    listed[name] = parameters(obj)
    for attr, value in vars(obj).items() if isinstance(obj, type) else ():
        if not attr.startswith("_") and inspect.isfunction(getattr(value, "__func__", value)):
            listed[f"{name}.{attr}"] = parameters(getattr(obj, attr))
print(json.dumps(listed))
"""


def test_public_signatures_are_pinned():
    listed = subprocess.run([sys.executable, "-c", _LIST_SIGNATURES], capture_output=True,
                            text=True, check=True, env=subprocess_env())
    assert json.loads(listed.stdout) == SIGNATURES


def _generated_doc(cls) -> str:
    """The docstring dataclass writes for a class that has none: its name
    and the text of its signature."""
    return cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")


def test_public_names_have_docstrings():
    undocumented = []
    for name in dir(tbi):
        obj = getattr(tbi, name)
        if name.startswith("_") or not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        doc = (obj.__doc__ or "").strip()
        if not doc or dataclasses.is_dataclass(obj) and doc == _generated_doc(obj):
            undocumented.append(name)
    assert undocumented == []


def _library_example() -> list:
    """The lines of the python block under the README's '## Library'."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0].splitlines()


def _split_comment(line):
    """(code, comment text) of one line of Python; comment is None without one."""
    for token in tokenize.generate_tokens(io.StringIO(line).readline):
        if token.type == tokenize.COMMENT:
            return line[:token.start[1]].rstrip(), token.string[1:].strip()
    return line, None


def test_readme_library_example_computes_its_comments():
    namespace, checked = {}, 0
    for line in _library_example():
        code, comment = _split_comment(line)
        try:
            expected = ast.literal_eval(comment)
        except (ValueError, SyntaxError):  # no comment, or prose
            exec(code, namespace)
            continue
        assert eval(code, namespace) == expected, line
        checked += 1
    assert checked == 7
