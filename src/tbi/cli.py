"""Command line interface.

Subcommands: validate, invariants, decompose, sample, group, catalog, curve.
Input is the JSON document format of the serialize module.  All output is
deterministic: running the same command on the same input twice produces
byte-identical text.

Exit codes: 0 success, 1 parse/usage error, 2 invalid extension form,
3 degenerate period matrix, 4 incompatible structure pair, 5 internal
tolerance ambiguity.  The default tolerance is overridden by the TBI_TOL
environment variable, the document's "tol" key, and the --tol flag, in
increasing order of precedence.  --tol is taken by validate, invariants,
decompose and sample; group does exact integer arithmetic and has no
tolerance.
"""

import argparse
import os
import re
import sys
from functools import lru_cache

import numpy as np

from . import __version__
from .catalog import CATALOG_NAMES, catalog_datum
from .cohomology import CohomologyReport, bundle_report
from .curves import divisibility_index, kuranishi_dim
from .decomposition import BundleDatum
from .errors import ParseError, TbiError, ToleranceAmbiguityError
from .lattices import (GroupElement, basis_lift, central_lift, commutator, group_inverse,
                       group_multiply)
from .periods import DEFAULT_TOL
from .serialize import (InputDocument, check_tol, complex_to_pairs, dumps, input_document,
                        parse_input, require_int, sha256_hex)
from .variety import sample_point


def _env_tol() -> float:
    raw = os.environ.get("TBI_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"TBI_TOL must be a number, got {raw!r}") from None
    return check_tol(value, "TBI_TOL")


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc


def _parse_file(path: str, args, require_structures: bool = True) -> tuple:
    data = _read(path)
    tol_override = check_tol(getattr(args, "tol", None), "--tol")
    document = parse_input(
        data.decode("utf-8", errors="replace"),
        require_structures=require_structures,
        tol=_env_tol(),
        tol_override=tol_override,
    )
    return data, document


def _bracket(form, g1, g2) -> tuple:
    """The commutator of g1 and g2, the form's value on their base parts, and
    whether the commutator is the central element carrying that value."""
    bracket = commutator(form, g1, g2)
    expected = form(g1.base, g2.base)
    return bracket, expected, bool(not np.any(bracket.base)
                                   and np.array_equal(bracket.fibre, expected))


def _group_spot_checks(form) -> dict:
    """Exercise the group law on the first four basis lifts: each pair must
    pass the commutator check of _bracket."""
    lifts = [basis_lift(form, i) for i in range(min(form.base_rank, 4))]
    matches = [_bracket(form, left, right)[2]
               for i, left in enumerate(lifts) for right in lifts[i + 1:]]
    return {"pairs_checked": len(matches), "all_match": all(matches)}


def _norms(split) -> dict:
    return {
        "holomorphic": float(np.max(np.abs(split.holomorphic))),
        "hermitian": float(np.max(np.abs(split.hermitian))),
        "forbidden": float(np.max(np.abs(split.antiholomorphic))),
    }


def _input_echo(data: bytes, document: InputDocument) -> dict:
    """The "input" section of a report: what was read, and at which tolerance."""
    return {"sha256": sha256_hex(data), "m": document.m, "d": document.d,
            "tol": document.effective_tol}


def _report_document(datum: BundleDatum, echo: dict, report: CohomologyReport) -> dict:
    split = datum.split
    verdict = datum.membership
    return {
        "input": echo,
        "riemann": {
            "member": verdict.member,
            "residual": verdict.residual,
            "scale": verdict.scale,
        },
        "norms": _norms(split),
        "cohomology": {
            "h_structure": list(report.h_structure),
            "h0_one_forms": report.h0_one_forms,
            "closed_one_forms": report.closed_one_forms,
            "h1_structure": report.h1_structure,
            "parallelizable": report.parallelizable,
            "h_tangent": list(report.h_tangent),
            "deformation_target": report.deformation_target,
            "classification": report.classification,
            "twist_residual": report.twist_residual,
        },
        "group_checks": _group_spot_checks(datum.form),
        "rank_decisions": [
            {
                "label": decision.label,
                "rank": decision.rank,
                "smallest_kept": decision.smallest_kept,
                "largest_dropped": decision.largest_dropped,
                "threshold": decision.threshold,
            }
            for decision in report.decisions
        ],
        "warnings": [decision.warning for decision in report.decisions if decision.near],
    }


def _datum_from_document(document: InputDocument) -> BundleDatum:
    """The document's datum; parse_input has already checked its form and structures."""
    return BundleDatum(document.form, document.base, document.fibre,
                       translation=document.translation, tol=document.effective_tol)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_validate(args) -> int:
    data, document = _parse_file(args.file, args)
    datum = _datum_from_document(document).require_member()
    verdict = datum.membership
    print(dumps({
        "ok": True,
        **_input_echo(data, document),
        "riemann_residual": verdict.residual,
        "scale": verdict.scale,
    }))
    return 0


def _print_grid(title, grid):
    print(title)
    rows, cols = grid.shape
    header = "  i\\j " + "".join(f"{j:>6d}" for j in range(cols))
    print(header)
    for i in range(rows):
        print(f"  {i:>3d} " + "".join(f"{int(grid[i, j]):>6d}" for j in range(cols)))


def cmd_invariants(args) -> int:
    data, document = _parse_file(args.file, args)
    datum = _datum_from_document(document).require_member()
    cohomology_report = bundle_report(datum)
    report = _report_document(datum, _input_echo(data, document), cohomology_report)
    if args.format == "json":
        print(dumps(report))
        return 0
    cohomology = report["cohomology"]
    print(f"input sha256: {report['input']['sha256']}")
    print(f"m = {document.m}, d = {document.d}, tol = {datum.tol:.3e}")
    print(f"riemann member: {report['riemann']['member']} "
          f"(residual {report['riemann']['residual']:.3e})")
    _print_grid("first-page dimensions (base degree i, fibre degree j):", cohomology_report.e2)
    _print_grid("surviving dimensions:", cohomology_report.e3)
    print(f"structure sheaf dimensions: {cohomology['h_structure']}")
    print(f"global 1-forms: {cohomology['h0_one_forms']} "
          f"(closed: {cohomology['closed_one_forms']})")
    print(f"h1 of structure sheaf: {cohomology['h1_structure']}")
    print(f"parallelizable: {cohomology['parallelizable']}")
    print(f"tangent sheaf dimensions: {cohomology['h_tangent']}")
    print(f"deformation target m^2+m: {cohomology['deformation_target']}")
    if cohomology["classification"] is not None:
        print(f"classification: {cohomology['classification']}")
    for warning in report["warnings"]:
        print(f"warning: {warning}")
    return 0


def cmd_decompose(args) -> int:
    data, document = _parse_file(args.file, args)
    datum = _datum_from_document(document)
    split = datum.split
    verdict = datum.membership
    print(dumps({
        "input": _input_echo(data, document),
        "member": verdict.member,
        "residual": verdict.residual,
        "scale": verdict.scale,
        "blocks": {
            "holomorphic": complex_to_pairs(split.holomorphic),
            "hermitian": complex_to_pairs(split.hermitian),
            "antiholomorphic": complex_to_pairs(split.antiholomorphic),
        },
        "norms": _norms(split),
    }))
    return 0


def cmd_sample(args) -> int:
    if args.seed is not None:
        require_int(args.seed, "--seed", 0)
    require_int(args.count, "--count", 0)
    require_int(args.max_attempts, "--max-attempts", 0)
    data, document = _parse_file(args.file, args, require_structures=False)
    seed = args.seed if args.seed is not None else (document.seed or 0)
    form = document.form

    results = [sample_point(form, seed=[seed, index], max_attempts=args.max_attempts,
                            tol=document.effective_tol)
               for index in range(args.count)]

    points = []
    failures = []
    for index, result in enumerate(results):
        if result.found:
            points.append(input_document(form, result.base, result.fibre, seed=seed))
        else:
            failures.append({
                "index": index,
                "best_residual": result.best_residual,
                "attempts": result.attempts,
            })
    print(dumps({
        "input": _input_echo(data, document),
        "seed": seed,
        "count": args.count,
        "found": len(points),
        "attempts": [result.attempts for result in results],
        "points": points,
        "failures": failures,
    }))
    return 0


_ELEMENT_RE = re.compile(r"^([ef])(\d+)$")


def _parse_vector(text, length, name):
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if len(parts) != length:
        raise ParseError(f"{name} must have {length} comma-separated integers")
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"{name} entries must be integers") from None


def _parse_element(text, form):
    """Group element syntax: 'eK' for the K-th base basis lift, 'fK' for the
    K-th central fibre generator (both 1-based), or 'l1,..,l2d/g1,..,g2m'."""
    text = text.strip()
    match = _ELEMENT_RE.match(text)
    if match:
        kind, number = match.group(1), int(match.group(2))
        if kind == "e":
            if not 1 <= number <= form.base_rank:
                raise ParseError(f"base index must lie in 1..{form.base_rank}")
            return basis_lift(form, number - 1)
        if not 1 <= number <= form.fibre_rank:
            raise ParseError(f"fibre index must lie in 1..{form.fibre_rank}")
        return central_lift(form, number - 1)
    if "/" not in text:
        raise ParseError(
            f"cannot parse group element {text!r}: use 'eK', 'fK' or "
            f"'l1,..,l{form.fibre_rank}/g1,..,g{form.base_rank}'")
    fibre_text, base_text = text.split("/", 1)
    fibre = _parse_vector(fibre_text, form.fibre_rank, "fibre part")
    base = _parse_vector(base_text, form.base_rank, "base part")
    return GroupElement(fibre, base)


def _element_doc(element) -> dict:
    return {"fibre": element.fibre.tolist(), "base": element.base.tolist()}


def cmd_group(args) -> int:
    _, document = _parse_file(args.file, args, require_structures=False)
    form = document.form
    g1 = _parse_element(args.g1, form)
    g2 = _parse_element(args.g2, form)
    bracket, expected, matches = _bracket(form, g1, g2)
    print(dumps({
        "g1": _element_doc(g1),
        "g2": _element_doc(g2),
        "product": _element_doc(group_multiply(form, g1, g2)),
        "inverse_g1": _element_doc(group_inverse(form, g1)),
        "commutator": _element_doc(bracket),
        "form_value": expected.tolist(),
        "commutator_matches_form": matches,
    }))
    return 0


def cmd_catalog(args) -> int:
    require_int(args.base_dim, "--base-dim", 1)
    require_int(args.fibre_dim, "--fibre-dim", 1)
    datum = catalog_datum(args.name, m=args.base_dim, d=args.fibre_dim)
    print(dumps(input_document(datum.form, datum.base, datum.fibre)))
    return 0


def cmd_curve(args) -> int:
    chern = None
    if args.chern is not None:
        chern = _parse_vector(args.chern, 2 * args.fibre_dim, "--chern")
    try:
        dimension = kuranishi_dim(args.genus, args.fibre_dim)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    doc = {
        "genus": args.genus,
        "fibre_dim": args.fibre_dim,
        "kuranishi_dim": dimension,
    }
    if chern is not None:
        doc["chern"] = chern
        doc["divisibility_index"] = divisibility_index(chern)
    print(dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


class _Parser(argparse.ArgumentParser):
    # '-' or '-.' then a digit is a negative number, not an option: argparse's
    # own matcher misses -1e-05, -1,0/0,0 and -2,4 and reports a missing value.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with status 2 on usage errors, which collides with the
    # form-invalid exit code; route usage problems to the parse-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tbi",
                     description="Invariants of principal holomorphic torus "
                                 "bundles over complex tori")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_tol(p):
        p.add_argument("--tol", type=float, default=None,
                       help="relative tolerance (overrides TBI_TOL and the "
                            "document's own 'tol')")

    p = sub.add_parser("validate", help="check an input document end to end")
    p.add_argument("file")
    add_tol(p)

    p = sub.add_parser("invariants", help="compute the full invariant report")
    p.add_argument("file")
    add_tol(p)
    p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("decompose", help="print the split blocks of the form")
    p.add_argument("file")
    add_tol(p)

    p = sub.add_parser("sample", help="sample compatible structure pairs for a form")
    p.add_argument("file", help="document with at least m, d, A")
    add_tol(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--max-attempts", type=int, default=100)

    p = sub.add_parser("group", help="multiply and bracket two group elements")
    p.add_argument("file", help="document with at least m, d, A")
    p.add_argument("g1")
    p.add_argument("g2")

    p = sub.add_parser("catalog", help="emit a built-in example document")
    p.add_argument("name", choices=CATALOG_NAMES)
    p.add_argument("--base-dim", type=int, default=2,
                   help="base half-rank for the product datum")
    p.add_argument("--fibre-dim", type=int, default=1,
                   help="fibre half-rank for the product datum")

    p = sub.add_parser("curve", help="closed-form invariants over a curve base")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--fibre-dim", type=int, required=True)
    p.add_argument("--chern", type=str, default=None,
                   help="comma-separated integer vector of length 2*fibre-dim")

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the life of the process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Looked up at call time, so a patched module attribute takes effect.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except TbiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        # A decomposition that did not converge leaves no rank to trust.
        print(f"error: {exc}", file=sys.stderr)
        return ToleranceAmbiguityError.exit_code
