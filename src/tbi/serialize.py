"""JSON input documents and deterministic report emission.

One input format: UTF-8 JSON with integer nested arrays for the form and
[re, im] pairs for complex matrix entries.  Emission is deterministic byte
for byte: dictionaries keep insertion order, floats are printed with 17
significant digits (enough to round-trip a double), and no environment-
dependent formatting is used anywhere.
"""

import hashlib
import json
import math
import sys
from dataclasses import dataclass
# json.dumps of a str is this function's result; calling it skips the dispatch.
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import ParseError
from .lattices import INT64_BOUND, ExtensionForm, exact_integers
from .periods import ComplexStructure, DEFAULT_TOL, require_structure


# ---------------------------------------------------------------------------
# Deterministic JSON emission


def _format_float(value: float) -> str:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("cannot serialize a non-finite float")
    return format(value, ".17g")


def _emit(value, pieces, indent):
    # The scalars of a report go by exact type; anything else, numpy scalars
    # and subclasses included, goes through the isinstance chain.
    kind = type(value)
    if kind is float:
        pieces.append(_format_float(value))
    elif kind is int:
        pieces.append(str(value))
    elif kind is str:
        pieces.append(_quote(value))
    elif kind is bool:
        pieces.append("true" if value else "false")
    elif isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        inner = indent + "  "
        last = len(value) - 1
        for pos, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key).__name__}")
            pieces.append(f"{inner}{_quote(key)}: ")
            _emit(item, pieces, inner)
            pieces.append(",\n" if pos < last else "\n")
        pieces.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for pos, item in enumerate(value):
            if pos:
                pieces.append(", ")
            _emit(item, pieces, indent)
        pieces.append("]")
    elif isinstance(value, str):
        pieces.append(_quote(value))
    elif value is None:
        pieces.append("null")
    elif isinstance(value, (bool, np.bool_)):
        pieces.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        pieces.append(_format_float(value))
    elif isinstance(value, (complex, np.complexfloating)):
        _emit([value.real, value.imag], pieces, indent)
    elif isinstance(value, np.ndarray):
        _emit(value.tolist(), pieces, indent)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Serialize to deterministic JSON text (no trailing newline)."""
    pieces: list = []
    _emit(value, pieces, "")
    return "".join(pieces)


def sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of data as 64 lowercase hex digits, the form in
    which reports echo their input."""
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Complex matrices as [re, im] pairs


def complex_to_pairs(matrix) -> list:
    """A complex array of any shape as nested lists of [re, im] float pairs."""
    matrix = np.asarray(matrix, dtype=complex)
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def _finite(value) -> float | None:
    """A JSON number as a finite float; None for anything else, including
    NaN, the infinities and integers beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _pairs_to_complex(obj, rows, cols, name) -> np.ndarray:
    # One pass over the entries for a well-formed matrix; the loop below
    # runs for any other, to word the error.
    pairs = np.asarray(obj, dtype=object)
    if pairs.shape == (rows, cols, 2):
        entries = pairs.ravel().tolist()
        if all(type(x) is float or type(x) is int for x in entries):
            try:
                parts = np.array(entries, dtype=float)
            except OverflowError:  # an integer beyond the float range
                parts = None
            if parts is not None and np.isfinite(parts).all():
                return parts.view(complex).reshape(rows, cols)
    matrix = np.zeros((rows, cols), dtype=complex)
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(f"'{name}' must be a list of {rows} rows")
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"'{name}' row {r + 1} must have {cols} entries")
        for c, pair in enumerate(row):
            parts = [_finite(x) for x in pair] if isinstance(pair, list) else []
            if len(parts) != 2 or None in parts:
                raise ParseError(f"'{name}' entry ({r + 1},{c + 1}) must be a "
                                 f"[re, im] pair of finite numbers")
            matrix[r, c] = complex(*parts)
    return matrix


# ---------------------------------------------------------------------------
# Input documents


@dataclass(frozen=True)
class InputDocument:
    """Parsed and validated bundle input.

    base/fibre (and translation) may be None for form-only documents such as
    sampling inputs.
    """

    m: int
    d: int
    form: ExtensionForm
    base: ComplexStructure | None
    fibre: ComplexStructure | None
    translation: np.ndarray | None
    seed: int | None
    effective_tol: float = DEFAULT_TOL


def require_int(value, name: str, minimum: int) -> int:
    """value when it is an int of at least minimum (0 or 1), else ParseError."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise ParseError(f"{name} must be a {kind} integer")
    return value


def check_tol(value, name: str) -> float | None:
    """value as a positive finite float (None when not given), else
    ParseError naming it."""
    if value is None:
        return None
    value = _finite(value)
    if value is None or value <= 0:
        raise ParseError(f"{name} must be a positive finite number")
    return value


def parse_input(text: str, require_structures: bool = True,
                tol: float = DEFAULT_TOL, tol_override: float | None = None) -> InputDocument:
    """Parse an input document and run the structural validations.

    Raises ParseError for malformed JSON or wrong shapes, FormInvalidError
    when the form is not alternating, StructureDegenerateError when a period
    matrix fails the non-degeneracy test.  Membership is deliberately not
    checked here; callers decide whether it is required.

    The tolerance used for the numeric checks (and echoed as effective_tol)
    is tol_override when given, else the document's own 'tol', else tol.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError:  # the one other ValueError json.loads raises
        raise ParseError(f"invalid JSON: an integer literal has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(raw, dict):
        raise ParseError("top level must be a JSON object")

    m = require_int(raw.get("m"), "'m'", 1)
    d = require_int(raw.get("d"), "'d'", 1)

    if "A" not in raw:
        raise ParseError("missing required key 'A'")
    coefficients = np.asarray(raw["A"], dtype=object)
    if coefficients.shape != (2 * d, 2 * m, 2 * m):
        raise ParseError(
            f"'A' must be nested lists of shape ({2 * d}, {2 * m}, {2 * m}), "
            f"got {coefficients.shape}"
        )
    out_of_range = "'A' entries must be finite numbers in the int64 range [-2**63, 2**63)"
    entries = coefficients.ravel().tolist()
    if all(type(x) is int for x in entries):  # the one pass over an integer form
        try:
            coefficients = np.array(entries, dtype=np.int64).reshape(coefficients.shape)
        except OverflowError:
            raise ParseError(out_of_range) from None
    # JSON numbers only: float() would also take strings such as "1".
    elif not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entries):
        raise ParseError("'A' entries must be numbers")
    # Python compares ints with floats exactly, and NaN fails every comparison.
    elif not all(-INT64_BOUND <= x < INT64_BOUND for x in entries):
        raise ParseError(out_of_range)
    form = ExtensionForm(coefficients)

    base = fibre = None
    if "V" in raw or "U" in raw or require_structures:
        for key in ("V", "U"):
            if key not in raw:
                raise ParseError(f"missing required key '{key}'")
        base = ComplexStructure(_pairs_to_complex(raw["V"], 2 * m, m, "V"))
        fibre = ComplexStructure(_pairs_to_complex(raw["U"], 2 * d, d, "U"))

    doc_tol = check_tol(raw.get("tol"), "'tol'")
    if tol_override is not None:
        effective = tol_override
    elif doc_tol is not None:
        effective = doc_tol
    else:
        effective = tol

    if base is not None:
        for name, structure in (("V", base), ("U", fibre)):
            require_structure(structure, effective, name)

    translation = None
    if raw.get("phi") is not None:
        translation = _pairs_to_complex(raw["phi"], d, 2 * m, "phi")

    seed = raw.get("seed")
    if seed is not None:
        require_int(seed, "'seed'", 0)

    return InputDocument(m, d, form, base, fibre, translation, seed, effective)


def input_document(form: ExtensionForm, base: ComplexStructure | None = None,
                   fibre: ComplexStructure | None = None, translation=None,
                   tol: float | None = None, seed: int | None = None) -> dict:
    """Build the emission dict for an input document (round-trip safe)."""
    doc = {
        "m": form.base_rank // 2,
        "d": form.fibre_rank // 2,
        "A": form.coefficients.tolist(),
    }
    if base is not None:
        doc["V"] = complex_to_pairs(base.period)
    if fibre is not None:
        doc["U"] = complex_to_pairs(fibre.period)
    if translation is not None:
        doc["phi"] = complex_to_pairs(translation)
    if tol is not None:
        doc["tol"] = float(tol)
    if seed is not None:
        [doc["seed"]] = exact_integers([seed], "seed", bounded=False)
    return doc
