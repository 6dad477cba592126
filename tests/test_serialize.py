import json

import numpy as np
import pytest

from tbi import (FormInvalidError, ParseError, StructureDegenerateError,
                 complex_to_pairs, dumps, input_document, parse_input,
                 product_form, sha256_hex)


def _zero_doc(**extra):
    doc = {
        "m": 1,
        "d": 1,
        "A": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
        "V": [[[1.0, 0.0]], [[0.0, 1.0]]],
        "U": [[[1.0, 0.0]], [[0.0, -1.0]]],
    }
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# Deterministic emission


def test_dumps_layout_frozen():
    text = dumps({"b": 1, "a": [1.5, True, None, "x"]})
    assert text == '{\n  "b": 1,\n  "a": [1.5, true, null, "x"]\n}'


def test_dumps_nested_indentation():
    text = dumps({"outer": {"inner": [1, 2]}})
    assert text == '{\n  "outer": {\n    "inner": [1, 2]\n  }\n}'


def test_dumps_float_has_seventeen_digits():
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps(2.5) == "2.5"


def test_dumps_numpy_and_complex_values():
    text = dumps({"c": 1 + 2j, "v": np.array([1, 2]), "f": np.float64(0.5),
                  "b": np.bool_(True)})
    assert text == '{\n  "c": [1, 2],\n  "v": [1, 2],\n  "f": 0.5,\n  "b": true\n}'


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps(float("inf"))


def test_dumps_rejects_bad_types():
    with pytest.raises(TypeError):
        dumps({1: "non-string key"})
    with pytest.raises(TypeError):
        dumps(object())


def test_dumps_round_trips_through_json():
    doc = _zero_doc(tol=1e-6, seed=3)
    assert json.loads(dumps(doc)) == doc


def test_sha256_hex_frozen():
    assert sha256_hex(b"") == \
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


# ---------------------------------------------------------------------------
# Parsing: happy path


def test_parse_minimal_document():
    document = parse_input(json.dumps(_zero_doc()))
    assert (document.m, document.d) == (1, 1)
    assert document.has_structures
    assert document.tol is None
    assert document.seed is None
    assert document.effective_tol == pytest.approx(1e-9)
    assert np.allclose(document.base.period, [[1.0], [1j]])


def test_parse_form_only_document():
    raw = {"m": 1, "d": 1, "A": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]], "seed": 7}
    document = parse_input(json.dumps(raw), require_structures=False)
    assert not document.has_structures
    assert document.base is None and document.fibre is None
    assert document.seed == 7


def test_parse_translation():
    doc = _zero_doc(phi=[[[0.5, 0.25], [0.0, 0.0]]])
    document = parse_input(json.dumps(doc))
    assert document.translation.shape == (1, 2)
    assert document.translation[0, 0] == 0.5 + 0.25j


def test_input_document_round_trip(iwasawa):
    rng = np.random.default_rng(95)
    translation = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
    doc = input_document(iwasawa.form, iwasawa.base, iwasawa.fibre,
                         translation=translation, tol=1e-8, seed=4)
    document = parse_input(dumps(doc))
    assert np.array_equal(document.form.coefficients, iwasawa.form.coefficients)
    assert np.allclose(document.base.period, iwasawa.base.period)
    assert np.allclose(document.fibre.period, iwasawa.fibre.period)
    assert np.allclose(document.translation, translation)
    assert document.tol == pytest.approx(1e-8)
    assert document.effective_tol == pytest.approx(1e-8)
    assert document.seed == 4


def test_complex_to_pairs_shape():
    pairs = complex_to_pairs(np.array([[1 + 2j, 3.0]]))
    assert pairs == [[[1.0, 2.0], [3.0, 0.0]]]


# ---------------------------------------------------------------------------
# Parsing: error paths


@pytest.mark.parametrize("text,needle", [
    ("{", "line 1"),
    ("[]", "top level"),
    ('{"d": 1}', "'m'"),
    ('{"m": 0, "d": 1}', "'m'"),
    ('{"m": true, "d": 1}', "'m'"),
    ('{"m": 1, "d": 1}', "'A'"),
])
def test_parse_reports_structural_problems(text, needle):
    with pytest.raises(ParseError, match=needle):
        parse_input(text)


def test_parse_rejects_wrong_form_shape():
    doc = _zero_doc(A=[[[0, 0], [0, 0]]])
    with pytest.raises(ParseError, match=r"\(2, 2, 2\)"):
        parse_input(json.dumps(doc))


def test_parse_rejects_non_numeric_form():
    doc = _zero_doc(A=[[[0, "x"], [0, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(ParseError, match="numbers"):
        parse_input(json.dumps(doc))


@pytest.mark.parametrize("entries", [
    [[["0", "1"], ["-1", "0"]], [[0, 0], [0, 0]]],
    [[[0, 1.5], ["-1.5", 0]], [[0, 0], [0, 0]]],
    [[[0, True], [-1, 0]], [[0, 0], [0, 0]]],
])
def test_parse_rejects_strings_and_booleans_in_form(entries):
    # float("1") and int(True) would succeed; only JSON numbers are entries.
    with pytest.raises(ParseError, match="'A' entries must be numbers"):
        parse_input(json.dumps(_zero_doc(A=entries)), require_structures=False)


def test_parse_rejects_non_alternating_form():
    doc = _zero_doc(A=[[[0, 5], [7, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(FormInvalidError, match=r"\(k=1, i=1, j=2\)"):
        parse_input(json.dumps(doc))


def test_parse_requires_both_structures():
    doc = _zero_doc()
    del doc["U"]
    with pytest.raises(ParseError, match="'U'"):
        parse_input(json.dumps(doc), require_structures=False)


def test_parse_rejects_bad_matrix_rows():
    doc = _zero_doc(V=[[[1.0, 0.0]]])
    with pytest.raises(ParseError, match="'V' must be a list of 2 rows"):
        parse_input(json.dumps(doc))


def test_parse_rejects_bad_entry_pair():
    doc = _zero_doc(U=[[[1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]])
    with pytest.raises(ParseError, match="row 2"):
        parse_input(json.dumps(doc))
    doc = _zero_doc(U=[[[1.0, 0.0, 2.0]], [[0.0, 1.0]]])
    with pytest.raises(ParseError, match=r"\(1,1\)"):
        parse_input(json.dumps(doc))


@pytest.mark.parametrize("tol", [0, -1e-9, True, "tight", float("inf"), float("nan"),
                                 pytest.param(10 ** 400, id="huge-int")])
def test_parse_rejects_bad_tol(tol):
    with pytest.raises(ParseError, match="'tol'"):
        parse_input(json.dumps(_zero_doc(tol=tol)))


@pytest.mark.parametrize("key,value,needle", [
    ("V", [[[float("nan"), 0.0]], [[0.0, 1.0]]], r"'V' entry \(1,1\)"),
    ("U", [[[1.0, 0.0]], [[0.0, float("-inf")]]], r"'U' entry \(2,1\)"),
    ("V", [[[10 ** 400, 0.0]], [[0.0, 1.0]]], r"'V' entry \(1,1\)"),
    ("A", [[[0, float("inf")], [float("-inf"), 0]], [[0, 0], [0, 0]]], "'A'"),
    ("A", [[[0, 10 ** 400], [-10 ** 400, 0]], [[0, 0], [0, 0]]], "'A'"),
    ("A", [[[0, 2 ** 63], [-2 ** 63, 0]], [[0, 0], [0, 0]]], "int64 range"),
    ("A", [[[0, -2 ** 63 - 1], [2 ** 63 + 1, 0]], [[0, 0], [0, 0]]], "int64 range"),
    ("A", [[[0, 2.0 ** 63], [-2.0 ** 63, 0]], [[0, 0], [0, 0]]], "int64 range"),
    ("A", [[[0, 1e300], [-1e300, 0]], [[0, 0], [0, 0]]], "int64 range"),
    ("A", [[[0, float("nan")], [float("nan"), 0]], [[0, 0], [0, 0]]], "int64 range"),
], ids=["V-nan", "U-infinity", "V-huge-int", "A-infinity", "A-huge-int",
        "A-int-2**63", "A-int-below-int64", "A-float-2**63", "A-float-1e300", "A-nan"])
def test_parse_rejects_non_finite_numbers(key, value, needle):
    with pytest.raises(ParseError, match=needle):
        parse_input(json.dumps(_zero_doc(**{key: value})))


def test_parse_keeps_int64_extremes_exact():
    top = 2 ** 63 - 1
    document = parse_input(json.dumps(_zero_doc(A=[[[0, top], [-top, 0]], [[0, 0], [0, 0]]])))
    assert int(document.form.coefficients[0, 0, 1]) == top


@pytest.mark.parametrize("zero", [0, 0.0, -0.0])
def test_parse_keeps_int64_top_exact_beside_integral_floats(zero):
    top = 2 ** 63 - 1
    entries = [[[zero, top], [-top, zero]], [[zero, 2.0], [-2, 0]]]
    document = parse_input(json.dumps(_zero_doc(A=entries)))
    assert document.form.coefficients.tolist() == [[[0, top], [-top, 0]], [[0, 2], [-2, 0]]]


@pytest.mark.parametrize("value", [1.5, -0.5, 1e-300])
def test_parse_rejects_fractional_form_entries_as_invalid_form(value):
    doc = _zero_doc(A=[[[0, value], [-value, 0]], [[0, 0], [0, 0]]])
    with pytest.raises(FormInvalidError, match="coefficients must be integers"):
        parse_input(json.dumps(doc))


@pytest.mark.parametrize("seed", [-1, 1.5, True])
def test_parse_rejects_bad_seed(seed):
    with pytest.raises(ParseError, match="'seed'"):
        parse_input(json.dumps(_zero_doc(seed=seed)))


@pytest.mark.parametrize("seed,emitted", [(7, 7), (np.int64(7), 7), (7.0, 7), (2 ** 70, 2 ** 70),
                                          (1.5, None), ("7", None)])
def test_input_document_emits_integer_seeds_only(seed, emitted):
    if emitted is None:
        with pytest.raises(ValueError, match="seed must be integers"):
            input_document(product_form(2, 1), seed=seed)
    else:
        doc = input_document(product_form(2, 1), seed=seed)
        assert doc["seed"] == emitted and type(doc["seed"]) is int


def test_parse_rejects_degenerate_structure():
    doc = _zero_doc(V=[[[1.0, 0.0]], [[2.0, 0.0]]])
    with pytest.raises(StructureDegenerateError, match="'V'"):
        parse_input(json.dumps(doc))


# ---------------------------------------------------------------------------
# Tolerance precedence


def test_document_tol_beats_ambient_tol():
    document = parse_input(json.dumps(_zero_doc(tol=1e-3)), tol=1e-9)
    assert document.effective_tol == pytest.approx(1e-3)
    assert document.tol == pytest.approx(1e-3)


def test_override_beats_document_tol():
    document = parse_input(json.dumps(_zero_doc(tol=1e-3)), tol=1e-9,
                           tol_override=1e-6)
    assert document.effective_tol == pytest.approx(1e-6)
    # the document's own value is still reported
    assert document.tol == pytest.approx(1e-3)


def test_ambient_tol_used_without_document_tol():
    document = parse_input(json.dumps(_zero_doc()), tol=1e-7)
    assert document.effective_tol == pytest.approx(1e-7)
