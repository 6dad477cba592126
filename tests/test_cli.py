import contextlib
import dataclasses
import hashlib
import io
import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbi
from tbi import (ComplexStructure, ToleranceAmbiguityError, dumps, input_document,
                 iwasawa_datum, sample_point)
from tbi import cli
from tbi.catalog import CATALOG_NAMES

from support import (count_calls, count_frame_svds, gaussian_member, near_threshold_member,
                     random_alternating_form, skew_d2_image, small_member, subprocess_env)

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    try:
        import tomli as tomllib
    except ModuleNotFoundError:
        tomllib = None


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(dumps(obj) if not isinstance(obj, str) else obj)
    return str(path)


def _iwasawa_doc():
    datum = iwasawa_datum()
    return input_document(datum.form, datum.base, datum.fibre)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    code, out, err = _run(capsys, ["validate", path])
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["ok"] is True
    assert (payload["m"], payload["d"]) == (2, 1)
    assert payload["riemann_residual"] == 0.0
    assert payload["scale"] == 2.0


@pytest.mark.parametrize("command", ["validate", "invariants", "decompose"])
def test_document_checks_run_once(tmp_path, capsys, monkeypatch, command):
    # parse_input tests the form once and each period matrix once; the split's
    # basis change tests the fibre frame once more before membership, on the
    # singular values parse_input left: one frame SVD of V (4 x 4) and one of
    # U (2 x 2).
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    form_checks = count_calls(monkeypatch, tbi.lattices.validate_form)
    frame_checks = count_calls(monkeypatch, tbi.periods.validate_structure)
    frame_svds = count_frame_svds(monkeypatch)
    code, _, _ = _run(capsys, [command, path])
    assert code == 0
    assert (len(form_checks), len(frame_checks)) == (1, 3)
    assert frame_svds == [(4, 4), (2, 2)]


def test_validate_not_json(tmp_path, capsys):
    path = _write(tmp_path, "broken.json", "this is not json")
    code, out, err = _run(capsys, ["validate", path])
    assert code == 1
    assert err.startswith("error:")


LONG_INTEGER = "1" * 5000  # past Python's default limit of 4300 digits for int()
TOO_LONG = f"invalid JSON: an integer literal has more than {sys.get_int_max_str_digits()} digits"
MALFORMED_JSON = {
    "deep": ('{"m": 1, "d": 1, "A": ' + "[" * 100_000 + "]" * 100_000 + "}",
             "invalid JSON: nested too deeply"),
    "long-A": ('{"m": 1, "d": 1, "A": [[[0, %s], [0, 0]], [[0, 0], [0, 0]]]}' % LONG_INTEGER,
               TOO_LONG),
    "long-seed": ('{"m": 1, "d": 1, "A": [[[0, 1], [-1, 0]], [[0, 0], [0, 0]]], "seed": %s}'
                  % LONG_INTEGER, TOO_LONG),
}


@pytest.mark.parametrize("command", ["validate", "invariants"])
@pytest.mark.parametrize("name", MALFORMED_JSON)
def test_json_past_the_decoder_limits_exits_1(tmp_path, capsys, command, name):
    """json.loads raises RecursionError on deep nesting and ValueError on an
    integer literal past Python's digit limit; each is a parse error."""
    text, problem = MALFORMED_JSON[name]
    code, out, err = _run(capsys, [command, _write(tmp_path, f"{name}.json", text)])
    assert (code, out, err) == (1, "", f"error: {problem}\n")


def test_validate_missing_file(tmp_path, capsys):
    code, _, err = _run(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize("value", [1.5, -0.5])
def test_fractional_form_entry_exits_2(tmp_path, capsys, value):
    doc = _iwasawa_doc()
    doc["A"][0][0][1], doc["A"][0][1][0] = value, -value
    path = _write(tmp_path, "fractional.json", doc)
    code, out, err = _run(capsys, ["invariants", path])
    assert (code, out) == (2, "")
    assert err == "error: coefficients must be integers\n"


def test_validate_bad_form_exits_2(tmp_path, capsys):
    doc = _iwasawa_doc()
    doc["A"][0][0][1] = 5
    path = _write(tmp_path, "badform.json", doc)
    code, _, err = _run(capsys, ["validate", path])
    assert code == 2
    assert "(k=1, i=1, j=2)" in err


# Iwasawa made not alternating by a few 'A' entries, and the one violation
# each leaves, in the words of validate_form.
_SKEWED_DOCS = {
    "diagonal": ({(0, 0, 0): 1}, "(k=1, i=1, j=1): 1 != -1"),
    "symmetric": ({(0, 0, 1): 1, (0, 1, 0): 1}, "(k=1, i=1, j=2): 1 != -1"),
    "int64-min": ({(0, 0, 1): -2 ** 63, (0, 1, 0): -2 ** 63},
                  f"(k=1, i=1, j=2): {-2 ** 63} != {2 ** 63}"),
}


@pytest.mark.parametrize("argv", [["validate"], ["invariants"], ["group", "e1", "e3"], ["sample"]],
                         ids=["validate", "invariants", "group", "sample"])
@pytest.mark.parametrize("label", list(_SKEWED_DOCS))
def test_a_form_that_is_not_alternating_exits_2(tmp_path, capsys, label, argv):
    """Every command refuses the document while it builds the form, with
    exit code 2, no stdout and the violation on stderr."""
    entries, violation = _SKEWED_DOCS[label]
    doc = _iwasawa_doc()
    for (k, i, j), value in entries.items():
        doc["A"][k][i][j] = value
    path = _write(tmp_path, "skewed.json", doc)
    code, out, err = _run(capsys, [argv[0], path, *argv[1:]])
    assert (code, out) == (2, "")
    assert err == f"error: not alternating at {violation}\n"


def test_validate_degenerate_structure_exits_3(tmp_path, capsys):
    doc = _iwasawa_doc()
    doc["V"][1] = doc["V"][0]
    path = _write(tmp_path, "degenerate.json", doc)
    code, _, err = _run(capsys, ["validate", path])
    assert code == 3
    assert "'V'" in err


@pytest.mark.parametrize("command", ["validate", "decompose", "invariants"])
def test_overflowing_split_exits_3(tmp_path, capsys, command):
    """V of size 1e308 overflows the split: one error line and exit 3, not a
    traceback from the non-finite blocks or exit 4 on a nan residual."""
    doc = _iwasawa_doc()
    doc["V"] = [[[1e308 * x for x in pair] for pair in row] for row in doc["V"]]
    path = _write(tmp_path, "overflow.json", doc)
    code, out, err = _run(capsys, [command, path])
    assert (code, out) == (3, "")
    assert err == ("error: the split of the form along 'V' and 'U' is not finite: "
                   "a period matrix is too large or too small in scale\n")


def test_validate_incompatible_pair_exits_4(tmp_path, capsys):
    doc = _iwasawa_doc()
    doc["U"] = [[[1.0, 0.0]], [[0.0, 1.0]]]  # conjugate of a compatible fibre
    path = _write(tmp_path, "swapped.json", doc)
    code, _, err = _run(capsys, ["validate", path])
    assert code == 4
    assert "incompatible" in err


def test_tolerance_ambiguity_exits_5(tmp_path, capsys, monkeypatch):
    def raiser(datum, table=None):
        raise ToleranceAmbiguityError("synthetic rank bookkeeping failure")

    monkeypatch.setattr("tbi.cli.bundle_report", raiser)
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    code, _, err = _run(capsys, ["invariants", path])
    assert code == 5
    assert "synthetic" in err


def test_image_outside_kernel_exits_5(tmp_path, capsys, monkeypatch):
    datum = gaussian_member(np.random.default_rng(62), "mixed", 4, 2)
    path = _write(tmp_path, "mixed.json", input_document(datum.form, datum.base, datum.fibre))
    skew_d2_image(monkeypatch)
    code, out, err = _run(capsys, ["invariants", path])
    assert code == 5
    assert out == ""
    assert err.startswith("error: spectral block (2,1): ")
    assert err.endswith("(overlap rank 0, image rank 1)\n")
    assert err.count("\n") == 1


# Iwasawa's tables broken so that exactly one report identity fails: its
# structure-sheaf dimensions are (1, 2, 2, 1), h^3(Θ) = h^0(Ω^1) = 3 and h^1(O) = 2.
IDENTITY_BREAKS = {
    "palindrome": ("leray_table", lambda table: dataclasses.replace(
        table, e3=table.e3 + [[0, 0], [0, 0], [0, 1]]),
        "structure-sheaf dimensions [1, 2, 2, 2] are not a palindrome"),
    "top tangent": ("tangent_table", lambda tangent: dataclasses.replace(
        tangent, ker=tangent.ker[:-1] + (tangent.ker[-1] + 1,)),
        "h^3 of the tangent sheaf is 4, not the 3 global 1-forms"),
    "h1 two ways": ("leray_table", lambda table: dataclasses.replace(
        table, e3=table.e3 + [[0, 0], [1, 0], [1, 0]]),
        "h^1 of the structure sheaf is 3 from the spectral table, "
        "not 2 from the holomorphic block"),
}


@pytest.mark.parametrize("name", IDENTITY_BREAKS)
def test_broken_report_identity_exits_5(tmp_path, capsys, monkeypatch, name):
    builder, breaking, problem = IDENTITY_BREAKS[name]
    build = getattr(tbi.cohomology, builder)
    monkeypatch.setattr(tbi.cohomology, builder,
                        lambda *args: breaking(build(*args)))
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    code, out, err = _run(capsys, ["invariants", path])
    assert (code, out) == (5, "")
    assert err == f"error: inconsistent report at the working tolerance: {problem}\n"


def test_unconverged_svd_exits_5(tmp_path, capsys, monkeypatch):
    def raiser(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    monkeypatch.setattr(np.linalg, "svd", raiser)
    code, out, err = _run(capsys, ["invariants", path])
    assert code == 5
    assert out == ""
    assert err == "error: SVD did not converge\n"
    assert "Traceback" not in err


def test_oversized_tables_exit_1_before_any_table(tmp_path, capsys, monkeypatch):
    """n = 20 would need about 5.4 TB for its largest level piece: refused
    with exit 1 and one error line naming n and the estimate, before
    leray_table is reached."""
    def unreachable(*args, **kwargs):
        raise AssertionError("leray_table called for an oversized datum")

    datum = tbi.product_datum(16, 4)
    path = _write(tmp_path, "product.json", input_document(datum.form, datum.base, datum.fibre))
    monkeypatch.setattr(tbi.cohomology, "leray_table", unreachable)
    code, out, err = _run(capsys, ["invariants", path])
    assert (code, out) == (1, "")
    # The level piece from (7, 2) to (8, 2): 4·C(16,8)·C(4,2) x 16·C(16,7)·C(4,2).
    estimate = 16 * 4 * 16 * math.comb(16, 8) * math.comb(16, 7) * math.comb(4, 2) ** 2
    assert err == ("error: cohomology tables for n = m + d = 20 need an estimated "
                   f"{estimate} bytes, above the fixed limit of 8589934592 bytes\n")


def test_table_size_limit_accepts_n_15():
    """Every split of n = 15 fits: (9, 6) has the largest estimate, its level
    piece from (4, 3) to (5, 3), at 5.49e9 bytes."""
    for m in range(1, 15):
        tbi.require_table_fits(tbi.product_datum(m, 15 - m))


def test_table_size_limit_refuses_n_16_and_above():
    """(15, 1) is refused on its level piece from (7, 1) to (8, 1), 6435 x
    96525 complex entries, although its largest d2 block would fit.  No
    table is built: leray_table runs the check first."""
    for m, d in [(m, 16 - m) for m in range(1, 16)] + [(16, 1)]:
        with pytest.raises(tbi.TableTooLargeError, match=rf"n = m \+ d = {m + d} ") as caught:
            tbi.leray_table(tbi.product_datum(m, d))
        assert caught.value.exit_code == 1


def test_invariants_takes_one_upper_triangle_per_form(tmp_path, capsys, monkeypatch):
    """The group spot checks read the form's cached strict upper triangle,
    so a report takes at most one np.triu per extension form (other np.triu
    calls, on other arrays, are not counted)."""
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    forms, triangles = [], []
    post_init, triu = tbi.ExtensionForm.__post_init__, np.triu

    def counting_post_init(self):
        forms.append(self)
        post_init(self)

    def counting_triu(*args, **kwargs):
        triangles.append(args)
        return triu(*args, **kwargs)

    monkeypatch.setattr(tbi.ExtensionForm, "__post_init__", counting_post_init)
    monkeypatch.setattr(np, "triu", counting_triu)
    code, _, _ = _run(capsys, ["invariants", path])
    assert code == 0
    per_form = [sum(args[0] is form.coefficients for args in triangles) for form in forms]
    assert per_form and max(per_form) == 1


def _nan_in_v(doc):
    doc["V"][0][0][0] = float("nan")


def _infinite_tol(doc):
    doc["tol"] = float("inf")


def _huge_float_in_a(doc):
    doc["A"][0][0][1], doc["A"][0][1][0] = 1e300, -1e300


def _int64_overflow_in_a(doc):
    doc["A"][0][0][1], doc["A"][0][1][0] = 2 ** 63, -2 ** 63


def _nan_in_a(doc):
    doc["A"][0][0][1], doc["A"][0][1][0] = float("nan"), float("nan")


@pytest.mark.parametrize("corrupt,needle", [
    (_nan_in_v, "'V'"), (_infinite_tol, "'tol'"),
    (_huge_float_in_a, "int64 range"), (_int64_overflow_in_a, "int64 range"),
    (_nan_in_a, "int64 range"),
])
def test_non_finite_numbers_exit_1(tmp_path, capsys, corrupt, needle):
    code, out, _ = _run(capsys, ["catalog", "iwasawa"])
    doc = json.loads(out)
    corrupt(doc)
    path = _write(tmp_path, "corrupt.json", json.dumps(doc))  # writes NaN / Infinity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, ["invariants", path])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and needle in err
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# tolerance precedence


def _nudged_doc():
    doc = _iwasawa_doc()
    doc["U"][0][0] = [1.0, 1e-6]
    return doc


def test_nudged_document_fails_strict(tmp_path, capsys):
    path = _write(tmp_path, "nudged.json", _nudged_doc())
    code, _, _ = _run(capsys, ["validate", path])
    assert code == 4


def test_env_tolerance_accepts_nudge(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TBI_TOL", "1e-3")
    path = _write(tmp_path, "nudged.json", _nudged_doc())
    code, out, _ = _run(capsys, ["validate", path])
    assert code == 0
    assert json.loads(out)["tol"] == 1e-3


def test_flag_tolerance_accepts_nudge(tmp_path, capsys):
    path = _write(tmp_path, "nudged.json", _nudged_doc())
    code, _, _ = _run(capsys, ["validate", path, "--tol", "1e-3"])
    assert code == 0


def test_document_tolerance_accepts_nudge(tmp_path, capsys):
    path = _write(tmp_path, "nudged.json", _nudged_doc() | {"tol": 1e-3})
    code, _, _ = _run(capsys, ["validate", path])
    assert code == 0


def test_flag_beats_document_tolerance(tmp_path, capsys):
    path = _write(tmp_path, "nudged.json", _nudged_doc() | {"tol": 1e-3})
    code, _, _ = _run(capsys, ["validate", path, "--tol", "1e-12"])
    assert code == 4


@pytest.mark.parametrize("value", ["-3", "-0.5", "-.5", "-1e-05"])
def test_negative_flag_tolerance_reaches_the_tolerance_check(tmp_path, capsys, value):
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    code, out, err = _run(capsys, ["validate", path, "--tol", value])
    assert (code, out) == (1, "")
    assert err == "error: --tol must be a positive finite number\n"


def test_document_beats_env_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TBI_TOL", "1e-12")
    path = _write(tmp_path, "nudged.json", _nudged_doc() | {"tol": 1e-3})
    code, _, _ = _run(capsys, ["validate", path])
    assert code == 0


def test_bogus_env_tolerance_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TBI_TOL", "bogus")
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    code, _, err = _run(capsys, ["validate", path])
    assert code == 1
    assert "TBI_TOL" in err


# ---------------------------------------------------------------------------
# invariants


def test_invariants_iwasawa_json(tmp_path, capsys):
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    code, out, _ = _run(capsys, ["invariants", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["riemann"]["member"] is True
    assert payload["norms"] == {"holomorphic": 2.0, "hermitian": 0.0, "forbidden": 0.0}
    cohomology = payload["cohomology"]
    assert cohomology["h_structure"] == [1, 2, 2, 1]
    assert cohomology["h0_one_forms"] == 3
    assert cohomology["closed_one_forms"] == 2
    assert cohomology["h1_structure"] == 2
    assert cohomology["parallelizable"] is True
    assert cohomology["h_tangent"] == [3, 6, 6, 3]
    assert cohomology["deformation_target"] == 6
    assert cohomology["classification"] == "zero_hermitian"
    assert payload["group_checks"] == {"pairs_checked": 6, "all_match": True}
    assert payload["warnings"] == []
    assert all(set(entry) == {"label", "rank", "smallest_kept", "largest_dropped",
                              "threshold"} for entry in payload["rank_decisions"])


def test_invariants_product_json(tmp_path, capsys):
    code, out, _ = _run(capsys, ["catalog", "product", "--base-dim", "2",
                                 "--fibre-dim", "1"])
    assert code == 0
    path = _write(tmp_path, "product.json", out)
    code, out, _ = _run(capsys, ["invariants", path])
    assert code == 0
    cohomology = json.loads(out)["cohomology"]
    assert cohomology["h_structure"] == [1, 3, 3, 1]
    assert cohomology["classification"] == "abelian"
    assert cohomology["parallelizable"] is True


def test_invariants_table_format(tmp_path, capsys):
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    code, out, _ = _run(capsys, ["invariants", path, "--format", "table"])
    assert code == 0
    assert "first-page dimensions" in out
    assert "surviving dimensions:" in out
    assert "structure sheaf dimensions: [1, 2, 2, 1]" in out
    assert "tangent sheaf dimensions: [3, 6, 6, 3]" in out
    assert "classification: zero_hermitian" in out


def test_invariants_table_format_builds_spectral_table_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = tbi.cohomology.leray_table

    def counting(datum):
        calls.append(datum)
        return original(datum)

    monkeypatch.setattr("tbi.cohomology.leray_table", counting)
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    code, out, _ = _run(capsys, ["invariants", path, "--format", "table"])
    assert code == 0
    assert "tangent sheaf dimensions: [3, 6, 6, 3]" in out
    assert len(calls) == 1


def test_invariants_deterministic_in_process(tmp_path, capsys):
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    _, first, _ = _run(capsys, ["invariants", path])
    _, second, _ = _run(capsys, ["invariants", path])
    assert first == second


def _sampled_member_doc(seed):
    form = random_alternating_form(np.random.default_rng(seed), 2, 1)
    result = sample_point(form, seed=seed)
    return input_document(form, result.base, result.fibre)


NEAR_THRESHOLD_DOCS = {"iwasawa": _iwasawa_doc, "sampled-89": lambda: _sampled_member_doc(89)}


# At these coarse tolerances some rank decisions land within a factor 10 of
# their cut, so the report carries warnings.  Columns: document, tol, number
# of warnings, and the sha256 of `tbi invariants` stdout in json and in table
# format, recorded before the warnings were derived from the rank decisions.
# The tol 0.1 rows were recorded again when the near band lost its upper limit
# at tol * 10 >= 1: the values on that limit (the largest singular value, and
# overlap cosines of 1) now count as near, so those reports carry 4 and 7.
# The sampled-89 json row was recorded again when the whole level pieces at
# d = 1 took their singular values in closed form: smallest_kept and threshold
# of "level map at degree 0" and "level map at degree 2" moved in their last
# digits, and the warnings stayed at 7.  The three json rows were recorded
# again when the report dropped cohomology.twist_residual: that one line is
# the only difference, and the table rows did not move.  The sampled-89 rows
# were recorded again when decompose took the split as two matrix products:
# the riemann residual and forbidden norm moved from 8.899e-16 to 4.441e-16
# (the table prints that residual too), smallest_kept of "holomorphic block"
# and "d2 out of (0,1)" moved in their last digits, and the warnings stayed
# at 7.  The sampled-89 rows were recorded again when sample_point began to
# fail an attempt whose base frame is nearly singular instead of redrawing
# it: the first draw of seed 89 is one, so the point now comes from attempt
# 2, and the warnings stayed at 7.
@pytest.mark.parametrize("name,tol,count,json_digest,table_digest", [
    pytest.param("iwasawa", 0.3, 4,
                 "34f5e895346d0898772e2bbce79837471d3eb0c6288cb6bfea8e24954c8bd239",
                 "7e445e68c386be763850248157875313f1376984622f7183dc9c1bacfa2b2df5",
                 id="iwasawa-0.3"),
    pytest.param("iwasawa", 0.1, 4,
                 "1ea7a89f940784658420b868a5766332ce9b082c81b8baba850533894c42964b",
                 "ff6dda264e3e8fe54b087c6d60fe72ae933aee1c0e7498309479f9148b6ffd00",
                 id="iwasawa-0.1"),
    pytest.param("sampled-89", 0.1, 7,
                 "63b574fe1819eab23d02535f60fb2825be8b2721ff1d21893c459be91e2b1062",
                 "4383a1d1674a45265ae2848e859d657c533da0fb781f318f3b65bd7ad1e1bbba",
                 id="sampled-89-0.1"),
])
def test_invariants_near_threshold_stdout_frozen(tmp_path, capsys, name, tol, count,
                                                 json_digest, table_digest):
    path = _write(tmp_path, "doc.json", dict(NEAR_THRESHOLD_DOCS[name](), tol=tol))
    code, out, err = _run(capsys, ["invariants", path])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["warnings"]) == count
    assert hashlib.sha256(out.encode()).hexdigest() == json_digest
    code, out, err = _run(capsys, ["invariants", path, "--format", "table"])
    assert (code, err) == (0, "")
    assert sum(line.startswith("warning: ") for line in out.splitlines()) == count
    assert hashlib.sha256(out.encode()).hexdigest() == table_digest


def test_invariants_parallelizable_follows_the_hermitian_rank(tmp_path, capsys):
    """The hermitian block of near_threshold_member has max-norm below the cut
    and rank 1: the report says not parallelizable, and mixed."""
    datum = near_threshold_member()
    path = _write(tmp_path, "near.json",
                  input_document(datum.form, datum.base, datum.fibre, tol=datum.tol))
    code, out, err = _run(capsys, ["invariants", path])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    hermitian = next(entry for entry in payload["rank_decisions"]
                     if entry["label"] == "hermitian block")
    assert hermitian["rank"] == 1 and payload["norms"]["hermitian"] < hermitian["threshold"]
    cohomology = payload["cohomology"]
    assert (cohomology["parallelizable"], cohomology["classification"]) == (False, "mixed")
    assert cohomology["h0_one_forms"] == 3
    code, out, err = _run(capsys, ["invariants", path, "--format", "table"])
    assert (code, err) == (0, "")
    assert "parallelizable: False\n" in out and "classification: mixed\n" in out


# sha256 of `tbi invariants --format table` stdout on the catalog documents,
# the Kodaira surface and the SMALL_MEMBERS slots (kind.m.d), recorded when the
# table format still built its own spectral table.  The format prints no
# float beyond .3e, so the digests do not move with the last bits of an SVD.
TABLE_FORMAT_DIGESTS = {
    "iwasawa": "1402e71ee93bd97e3632efe89a2d5ba9f37619d6b1ce01fdf690963b9e542ac2",
    "product": "fd3ab546c90d1675792e59663fdae7f03cd641eb75955e3a788aa87b1c68f6ba",
    "kodaira": "b6dce454b4835265b3b64f463060954ae297d75fb479ba054b05f78267d340a9",
    "mixed.2.1": "8784c2763c4c6fe5c64734dad789b20ddbe3a05f6a06571468f7c2403719e550",
    "mixed.2.2": "71f109fb552515f0c5289a80869c020a96fa570b20add852677695edcc90e31a",
    "mixed.3.1": "edc511c4e91bc05dca5f90d9aaa6488652a062aed1eb04b773ab7842b7ae063d",
    "mixed.3.2": "de939639dbeb71de262fc1aad5519bba70a3549b53fd37c4659b36e935128346",
    "mixed.4.1": "005c40949af0e341cba8c837b3de05e2fb1fc15b2460d3152f5b99b88a98ca39",
    "mixed.4.2": "f1d240de2c86083f21baa342be9a6fe22be9f42486e0cf7386351677316ef203",
    "mixed.5.1": "87131f208b1fe213956935db8223adf57ba9f202644aadb2bb2105515adf1b33",
    "mixed.5.2": "5595fbbcc4c6d68a8fe5ab387871ec3b98e6740dc8b91e5a261cc02bd8bd11b6",
    "pure_hermitian.2.1": "469a3df0a067809723611500f9f74f35c9f554de30fae367b72fbffcb49bd23d",
    "pure_hermitian.2.2": "c1348db97646724234b1f7d7ced733a10b1dbc171e84ba6e763b2700cdcd3b43",
    "pure_hermitian.3.1": "c2b8ad3b1ef02b63b4e4beceb093df4a54b1a102a076b6c497824b8892878ac1",
    "pure_hermitian.3.2": "1ed9b5c1954c8ad9084675cc6e0b86ad94f64c5c5cb9dbd3543855a2aadc284b",
    "pure_hermitian.4.1": "ae590bf5410c2839e312855613b53c10dbacf24293582bad4a89f179765db992",
    "pure_hermitian.4.2": "ae12b28b25d4da5e1b472914c8943d95cf258a93f6d638b62d95abca725ffbaf",
    "pure_hermitian.5.1": "bf21e1890a2da26142c7855f377cbaaf942c08750e63f95d817c38294ea4cf1f",
    "pure_hermitian.5.2": "ee9254354881d4e2256485b21dd0e8c5c29f5694ff39fe1d3de6113a48780582",
    "zero_hermitian.2.1": "f631221a523b4bc3c0d38d1373ac030c2ceb5748b4ff0f214669ab6df82c4023",
    "zero_hermitian.2.2": "0ac2c699bca622880df18260a6e3df75742b6e3bbf2afc49f487371a81c763f7",
    "zero_hermitian.3.1": "1edf1d3af80efaac6bc4f1e5be162f7145b99ca1f089248496af5e99a93129c3",
    "zero_hermitian.3.2": "ef18d124d2d52f1d3161c56c1862b54af81104d3980ecad45181ab9e7e3f34bb",
    "zero_hermitian.4.1": "e647eead408b53c2154f1a22d9092cb106e7f6b8bb533e7f9b5af8d31f056a35",
    "zero_hermitian.4.2": "a2a43875033f90efc402dea31e1a69181019fe12155b4a82048acebc8b67627a",
    "zero_hermitian.5.1": "cccdd1b50d93b7a8c15a4b73eb3e8d4e634a1abc5dae886e43727c5882e3979c",
    "zero_hermitian.5.2": "9ef27aeb13c684957f6ad262b6f72755db5f6bb7bcbd1554203b9aeffd6671e3",
}


def _frozen_datum(request, name):
    if name == "kodaira":
        return request.getfixturevalue("kodaira_surface")
    if name in CATALOG_NAMES:
        return tbi.catalog_datum(name)
    kind, m, d = name.split(".")
    return small_member(kind, int(m), int(d))


@pytest.mark.parametrize("name", TABLE_FORMAT_DIGESTS)
def test_invariants_table_stdout_frozen(tmp_path, capsys, request, name):
    datum = _frozen_datum(request, name)
    path = _write(tmp_path, "doc.json", input_document(datum.form, datum.base, datum.fibre))
    code, out, err = _run(capsys, ["invariants", path, "--format", "table"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_FORMAT_DIGESTS[name]


PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
# Read from PYPROJECT when a TOML reader is importable; this copy is used only
# on Python 3.10 without tomli.
CONSOLE_SCRIPT_TARGET = "tbi.cli:main"


def _console_script_target():
    """The `[project.scripts] tbi` target declared in pyproject.toml."""
    if tomllib is None:
        return CONSOLE_SCRIPT_TARGET
    with open(PYPROJECT, "rb") as handle:
        return tomllib.load(handle)["project"]["scripts"]["tbi"]


def _console_script_command(target):
    """Run a `module:attr` target in a fresh interpreter the way the wrapper
    that pip generates for a console script does."""
    module, _, attr = target.partition(":")
    code = (f"import sys; from {module} import {attr.split('.')[0]}; "
            f"sys.exit({attr}())")
    return [sys.executable, "-c", code]


def _stdout(command, cwd):
    done = subprocess.run(command, capture_output=True, cwd=cwd, env=subprocess_env())
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return done.stdout


def _assert_matches_module(command, tmp_path):
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    from_command = _stdout(command + ["invariants", path], tmp_path)
    from_module = _stdout([sys.executable, "-m", "tbi", "invariants", path], tmp_path)
    assert json.loads(from_module)["riemann"]["member"] is True
    assert from_command == from_module
    assert _stdout(command + ["invariants", path], tmp_path) == from_command


def test_invariants_deterministic_across_entry_points(tmp_path):
    command = _console_script_command(_console_script_target())
    _assert_matches_module(command, tmp_path)


def test_cli_import_loads_no_scipy(tmp_path):
    code = ("import sys, tbi.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'concurrent')))")
    assert _stdout([sys.executable, "-c", code], tmp_path) == b"[]\n"


def test_cli_import_leaves_numpy_random_unloaded(tmp_path):
    # tbi sample imports it on its first search.
    code = "import sys, tbi.cli; print('numpy.random' in sys.modules)"
    assert _stdout([sys.executable, "-c", code], tmp_path) == b"False\n"


@pytest.mark.skipif(shutil.which("tbi") is None,
                    reason="no installed tbi console script on PATH")
def test_installed_console_script_matches_module(tmp_path):
    _assert_matches_module([shutil.which("tbi")], tmp_path)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_iwasawa(tmp_path, capsys):
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    code, out, _ = _run(capsys, ["decompose", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["blocks"]["holomorphic"][0][0][1] == [2.0, 0.0]
    assert payload["blocks"]["holomorphic"][0][1][0] == [-2.0, 0.0]
    assert payload["norms"]["forbidden"] == 0.0


def test_decompose_reports_nonmember_without_failing(tmp_path, capsys):
    doc = _iwasawa_doc()
    doc["U"] = [[[1.0, 0.0]], [[0.0, 1.0]]]
    path = _write(tmp_path, "swapped.json", doc)
    code, out, _ = _run(capsys, ["decompose", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is False
    assert payload["norms"]["forbidden"] == 2.0


# sha256 of `tbi decompose` stdout on the NEAR_THRESHOLD_DOCS at the default
# tol, recorded while DecomposedForm still carried a tol field, which the
# printed blocks left out.
DECOMPOSE_DIGESTS = {
    "iwasawa": "9f3e60a09d65bb541338bbfa4229d241a8f51f19162c94244dc98f5a7acb497a",
    "sampled-89": "79f079c8f926ee354b68fc006dbea058f2f88ca1a51b6800d0c32247dc83c705",
}


@pytest.mark.parametrize("name", DECOMPOSE_DIGESTS)
def test_decompose_stdout_frozen(tmp_path, capsys, name):
    path = _write(tmp_path, "doc.json", NEAR_THRESHOLD_DOCS[name]())
    code, out, err = _run(capsys, ["decompose", path])
    assert (code, err) == (0, "")
    assert list(json.loads(out)["blocks"]) == ["holomorphic", "hermitian", "antiholomorphic"]
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_DIGESTS[name]


# ---------------------------------------------------------------------------
# sample


def _form_only_doc():
    doc = _iwasawa_doc()
    del doc["V"]
    del doc["U"]
    return doc


def test_sample_finds_points(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, _ = _run(capsys, ["sample", path, "--seed", "11", "--count", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 11
    assert payload["found"] == 3
    assert len(payload["points"]) == 3
    assert payload["failures"] == []
    assert len(payload["attempts"]) == 3


def test_sampled_points_revalidate(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, _ = _run(capsys, ["sample", path, "--seed", "11", "--count", "2"])
    assert code == 0
    for index, point in enumerate(json.loads(out)["points"]):
        point_path = _write(tmp_path, f"point{index}.json", point)
        code, _, _ = _run(capsys, ["validate", point_path])
        assert code == 0


def test_sample_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    _, first, _ = _run(capsys, ["sample", path, "--seed", "3", "--count", "4"])
    _, second, _ = _run(capsys, ["sample", path, "--seed", "3", "--count", "4"])
    assert first == second


def test_sample_uses_document_seed(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc() | {"seed": 11})
    code, out, _ = _run(capsys, ["sample", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 11
    assert payload["found"] == 1


def test_sample_reports_failures(tmp_path, capsys):
    rng = np.random.default_rng(61)
    form = random_alternating_form(rng, 3, 2)
    doc = input_document(form)
    path = _write(tmp_path, "hard.json", doc)
    code, out, _ = _run(capsys, ["sample", path, "--seed", "7", "--count", "1",
                                 "--max-attempts", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] == 0
    assert payload["failures"][0]["attempts"] == 5
    assert payload["failures"][0]["best_residual"] is None


@pytest.mark.parametrize("flag", ["--seed", "--count", "--max-attempts"])
def test_sample_rejects_negative_flag(tmp_path, capsys, flag):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, err = _run(capsys, ["sample", path, flag, "-1"])
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must be a non-negative integer\n"


def test_sample_accepts_zero_flags(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, _ = _run(capsys, ["sample", path, "--seed", "0", "--count", "0",
                                 "--max-attempts", "0"])
    assert code == 0
    assert json.loads(out)["attempts"] == []


# ---------------------------------------------------------------------------
# group


def test_group_basis_commutator(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, _ = _run(capsys, ["group", path, "e2", "e4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["commutator"] == {"fibre": [-1, 0], "base": [0, 0, 0, 0]}
    assert payload["form_value"] == [-1, 0]
    assert payload["commutator_matches_form"] is True


def test_group_explicit_vector_syntax(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, _ = _run(capsys, ["group", path, "0,0/0,1,0,0", "e4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["g1"] == {"fibre": [0, 0], "base": [0, 1, 0, 0]}
    assert payload["commutator"]["fibre"] == [-1, 0]


def test_group_product_and_inverse(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, _ = _run(capsys, ["group", path, "e1", "e3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["product"] == {"fibre": [1, 0], "base": [1, 0, 1, 0]}
    assert payload["inverse_g1"]["base"] == [-1, 0, 0, 0]


def test_group_element_may_start_with_a_negative_number(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, _ = _run(capsys, ["group", path, "-1,0/0,0,0,0", "e1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["g1"] == {"fibre": [-1, 0], "base": [0, 0, 0, 0]}
    assert payload["product"] == {"fibre": [-1, 0], "base": [1, 0, 0, 0]}


def test_group_takes_no_tol(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["group", path, "e1", "e3", "--tol", "1e-3"])
    assert excinfo.value.code == 1
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("element", ["x3", "e9", "f3", "1,2/3", "a/b"])
def test_group_rejects_bad_elements(tmp_path, capsys, element):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, _, err = _run(capsys, ["group", path, element, "e1"])
    assert code == 1
    assert err.startswith("error:")


def test_group_rejects_string_form_entries(tmp_path, capsys):
    path = _write(tmp_path, "strings.json",
                  '{"m":1,"d":1,"A":[[["0","1"],["-1","0"]],[[0,0],[0,0]]]}')
    code, out, err = _run(capsys, ["group", path, "e1", "e2"])
    assert code == 1
    assert out == ""
    assert err == "error: 'A' entries must be numbers\n"


@pytest.mark.parametrize("g1", ["123456789012345678901,0/1,0,0,0",
                                "0,0/1,0,-9223372036854775809,0"])
def test_group_is_exact_beyond_int64(tmp_path, capsys, g1):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, err = _run(capsys, ["group", path, g1, "1,0/0,0,1,0"])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    fibre, base = ([int(x) for x in part.split(",")] for part in g1.split("/"))
    assert payload["g1"] == {"fibre": fibre, "base": base}
    # e1 * e3 picks up A(e1, e3) = f1, the only cocycle term of these bases.
    assert payload["product"] == {"fibre": [fibre[0] + 1 + base[0], fibre[1]],
                                  "base": [base[0], 0, base[2] + 1, 0]}
    assert payload["commutator_matches_form"] is True


def test_group_products_past_int64_are_exact(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, _ = _run(capsys, ["group", path, "0,0/1099511627776,0,0,0",
                                 "0,0/0,0,1099511627776,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["product"]["fibre"] == payload["commutator"]["fibre"] == [2 ** 80, 0]
    assert payload["form_value"] == [2 ** 80, 0]
    assert payload["commutator_matches_form"] is True


def test_group_keeps_int64_extreme_coordinates(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, _ = _run(capsys, ["group", path, "9223372036854775807,0/0,0,0,0",
                                 "0,-9223372036854775808/0,0,0,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["g1"]["fibre"] == [2 ** 63 - 1, 0]
    assert payload["g2"]["fibre"] == [0, -2 ** 63]


def test_group_law_checks_see_a_broken_product(tmp_path, capsys, monkeypatch):
    """The spot checks of invariants and group compare the product chain
    g1 g2 g1^-1 g2^-1 with the form's value, so a product that is off by one
    in the fibre fails them; a check that read the closed-form commutator
    would compare the form's value with itself and pass."""
    multiply = cli.group_multiply

    def broken(form, g1, g2):
        product = multiply(form, g1, g2)
        return tbi.GroupElement(product.fibre + 1, product.base)

    monkeypatch.setattr(cli, "group_multiply", broken)
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    code, out, _ = _run(capsys, ["invariants", path])
    assert code == 0
    assert json.loads(out)["group_checks"] == {"pairs_checked": 6, "all_match": False}
    code, out, _ = _run(capsys, ["group", path, "e2", "e4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["form_value"] == [-1, 0]
    assert payload["commutator_matches_form"] is False


def test_group_law_checks_see_a_broken_inverse(tmp_path, capsys, monkeypatch):
    """An inverse that is off by one in the fibre fails the spot checks too,
    and invariants takes each of the four lifts' inverses once."""
    inverse, operands = cli.group_inverse, []

    def broken(form, g):
        operands.append(g)
        result = inverse(form, g)
        return tbi.GroupElement(result.fibre + 1, result.base)

    monkeypatch.setattr(cli, "group_inverse", broken)
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    code, out, _ = _run(capsys, ["invariants", path])
    assert code == 0
    assert json.loads(out)["group_checks"] == {"pairs_checked": 6, "all_match": False}
    assert [g.base.tolist() for g in operands] == np.eye(4, dtype=int).tolist()
    code, out, _ = _run(capsys, ["group", path, "e2", "e4"])
    assert code == 0
    assert json.loads(out)["commutator_matches_form"] is False


def test_group_records_list_only_the_parts(tmp_path, capsys):
    """An element's cached _largest is no dataclass field, so no record has it."""
    assert list(cli._record(tbi.GroupElement([2 ** 70, 0], [1, 0, 0, 0]))) == ["fibre", "base"]
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, _ = _run(capsys, ["group", path, "1180591620717411303424,0/1,0,0,0", "e3"])
    assert code == 0
    payload = json.loads(out)
    for name in ("g1", "g2", "product", "inverse_g1", "commutator"):
        assert list(payload[name]) == ["fibre", "base"]


# ---------------------------------------------------------------------------
# catalog


def test_catalog_iwasawa_round_trip(tmp_path, capsys):
    code, out, _ = _run(capsys, ["catalog", "iwasawa"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["m"], payload["d"]) == (2, 1)
    path = _write(tmp_path, "emitted.json", out)
    code, _, _ = _run(capsys, ["validate", path])
    assert code == 0


def test_catalog_product_dimensions(capsys):
    code, out, _ = _run(capsys, ["catalog", "product", "--base-dim", "3",
                                 "--fibre-dim", "2"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["m"], payload["d"]) == (3, 2)


@pytest.mark.parametrize("flag", ["--base-dim", "--fibre-dim"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_catalog_product_rejects_non_positive_dimensions(capsys, flag, value):
    code, out, err = _run(capsys, ["catalog", "product", flag, value])
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must be a positive integer\n"


def test_catalog_and_table_size_check_take_no_split(capsys, monkeypatch):
    """The catalog emits its data and require_table_fits sizes a datum from
    its structures, without splitting the form."""
    calls = count_calls(monkeypatch, tbi.decompose)
    assert _run(capsys, ["catalog", "product", "--base-dim", "20"])[0] == 0
    assert _run(capsys, ["catalog", "iwasawa"])[0] == 0
    with pytest.raises(tbi.TableTooLargeError):
        tbi.require_table_fits(tbi.product_datum(16, 4))
    assert calls == []


NUMPY_REFUSAL = ("Unable to allocate 596. GiB for an array with shape (2, 200000, 200000) "
                 "and data type int64")


@pytest.mark.parametrize("message,line", [(NUMPY_REFUSAL, NUMPY_REFUSAL), ("", "out of memory")])
def test_memory_error_exits_1(capsys, monkeypatch, message, line):
    """An allocation that fails ends as one error line.  The failure is
    raised by a stand-in: a host that overcommits memory may start to fill a
    really oversized array instead of refusing it."""
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "catalog_datum", refuse)
    code, out, err = _run(capsys, ["catalog", "product", "--base-dim", "100000"])
    assert (code, out, err) == (1, "", f"error: {line}\n")


def test_catalog_datum_refuses_an_unknown_name():
    with pytest.raises(KeyError, match="unknown catalog name 'bogus'; known: iwasawa, product"):
        tbi.catalog_datum("bogus")


def test_catalog_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["catalog", "unknown"])
    assert excinfo.value.code == 1


# ---------------------------------------------------------------------------
# curve


def test_curve_with_chern(capsys):
    code, out, _ = _run(capsys, ["curve", "--genus", "2", "--fibre-dim", "1",
                                 "--chern", "2,4"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kuranishi_dim"] == 6
    assert payload["divisibility_index"] == 2


def test_curve_without_chern(capsys):
    code, out, _ = _run(capsys, ["curve", "--genus", "3", "--fibre-dim", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kuranishi_dim"] == 10
    assert "divisibility_index" not in payload


@pytest.mark.parametrize("chern,gcd", [("-2,4", 2),
                                       ("99999999999999999999,0", 99999999999999999999)])
def test_curve_chern_negative_or_beyond_int64_is_exact(capsys, chern, gcd):
    code, out, err = _run(capsys, ["curve", "--genus", "2", "--fibre-dim", "1",
                                   "--chern", chern])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["chern"] == [int(x) for x in chern.split(",")]
    assert payload["divisibility_index"] == gcd


def test_curve_low_genus_exits_1(capsys):
    code, _, err = _run(capsys, ["curve", "--genus", "1", "--fibre-dim", "1"])
    assert code == 1
    assert "genus" in err


def test_curve_wrong_chern_length_exits_1(capsys):
    code, _, err = _run(capsys, ["curve", "--genus", "2", "--fibre-dim", "2",
                                 "--chern", "1,2"])
    assert code == 1
    assert "--chern" in err


@pytest.mark.parametrize("fibre_dim,chern", [("-1", "1,2"), ("0", "1")])
def test_curve_fibre_dim_is_checked_before_chern(capsys, fibre_dim, chern):
    """The --chern length is 2 * --fibre-dim, so a fibre dimension below 1
    is named before --chern is read."""
    argv = ["curve", "--genus", "2", "--fibre-dim", fibre_dim, "--chern", chern]
    assert _run(capsys, argv) == (1, "", "error: fibre dimension must be positive\n")


@pytest.mark.parametrize("argv,message", [
    (["curve", "--genus", "2", "--fibre-dim", "1", "--chern", "1.5,2"], "--chern"),
    (["group", None, "1.5,0/0,0,0,0", "e1"], "fibre part"),
], ids=["curve-chern", "group-fibre-part"])
def test_non_integer_vector_entries_exit_1(tmp_path, capsys, argv, message):
    path = _write(tmp_path, "form.json", _form_only_doc())
    argv = [path if arg is None else arg for arg in argv]
    assert _run(capsys, argv) == (1, "", f"error: {message} entries must be integers\n")


# ---------------------------------------------------------------------------
# parser plumbing


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["no-such-command"])
    assert excinfo.value.code == 1


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr("tbi.cli.build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert cli.main(["catalog", "iwasawa"]) == 0
        assert cli.main(["curve", "--genus", "2", "--fibre-dim", "1"]) == 0
        assert len(built) == 1
        # a usage error after a successful call still exits 1
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["catalog", "no-such-name"])
        assert excinfo.value.code == 1
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()


def test_handlers_are_resolved_at_call_time(monkeypatch, capsys):
    cli.main(["catalog", "iwasawa"])  # the cached parser exists from here on
    monkeypatch.setattr("tbi.cli.cmd_curve", lambda args: 42)
    assert cli.main(["curve", "--genus", "2", "--fibre-dim", "1"]) == 42
    capsys.readouterr()


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0


# ---------------------------------------------------------------------------
# Property: every argv ends on a documented exit code


@st.composite
def _small_documents(draw):
    """JSON text of a document with m, d <= 2: an alternating, zero or
    arbitrary form, standard or random structures or none, each scaled by a
    power of ten up to 10**±300, and valid or arbitrary tol and seed."""
    m, d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    size = 2 * d * (2 * m) ** 2
    a = np.array(draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size)))
    a = a.reshape(2 * d, 2 * m, 2 * m)
    if draw(st.booleans()):
        a = a - a.transpose(0, 2, 1)
    if draw(st.booleans()):
        a = np.zeros_like(a)
    doc = {"m": m, "d": d, "A": a.tolist()}
    for key, n in (("V", m), ("U", d)) if draw(st.booleans()) else ():
        if draw(st.booleans()):
            period = tbi.standard_structure(n).period
        else:
            pair = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
            period = np.array([[complex(*draw(pair)) for _ in range(n)] for _ in range(2 * n)])
        doc[key] = tbi.complex_to_pairs(period * 10.0 ** draw(st.integers(-300, 300)))
    for key, valid in (("tol", st.floats(1e-12, 1e-3)), ("seed", st.integers(0, 9))):
        if draw(st.booleans()):
            doc[key] = draw(st.one_of(valid, st.none(), st.integers(), st.floats()))
    return json.dumps(doc)


# Each value is drawn half the time from values the checks accept, so that
# every subcommand also reaches its computation.
_ELEMENTS = st.one_of(st.sampled_from(["e1", "e2", "f1", "f2", "0,0/0,0", "1,2/3,4,5,6"]),
                      st.text(max_size=6))
_TOLS = st.one_of(st.floats(1e-12, 1e-3), st.floats())
_SMALL = st.one_of(st.integers(0, 5), st.integers(max_value=5))


@st.composite
def _argvs(draw, path):
    command = draw(st.sampled_from(["validate", "invariants", "decompose", "sample",
                                    "group", "catalog", "curve"]))
    argv = [command]
    if command in ("validate", "invariants", "decompose", "sample", "group"):
        argv.append(path)
    if command in ("validate", "invariants", "decompose", "sample") and draw(st.booleans()):
        argv += ["--tol", repr(draw(_TOLS))]
    if command == "invariants":
        argv += ["--format", draw(st.sampled_from(["json", "table"]))]
    elif command == "sample":
        if draw(st.booleans()):
            argv += ["--seed", str(draw(st.one_of(st.integers(0, 9), st.integers())))]
        argv += ["--count", str(draw(_SMALL)), "--max-attempts", str(draw(_SMALL))]
    elif command == "group":
        argv += ["--", draw(_ELEMENTS), draw(_ELEMENTS)]
    elif command == "catalog":
        # Dimensions stay small: a size bound for large n is a separate matter.
        argv += [draw(st.sampled_from(["iwasawa", "product"])),
                 "--base-dim", str(draw(st.one_of(st.integers(1, 3), st.integers(max_value=3)))),
                 "--fibre-dim", str(draw(st.one_of(st.integers(1, 2), st.integers(max_value=2))))]
    elif command == "curve":
        argv += ["--genus", str(draw(st.one_of(st.integers(2, 5), st.integers()))),
                 "--fibre-dim", str(draw(st.one_of(st.integers(1, 3), st.integers())))]
        if draw(st.booleans()):
            chern = draw(st.lists(st.integers(), max_size=4))
            argv += ["--chern", ",".join(map(str, chern))]
    return argv


def _flag(argv, name):
    return int(argv[argv.index(name) + 1]) if name in argv else 0


def _exit_code(argv):
    """cli.main's return value, or the code of the SystemExit argparse raises."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 1)
            return exc.code


def _assert_documented_exit(argv):
    """argv ends on a documented exit code, 1 for a negative sample flag or
    a catalog dimension below 1, with no exception and no RuntimeWarning."""
    code = _exit_code(argv)
    assert code in range(6)
    if argv[0] == "sample" and min(_flag(argv, flag) for flag in
                                   ("--seed", "--count", "--max-attempts")) < 0:
        assert code == 1
    if argv[0] == "catalog" and min(_flag(argv, "--base-dim"), _flag(argv, "--fibre-dim")) < 1:
        assert code == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), text=_small_documents())
def test_every_argv_ends_on_a_documented_exit_code(data, text):
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory, "doc.json")
        path.write_text(text)
        _assert_documented_exit(data.draw(_argvs(str(path))))


# A fixed corpus beside the property: documents and argvs drawn as the two
# strategies above draw them, from numpy generators seeded by case index, so
# the inputs do not move with the literals in the source.  Where a strategy
# draws an arbitrary number, the corpus takes one of these edges.
_EDGE_INTS = (-1, 0, 7, 2 ** 63, -2 ** 63 - 1, 10 ** 30)
_EDGE_FLOATS = (0.0, -1.0, 0.5, 5e-324, 1271161007.0, 1e308, math.inf, -math.inf, math.nan)
_EDGE_TEXTS = ("", "e0", "f9", "e", "/", "1,2/", "x", "1,2,3/4")


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _seeded_document(rng):
    """JSON text of a document as _small_documents draws it."""
    m, d = (int(x) for x in rng.integers(1, 3, size=2))
    a = rng.integers(-2, 3, size=(2 * d, 2 * m, 2 * m))
    if rng.random() < 0.5:
        a = a - a.transpose(0, 2, 1)
    if rng.random() < 0.5:
        a = np.zeros_like(a)
    doc = {"m": m, "d": d, "A": a.tolist()}
    for key, n in (("V", m), ("U", d)) if rng.random() < 0.5 else ():
        if rng.random() < 0.5:
            period = tbi.standard_structure(n).period
        else:
            period = rng.integers(-2, 3, size=(2 * n, n)) + 1j * rng.integers(-2, 3, size=(2 * n, n))
        doc[key] = tbi.complex_to_pairs(period * 10.0 ** int(rng.integers(-300, 301)))
    for key, valid in (("tol", float(rng.uniform(1e-12, 1e-3))), ("seed", int(rng.integers(10)))):
        if rng.random() < 0.5:
            doc[key] = _pick(rng, (valid, None, _pick(rng, _EDGE_INTS), _pick(rng, _EDGE_FLOATS)))
    return json.dumps(doc)


def _seeded_argv(rng, path):
    """An argv on path as _argvs draws it."""
    def number(low, high, edges):  # as st.one_of(st.integers(low, high), edges)
        return str(int(rng.integers(low, high + 1)) if rng.random() < 0.5 else _pick(rng, edges))

    command = _pick(rng, ("validate", "invariants", "decompose", "sample", "group", "catalog",
                          "curve"))
    argv = [command]
    if command in ("validate", "invariants", "decompose", "sample", "group"):
        argv.append(path)
    if command in ("validate", "invariants", "decompose", "sample") and rng.random() < 0.5:
        tol = float(rng.uniform(1e-12, 1e-3)) if rng.random() < 0.5 else _pick(rng, _EDGE_FLOATS)
        argv += ["--tol", repr(tol)]
    small = (-1, 0, 5, -2 ** 63 - 1)  # the arbitrary integers of _SMALL stay at most 5
    if command == "invariants":
        argv += ["--format", _pick(rng, ("json", "table"))]
    elif command == "sample":
        if rng.random() < 0.5:
            argv += ["--seed", number(0, 9, _EDGE_INTS)]
        argv += ["--count", number(0, 5, small), "--max-attempts", number(0, 5, small)]
    elif command == "group":
        elements = ("e1", "e2", "f1", "f2", "0,0/0,0", "1,2/3,4,5,6") + _EDGE_TEXTS
        argv += ["--", _pick(rng, elements), _pick(rng, elements)]
    elif command == "catalog":
        argv += [_pick(rng, ("iwasawa", "product")), "--base-dim", number(1, 3, small[:3]),
                 "--fibre-dim", number(1, 2, small[:3])]
    elif command == "curve":
        argv += ["--genus", number(2, 5, _EDGE_INTS), "--fibre-dim", number(1, 3, _EDGE_INTS)]
        if rng.random() < 0.5:
            chern = [_pick(rng, _EDGE_INTS) for _ in range(int(rng.integers(5)))]
            argv += ["--chern", ",".join(map(str, chern))]
    return argv


@pytest.mark.parametrize("index", range(120))
def test_seeded_argvs_end_on_a_documented_exit_code(tmp_path, index):
    rng = np.random.default_rng([1097, index])
    path = _write(tmp_path, "doc.json", _seeded_document(rng))
    _assert_documented_exit(_seeded_argv(rng, path))


def _iwasawa_doc_with_a(value, beside=0):
    doc = json.loads(dumps(_iwasawa_doc()))
    doc["A"][0][0][0] = beside
    doc["A"][0][0][1], doc["A"][0][1][0] = value, -value
    return doc


def _scaled_doc(datum, base, fibre):
    return input_document(datum.form, ComplexStructure(datum.base.period * base),
                          ComplexStructure(datum.fibre.period * fibre))


# The inputs that found defects, as fixed documents and argv lists: the
# property above draws from a pool that Hypothesis also fills with the
# literals of the imported source, so which inputs it tries moves with every
# edit to src.
DEFECT_DOCUMENTS = {
    "A-2**63": lambda: _iwasawa_doc_with_a(2 ** 63),
    "A-2.0**63": lambda: _iwasawa_doc_with_a(2.0 ** 63),
    "A-2**63-1": lambda: _iwasawa_doc_with_a(2 ** 63 - 1),
    "A-2**63-1-beside-0.0": lambda: _iwasawa_doc_with_a(2 ** 63 - 1, beside=0.0),
    "overflow-iwasawa": lambda: _scaled_doc(iwasawa_datum(), 1e308, 1.0),
    "overflow-small.mixed.2.1": lambda: _scaled_doc(small_member("mixed", 2, 1), 1e100, 1e-150),
    "frame-1e299": lambda: input_document(tbi.product_form(1, 1),
                                          ComplexStructure(np.array([[1e299], [-1e299j]])),
                                          tbi.standard_structure(1)),
    # Forms for the sampler: one it solves, and one on which every attempt fails.
    "form-3-1": lambda: input_document(random_alternating_form(np.random.default_rng(61), 3, 1)),
    "form-3-2": lambda: input_document(random_alternating_form(np.random.default_rng(61), 3, 2)),
}
DEFECT_ARGVS = [(name, argv) for name in DEFECT_DOCUMENTS if name.startswith("A-")
                for argv in (["invariants"], ["validate"], ["group", "--", "e1", "e3"])] + [
    (name, [command]) for name in DEFECT_DOCUMENTS if name.startswith("overflow-")
    for command in ("validate", "decompose", "invariants")] + [
    ("frame-1e299", [command, "--tol", tol])
    for command in ("validate", "invariants", "decompose", "sample")
    for tol in ("1e-12", "1271161007.0")] + [
    (name, ["sample", flag, value]) for name in ("form-3-1", "form-3-2")
    for flag, value in (("--tol", "1e308"), ("--tol", "1.7976931348623157e+308"),
                        ("--seed", str(2 ** 63)), ("--seed", str(-2 ** 63 - 1)),
                        ("--count", str(-2 ** 63 - 1)), ("--max-attempts", str(-2 ** 63 - 1)))]


@pytest.mark.parametrize("name,argv", DEFECT_ARGVS,
                         ids=[" ".join([name] + argv) for name, argv in DEFECT_ARGVS])
def test_defect_inputs_end_on_a_documented_exit_code(tmp_path, name, argv):
    path = _write(tmp_path, "doc.json", DEFECT_DOCUMENTS[name]())
    _assert_documented_exit(argv[:1] + [path] + argv[1:])
