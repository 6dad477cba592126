import contextlib
import hashlib
import io
import json
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
from tbi import ToleranceAmbiguityError, dumps, input_document, iwasawa_datum, sample_point
from tbi import cli

from support import count_calls, random_alternating_form, subprocess_env

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


@pytest.mark.parametrize("command", ["validate", "invariants"])
def test_document_checks_run_once(tmp_path, capsys, monkeypatch, command):
    # parse_input tests the form once and each period matrix once; the split's
    # basis change tests the fibre frame once more before membership.
    path = _write(tmp_path, "iwasawa.json", _iwasawa_doc())
    form_checks = count_calls(monkeypatch, tbi.lattices.validate_form)
    frame_checks = count_calls(monkeypatch, tbi.periods.validate_structure)
    code, _, _ = _run(capsys, [command, path])
    assert code == 0
    assert (len(form_checks), len(frame_checks)) == (1, 3)


def test_validate_not_json(tmp_path, capsys):
    path = _write(tmp_path, "broken.json", "this is not json")
    code, out, err = _run(capsys, ["validate", path])
    assert code == 1
    assert err.startswith("error:")


def test_validate_missing_file(tmp_path, capsys):
    code, _, err = _run(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 1
    assert "cannot read" in err


def test_validate_bad_form_exits_2(tmp_path, capsys):
    doc = _iwasawa_doc()
    doc["A"][0][0][1] = 5
    path = _write(tmp_path, "badform.json", doc)
    code, _, err = _run(capsys, ["validate", path])
    assert code == 2
    assert "(k=1, i=1, j=2)" in err


def test_validate_degenerate_structure_exits_3(tmp_path, capsys):
    doc = _iwasawa_doc()
    doc["V"][1] = doc["V"][0]
    path = _write(tmp_path, "degenerate.json", doc)
    code, _, err = _run(capsys, ["validate", path])
    assert code == 3
    assert "'V'" in err


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


def _nan_in_v(doc):
    doc["V"][0][0][0] = float("nan")


def _infinite_tol(doc):
    doc["tol"] = float("inf")


def _huge_float_in_a(doc):
    doc["A"][0][0][1], doc["A"][0][1][0] = 1e300, -1e300


def _int64_overflow_in_a(doc):
    doc["A"][0][0][1], doc["A"][0][1][0] = 2 ** 63, -2 ** 63


@pytest.mark.parametrize("corrupt,needle", [
    (_nan_in_v, "'V'"), (_infinite_tol, "'tol'"),
    (_huge_float_in_a, "int64 range"), (_int64_overflow_in_a, "int64 range"),
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

    monkeypatch.setattr("tbi.cli.leray_table", counting)
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
@pytest.mark.parametrize("name,tol,count,json_digest,table_digest", [
    pytest.param("iwasawa", 0.3, 4,
                 "e3d392b81844bd82ee74e0896da0fc1eae34a7fbee01c8d43596a36b0becebb5",
                 "7e445e68c386be763850248157875313f1376984622f7183dc9c1bacfa2b2df5",
                 id="iwasawa-0.3"),
    pytest.param("iwasawa", 0.1, 2,
                 "ea223930e70aeae288de13afdf0c7824e14a725c936f6b488ae54be271d696ad",
                 "a801ecd2dec67a244c46ea804f05384368205bfbf6ac1b2c102aa32f1e73611b",
                 id="iwasawa-0.1"),
    pytest.param("sampled-89", 0.1, 5,
                 "7c2d2339e68f858f913efe2916206d6902b31e059f57c76412bc8e7d217a4ce0",
                 "4286ed648e2c9f99841b30bd6ea4c49c9237f8531d11cd4c813f88949e2efef0",
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
    from support import random_alternating_form

    form = random_alternating_form(rng, 3, 1)
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
def test_group_rejects_out_of_range_coordinates(tmp_path, capsys, g1):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, err = _run(capsys, ["group", path, g1, "1,0/0,0,1,0"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "int64 range" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_group_keeps_int64_extreme_coordinates(tmp_path, capsys):
    path = _write(tmp_path, "form.json", _form_only_doc())
    code, out, _ = _run(capsys, ["group", path, "9223372036854775807,0/0,0,0,0",
                                 "0,-9223372036854775808/0,0,0,0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["g1"]["fibre"] == [2 ** 63 - 1, 0]
    assert payload["g2"]["fibre"] == [0, -2 ** 63]


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


def test_curve_low_genus_exits_1(capsys):
    code, _, err = _run(capsys, ["curve", "--genus", "1", "--fibre-dim", "1"])
    assert code == 1
    assert "genus" in err


def test_curve_wrong_chern_length_exits_1(capsys):
    code, _, err = _run(capsys, ["curve", "--genus", "2", "--fibre-dim", "2",
                                 "--chern", "1,2"])
    assert code == 1
    assert "--chern" in err


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
    arbitrary form, standard or random structures or none, and valid or
    arbitrary tol and seed."""
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
            doc[key] = tbi.complex_to_pairs(tbi.standard_structure(n).period)
        else:
            pair = st.lists(st.integers(-2, 2), min_size=2, max_size=2)
            doc[key] = [[draw(pair) for _ in range(n)] for _ in range(2 * n)]
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), text=_small_documents())
def test_every_argv_ends_on_a_documented_exit_code(data, text):
    with tempfile.TemporaryDirectory() as directory:
        path = pathlib.Path(directory, "doc.json")
        path.write_text(text)
        argv = data.draw(_argvs(str(path)))
        code = _exit_code(argv)
    assert code in range(6)
    if argv[0] == "sample" and min(_flag(argv, flag) for flag in
                                   ("--seed", "--count", "--max-attempts")) < 0:
        assert code == 1
    if argv[0] == "catalog" and min(_flag(argv, "--base-dim"), _flag(argv, "--fibre-dim")) < 1:
        assert code == 1
