"""Output checker: integer invariants and verdicts, never float fields.

Two kinds of check.  Recorded values (``expected.json``, written by
``record.py`` at the commit that introduced the benchmark) pin the dimensions,
rank decisions, membership verdict and classification of every corpus slot.
Identities that any correct implementation satisfies are checked on top:

* Iwasawa gives h_structure (1,2,2,1) and h_tangent (3,6,6,3);
* h^p = h^{n-p} for h_structure on members (n = m + d);
* parallelizable implies h_tangent = (m+d) * h_structure;
* every point ``tbi sample`` emits passes ``tbi.riemann_check`` again.

Float fields (residuals, singular values, twist_residual) are ignored: they
move with the BLAS thread count.  Group results are compared with a Python-int
reference, which cannot overflow.

The library functions used here are bound at import, before any tracer
patches module attributes, so checking adds no spans.
"""

import json
import os
import re

import numpy as np
from tbi import ComplexStructure, ExtensionForm, riemann_check

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
INT64_MAX = 2 ** 63 - 1
IWASAWA = {"h_structure": [1, 2, 2, 1], "h_tangent": [3, 6, 6, 3]}


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def report_facts(report, m, d, member=True):
    """Integer facts of an in-process CohomologyReport."""
    return {
        "m": m, "d": d, "member": bool(member),
        "h_structure": list(report.h_structure),
        "h_tangent": list(report.h_tangent),
        "h0_one_forms": report.h0_one_forms,
        "closed_one_forms": report.closed_one_forms,
        "h1_structure": report.h1_structure,
        "parallelizable": bool(report.parallelizable),
        "deformation_target": report.deformation_target,
        "classification": report.classification,
        "ranks": [[dec.label, dec.rank] for dec in report.decisions],
    }


def json_facts(text):
    """Integer facts of ``tbi invariants`` JSON output."""
    doc = json.loads(text)
    coh = doc["cohomology"]
    facts = {
        "m": doc["input"]["m"], "d": doc["input"]["d"],
        "member": doc["riemann"]["member"],
        "ranks": [[r["label"], r["rank"]] for r in doc["rank_decisions"]],
    }
    for key in ("h_structure", "h_tangent", "h0_one_forms", "closed_one_forms",
                "h1_structure", "parallelizable", "deformation_target",
                "classification"):
        facts[key] = coh[key]
    if not doc["group_checks"]["all_match"]:
        facts["group_checks"] = "mismatch"
    return facts


_TABLE_LINES = {
    "member": (r"^riemann member: (\w+)", lambda s: s == "True"),
    "h_structure": (r"^structure sheaf dimensions: (\[.*\])", json.loads),
    "h_tangent": (r"^tangent sheaf dimensions: (\[.*\])", json.loads),
    "h0_one_forms": (r"^global 1-forms: (\d+)", int),
    "closed_one_forms": (r"^global 1-forms: \d+ \(closed: (\d+)\)", int),
    "h1_structure": (r"^h1 of structure sheaf: (\d+)", int),
    "parallelizable": (r"^parallelizable: (\w+)", lambda s: s == "True"),
    "deformation_target": (r"^deformation target m\^2\+m: (\d+)", int),
    "classification": (r"^classification: (\w+)", str),
}


def table_facts(text):
    """Integer facts of ``tbi invariants --format table`` output."""
    facts = {}
    match = re.search(r"^m = (\d+), d = (\d+),", text, re.M)
    if match:
        facts["m"], facts["d"] = int(match.group(1)), int(match.group(2))
    for key, (pattern, convert) in _TABLE_LINES.items():
        match = re.search(pattern, text, re.M)
        if match:
            facts[key] = convert(match.group(1))
    facts.setdefault("classification", None)
    return facts


def check_facts(slot, facts, expected):
    """Mismatches of one result against its recorded values and the
    identities.  Keys absent from facts (the table format prints no rank
    decisions) are not compared."""
    problems = []
    want = expected.get(slot)
    if want is None:
        return [f"{slot}: no recorded values"]
    for key, value in want.items():
        if key in facts and facts[key] != value:
            problems.append(f"{slot}: {key} is {facts[key]!r}, recorded {value!r}")
    for key in facts:
        if key not in want:
            problems.append(f"{slot}: unexpected field {key}={facts[key]!r}")
    hs, ht = facts.get("h_structure"), facts.get("h_tangent")
    if slot.startswith("iwasawa"):
        for key, value in IWASAWA.items():
            if facts.get(key) not in (None, value):
                problems.append(f"{slot}: Iwasawa {key} is {facts[key]}, must be {value}")
    if hs is not None and facts.get("member") and hs != hs[::-1]:
        problems.append(f"{slot}: h_structure {hs} is not symmetric")
    if hs is not None and ht is not None and facts.get("parallelizable"):
        n = facts["m"] + facts["d"]
        if ht != [n * h for h in hs]:
            problems.append(f"{slot}: parallelizable but h_tangent {ht} != {n} * {hs}")
    return problems


def self_test(expected):
    """The checker must flag a deliberately perturbed result; returns the
    problems it failed to raise (empty when it works)."""
    missed = []
    for slot, want in expected.items():
        if check_facts(slot, dict(want), expected):
            missed.append(f"{slot}: recorded values fail their own identities")
        for key in ("h_tangent", "h_structure"):
            if key in want:
                bad = dict(want)
                bad[key] = [want[key][0] + 1] + want[key][1:]
                if not check_facts(slot, bad, expected):
                    missed.append(f"{slot}: perturbed {key} not flagged")
        if "ranks" in want and want["ranks"]:
            bad = dict(want)
            bad["ranks"] = [[want["ranks"][0][0], want["ranks"][0][1] + 1]] + want["ranks"][1:]
            if not check_facts(slot, bad, expected):
                missed.append(f"{slot}: perturbed ranks not flagged")
    # An identity must catch a symmetric perturbation the recording cannot.
    fake = {"iwasawa": dict(IWASAWA, m=2, d=1, member=True, parallelizable=True)}
    fake_bad = dict(fake["iwasawa"], h_tangent=[3, 6, 6, 4])
    if not check_facts("iwasawa", fake_bad, {"iwasawa": fake_bad}):
        missed.append("identity check did not flag Iwasawa h_tangent (3,6,6,4)")
    return missed


# ---------------------------------------------------------------------------
# Sampling


def check_sample_output(text, form, count, max_attempts, must_find):
    """Problems with one ``tbi sample`` JSON output; points must re-pass
    riemann_check against the requested form."""
    doc = json.loads(text)
    problems = []
    if doc["count"] != count or doc["found"] + len(doc["failures"]) != count:
        problems.append(f"sample: found {doc['found']} + failures "
                        f"{len(doc['failures'])} != count {count}")
    if len(doc["points"]) != doc["found"]:
        problems.append("sample: points list does not match found")
    if must_find and doc["found"] != count:
        problems.append(f"sample: found {doc['found']} of {count} on an always-solvable form")
    if any(not 1 <= a <= max_attempts for a in doc["attempts"]):
        problems.append("sample: attempt count out of range")
    for failure in doc["failures"]:
        if failure["attempts"] != max_attempts:
            problems.append("sample: failure reported before max attempts")
    for point in doc["points"]:
        if point["A"] != form.coefficients.tolist():
            problems.append("sample: emitted point carries another form")
            continue
        base = ComplexStructure(_pairs(point["V"]))
        fibre = ComplexStructure(_pairs(point["U"]))
        if not riemann_check(ExtensionForm(np.asarray(point["A"])), base, fibre).member:
            problems.append("sample: emitted point fails riemann_check")
    return problems


def _pairs(rows):
    return np.array([[complex(re_, im) for re_, im in row] for row in rows])


# ---------------------------------------------------------------------------
# Group law in Python ints


def ref_cocycle(coefficients, g1, g2):
    """Strict upper triangular c(g1, g2) in Python ints."""
    n = len(g1)
    return [sum(int(layer[i][j]) * g1[i] * g2[j]
                for i in range(n) for j in range(i + 1, n) if layer[i][j])
            for layer in coefficients]


def ref_multiply(coefficients, a, b):
    c = ref_cocycle(coefficients, a[1], b[1])
    return ([x + y + z for x, y, z in zip(a[0], b[0], c)],
            [x + y for x, y in zip(a[1], b[1])])


def ref_inverse(coefficients, a):
    c = ref_cocycle(coefficients, a[1], a[1])
    return [-x + z for x, z in zip(a[0], c)], [-x for x in a[1]]


def ref_commutator(coefficients, a, b):
    p = ref_multiply(coefficients, a, b)
    p = ref_multiply(coefficients, p, ref_inverse(coefficients, a))
    return ref_multiply(coefficients, p, ref_inverse(coefficients, b))


def fits_int64(element):
    return all(-INT64_MAX - 1 <= x <= INT64_MAX for part in element for x in part)
