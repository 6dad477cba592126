"""Acceptance gate: one test per shipped criterion, named test_criterion_N_*.

Each test finishes by printing a single "[criterion N] PASS" line (visible
with -s, and in the captured output on failure); `pytest -v` therefore shows
one pass/fail line per criterion.
"""

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np

from tbi import (BundleDatum, ExtensionForm, GroupElement,
                 StructureDegenerateError, bundle_report, classify_blocks,
                 cocycle_defect, commutator, dumps, graph_chart, h0_forms,
                 input_document, is_parallelizable, iwasawa_datum, iwasawa_form,
                 kuranishi_dim, lattice_vector_from_fibre, leray_table,
                 local_equations, product_datum, random_structure, reconstruct,
                 sample_point, structure_sheaf_dims, tangent_table,
                 theta_cohomology)
from tbi import cli

from support import (random_alternating_form, random_group_element_parts,
                     subprocess_env, transported_case1)


def _report(number, detail):
    print(f"[criterion {number}] PASS — {detail}")


def test_criterion_1_iwasawa_reference_values():
    start = time.perf_counter()
    datum = iwasawa_datum()
    report = bundle_report(datum)
    elapsed = time.perf_counter() - start
    assert report.parallelizable is True
    assert report.h1_structure == 2
    assert report.h_tangent[1] == 6
    assert elapsed < 1.0
    _report(1, f"parallelizable, h1(O) = 2, dim H1(Theta) = 6 in {elapsed:.3f}s")


def test_criterion_2_iwasawa_structure_dims():
    dims = structure_sheaf_dims(iwasawa_datum())
    assert dims == [1, 2, 2, 1]
    assert all(dims[p] == dims[3 - p] for p in range(4))
    assert sum((-1) ** p * dims[p] for p in range(4)) == 0
    _report(2, "h(O) = [1, 2, 2, 1] with symmetry and zero Euler sum")


def test_criterion_3_product_closed_forms():
    for m, d in itertools.product(range(1, 5), range(1, 5)):
        datum = product_datum(m, d)
        n = m + d
        assert structure_sheaf_dims(datum) == [math.comb(n, p) for p in range(n + 1)]
        assert h0_forms(datum).dim == n
        assert tangent_table(datum).dims == \
            tuple(n * math.comb(n, i) for i in range(n + 1))
    _report(3, "binomial dimensions for all 16 trivial bundles with m, d <= 4")


def test_criterion_4_curve_dimensions():
    assert kuranishi_dim(2, 1) == 6
    assert kuranishi_dim(2, 2) == 11
    assert kuranishi_dim(3, 1) == 10
    _report(4, "kuranishi_dim: (2,1) -> 6, (2,2) -> 11, (3,1) -> 10")


def _property_instance(k):
    """Deterministic instance k: a form plus a structure pair, mixing trivial,
    exactly-compatible, sampled-compatible, and generic incompatible data."""
    rng = np.random.default_rng([55, k])
    kind = k % 5
    m = int(rng.integers(1, 5))
    d = int(rng.integers(1, 5))
    if kind == 0:
        form = ExtensionForm(np.zeros((2 * d, 2 * m, 2 * m), dtype=np.int64))
        base, fibre = random_structure(m, rng), random_structure(d, rng)
    elif kind == 1:
        m, d = max(m, 2), 1
        form, base, fibre = transported_case1(rng, m)
    elif kind == 2:
        form = random_alternating_form(rng, m, d)
        base = fibre = None
        if m == 1 or m * (m - 1) // 2 <= d:
            result = sample_point(form, seed=[56, k])
            if result.found:
                base, fibre = result.base, result.fibre
        if base is None:
            base, fibre = random_structure(m, rng), random_structure(d, rng)
    else:
        form = random_alternating_form(rng, m, d)
        base, fibre = random_structure(m, rng), random_structure(d, rng)
    return BundleDatum(form, base, fibre), rng


def test_criterion_5_property_suite():
    instances = 500
    chart_skips = 0
    members = 0
    for k in range(instances):
        datum, rng = _property_instance(k)
        form, base, fibre = datum.form, datum.base, datum.fibre
        m, d = base.half_rank, fibre.half_rank
        scale = max(1.0, float(np.max(np.abs(form.coefficients))))

        # (a) decompose / reconstruct round trip
        rebuilt = reconstruct(datum.split, base, fibre)
        assert np.max(np.abs(rebuilt - form.coefficients)) < 1e-8 * scale

        # (b) the commutator of two lifted elements is central with fibre
        # part exactly the form value
        g1 = GroupElement(*random_group_element_parts(rng, form))
        g2 = GroupElement(*random_group_element_parts(rng, form))
        bracket = commutator(form, g1, g2)
        assert not np.any(bracket.base)
        assert np.array_equal(bracket.fibre, form(g1.base, g2.base))

        # (c) cocycle defect: independent of the evaluation point and equal
        # to the fibre projection of a lattice vector
        gamma1 = rng.integers(-3, 4, size=2 * m)
        gamma2 = rng.integers(-3, 4, size=2 * m)
        z1 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        z2 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        defect1 = cocycle_defect(datum, gamma1, gamma2, z1)
        defect2 = cocycle_defect(datum, gamma1, gamma2, z2)
        assert np.max(np.abs(defect1 - defect2)) < 1e-8 * scale
        recovered = lattice_vector_from_fibre(datum, defect1, tol=1e-8)
        assert recovered is not None
        assert np.array_equal(recovered, form(gamma2, gamma1))

        # (d) the spectral differential squares to zero
        table = leray_table(datum)
        for (i, j), outgoing in table.d2.items():
            incoming = table.d2.get((i - 2, j + 1))
            if incoming is not None:
                residual = np.max(np.abs(outgoing @ incoming))
                assert residual < 1e-8 * scale * scale

        # (e) the two membership verdicts agree whenever the fibre structure
        # lies in the graph chart
        try:
            equations = local_equations(form, base, graph_chart(fibre))
        except StructureDegenerateError:
            chart_skips += 1
        else:
            assert equations.member == datum.membership.member

        # (f) every frame form is global exactly for parallelizable bundles
        assert (h0_forms(datum).dim == m + d) == is_parallelizable(datum)

        if datum.membership.member:
            members += 1

    assert chart_skips <= instances // 20
    assert members >= instances // 5
    _report(5, f"{instances} instances: {members} members, "
               f"{chart_skips} chart skips")


def test_criterion_6_case_checks():
    zero_hermitian_points = 0
    for k in range(25):
        rng = np.random.default_rng([57, k])
        m = int(rng.integers(2, 5))
        form, base, fibre = transported_case1(rng, m)
        datum = BundleDatum.checked(form, base, fibre)
        assert classify_blocks(datum) == "zero_hermitian"
        h1 = structure_sheaf_dims(datum)[1]
        assert theta_cohomology(datum, 1).dim == (m + 1) * h1
        zero_hermitian_points += 1

    mixed_points = 0
    for k in range(25):
        form = random_alternating_form(np.random.default_rng([58, k]), 2, 1)
        result = sample_point(form, seed=[59, k])
        assert result.found
        datum = BundleDatum.checked(form, result.base, result.fibre)
        assert classify_blocks(datum) == "mixed"
        assert theta_cohomology(datum, 1).dim <= 2 * (2 + 1)
        mixed_points += 1

    assert zero_hermitian_points == 25 and mixed_points == 25
    _report(6, "25 vanishing-hermitian points meet the equality, "
               "25 mixed points meet the bound")


def test_criterion_7_sampler_success_rate(tmp_path, capsys):
    form = iwasawa_form()
    successes = 0
    for seed in range(100):
        result = sample_point(form, seed=seed, max_attempts=100)
        if not result.found:
            continue
        path = tmp_path / f"point{seed}.json"
        path.write_text(dumps(input_document(form, result.base, result.fibre)))
        assert cli.main(["validate", str(path)]) == 0
        successes += 1
    capsys.readouterr()
    assert successes >= 95
    with capsys.disabled():
        _report(7, f"{successes}/100 seeds produced revalidated points")


def test_criterion_8_determinism(tmp_path, capsys):
    for name in ("iwasawa", "product"):
        assert cli.main(["catalog", name]) == 0
        document = capsys.readouterr().out
        path = tmp_path / f"{name}.json"
        path.write_text(document)
        assert cli.main(["invariants", str(path)]) == 0
        first = capsys.readouterr().out
        assert cli.main(["invariants", str(path)]) == 0
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)  # valid JSON both times
        from_module = subprocess.run(
            [sys.executable, "-m", "tbi", "invariants", str(path)],
            capture_output=True, check=True, env=subprocess_env())
        repeat = subprocess.run(
            [sys.executable, "-m", "tbi", "invariants", str(path)],
            capture_output=True, check=True, env=subprocess_env())
        assert from_module.stdout == repeat.stdout
        assert from_module.stdout.decode() == first
    _report(8, "byte-identical reports for both catalog inputs, "
               "in-process and across processes")
