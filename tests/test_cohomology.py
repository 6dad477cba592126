import functools
import itertools
import math

import numpy as np
import pytest

import tbi.cohomology
from tbi import (BundleDatum, ComplexStructure, ExtensionForm, ToleranceAmbiguityError,
                 bundle_report, classify_blocks, closed_forms_dim, h0_forms,
                 h1_structure_sheaf, is_parallelizable, kodaira_spencer_report, leray_table,
                 numerical_rank, product_datum, random_structure, sample_point,
                 structure_sheaf_dims, tangent_table, theta_cohomology)

from tbi.cohomology import _svd, _wedge_gram, _wedge_map, _wedge_products

from support import gaussian_member, random_alternating_form, skew_d2_image, transported_case1


def _random_datum(seed, m, d):
    rng = np.random.default_rng(seed)
    form = random_alternating_form(rng, m, d)
    return BundleDatum(form, random_structure(m, rng), random_structure(d, rng))


def _sampled_member(seed, m=2, d=1):
    rng = np.random.default_rng(seed)
    form = random_alternating_form(rng, m, d)
    result = sample_point(form, seed=seed)
    assert result.found
    return BundleDatum(form, result.base, result.fibre)


# ---------------------------------------------------------------------------
# Rank audit


def test_numerical_rank_records_decision():
    decisions = []
    rank = numerical_rank(np.diag([3.0, 2.0, 1e-12]), 1e-9, 3.0, "probe", decisions)
    assert rank == 2
    (decision,) = decisions
    assert decision.label == "probe"
    assert decision.rank == 2
    assert decision.smallest_kept == pytest.approx(2.0)
    assert decision.largest_dropped == pytest.approx(1e-12)
    assert decision.threshold == pytest.approx(3e-9)


def test_numerical_rank_near_threshold_warns():
    decisions = []
    rank = numerical_rank(np.diag([1.0, 5e-9]), 1e-9, 1.0, "close", decisions)
    assert rank == 2
    (decision,) = decisions
    assert decision.near == 1
    assert "close" in decision.warning


def test_rank_decision_near_counts_strictly_within_the_factor():
    # threshold 2**-10; 10 * 2**-10 and 2**-10 / 10 sit on the factor's edges
    decisions = []
    cut = 2.0 ** -10
    numerical_rank(np.diag([1.0, 10 * cut, 3 * cut, cut / 10]), cut, 1.0, "edges", decisions)
    numerical_rank(np.zeros((0, 3)), 1e-9, 1.0, "empty", decisions)
    numerical_rank(np.zeros((2, 2)), 1e-9, 0.0, "zero threshold", decisions)
    assert [(x.rank, x.threshold, x.near) for x in decisions] == \
        [(3, cut, 1), (0, 0.0, 0), (0, 0.0, 0)]


def test_numerical_rank_external_scale_suppresses_noise():
    noise = np.full((2, 2), 1e-12)
    assert numerical_rank(noise, 1e-9, 1.0, "noise") == 0
    # without the external scale the block's own norm promotes the noise
    assert numerical_rank(noise, 1e-9, 0.0, "noise") == 1


def test_numerical_rank_empty_matrix():
    decisions = []
    assert numerical_rank(np.zeros((0, 3)), 1e-9, 1.0, "empty", decisions) == 0
    assert decisions[0].rank == 0


# ---------------------------------------------------------------------------
# SVD in the tall orientation


def _complex_matrix(shape, seed=0):
    rng = np.random.default_rng([seed, *shape])
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


SVD_CASES = {
    "tall": _complex_matrix((9, 4)),
    "wide": _complex_matrix((4, 9)),
    "square": _complex_matrix((6, 6)),
    "empty wide": np.zeros((0, 5), dtype=complex),
    "empty tall": np.zeros((5, 0), dtype=complex),
    "zero wide": np.zeros((3, 7), dtype=complex),
    "zero tall": np.zeros((7, 3), dtype=complex),
}


@pytest.mark.parametrize("name", SVD_CASES)
def test_svd_matches_numpy(name):
    matrix = SVD_CASES[name]
    rows, cols = matrix.shape
    sing = _svd(matrix, compute_uv=False)
    u, sing_uv, vh = _svd(matrix)
    reference = np.linalg.svd(matrix, compute_uv=False)
    for values in (sing, sing_uv):
        np.testing.assert_allclose(values, reference, rtol=1e-13, atol=0)
    assert u.shape == (rows, rows) and vh.shape == (cols, cols)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(rows), atol=1e-12)
    np.testing.assert_allclose(vh @ vh.conj().T, np.eye(cols), atol=1e-12)
    rebuilt = (u[:, :sing_uv.size] * sing_uv) @ vh[:sing_uv.size]
    assert np.linalg.norm(rebuilt - matrix) <= 1e-12 * np.linalg.norm(matrix)
    if rows >= cols:
        assert np.array_equal(sing, reference)
        for ours, numpys in zip((u, sing_uv, vh), np.linalg.svd(matrix)):
            assert np.array_equal(ours, numpys)


def test_table_svds_are_tall(monkeypatch):
    """Every SVD of the spectral and tangent tables sees a matrix with at
    least as many rows as columns, and each table matrix is still decomposed
    by one call: 35 on these two members, 22 of whose matrices are wide."""
    members = [gaussian_member(np.random.default_rng(61), "pure_hermitian", 6, 1),
               gaussian_member(np.random.default_rng(62), "mixed", 4, 2)]
    shapes = []
    svd = np.linalg.svd

    def recording(matrix, *args, **kwargs):
        shapes.append(np.shape(matrix))
        return svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    for datum in members:
        tangent_table(datum, leray_table(datum))
    assert [shape for shape in shapes if shape[0] < shape[1]] == []
    assert len(shapes) == 35


# ---------------------------------------------------------------------------
# Wedge index maps against sorted insertion


def _insert(index, subset):
    """e_index ∧ e_subset by sorted insertion: (sign, merged subset), or None
    when index already occurs."""
    if index in subset:
        return None
    before = sum(1 for x in subset if x < index)
    return (-1) ** before, tuple(sorted(subset + (index,)))


@pytest.mark.parametrize("count", range(1, 7))
def test_wedge_map_matches_sorted_insertion(count):
    for size in range(count):
        sources = list(itertools.combinations(range(count), size))
        targets = list(itertools.combinations(range(count), size + 1))
        index, src, sign = _wedge_map(count, size)
        assert index.shape == src.shape == sign.shape == (size + 1, len(targets))
        seen = set()
        for pos in range(size + 1):
            for r, target in enumerate(targets):
                k, source = int(index[pos, r]), sources[src[pos, r]]
                assert _insert(k, source) == (sign[pos, r], target)
                seen.add((k, source))
        # every (k, S) with k outside S occurs exactly once
        assert seen == {(k, s) for k in range(count) for s in sources if k not in s}
        assert len(seen) == index.size


def _level_map_reference(one_form, m, i, fibre_count):
    """Dense matrix of e_k-wedging with weights one_form[k], from block
    (i, j) to block (i+1, j) with C(d, j) = fibre_count, S-major."""
    s_src = list(itertools.combinations(range(m), i))
    s_dst = list(itertools.combinations(range(m), i + 1))
    matrix = np.zeros((len(s_dst) * fibre_count, len(s_src) * fibre_count), dtype=complex)
    for si, subset in enumerate(s_src):
        for k in range(m):
            wedge = _insert(k, subset)
            if wedge is None:
                continue
            sign, merged = wedge
            for ti in range(fibre_count):
                matrix[s_dst.index(merged) * fibre_count + ti,
                       si * fibre_count + ti] += sign * one_form[k]
    return matrix


@pytest.mark.parametrize("m,i,fibre_count", [(1, 0, 1), (3, 1, 2), (4, 2, 3), (5, 2, 1)])
def test_wedge_products_match_dense_reference(m, i, fibre_count):
    """The direction-grouped gather gives frame^H (e_k ∧ reps) for every base
    direction k, and the Gram of those wedges, as the dense wedge matrix does."""
    rng = np.random.default_rng([90, m, i])
    one_form = rng.normal(size=m) + 1j * rng.normal(size=m)
    reps = rng.normal(size=(math.comb(m, i) * fibre_count, 3)) + 0j
    frame = (rng.normal(size=(math.comb(m, i + 1) * fibre_count, 2))
             + 1j * rng.normal(size=(math.comb(m, i + 1) * fibre_count, 2)))
    products = _wedge_products(frame, reps, m, i)
    wedges = [_level_map_reference(unit, m, i, fibre_count) @ reps for unit in np.eye(m)]
    for k, wedge in enumerate(wedges):
        assert np.allclose(products[:, k], frame.conj().T @ wedge, rtol=0, atol=1e-13)
    expected = frame.conj().T @ _level_map_reference(one_form, m, i, fibre_count) @ reps
    assert np.allclose(np.einsum("xkw,k->xw", products, one_form), expected,
                       rtol=0, atol=1e-13)
    gram = [[np.vdot(left, right) for right in wedges] for left in wedges]
    assert np.allclose(_wedge_gram(reps, m, i), gram, rtol=0, atol=1e-13)


def _d2_reference(conj_two_forms, m, d, i, j):
    """The differential out of block (i, j) entry by entry: contract t out
    of T, wedge the two-form of t into S."""
    s_src = list(itertools.combinations(range(m), i))
    s_dst = list(itertools.combinations(range(m), i + 2))
    t_src = list(itertools.combinations(range(d), j))
    t_dst = list(itertools.combinations(range(d), j - 1))
    matrix = np.zeros((len(s_dst) * len(t_dst), len(s_src) * len(t_src)), dtype=complex)
    for si, s in enumerate(s_src):
        for ti, t_tuple in enumerate(t_src):
            for t_pos, t in enumerate(t_tuple):
                t_rest = t_tuple[:t_pos] + t_tuple[t_pos + 1:]
                for low, high in itertools.combinations(range(m), 2):
                    first = _insert(high, s)
                    second = first and _insert(low, first[1])
                    if not second:
                        continue
                    row = s_dst.index(second[1]) * len(t_dst) + t_dst.index(t_rest)
                    matrix[row, si * len(t_src) + ti] += \
                        (-1) ** t_pos * first[0] * second[0] * conj_two_forms[t, low, high]
    return matrix


@pytest.mark.parametrize("seed,m,d", [(91, 3, 1), (92, 4, 2), (93, 4, 3), (94, 5, 2)])
def test_d2_blocks_match_entrywise_reference(seed, m, d):
    datum = _random_datum(seed, m, d)
    table = leray_table(datum)
    conj_two_forms = np.conj(datum.split.holomorphic)
    assert sorted(table.d2) == [(i, j) for i in range(m - 1) for j in range(1, d + 1)]
    for (i, j), block in table.d2.items():
        assert np.array_equal(block, _d2_reference(conj_two_forms, m, d, i, j))


# ---------------------------------------------------------------------------
# One-forms and low-degree counts


def test_h0_forms_fixtures(iwasawa, kodaira_surface):
    space = h0_forms(iwasawa)
    assert space.dim == 3
    assert space.annihilator.shape == (1, 1)
    surface = h0_forms(kodaira_surface)
    assert surface.dim == 1
    assert surface.annihilator.shape == (0, 1)


def test_h0_forms_product_keeps_everything():
    datum = product_datum(2, 1)
    assert h0_forms(datum).dim == 3


def test_annihilator_kills_hermitian_image():
    datum = _sampled_member(71)
    space = h0_forms(datum)
    flat = datum.split.hermitian.reshape(datum.split.fibre_half_rank, -1)
    if space.annihilator.size:
        assert np.max(np.abs(space.annihilator @ flat)) < 1e-9 * max(1.0, datum.split.scale)
        gram = space.annihilator @ space.annihilator.conj().T
        assert np.allclose(gram, np.eye(space.annihilator.shape[0]), atol=1e-10)


def test_closed_forms_fixtures(iwasawa, kodaira_surface):
    assert closed_forms_dim(iwasawa) == 2
    assert closed_forms_dim(kodaira_surface) == 1
    assert closed_forms_dim(product_datum(2, 1)) == 3


@pytest.mark.parametrize("seed", [72, 73, 74])
def test_closed_forms_at_most_h0(seed):
    datum = _random_datum(seed, 3, 2)
    assert closed_forms_dim(datum) <= h0_forms(datum).dim


def test_h1_structure_fixtures(iwasawa, kodaira_surface):
    assert h1_structure_sheaf(iwasawa) == 2
    assert h1_structure_sheaf(kodaira_surface) == 2


def test_parallelizable_fixtures(iwasawa, kodaira_surface):
    assert is_parallelizable(iwasawa)
    assert not is_parallelizable(kodaira_surface)
    assert is_parallelizable(product_datum(2, 1))


@pytest.mark.parametrize("seed,m,d", [(75, 2, 1), (76, 3, 2), (77, 1, 1)])
def test_parallelizable_iff_all_forms_survive(seed, m, d):
    datum = _random_datum(seed, m, d)
    assert is_parallelizable(datum) == (h0_forms(datum).dim == m + d)


# ---------------------------------------------------------------------------
# Spectral table for the structure sheaf


def test_leray_iwasawa_frozen(iwasawa):
    table = leray_table(iwasawa)
    assert np.array_equal(table.e2, [[1, 1], [2, 2], [1, 1]])
    assert np.array_equal(table.e3, [[1, 0], [2, 2], [0, 1]])
    assert table.total_dims(2) == [1, 3, 3, 1]
    assert table.total_dims(3) == [1, 2, 2, 1]
    assert structure_sheaf_dims(iwasawa) == [1, 2, 2, 1]


def test_leray_iwasawa_d2_entry(iwasawa):
    table = leray_table(iwasawa)
    assert set(table.d2) == {(0, 1)}
    assert np.allclose(table.d2[(0, 1)], [[2.0]], atol=1e-12)


def test_leray_kodaira_no_differential(kodaira_surface):
    table = leray_table(kodaira_surface)
    assert table.d2 == {}
    assert np.array_equal(table.e3, table.e2)
    assert structure_sheaf_dims(kodaira_surface) == [1, 2, 1]


@pytest.mark.parametrize("m,d", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_leray_product_is_binomial(m, d):
    dims = structure_sheaf_dims(product_datum(m, d))
    assert dims == [math.comb(m + d, p) for p in range(m + d + 1)]


def test_e3_never_exceeds_e2():
    table = leray_table(_sampled_member(78))
    assert np.all(table.e3 <= table.e2)
    assert np.all(table.e3 >= 0)


def test_d2_squares_to_zero_off_variety():
    datum = _random_datum(79, 4, 2)
    table = leray_table(datum)
    scale = max(1.0, datum.split.scale)
    composed = table.d2[(2, 1)] @ table.d2[(0, 2)]
    assert np.max(np.abs(composed)) < 1e-10 * scale**2
    for (i, j), outgoing in table.d2.items():
        inner = table.d2.get((i - 2, j + 1))
        if inner is not None:
            assert np.max(np.abs(outgoing @ inner)) < 1e-10 * scale**2


def test_euler_characteristic_preserved():
    for datum in (_random_datum(80, 3, 1), _sampled_member(81)):
        table = leray_table(datum)
        e2_sum = sum((-1) ** p * n for p, n in enumerate(table.total_dims(2)))
        e3_sum = sum((-1) ** p * n for p, n in enumerate(table.total_dims(3)))
        assert e2_sum == e3_sum == 0


def test_dimension_symmetry_on_members(iwasawa, kodaira_surface):
    for datum in (iwasawa, kodaira_surface, _sampled_member(82)):
        dims = structure_sheaf_dims(datum)
        assert dims == dims[::-1]
        assert dims[0] == 1


@pytest.mark.parametrize("seed", [83, 84])
def test_h1_two_paths_agree(seed):
    datum = _sampled_member(seed)
    assert structure_sheaf_dims(datum)[1] == h1_structure_sheaf(datum)


def test_representatives_orthonormal_and_clear_images(iwasawa):
    table = leray_table(iwasawa)
    for key, reps in table.representatives.items():
        if reps.shape[1]:
            gram = reps.conj().T @ reps
            assert np.allclose(gram, np.eye(reps.shape[1]), atol=1e-10)
        image = table.images[key]
        if image.size and reps.size:
            assert np.max(np.abs(image.conj().T @ reps)) < 1e-10


def test_representative_counts_match_e3():
    table = leray_table(_random_datum(85, 3, 2))
    for (i, j), reps in table.representatives.items():
        assert reps.shape[1] == table.e3[i, j]


@pytest.mark.parametrize("kind", ["mixed", "zero_hermitian"])
def test_image_outside_kernel_is_tolerance_ambiguity(monkeypatch, kind):
    datum = gaussian_member(np.random.default_rng(62), kind, 4, 2)
    skew_d2_image(monkeypatch)
    with pytest.raises(ToleranceAmbiguityError, match=r"\(overlap rank 0, image rank 1\)"):
        leray_table(datum)


# ---------------------------------------------------------------------------
# Tangent-sheaf dimensions


def test_tangent_iwasawa_frozen(iwasawa):
    tangent = tangent_table(iwasawa)
    assert tangent.dims == (3, 6, 6, 3)
    assert tangent.level_ranks == (0, 0, 0, 0)
    assert tangent.twist_residual == 0.0


def test_tangent_kodaira_frozen(kodaira_surface):
    tangent = tangent_table(kodaira_surface)
    assert tangent.dims == (1, 2, 1)
    assert tangent.level_ranks == (1, 1, 0)


@pytest.mark.parametrize("m,d", [(1, 1), (2, 1), (2, 2)])
def test_tangent_product_scales_binomials(m, d):
    tangent = tangent_table(product_datum(m, d))
    expected = tuple((m + d) * math.comb(m + d, p) for p in range(m + d + 1))
    assert tangent.dims == expected


@pytest.mark.parametrize("seed,m", [(s, m) for s in (95, 96) for m in (2, 3, 4)])
def test_parallelizable_tangent_is_frame_multiple(seed, m):
    """Parallelizable total space: Θ is trivial of rank m + d, so
    h^p(Θ) = (m + d)·h^p(O) in every degree."""
    datum = BundleDatum.checked(*transported_case1(np.random.default_rng([seed, m]), m))
    assert is_parallelizable(datum)
    report = bundle_report(datum)
    assert report.h_tangent == tuple((m + 1) * h for h in report.h_structure)


SMALL_MEMBERS = [(kind, m, d) for kind in ("mixed", "pure_hermitian", "zero_hermitian")
                 for m in range(2, 6) for d in (1, 2)]


def _small_member(kind, m, d):
    return gaussian_member(np.random.default_rng([103, m, d]), kind, m, d)


@pytest.mark.parametrize("kind,m,d", SMALL_MEMBERS)
def test_level_decisions_match_dense_pieces(kind, m, d):
    """Each level piece built densely, block (a, s) by block (a, s), from the
    wedge matrix of the hermitian one-form and the representatives, gives
    the singular values behind every level-map decision."""
    datum = _small_member(kind, m, d)
    table = leray_table(datum)
    tangent = tangent_table(datum, table)
    reps, hermitian = table.representatives, datum.split.hermitian
    h = table.total_dims(3) + [0]
    assert len(tangent.decisions) == m + d + 1
    for p, decision in enumerate(tangent.decisions):
        assert decision.label == f"level map at degree {p}"
        sing = np.zeros(min(d * h[p + 1], m * h[p]))
        pieces = [np.block([[reps[(i + 1, j)].conj().T
                             @ _level_map_reference(hermitian[a, s], m, i, math.comb(d, j))
                             @ reps[(i, j)] for s in range(m)] for a in range(d)])
                  for i, j in tbi.cohomology._degree_blocks(m, d, p)
                  if i < m and reps[(i, j)].shape[1]]
        merged = np.sort(np.concatenate([np.linalg.svd(piece, compute_uv=False)
                                         for piece in pieces if piece.size] + [[]]))[::-1]
        sing[:merged.size] = merged
        rank = decision.rank
        assert rank == int(np.sum(sing > decision.threshold))
        expected = (sing[rank - 1] if rank else 0.0, sing[rank] if rank < sing.size else 0.0)
        np.testing.assert_allclose((decision.smallest_kept, decision.largest_dropped),
                                   expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("kind,m,d", SMALL_MEMBERS)
def test_representatives_images_coimages_are_unitary(kind, m, d):
    """Where a d2 leaves a block, its representatives, the image of the
    incoming d2 and the coimage of the outgoing one together are a unitary
    basis of the block."""
    table = leray_table(_small_member(kind, m, d))
    for key in table.d2:
        frame = np.hstack([table.representatives[key], table.images[key],
                           table.coimages[key]])
        assert frame.shape == (table.e2[key],) * 2
        np.testing.assert_allclose(frame.conj().T @ frame, np.eye(frame.shape[0]),
                                   rtol=0, atol=1e-12)


def _report_labels(m, d):
    """Decision labels of bundle_report in the order they are recorded."""
    return (["hermitian block", "holomorphic+hermitian blocks", "holomorphic block"]
            + [f"d2 out of ({i},{j})" for i in range(m - 1) for j in range(1, d + 1)]
            + [f"image/kernel overlap at ({i},{j})"
               for i in range(m + 1) for j in range(d + 1)]
            + [f"level map at degree {p}" for p in range(m + d + 1)])


# Recorded with the dense tuple-loop implementation that the index maps replaced.
FROZEN = [
    (lambda: _random_datum(3, 3, 2),
     (2, 10, 18, 17, 10, 3), (3, 2, 10, 3, 2, 0),
     [[1, 0, 0], [3, 5, 1], [1, 5, 3], [0, 0, 1]],
     [2, 2, 2, 2, 1, 1, 2, 0, 0, 0, 0, 0, 0, 2, 1, 0, 1, 2, 0, 3, 2, 10, 3, 2, 0]),
    (lambda: _random_datum(7, 4, 1),
     (1, 11, 20, 21, 15, 4), (4, 5, 0, 4, 1, 0),
     [[1, 0], [4, 0], [5, 5], [0, 4], [0, 1]],
     [1, 1, 1, 1, 4, 1, 0, 0, 0, 0, 1, 0, 4, 0, 1, 0, 4, 5, 0, 4, 1, 0]),
    (lambda: _sampled_member(71),
     (1, 4, 5, 2), (2, 0, 1, 0),
     [[1, 0], [2, 2], [0, 1]],
     [1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 2, 0, 1, 0]),
    (lambda: product_datum(2, 2),
     (4, 16, 24, 16, 4), (0, 0, 0, 0, 0),
     [[1, 2, 1], [2, 4, 2], [1, 2, 1]],
     [0] * 19),
]


@pytest.mark.parametrize("make,h_tangent,level_ranks,e3,ranks", FROZEN)
def test_tables_frozen(make, h_tangent, level_ranks, e3, ranks):
    datum = make()
    table = leray_table(datum)
    tangent = tangent_table(datum, table)
    assert tangent.dims == h_tangent
    assert tangent.level_ranks == level_ranks
    assert table.e3.tolist() == e3
    labels = _report_labels(datum.split.base_half_rank, datum.split.fibre_half_rank)
    report = bundle_report(datum, table)
    assert [(x.label, x.rank) for x in report.decisions] == list(zip(labels, ranks))
    assert report.h_tangent == h_tangent


@pytest.mark.parametrize("seed,m,d", [(97, 3, 2), (98, 4, 1), (99, 4, 3)])
def test_d2_decisions_match_numerical_rank(seed, m, d):
    datum = _random_datum(seed, m, d)
    table = leray_table(datum)
    recorded = [x for x in table.decisions if x.label.startswith("d2 ")]
    again = []
    for (i, j), block in table.d2.items():
        numerical_rank(block, datum.tol, datum.split.scale, f"d2 out of ({i},{j})", again)
    assert [(x.label, x.rank) for x in recorded] == [(x.label, x.rank) for x in again]
    for first, second in zip(recorded, again):
        assert first.threshold == pytest.approx(second.threshold, rel=1e-12)
        assert first.smallest_kept == pytest.approx(second.smallest_kept, rel=1e-12)


def test_theta_cohomology_fixtures(iwasawa, kodaira_surface):
    middle = theta_cohomology(iwasawa, 1)
    assert (middle.dim, middle.coker_dim, middle.ker_dim) == (6, 2, 4)
    surface = theta_cohomology(kodaira_surface, 1)
    assert (surface.dim, surface.coker_dim, surface.ker_dim) == (2, 1, 1)


def test_theta_cohomology_matches_table(iwasawa):
    table = leray_table(iwasawa)
    tangent = tangent_table(iwasawa, table)
    for degree, dim in enumerate(tangent.dims):
        assert theta_cohomology(iwasawa, degree, table).dim == dim


def _count_table_builds(monkeypatch):
    builds = {"leray_table": 0, "tangent_table": 0}
    for name in builds:
        original = getattr(tbi.cohomology, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            builds[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(tbi.cohomology, name, counting)
    return builds


def test_theta_cohomology_takes_built_tables(iwasawa, monkeypatch):
    table = leray_table(iwasawa)
    tangent = tangent_table(iwasawa, table)
    builds = _count_table_builds(monkeypatch)
    dims = [theta_cohomology(iwasawa, degree, table, tangent).dim for degree in range(4)]
    assert dims == list(tangent.dims) == [3, 6, 6, 3]
    assert builds == {"leray_table": 0, "tangent_table": 0}
    # given only the spectral table, each degree builds the tangent table
    for degree in range(4):
        theta_cohomology(iwasawa, degree, table)
    assert builds == {"leray_table": 0, "tangent_table": 4}


def test_kodaira_spencer_report_builds_each_table_once(iwasawa, monkeypatch):
    builds = _count_table_builds(monkeypatch)
    assert kodaira_spencer_report(iwasawa).h1_tangent == 6
    assert builds == {"leray_table": 1, "tangent_table": 1}


@pytest.mark.parametrize("degree", [-1, 4])
def test_theta_cohomology_rejects_bad_degree(iwasawa, degree):
    with pytest.raises(ValueError):
        theta_cohomology(iwasawa, degree)


# ---------------------------------------------------------------------------
# Classification and reports


def test_classify_fixtures(iwasawa, kodaira_surface):
    assert classify_blocks(iwasawa) == "zero_hermitian"
    assert classify_blocks(kodaira_surface) == "pure_hermitian"
    assert classify_blocks(product_datum(2, 1)) == "abelian"


def test_classify_mixed_and_undefined():
    datum = _random_datum(86, 2, 1)
    split = datum.split
    assert np.max(np.abs(split.holomorphic)) > 1e-6
    assert np.max(np.abs(split.hermitian)) > 1e-6
    assert classify_blocks(datum) == "mixed"
    assert classify_blocks(_random_datum(87, 2, 2)) is None


def test_kodaira_spencer_fixtures(iwasawa, kodaira_surface):
    report = kodaira_spencer_report(iwasawa)
    assert (report.h1_tangent, report.target) == (6, 6)
    assert report.matches_target
    assert report.classification == "zero_hermitian"

    surface = kodaira_spencer_report(kodaira_surface)
    assert (surface.h1_tangent, surface.target) == (2, 2)
    assert surface.matches_target

    product = kodaira_spencer_report(product_datum(2, 1))
    assert (product.h1_tangent, product.target) == (9, 6)
    assert not product.matches_target


def test_bundle_report_fields(iwasawa):
    report = bundle_report(iwasawa)
    assert report.h_structure == (1, 2, 2, 1)
    assert report.h0_one_forms == 3
    assert report.closed_one_forms == 2
    assert report.h1_structure == 2
    assert report.parallelizable is True
    assert report.h_tangent == (3, 6, 6, 3)
    assert report.deformation_target == 6
    assert report.classification == "zero_hermitian"
    assert report.twist_residual == 0.0
    assert not any(decision.near for decision in report.decisions)
    labels = [decision.label for decision in report.decisions]
    assert "hermitian block" in labels
    assert "holomorphic block" in labels


def test_bundle_report_endpoints_are_one():
    for datum in (_sampled_member(88), product_datum(3, 1)):
        report = bundle_report(datum)
        assert report.h_structure[0] == 1
        assert report.h_structure[-1] == 1
        assert len(report.h_structure) == \
            datum.split.base_half_rank + datum.split.fibre_half_rank + 1


# ---------------------------------------------------------------------------
# Künneth oracle
#
# A datum built as A1 ⊕ A2 with block-diagonal V and U is the product of the
# two bundles.  Its structure-sheaf dimensions are the convolution of the
# factors', and since the tangent sheaf of a product is the sum of the pulled
# back tangent sheaves, h(Θ) = h1(Θ) * h2(O) + h1(O) * h2(Θ).  Nilmanifolds
# have a trivial canonical bundle, so Serre duality gives h^n(Θ) = h^0(Ω^1).

KUNNETH_MEMBERS = [(kind, m, d) for kind in ("mixed", "pure_hermitian", "zero_hermitian")
                   for m, d in ((2, 1), (3, 1), (2, 2))]


def _block_diagonal(first, second):
    """first in the leading corner and second in the trailing one, along
    every axis: the fibre and both base axes of a form, both axes of V."""
    out = np.zeros(np.add(first.shape, second.shape), dtype=np.result_type(first, second))
    out[tuple(slice(0, n) for n in first.shape)] = first
    out[tuple(slice(n, None) for n in first.shape)] = second
    return out


def _direct_sum(first, second):
    return BundleDatum.checked(
        ExtensionForm(_block_diagonal(first.form.coefficients, second.form.coefficients)),
        ComplexStructure(_block_diagonal(first.base.period, second.base.period)),
        ComplexStructure(_block_diagonal(first.fibre.period, second.fibre.period)))


@functools.cache
def _kunneth_factor(key):
    kind, m, d = key
    datum = gaussian_member(np.random.default_rng(KUNNETH_MEMBERS.index(key)), kind, m, d)
    report = bundle_report(datum)
    assert report.classification in (kind, None)  # None: d > 1
    return datum, report


@pytest.mark.parametrize("first,second", itertools.combinations(KUNNETH_MEMBERS, 2),
                         ids=lambda key: "{}-{}-{}".format(*key))
def test_kunneth_product_of_members(first, second):
    (datum_one, one), (datum_two, two) = _kunneth_factor(first), _kunneth_factor(second)
    product = bundle_report(_direct_sum(datum_one, datum_two))
    assert list(product.h_structure) == np.convolve(one.h_structure, two.h_structure).tolist()
    expected = (np.convolve(one.h_tangent, two.h_structure)
                + np.convolve(one.h_structure, two.h_tangent))
    assert list(product.h_tangent) == expected.tolist()
    for report in (one, two, product):
        assert report.h_tangent[-1] == report.h0_one_forms


# ---------------------------------------------------------------------------
# Closed-form oracles for d = 1
#
# gaussian_member draws B until it has rank 2k = m - m % 2 and H until it has
# rank m.  The structure sheaf only sees B: the differential out of block
# (i, 1) is the wedge with the conjugate of B from Λ^i to Λ^{i+2}, whose rank
# hard Lefschetz on the rank-2k part gives.  With B = 0 the Koszul complex of
# H gives the level-map ranks L_p and so h^p(Θ).


def _comb(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def _lefschetz_structure_dims(m, two_k):
    def rank(i):
        return sum(_comb(m - two_k, a) * min(_comb(two_k, i - a), _comb(two_k, i - a + 2))
                   for a in range(m - two_k + 1))

    return [_comb(m, p) - rank(p - 2) + _comb(m, p - 1) - rank(p - 1) for p in range(m + 2)]


def _koszul_tangent_dims(m, r, h_structure):
    def level(p):
        return sum(_comb(m, p - j + 1) - _comb(m - r, p - j + 1) for j in (0, 1))

    return [(m + 1) * h_structure[p] - level(p - 1) - level(p) for p in range(m + 2)]


@pytest.mark.parametrize("kind", ["mixed", "zero_hermitian"])
@pytest.mark.parametrize("m", range(2, 10))
def test_hard_lefschetz_structure_dims(kind, m):
    datum = gaussian_member(np.random.default_rng([101, m]), kind, m, 1)
    report = bundle_report(datum)
    assert report.classification == kind
    assert list(report.h_structure) == _lefschetz_structure_dims(m, m - m % 2)


@pytest.mark.parametrize("m", range(2, 10))
def test_koszul_pure_hermitian_tangent_dims(m):
    datum = gaussian_member(np.random.default_rng([102, m]), "pure_hermitian", m, 1)
    report = bundle_report(datum)
    assert report.classification == "pure_hermitian"
    h_structure = _lefschetz_structure_dims(m, 0)
    assert list(report.h_structure) == h_structure
    assert list(report.h_tangent) == _koszul_tangent_dims(m, m, h_structure)
