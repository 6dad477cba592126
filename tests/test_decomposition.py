import numpy as np
import pytest

from tbi import (BundleDatum, ComplexStructure, ExtensionForm, FormInvalidError,
                 MembershipError, StructureDegenerateError, cocycle_defect,
                 cocycle_eval, decompose, iwasawa_form, lattice_vector_from_fibre,
                 product_datum, random_structure, reconstruct, riemann_check,
                 split_form, standard_structure)

from support import random_alternating_form, transported_case1


def _random_datum(seed, m, d):
    rng = np.random.default_rng(seed)
    form = random_alternating_form(rng, m, d)
    return BundleDatum(form, random_structure(m, rng), random_structure(d, rng))


# ---------------------------------------------------------------------------
# Block extraction


def test_iwasawa_blocks_frozen(iwasawa):
    split = iwasawa.split
    # A(v1, v2) = 2 f1 - 2i f2 = 2 * (first fibre frame vector)
    assert np.allclose(split.holomorphic, [[[0, 2], [-2, 0]]], atol=1e-12)
    assert np.max(np.abs(split.hermitian)) < 1e-12
    assert np.max(np.abs(split.antiholomorphic)) < 1e-12
    assert split.scale == pytest.approx(2.0)


def test_kodaira_blocks_frozen(kodaira_surface):
    split = kodaira_surface.split
    assert np.allclose(split.holomorphic, [[[0]]], atol=1e-12)
    assert np.allclose(split.hermitian, [[[1j]]], atol=1e-12)
    assert np.max(np.abs(split.antiholomorphic)) < 1e-12


@pytest.mark.parametrize("seed,m,d", [(0, 1, 1), (1, 2, 1), (2, 2, 2), (3, 3, 2), (4, 4, 3)])
def test_reconstruct_roundtrip(seed, m, d):
    datum = _random_datum(seed, m, d)
    rebuilt = reconstruct(datum.split, datum.base, datum.fibre)
    scale = max(1.0, np.max(np.abs(datum.form.coefficients)))
    assert np.max(np.abs(rebuilt - datum.form.coefficients)) < 1e-9 * scale


@pytest.mark.parametrize("seed,m,d", [(5, 2, 1), (6, 3, 2)])
def test_conjugate_blocks_are_conjugates(seed, m, d):
    datum = _random_datum(seed, m, d)
    split = datum.split
    conj = split_form(datum.form, datum.base, datum.fibre)[d:]
    assert np.allclose(conj[:, :m, :m], np.conj(split.antiholomorphic), atol=1e-10)
    assert np.allclose(conj[:, m:, m:], np.conj(split.holomorphic), atol=1e-10)
    assert np.allclose(conj[:, :m, m:],
                       -np.conj(split.hermitian).transpose(0, 2, 1), atol=1e-10)


def test_paired_blocks_antisymmetric():
    split = _random_datum(7, 3, 1).split
    assert np.allclose(split.holomorphic, -split.holomorphic.transpose(0, 2, 1))
    assert np.allclose(split.antiholomorphic, -split.antiholomorphic.transpose(0, 2, 1))


def test_split_form_rank_mismatch():
    with pytest.raises(ValueError):
        split_form(iwasawa_form(), standard_structure(1), standard_structure(1))


# ---------------------------------------------------------------------------
# Membership


def test_riemann_member_iwasawa(iwasawa):
    verdict = riemann_check(iwasawa.form, iwasawa.base, iwasawa.fibre)
    assert verdict.member
    assert verdict.residual < 1e-12
    assert bool(verdict) is True


def test_riemann_rejects_conjugate_fibre(iwasawa):
    swapped = ComplexStructure(np.conj(iwasawa.fibre.period))
    verdict = riemann_check(iwasawa.form, iwasawa.base, swapped)
    assert not verdict.member
    assert verdict.residual == pytest.approx(2.0)


def test_zero_form_always_member():
    form = ExtensionForm(np.zeros((2, 4, 4), dtype=np.int64))
    verdict = riemann_check(form, random_structure(2, 0), random_structure(1, 1))
    assert verdict.member
    assert verdict.scale == 0.0


def test_generic_pair_not_member():
    datum = _random_datum(8, 3, 1)
    assert not datum.membership.member


def _member_pair(seed, m):
    return transported_case1(np.random.default_rng(seed), m)


def _nonmember_pair(seed, m):
    datum = _random_datum(seed, m, 1)
    return datum.form, datum.base, datum.fibre


def _zero_pair(seed, m):
    rng = np.random.default_rng(seed)
    form = ExtensionForm(np.zeros((2, 2 * m, 2 * m), dtype=np.int64))
    return form, random_structure(m, rng), random_structure(1, rng)


@pytest.mark.parametrize("make,seed,m,member", [
    (_member_pair, 11, 2, True), (_member_pair, 12, 3, True), (_member_pair, 13, 4, True),
    (_nonmember_pair, 8, 3, False), (_nonmember_pair, 14, 2, False),
    (_zero_pair, 15, 2, True),
])
def test_riemann_check_is_the_datum_verdict(make, seed, m, member):
    form, base, fibre = make(seed, m)
    for tol in (1e-9, 1e-3):
        verdict = riemann_check(form, base, fibre, tol=tol)
        expected = BundleDatum(form, base, fibre, tol=tol).membership
        assert verdict.member is expected.member is member
        assert (verdict.residual, verdict.scale, verdict.tol) == \
            (expected.residual, expected.scale, expected.tol)


# ---------------------------------------------------------------------------
# BundleDatum.checked


def test_checked_rejects_bad_form():
    bad = ExtensionForm(np.array([[[0, 1], [1, 0]], [[0, 0], [0, 0]]]))
    with pytest.raises(FormInvalidError):
        BundleDatum.checked(bad, standard_structure(1), standard_structure(1))


def test_checked_rejects_degenerate_structure():
    form = ExtensionForm(np.zeros((2, 2, 2), dtype=np.int64))
    real = ComplexStructure(np.array([[1.0], [2.0]]))
    with pytest.raises(StructureDegenerateError):
        BundleDatum.checked(form, real, standard_structure(1))


def test_checked_rejects_nonmember(iwasawa):
    swapped = ComplexStructure(np.conj(iwasawa.fibre.period))
    with pytest.raises(MembershipError):
        BundleDatum.checked(iwasawa.form, iwasawa.base, swapped)


def test_translation_shape_checked(iwasawa):
    with pytest.raises(ValueError):
        BundleDatum(iwasawa.form, iwasawa.base, iwasawa.fibre,
                    translation=np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# Classifying cocycle


def test_cocycle_eval_frozen(iwasawa):
    value = cocycle_eval(iwasawa, [0, 0, 1, 0], [1.0, 0.0])
    assert np.allclose(value, [-1.0], atol=1e-12)


def test_cocycle_eval_linear_in_z(iwasawa):
    rng = np.random.default_rng(2)
    gamma = [1, -2, 0, 3]
    z1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs = cocycle_eval(iwasawa, gamma, 2 * z1 + z2)
    rhs = 2 * cocycle_eval(iwasawa, gamma, z1) + cocycle_eval(iwasawa, gamma, z2)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_cocycle_eval_translation_only():
    translation = np.array([[0.25 + 0.5j, 0.0, -1.0, 0.125]])
    datum = product_datum(2, 1)
    datum = BundleDatum(datum.form, datum.base, datum.fibre, translation=translation)
    gamma = [2, 0, -1, 1]
    value = cocycle_eval(datum, gamma, [0.3, -0.7])
    assert np.allclose(value, translation @ gamma)


def test_defect_z_independent_and_lattice_valued(iwasawa):
    rng = np.random.default_rng(3)
    g1 = np.array([1, 0, 0, 0])
    g2 = np.array([0, 0, 1, 0])
    values = []
    for _ in range(4):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        values.append(cocycle_defect(iwasawa, g1, g2, z))
    for value in values[1:]:
        assert np.allclose(value, values[0], atol=1e-10)
    # the defect is the fibre projection of the integer vector A(g2, g1)
    assert np.allclose(values[0], [-0.5], atol=1e-10)
    recovered = lattice_vector_from_fibre(iwasawa, values[0])
    assert recovered is not None
    assert np.array_equal(recovered, iwasawa.form(g2, g1))


def test_defect_on_nonparallelizable_surface(kodaira_surface):
    # regression for the translated-argument convention: with a nonzero
    # hermitian block the defect is lattice-valued only because the
    # antiholomorphic component of the lattice vector rides along
    value = cocycle_defect(kodaira_surface, [1, 0], [0, 1], [0.3 + 0.1j])
    assert np.allclose(value, [-0.5], atol=1e-10)
    recovered = lattice_vector_from_fibre(kodaira_surface, value)
    assert np.array_equal(recovered, [0, -1])


def test_defect_off_variety_and_random_pairs():
    datum = _random_datum(11, 2, 2)  # generic, not a member
    rng = np.random.default_rng(12)
    for _ in range(5):
        g1 = rng.integers(-3, 4, size=4)
        g2 = rng.integers(-3, 4, size=4)
        z1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        d1 = cocycle_defect(datum, g1, g2, z1)
        d2 = cocycle_defect(datum, g1, g2, z2)
        assert np.allclose(d1, d2, atol=1e-8)
        recovered = lattice_vector_from_fibre(datum, d1, tol=1e-8)
        assert recovered is not None
        assert np.array_equal(recovered, datum.form(g2, g1))


def test_defect_unchanged_by_translation(iwasawa):
    rng = np.random.default_rng(13)
    translation = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
    shifted = BundleDatum(iwasawa.form, iwasawa.base, iwasawa.fibre,
                          translation=translation)
    g1 = [1, 2, 0, -1]
    g2 = [0, 1, 1, 0]
    z = [0.2 - 0.4j, 1.5]
    assert np.allclose(cocycle_defect(shifted, g1, g2, z),
                       cocycle_defect(iwasawa, g1, g2, z), atol=1e-10)


def test_lattice_recovery_rejects_non_lattice_value(iwasawa):
    assert lattice_vector_from_fibre(iwasawa, [0.3]) is None


def test_decompose_matches_datum_split(iwasawa):
    direct = decompose(iwasawa.form, iwasawa.base, iwasawa.fibre)
    assert np.array_equal(direct.holomorphic, iwasawa.split.holomorphic)
