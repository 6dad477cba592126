import warnings

import numpy as np
import pytest

from tbi import (BundleDatum, ComplexStructure, ExtensionForm, FormInvalidError,
                 MembershipError, StructureDegenerateError, cocycle_defect,
                 catalog_datum, cocycle_eval, decompose, iwasawa_form, lattice_vector_from_fibre,
                 iwasawa_datum, product_datum, random_structure, riemann_check,
                 standard_structure)

from tbi.periods import split_coordinates

from support import (SMALL_MEMBERS, count_frame_svds, full_split, naive_split, near_threshold_member,
                     random_alternating_form, reconstruct, small_member, transported_case1)


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
    rebuilt = reconstruct(datum)
    scale = max(1.0, np.max(np.abs(datum.form.coefficients)))
    assert np.max(np.abs(rebuilt - datum.form.coefficients)) < 1e-9 * scale


def _scrambled_datum(seed):
    return BundleDatum(*transported_case1(np.random.default_rng([17, seed]), 2 + seed % 4))


SPLIT_CORPUS = {f"small.{kind}.{m}.{d}": (small_member, kind, m, d)
                for kind, m, d in SMALL_MEMBERS} | {
    "iwasawa": (iwasawa_datum,), "near-threshold": (near_threshold_member,)} | {
    f"random.{seed}": (_random_datum, seed, 1 + seed % 4, 1 + seed % 3)
    for seed in range(20, 30)} | {
    f"scrambled.{seed}": (_scrambled_datum, seed) for seed in range(10)}


@pytest.mark.parametrize("name", SPLIT_CORPUS)
def test_decompose_is_the_u_valued_half_of_the_full_split(name):
    """decompose contracts only the U-coordinates: its blocks are those of
    the full contraction bit for bit, its scale is the full max-norm to
    roundoff, and the Ubar half it leaves out is the conjugate of the U half
    with V and Vbar slots exchanged."""
    make, *args = SPLIT_CORPUS[name]
    datum = make(*args)
    split, full = datum.split, full_split(datum)
    m, d = split.base_half_rank, split.fibre_half_rank
    assert np.array_equal(split.holomorphic, full[:d, :m, :m])
    assert np.array_equal(split.hermitian, full[:d, :m, m:])
    assert np.array_equal(split.antiholomorphic, full[:d, m:, m:])
    assert split.scale == pytest.approx(np.max(np.abs(full)), rel=1e-15, abs=0)
    swap = np.r_[m:2 * m, 0:m]
    np.testing.assert_allclose(full[d:], np.conj(full[:d][:, swap][:, :, swap]),
                               rtol=0, atol=1e-13 * split.scale)


@pytest.mark.parametrize("name", SPLIT_CORPUS)
def test_decompose_agrees_with_the_term_by_term_einsum(name):
    """The pairwise contraction against the 4-operand einsum: equal to
    1e-14 * scale everywhere, and bit for bit, the sign of each zero too, on
    the Gaussian-integer members, whose products are all exact."""
    make, *args = SPLIT_CORPUS[name]
    datum = make(*args)
    split, naive = datum.split, naive_split(datum)
    m = split.base_half_rank
    blocks = (split.holomorphic, split.hermitian, split.antiholomorphic)
    for block, reference in zip(blocks, (naive[:, :m, :m], naive[:, :m, m:], naive[:, m:, m:])):
        if name.startswith(("small.", "iwasawa", "near-threshold")):
            assert block.tobytes() == reference.tobytes()
        np.testing.assert_allclose(block, reference, rtol=0, atol=1e-14 * split.scale)


def _scaled(datum, k, l):
    return BundleDatum(datum.form, ComplexStructure(datum.base.period * 10.0 ** k),
                       ComplexStructure(datum.fibre.period * 10.0 ** l), tol=datum.tol)


OVERFLOW_DATA = {"iwasawa": iwasawa_datum,
                 "small.mixed.2.1": lambda: small_member("mixed", 2, 1),
                 "small.mixed.3.2": lambda: small_member("mixed", 3, 2)}
OVERFLOW_EXPONENTS = (-300, -200, -154, -100, 0, 100, 150, 154, 200, 300, 308)
# At the ends of the float range the verdict follows the order of the sums:
# the einsum overflows on a split just under the float maximum that the
# matrix products keep finite, and on a subnormal split the two round
# differently, and so decide membership differently.
_ORDER_DECIDES = pytest.mark.xfail(strict=True, reason="the verdict follows the order of the sums")
OVERFLOW_CASES = [pytest.param(OVERFLOW_DATA[name], k, l, id=f"{name}-{k}-{l}")
                  for name in OVERFLOW_DATA for k in OVERFLOW_EXPONENTS
                  for l in OVERFLOW_EXPONENTS] + [
    pytest.param(lambda: _random_datum(24, 1, 1), 154, 0, id="random.24-154-0",
                 marks=_ORDER_DECIDES),
    pytest.param(lambda: _random_datum(5, 2, 2), -162, 1, id="random.5--162-1",
                 marks=_ORDER_DECIDES)]


def _einsum_verdict(datum):
    """None when naive_split refuses or has a non-finite entry, else the
    membership verdict it gives."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            half = naive_split(datum)
        except StructureDegenerateError:
            return None
        if not np.all(np.isfinite(half)):
            return None
        m = datum.base.half_rank
        return bool(np.max(np.abs(half[:, m:, m:])) <= datum.tol * np.max(np.abs(half)))


@pytest.mark.parametrize("make,k,l", OVERFLOW_CASES)
def test_decompose_refuses_exactly_where_the_einsum_overflows(make, k, l):
    """V scaled by 10^k and U by 10^l: decompose raises
    StructureDegenerateError exactly when the term-by-term einsum has a
    non-finite entry or basis_change refuses U, otherwise gives the einsum's
    membership verdict, and no RuntimeWarning escapes."""
    datum = _scaled(make(), k, l)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            verdict = datum.membership.member
        except StructureDegenerateError:
            verdict = None
    assert verdict == _einsum_verdict(datum)


@pytest.mark.parametrize("seed,m,d", [(5, 2, 1), (6, 3, 2)])
def test_conjugate_blocks_are_conjugates(seed, m, d):
    datum = _random_datum(seed, m, d)
    split = datum.split
    conj = full_split(datum)[d:]
    assert np.allclose(conj[:, :m, :m], np.conj(split.antiholomorphic), atol=1e-10)
    assert np.allclose(conj[:, m:, m:], np.conj(split.holomorphic), atol=1e-10)
    assert np.allclose(conj[:, :m, m:],
                       -np.conj(split.hermitian).transpose(0, 2, 1), atol=1e-10)


def test_paired_blocks_antisymmetric():
    split = _random_datum(7, 3, 1).split
    assert np.allclose(split.holomorphic, -split.holomorphic.transpose(0, 2, 1))
    assert np.allclose(split.antiholomorphic, -split.antiholomorphic.transpose(0, 2, 1))


def test_decompose_rank_mismatch():
    with pytest.raises(ValueError):
        decompose(iwasawa_form(), standard_structure(1), standard_structure(1))


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
        assert verdict == expected


# ---------------------------------------------------------------------------
# BundleDatum.checked


def test_checked_rejects_bad_form():
    with pytest.raises(FormInvalidError):
        BundleDatum.checked(ExtensionForm(np.array([[[0, 1], [1, 0]], [[0, 0], [0, 0]]])),
                            standard_structure(1), standard_structure(1))


def test_checked_rejects_degenerate_structure():
    form = ExtensionForm(np.zeros((2, 2, 2), dtype=np.int64))
    real = ComplexStructure(np.array([[1.0], [2.0]]))
    with pytest.raises(StructureDegenerateError):
        BundleDatum.checked(form, real, standard_structure(1))


def test_decompose_tests_each_fibre_frame_once_per_structure(monkeypatch):
    # A structure keeps its frame's singular values, so splits at tols 1e-9,
    # 1e-9 and 0.5 take one frame SVD; a new structure takes one more.
    datum = iwasawa_datum()
    frame_svds = count_frame_svds(monkeypatch)
    fibre = ComplexStructure(datum.fibre.period)
    for tol in (1e-9, 1e-9, 0.5):
        decompose(datum.form, datum.base, fibre, tol)
    assert frame_svds == [(2, 2)]
    real = ComplexStructure(np.array([[1.0], [2.0]]))
    for _ in range(2):
        with pytest.raises(StructureDegenerateError, match="period matrix is degenerate"):
            decompose(datum.form, datum.base, real)
    assert frame_svds == [(2, 2), (2, 2)]


@pytest.mark.parametrize("name,m,d", [("iwasawa", 2, 1)] + [
    ("product", m, d) for m, d in [(1, 1), (2, 1), (3, 2), (5, 3)]])
def test_checked_accepts_the_catalog(name, m, d):
    """The catalog builds its data without the membership check; each
    passes it."""
    datum = catalog_datum(name, m, d)
    assert BundleDatum.checked(datum.form, datum.base, datum.fibre).membership.member


@pytest.mark.parametrize("scale_base,scale_fibre", [(1e100, 1e-150), (1e308, 1.0)])
def test_split_overflow_is_a_degenerate_structure(scale_base, scale_fibre):
    """A split with an entry past the float range raises the degenerate
    period matrix error instead of a nan membership verdict."""
    datum = small_member("mixed", 2, 1)
    base = ComplexStructure(datum.base.period * scale_base)
    fibre = ComplexStructure(datum.fibre.period * scale_fibre)
    with pytest.raises(StructureDegenerateError, match="split of the form .* is not finite"):
        decompose(datum.form, base, fibre)


def test_checked_rejects_nonmember(iwasawa):
    swapped = ComplexStructure(np.conj(iwasawa.fibre.period))
    with pytest.raises(MembershipError):
        BundleDatum.checked(iwasawa.form, iwasawa.base, swapped)


@pytest.mark.parametrize("make,message", [
    (lambda x: BundleDatum(x.form, standard_structure(1), x.fibre),
     "base structure rank does not match the form"),
    (lambda x: BundleDatum(x.form, x.base, standard_structure(2)),
     "fibre structure rank does not match the form"),
    (lambda x: cocycle_eval(x, [1, 0, 0, 0], [1.0]), "z must have length 2"),
    (lambda x: cocycle_eval(x, [1, 0, 0], [0, 0]), "gamma must have length 4"),
    (lambda x: cocycle_defect(x, [1, 0, 0], [0, 1, 0, 0], [0, 0]), "gamma1 must have length 4"),
    (lambda x: cocycle_defect(x, [1, 0, 0, 0], [0, 1], [0, 0]), "gamma2 must have length 4"),
    (lambda x: cocycle_defect(x, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0]),
     "z must have length 2"),
    (lambda x: lattice_vector_from_fibre(x, [1.0, 2.0]), "value must have length 1"),
], ids=["base-rank", "fibre-rank", "z-length", "gamma-length", "gamma1-length",
        "gamma2-length", "defect-z-length", "value-length"])
def test_mismatched_shapes_raise_value_error(iwasawa, make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(iwasawa)


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


def _contracted_blocks(datum, gamma, z):
    """The classifying cocycle contracted on the split blocks: z into the
    first slot of the holomorphic block, the (V, Vbar) halves of gamma into
    the second slot of the holomorphic and hermitian blocks."""
    holomorphic, antiholomorphic = split_coordinates(datum.base, gamma, datum.tol)
    split = datum.split
    linear = np.einsum("ahl,h,l->a", split.holomorphic, z, holomorphic) \
        + np.einsum("ahl,h,l->a", split.hermitian, z, antiholomorphic)
    return -linear + datum.translation_value(gamma)


@pytest.mark.parametrize("name", ["iwasawa", "kodaira_surface", "mixed-3-1",
                                  "pure_hermitian-2-2", "zero_hermitian-4-1"])
def test_cocycle_eval_matches_block_contraction(request, name):
    if "-" in name:
        kind, m, d = name.split("-")
        datum = small_member(kind, int(m), int(d))
    else:
        datum = request.getfixturevalue(name)
    rng = np.random.default_rng(list(name.encode()))
    m = datum.base.half_rank
    for _ in range(5):
        gamma = rng.integers(-5, 6, size=2 * m)
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert np.allclose(cocycle_eval(datum, gamma, z), _contracted_blocks(datum, gamma, z),
                           rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("vector", [[2**63 + 2**20, 1], [2**62 + 2**12, -3]],
                         ids=["past-2**63", "near-2**62"])
def test_lattice_recovery_is_exact_past_int64(iwasawa, vector):
    """Both vectors are exact in float64; the first is past the int64 range,
    where an int64 cast would wrap (and warn)."""
    value, _ = split_coordinates(iwasawa.fibre, np.array(vector, dtype=float))
    assert lattice_vector_from_fibre(iwasawa, value).tolist() == vector


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
def test_lattice_recovery_of_a_non_finite_value_is_none(iwasawa, value):
    assert lattice_vector_from_fibre(iwasawa, [value]) is None


def test_decompose_matches_datum_split(iwasawa):
    direct = decompose(iwasawa.form, iwasawa.base, iwasawa.fibre)
    assert np.array_equal(direct.holomorphic, iwasawa.split.holomorphic)
