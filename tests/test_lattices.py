from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbi import (ExtensionForm, FormInvalidError, GroupElement, basis_lift,
                 central_lift, commutator, extension_cocycle, group_inverse,
                 group_multiply, iwasawa_form, validate_form)

from support import random_alternating_form


# ---------------------------------------------------------------------------
# Form construction and validation


@pytest.mark.parametrize("shape", [(2, 3, 3), (3, 2, 2), (2, 2, 4), (2,), (0, 2, 2)])
def test_bad_shapes_rejected(shape):
    with pytest.raises(FormInvalidError):
        ExtensionForm(np.zeros(shape, dtype=np.int64))


def test_non_integer_entries_rejected():
    with pytest.raises(FormInvalidError):
        ExtensionForm(np.array([[[0.0, 0.5], [-0.5, 0.0]]]) * np.ones((2, 1, 1)))


def test_integral_floats_accepted():
    form = ExtensionForm(np.array([[[0.0, 2.0], [-2.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]))
    assert form.coefficients.dtype == np.int64
    assert form.coefficients[0, 0, 1] == 2


@pytest.mark.parametrize("value", [2.0 ** 63, -2.0 ** 63 - 2048, 1e300, float("inf"),
                                   np.uint64(2 ** 63)])
def test_out_of_int64_range_entries_rejected(value):
    coefficients = np.zeros((2, 2, 2), dtype=np.asarray(value).dtype)
    coefficients[0, 0, 1] = value
    with pytest.raises(FormInvalidError, match="int64 range"):
        ExtensionForm(coefficients)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value,message", [
    (2 ** 70, "int64 range"), (-2 ** 63 - 1, "int64 range"), (0.5, "integers"),
])
def test_python_int_and_object_entries_coerced_exactly(value, message):
    coefficients = np.zeros((2, 2, 2), dtype=object)
    coefficients[0, 0, 1], coefficients[0, 1, 0] = value, -value
    with pytest.raises(FormInvalidError, match=message):
        ExtensionForm(coefficients)
    coefficients[0, 0, 1], coefficients[0, 1, 0] = 2 ** 62, -2 ** 62
    assert ExtensionForm(coefficients).coefficients[0, 0, 1] == 2 ** 62


def test_validate_form_does_not_wrap_int64_min():
    low = np.iinfo(np.int64).min
    form = ExtensionForm(np.array([[[0, low], [low, 0]], [[0, 0], [0, 0]]]))
    violations = validate_form(form)
    assert len(violations) == 1
    assert f"{low} != {-low}" in violations[0]


def test_validate_form_names_first_violation():
    form = ExtensionForm(np.array([[[0, 1], [1, 0]], [[0, 0], [0, 0]]]))
    violations = validate_form(form)
    assert len(violations) == 1
    assert "(k=1, i=1, j=2)" in violations[0]
    assert "1 != -1" in violations[0]


def test_validate_form_reports_diagonal():
    form = ExtensionForm(np.array([[[1, 0], [0, 0]], [[0, 0], [0, 0]]]))
    violations = validate_form(form)
    assert any("(k=1, i=1, j=1)" in v for v in violations)


def test_validate_form_iwasawa_clean():
    assert validate_form(iwasawa_form()) == []


def test_iwasawa_form_frozen_entries():
    # A(e1,e3)=f1, A(e1,e4)=f2, A(e2,e3)=f2, A(e2,e4)=-f1
    coeff = iwasawa_form().coefficients
    expected = np.zeros((2, 4, 4), dtype=np.int64)
    expected[0, 0, 2] = 1
    expected[1, 0, 3] = 1
    expected[1, 1, 2] = 1
    expected[0, 1, 3] = -1
    expected -= expected.transpose(0, 2, 1)
    assert np.array_equal(coeff, expected)


def test_form_call_bilinear():
    form = iwasawa_form()
    # A(e1+e2, e3) = f1 + f2
    assert np.array_equal(form([1, 1, 0, 0], [0, 0, 1, 0]), [1, 1])
    assert np.array_equal(form([0, 0, 1, 0], [1, 1, 0, 0]), [-1, -1])


# ---------------------------------------------------------------------------
# Group elements and the extension cocycle


def test_lifts():
    form = iwasawa_form()
    e2 = basis_lift(form, 1)
    assert np.array_equal(e2.base, [0, 1, 0, 0])
    assert not np.any(e2.fibre)
    f2 = central_lift(form, 1)
    assert np.array_equal(f2.fibre, [0, 1])
    assert not np.any(f2.base)


def test_element_equality():
    a = GroupElement([0, 0], [1, 0, 0, 0])
    b = GroupElement([0, 0], [1, 0, 0, 0])
    c = GroupElement([1, 0], [1, 0, 0, 0])
    assert a == b
    assert a != c


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fibre", [[2 ** 70, 0], [2 ** 63, 0], [-2 ** 63 - 1, 0], [1e300, 0]])
def test_element_holds_integers_outside_int64(fibre):
    g = GroupElement(fibre, [0, 0, 0, 0])
    assert g.fibre.tolist() == [int(x) for x in fibre] and g.fibre.dtype == object
    assert g.base.dtype == np.int64


# Integers of any size are coordinates; what is not an integer is refused,
# beyond the int64 range (the first five) or inside it.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fibre,message", [
    ([float("inf"), 0], "integers"), ([float("-inf"), 0], "integers"),
    ([Fraction(2 ** 64 + 1, 2), 0], "integers"), ([Fraction(-2 ** 64 - 1, 2), 0], "integers"),
    ([complex(2 ** 70), 0], "integers"), ([float("nan"), 0], "integers"),
    ([0.5, 0], "integers"), (["1", 0], "integers"), ([1 + 1j, 0], "integers"),
])
def test_element_rejects_entries_outside_int64(fibre, message):
    with pytest.raises(ValueError, match=message):
        GroupElement(fibre, [0, 0, 0, 0])


@pytest.mark.filterwarnings("error")
def test_element_rejects_non_vectors():
    with pytest.raises(ValueError, match=r"^fibre must be a vector, got shape \(1, 2\)$"):
        GroupElement([[1, 0]], [0, 0, 0, 0])


@pytest.mark.parametrize("fibre,base", [
    ([5], [1, 0, 0, 0]), ([0, 0, 0], [1, 0, 0, 0]), ([0, 0], [1, 0]), ([0, 0], [1, 0, 0, 0, 0]),
])
def test_group_operations_reject_operands_of_the_wrong_length(fibre, base):
    form = iwasawa_form()
    bad, good = GroupElement(fibre, base), basis_lift(form, 2)
    message = (rf"lengths \(fibre {len(fibre)}, base {len(base)}\) do not match the "
               r"form's ranks \(2, 4\)")
    for operation in (lambda: group_multiply(form, bad, good),
                      lambda: group_multiply(form, good, bad),
                      lambda: group_inverse(form, bad),
                      lambda: commutator(form, bad, good),
                      lambda: commutator(form, good, bad)):
        with pytest.raises(ValueError, match=message):
            operation()


@pytest.mark.parametrize("coordinates", [[2 ** 62 + 1, 0.0], [2 ** 63 - 1, -0.0], [1.0, -2 ** 63]])
def test_element_keeps_ints_exact_beside_floats(coordinates):
    g = GroupElement(coordinates, [0, 0, 0, 0])
    assert g.fibre.tolist() == coordinates and g.fibre.dtype == np.int64


@pytest.mark.filterwarnings("error")
def test_element_keeps_int64_extremes():
    g = GroupElement([2 ** 63 - 1, -2 ** 63], np.array([1.0, 0.0, -3.0, 2.0 ** 62]))
    assert g.fibre.tolist() == [2 ** 63 - 1, -2 ** 63]
    assert g.base.tolist() == [1, 0, -3, 2 ** 62]
    assert g.fibre.dtype == g.base.dtype == np.int64


@pytest.mark.filterwarnings("error")
def test_form_call_and_cocycle_are_exact_outside_int64():
    form = iwasawa_form()
    assert form([1e300, 0, 0, 0], [0, 0, 1, 0]).tolist() == [int(1e300), 0]
    assert extension_cocycle(form, [2 ** 70, 0, 0, 0], [0, 0, 1, 0]).tolist() == [2 ** 70, 0]
    assert extension_cocycle(form, [0, 0, 1, 0], [2 ** 70, 0, 0, 0]).tolist() == [0, 0]


def test_cocycle_strictly_upper_triangular():
    form = iwasawa_form()
    # i < j picks up the form value, i >= j contributes nothing
    assert np.array_equal(extension_cocycle(form, [1, 0, 0, 0], [0, 0, 1, 0]), [1, 0])
    assert np.array_equal(extension_cocycle(form, [0, 0, 1, 0], [1, 0, 0, 0]), [0, 0])


def test_group_multiply_example():
    form = iwasawa_form()
    product = group_multiply(form, basis_lift(form, 0), basis_lift(form, 2))
    assert np.array_equal(product.fibre, [1, 0])
    assert np.array_equal(product.base, [1, 0, 1, 0])


def test_commutator_example():
    form = iwasawa_form()
    bracket = commutator(form, basis_lift(form, 1), basis_lift(form, 3))
    assert np.array_equal(bracket.fibre, [-1, 0])
    assert not np.any(bracket.base)


def test_commutator_matches_form_on_all_basis_pairs():
    form = iwasawa_form()
    for i in range(4):
        for j in range(4):
            bracket = commutator(form, basis_lift(form, i), basis_lift(form, j))
            assert not np.any(bracket.base)
            assert np.array_equal(bracket.fibre, form.coefficients[:, i, j])


def test_central_elements_commute():
    form = iwasawa_form()
    g = GroupElement([2, -1], [1, 0, 3, 0])
    f1 = central_lift(form, 0)
    assert group_multiply(form, g, f1) == group_multiply(form, f1, g)


# Exact group laws on randomized elements.  The strategy draws one of a few
# fixed forms and small integer vectors; everything here is exact integer
# arithmetic, so equality is literal.

_FORMS = [iwasawa_form(),
          random_alternating_form(np.random.default_rng(3), 2, 2),
          random_alternating_form(np.random.default_rng(4), 3, 1)]


def _elements(form):
    coords = st.integers(min_value=-6, max_value=6)
    return st.builds(
        GroupElement,
        st.lists(coords, min_size=form.fibre_rank, max_size=form.fibre_rank),
        st.lists(coords, min_size=form.base_rank, max_size=form.base_rank),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), form_index=st.integers(min_value=0, max_value=len(_FORMS) - 1))
def test_group_law_properties(data, form_index):
    form = _FORMS[form_index]
    g1 = data.draw(_elements(form))
    g2 = data.draw(_elements(form))
    g3 = data.draw(_elements(form))

    left = group_multiply(form, group_multiply(form, g1, g2), g3)
    right = group_multiply(form, g1, group_multiply(form, g2, g3))
    assert left == right

    identity = GroupElement([0] * form.fibre_rank, [0] * form.base_rank)
    inverse = group_inverse(form, g1)
    assert group_multiply(form, g1, inverse) == identity
    assert group_multiply(form, inverse, g1) == identity

    bracket = commutator(form, g1, g2)
    assert not np.any(bracket.base)
    assert np.array_equal(bracket.fibre, form(g1.base, g2.base))


# The same laws near the int64 bounds, against a pure-Python reference: the
# entries of each part lie within 2 of one of -2**63, 0 and 2**63, so sums,
# negations and cocycle values cross the bound in both directions.  One form
# has coefficients 2**63 - 1, and the zero form leaves only the fibre sums.

_TOP = 2 ** 63 - 1
_BIG_FORMS = _FORMS + [ExtensionForm([[[0, _TOP], [-_TOP, 0]], [[0, 1], [-1, 0]]]),
                       ExtensionForm(np.zeros((2, 4, 4), dtype=np.int64))]


def _edge_vectors(length):
    return st.sampled_from([-2 ** 63, 0, 2 ** 63]).flatmap(lambda centre: st.lists(
        st.integers(centre - 2, centre + 2), min_size=length, max_size=length))


def _ref_value(form, x, y, upper):
    """sum over i < j (upper) or all i, j of A[k, i, j] x_i y_j, in Python ints."""
    pairs = [(i, j) for i in range(len(x)) for j in range(i + 1 if upper else 0, len(x))]
    return [sum(layer[i][j] * x[i] * y[j] for i, j in pairs)
            for layer in form.coefficients.tolist()]


def _ref_multiply(form, a, b):
    c = _ref_value(form, a[1], b[1], upper=True)
    return [p + q + r for p, q, r in zip(a[0], b[0], c)], [p + q for p, q in zip(a[1], b[1])]


def _ref_inverse(form, a):
    c = _ref_value(form, a[1], a[1], upper=True)
    return [r - p for p, r in zip(a[0], c)], [-p for p in a[1]]


def _parts(g):
    for part in (g.fibre, g.base):  # int64 exactly when every entry fits
        fits = all(-2 ** 63 <= x < 2 ** 63 for x in part.tolist())
        assert part.dtype == (np.int64 if fits else object)
    return g.fibre.tolist(), g.base.tolist()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), form_index=st.integers(min_value=0, max_value=len(_BIG_FORMS) - 1))
def test_group_law_is_exact_near_the_int64_bounds(data, form_index):
    form = _BIG_FORMS[form_index]
    a, b = [(data.draw(_edge_vectors(form.fibre_rank)), data.draw(_edge_vectors(form.base_rank)))
            for _ in range(2)]
    g1, g2 = GroupElement(*a), GroupElement(*b)
    assert _parts(group_multiply(form, g1, g2)) == _ref_multiply(form, a, b)
    assert _parts(group_inverse(form, g1)) == _ref_inverse(form, a)
    product = _ref_multiply(form, _ref_multiply(form, a, b), _ref_inverse(form, a))
    assert _parts(commutator(form, g1, g2)) == _ref_multiply(form, product, _ref_inverse(form, b))
    assert form(a[1], b[1]).tolist() == _ref_value(form, a[1], b[1], upper=False)
