import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tbi.lattices as lattices
from tbi import (ExtensionForm, FormInvalidError, GroupElement, basis_lift,
                 central_lift, commutator, extension_cocycle, group_inverse,
                 group_multiply, iwasawa_form, standard_structure, validate_form)

from support import (betti_one, first_homology, invariant_factors, random_alternating_form,
                     transport, unimodular_matrix)


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


def test_constructor_refusal_does_not_wrap_int64_min():
    low = np.iinfo(np.int64).min
    with pytest.raises(FormInvalidError) as refusal:
        ExtensionForm(np.array([[[0, low], [low, 0]], [[0, 0], [0, 0]]]))
    violations = str(refusal.value).split("; ")
    assert len(violations) == 1
    assert f"{low} != {-low}" in violations[0]


def test_constructor_refusal_names_first_violation():
    with pytest.raises(FormInvalidError) as refusal:
        ExtensionForm(np.array([[[0, 1], [1, 0]], [[0, 0], [0, 0]]]))
    violations = str(refusal.value).split("; ")
    assert len(violations) == 1
    assert "(k=1, i=1, j=2)" in violations[0]
    assert "1 != -1" in violations[0]


def test_constructor_refusal_reports_diagonal():
    with pytest.raises(FormInvalidError) as refusal:
        ExtensionForm(np.array([[[1, 2], [0, 0]], [[0, 0], [0, 0]]]))
    violations = str(refusal.value).split("; ")
    assert any("(k=1, i=1, j=1)" in v for v in violations)
    assert any("(k=1, i=1, j=2)" in v for v in violations)


# Tensors that are not alternating; the second holds -2**63 in the upper
# triangle, whose negation leaves int64.
_SKEWED_TENSORS = [
    [[[1, 2], [0, 0]], [[0, 0], [0, 0]]],
    [[[3, -2 ** 63, 1, 0], [2 ** 63 - 1, -1, 2, 5], [0, 4, 7, -2 ** 63], [1, 1, 1, 1]],
     (np.arange(16).reshape(4, 4) - 8).tolist()],
]


@pytest.mark.parametrize("tensor", _SKEWED_TENSORS, ids=["small", "int64-min"])
def test_constructor_refuses_a_form_that_is_not_alternating(tensor):
    """The refusal lists every violation, in Python ints, and
    dataclasses.replace cannot slip such a tensor into a built form."""
    expected = [f"not alternating at (k={k + 1}, i={i + 1}, j={j + 1}): "
                f"{layer[i][j]} != {-layer[j][i]}"
                for k, layer in enumerate(tensor) for i in range(len(layer))
                for j in range(i, len(layer)) if layer[i][j] != -layer[j][i]]
    with pytest.raises(FormInvalidError) as refusal:
        ExtensionForm(tensor)
    assert str(refusal.value) == "; ".join(expected)
    form = ExtensionForm(np.zeros(np.shape(tensor), dtype=np.int64))
    with pytest.raises(FormInvalidError) as replaced:
        dataclasses.replace(form, coefficients=tensor)
    assert str(replaced.value) == str(refusal.value)


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


@settings(max_examples=60, deadline=None, derandomize=True)
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


class _RecordingTensor(np.ndarray):
    """An array that records the dtype of the right operand of each @."""

    operands: list = []

    def __matmul__(self, other):
        self.operands.append(np.asarray(other).dtype)
        return np.asarray(self) @ other


@pytest.mark.parametrize("form,narrow", [(_FORMS[2], True), (_BIG_FORMS[3], False)])
def test_bilinear_past_the_bound_pushes_a_small_y_in_int64(form, narrow):
    """With x huge and y small the value is past the int64 bound.  Where
    _weight·max|y| < 2**63, tensor @ y is taken in int64 and only that vector
    becomes Python ints; against coefficients 2**63 - 1 the same y would wrap,
    so it becomes Python ints first.  The value is exact either way."""
    x = [2 ** 62 + 7 * k for k in range(form.base_rank)]
    y = [2 - k % 5 for k in range(form.base_rank)]
    assert (form._weight * max(map(abs, y)) < 2 ** 63) == narrow
    tensor = form.coefficients.view(_RecordingTensor)
    _RecordingTensor.operands = []
    value, *_ = lattices._bilinear(tensor, form._weight, 2 ** 63, np.array(x, dtype=np.int64),
                                   np.array(y, dtype=np.int64))
    assert _RecordingTensor.operands == [np.dtype(np.int64) if narrow else np.dtype(object)]
    assert value.tolist() == _ref_value(form, x, y, upper=False)
    assert form(x, y).tolist() == _ref_value(form, x, y, upper=False)


# The law on random forms, against the Python-int reference above: entries
# small, near the int64 bounds (the edges of the command-line group corpus,
# 2**63 - 1 and 2**63) or far past them.

_EDGES = [2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1]


def _entries(length):
    entry = st.one_of(st.integers(-6, 6), st.sampled_from(_EDGES),
                      st.integers(-2 ** 70, 2 ** 70))
    return st.lists(entry, min_size=length, max_size=length)


def _caller_array(values):
    """values as the writable array a caller would pass: int64 when they fit."""
    fits = all(-2 ** 63 <= x < 2 ** 63 for x in values)
    return np.array(values, dtype=np.int64 if fits else object)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 3),
       d=st.integers(1, 2), span=st.sampled_from([1, 3, 2 ** 40]))
def test_group_law_on_random_forms_matches_python_ints(data, seed, m, d, span):
    form = random_alternating_form(np.random.default_rng(seed), m, d, span)
    a, b = [(data.draw(_entries(form.fibre_rank)), data.draw(_entries(form.base_rank)))
            for _ in range(2)]
    arrays = [_caller_array(part) for part in a]
    g1 = GroupElement(*arrays)
    for array, part, values in zip(arrays, (g1.fibre, g1.base), a):
        assert array.flags.writeable and not np.shares_memory(array, part)
        array[:] = 0
        assert part.tolist() == values
    g2 = GroupElement(*b)
    product = _ref_multiply(form, _ref_multiply(form, a, b), _ref_inverse(form, a))
    results = [(group_multiply(form, g1, g2), _ref_multiply(form, a, b)),
               (group_inverse(form, g1), _ref_inverse(form, a)),
               (commutator(form, g1, g2), _ref_multiply(form, product, _ref_inverse(form, b)))]
    for result, expected in results:
        assert _parts(result) == expected
        assert not result.fibre.flags.writeable and not result.base.flags.writeable


# Fixed rows at the int64 edges, which no Hypothesis example pool can move:
# each part of each operand cycles through its values, so the rows mix int64
# and object operands and parts, and the last one has proportional base
# parts whose Python-int form value 0 comes back as int64.

_EDGE_ROWS = {  # (g1 fibre, g1 base, g2 fibre, g2 base)
    "int64": ([_TOP, -2 ** 63], [_TOP, 1, -2 ** 63], [-2 ** 63, 0], [-1, _TOP]),
    "object-fibres": ([2 ** 63, -2 ** 63 - 1], [1, -1, 2], [2 ** 70], [0, 1]),
    "object-bases": ([0, 5], [2 ** 63, -2 ** 63 - 1], [_TOP], [-2 ** 63, 2 ** 70]),
    "object": ([2 ** 70, -2 ** 63 - 1], [-2 ** 70, 2 ** 63], [2 ** 63], [2 ** 70, -2 ** 63 - 1]),
    "proportional-bases": ([2 ** 70], [2 ** 63, 0], [-2 ** 63 - 1], [-2 ** 63, 0]),
}


def _cycled(values, length):
    return [values[k % len(values)] for k in range(length)]


@pytest.mark.parametrize("row", list(_EDGE_ROWS))
@pytest.mark.parametrize("form_index", range(len(_BIG_FORMS)))
def test_commutator_is_the_product_chain_at_the_int64_edges(form_index, row):
    form = _BIG_FORMS[form_index]
    lengths = (form.fibre_rank, form.base_rank) * 2
    parts = [_cycled(values, length) for values, length in zip(_EDGE_ROWS[row], lengths)]
    a, b = tuple(parts[:2]), tuple(parts[2:])
    g1, g2 = GroupElement(*a), GroupElement(*b)
    bracket = commutator(form, g1, g2)
    product = _ref_multiply(form, _ref_multiply(form, a, b), _ref_inverse(form, a))
    assert _parts(bracket) == _ref_multiply(form, product, _ref_inverse(form, b))
    chain = group_multiply(form, group_multiply(form, group_multiply(form, g1, g2),
                                                group_inverse(form, g1)), group_inverse(form, g2))
    assert _parts(bracket) == _parts(chain)
    assert bracket.fibre.tolist() == _ref_value(form, a[1], b[1], upper=False)
    assert bracket.base.dtype == np.int64 and not bracket.base.any()
    assert not bracket.fibre.flags.writeable and not bracket.base.flags.writeable


# The bound on operands: _largest is max|entry| over both parts as an exact
# Python int, taken on an element's first use as an operand and then kept.

@pytest.mark.parametrize("fibre,base", [
    ([0, 0], [0, 0, 0, 0]), ([3, -7], [1, 0, 0, 2]), ([_TOP, -2 ** 63], [0, 0, 0, 0]),
    ([2 ** 70, 0], [0, -2 ** 63 - 1, 0, 0]), ([1, 2], [-2 ** 80, 0, 0, 2 ** 63]),
])
def test_largest_is_the_exact_bound_of_every_element(fibre, base):
    form = iwasawa_form()
    g, h = GroupElement(fibre, base), GroupElement(base[:2], fibre + fibre)
    lifts = [basis_lift(form, 1), central_lift(form, 0)]
    assert not any("_largest" in vars(element) for element in [g, h, *lifts])
    results = [group_multiply(form, g, h), group_inverse(form, g), commutator(form, g, h)]
    for element in [g, h, *lifts, *results]:
        exact = max(abs(x) for x in element.fibre.tolist() + element.base.tolist())
        assert type(element._largest) is int and element._largest == exact
        assert vars(element)["_largest"] == exact  # kept for the next use


def test_results_take_their_bound_only_as_operands():
    form = iwasawa_form()
    g, h = GroupElement([1, 2], [3, 4, 5, 6]), GroupElement([2 ** 70, 0], [0, 1, 0, 0])
    product = group_multiply(form, g, h)
    assert "_largest" in vars(g) and "_largest" in vars(h) and "_largest" not in vars(product)
    assert product.fibre.dtype == object
    group_inverse(form, product)
    assert vars(product)["_largest"] == max(map(abs, product.fibre.tolist())) > 2 ** 70
    assert [field.name for field in dataclasses.fields(GroupElement)] == ["fibre", "base"]


# ---------------------------------------------------------------------------
# H_1(M; Z) from the Smith normal form of the form


def _minor_gcd(rows, k) -> int:
    """The gcd of the k x k minors of an integer matrix (Leibniz formula)."""
    def det(square):
        return sum(math.prod(square[i][p] for i, p in enumerate(perm))
                   * (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
                   for perm in itertools.permutations(range(len(square))))
    return math.gcd(*(det([[rows[r][c] for c in cols] for r in chosen])
                      for chosen in itertools.combinations(range(len(rows)), k)
                      for cols in itertools.combinations(range(len(rows[0])), k)))


def test_invariant_factors_are_the_quotients_of_the_minor_gcds():
    # d_1 d_2 ... d_k is the gcd of the k x k minors, which is 0 past the
    # rank, and the factors divide one another.
    rng = np.random.default_rng(17)
    for _ in range(60):
        rows, cols = (int(x) for x in rng.integers(1, 5, size=2))
        matrix = (rng.integers(-4, 5, size=(rows, cols))
                  * rng.choice([1, 2, 6], size=(rows, 1))).tolist()
        factors = invariant_factors(matrix)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
        for k in range(1, min(rows, cols) + 1):
            expected = math.prod(factors[:k]) if k <= len(factors) else 0
            assert _minor_gcd(matrix, k) == expected, (matrix, factors)


def _homology_forms():
    rng = np.random.default_rng(23)
    forms = [ExtensionForm(k * iwasawa_form().coefficients) for k in (1, 2, 3, 6)]
    for m, d, factor in [(1, 1, 1), (2, 1, 4), (2, 2, 1), (2, 2, 3), (3, 1, 2), (3, 2, 1)]:
        form = random_alternating_form(rng, m, d, span=2)
        forms.append(ExtensionForm(factor * form.coefficients))
    forms.append(ExtensionForm(np.zeros((4, 6, 6), dtype=np.int64)))
    return forms


def test_first_homology_free_rank_is_b1():
    for form in _homology_forms():
        assert first_homology(form)[0] == betti_one(form)


def test_first_homology_is_invariant_under_unimodular_base_changes():
    rng = np.random.default_rng(29)
    for form in _homology_forms():
        m, d = form.base_rank // 2, form.fibre_rank // 2
        expected = first_homology(form)
        for _ in range(3):
            moved = transport(form, standard_structure(m), standard_structure(d),
                              unimodular_matrix(rng, 2 * m), unimodular_matrix(rng, 2 * d))[0]
            assert first_homology(moved) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_first_homology_of_the_iwasawa_multiples(k):
    # k A_Iwasawa: H_1 = Z^4 + (Z/k)^2; the Iwasawa form itself has no torsion.
    torsion = () if k == 1 else (k, k)
    assert first_homology(ExtensionForm(k * iwasawa_form().coefficients)) == (4, torsion)
