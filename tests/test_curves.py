import numpy as np
import pytest

from tbi import CurveBundleClass, divisibility_index, kuranishi_dim


@pytest.mark.parametrize("genus,fibre_dim,expected", [
    (2, 1, 6),
    (2, 2, 11),
    (3, 1, 10),
    (4, 2, 21),
])
def test_kuranishi_dim(genus, fibre_dim, expected):
    assert kuranishi_dim(genus, fibre_dim) == expected


@pytest.mark.parametrize("genus", [-1, 0, 1])
def test_kuranishi_rejects_low_genus(genus):
    with pytest.raises(ValueError):
        kuranishi_dim(genus, 1)


@pytest.mark.parametrize("fibre_dim", [0, -1])
def test_kuranishi_rejects_bad_fibre_dim(fibre_dim):
    with pytest.raises(ValueError):
        kuranishi_dim(2, fibre_dim)


def test_kuranishi_growth_in_both_arguments():
    for genus in range(2, 6):
        for fibre_dim in range(1, 4):
            here = kuranishi_dim(genus, fibre_dim)
            assert kuranishi_dim(genus + 1, fibre_dim) > here
            assert kuranishi_dim(genus, fibre_dim + 1) > here


@pytest.mark.parametrize("entries,expected", [
    ((0, 0), 0),
    ((2, 4, 6, 0), 2),
    ((1, 0, 0, 0), 1),
    ((3,), 3),
    ((-4, 6), 2),
    ((), 0),
])
def test_divisibility_index(entries, expected):
    assert divisibility_index(entries) == expected


def test_divisibility_invariant_under_permutation_and_sign():
    rng = np.random.default_rng(90)
    for _ in range(10):
        entries = rng.integers(-9, 10, size=6)
        value = divisibility_index(entries)
        assert divisibility_index(entries[::-1]) == value
        assert divisibility_index(-entries) == value
        assert divisibility_index(rng.permutation(entries)) == value


def test_divisibility_rejects_non_integers():
    with pytest.raises(ValueError):
        divisibility_index((1.5, 2.0))


@pytest.mark.filterwarnings("error")
def test_divisibility_beyond_int64_is_exact():
    assert divisibility_index([2 ** 70, 4]) == 4
    assert divisibility_index([3 * 2 ** 70, -6 * 2 ** 70]) == 3 * 2 ** 70
    assert divisibility_index([2.0 ** 70, 2.0 ** 69]) == 2 ** 69
    bundle = CurveBundleClass(genus=2, fibre_dim=1, chern_vector=(2 ** 70, 0))
    assert bundle.divisibility == 2 ** 70


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entries", [(float("inf"), 2), (float("nan"), 2), ("2", 4),
                                     (2 ** 70, 0.5)])
def test_divisibility_rejects_non_integers_with_value_error(entries):
    with pytest.raises(ValueError, match="integers"):
        divisibility_index(entries)


def test_chern_vector_must_be_one_dimensional():
    with pytest.raises(ValueError, match="chern vector must be one-dimensional"):
        CurveBundleClass(genus=2, fibre_dim=1, chern_vector=[[1, 2]])
    with pytest.raises(ValueError, match="chern vector must be one-dimensional"):
        divisibility_index([[1, 2]])


@pytest.mark.parametrize("entries,expected", [
    ([2 ** 62 + 1, 0.0], 2 ** 62 + 1), ([3 * (2 ** 60 + 1), 6.0], 3),
])
def test_divisibility_keeps_big_ints_exact_beside_floats(entries, expected):
    assert divisibility_index(entries) == expected


def test_curve_bundle_class():
    bundle = CurveBundleClass(genus=2, fibre_dim=1, chern_vector=(2, -4))
    assert bundle.divisibility == 2
    assert kuranishi_dim(bundle.genus, bundle.fibre_dim) == 6


@pytest.mark.parametrize("chern_vector", [(1.5, 2), ("3", 2)])
def test_curve_bundle_class_rejects_non_integer_chern(chern_vector):
    with pytest.raises(ValueError, match="chern vector entries must be integers"):
        CurveBundleClass(genus=2, fibre_dim=1, chern_vector=chern_vector)


def test_curve_bundle_class_validates():
    # genus only needs to be non-negative at the class level
    assert CurveBundleClass(genus=0, fibre_dim=1, chern_vector=(0, 0)).divisibility == 0
    with pytest.raises(ValueError):
        CurveBundleClass(genus=-1, fibre_dim=1, chern_vector=(0, 0))
    with pytest.raises(ValueError):
        CurveBundleClass(genus=2, fibre_dim=1, chern_vector=(1, 2, 3))
    with pytest.raises(ValueError):
        CurveBundleClass(genus=2, fibre_dim=0, chern_vector=())
