import warnings

import numpy as np
import pytest

from tbi import (ComplexStructure, StructureDegenerateError, basis_change,
                 random_structure, split_coordinates, standard_structure,
                 validate_structure)
from tbi import periods


def test_valid_structure():
    assert validate_structure(ComplexStructure(np.array([[1.0], [1j]])))
    assert validate_structure(standard_structure(3))


def test_real_period_is_degenerate():
    # a subspace spanned by a real vector coincides with its conjugate
    structure = ComplexStructure(np.array([[1.0], [1.0]]))
    assert not validate_structure(structure)
    with pytest.raises(StructureDegenerateError):
        basis_change(structure)


def test_tolerance_times_a_huge_frame_is_no_overflow():
    """tol times the largest singular value may pass the float range: the
    frame is then degenerate at that tol, with no RuntimeWarning."""
    structure = ComplexStructure(np.array([[1e299], [-1e299j]]))
    assert validate_structure(structure, 0.5)
    assert not validate_structure(structure, 1271161007.0)


@pytest.mark.parametrize("period", [[[1e299], [-1e299j]], [[1.0], [0.5j]], [[1.0], [2.0]]],
                         ids=["huge", "uneven", "real"])
def test_verdict_is_the_old_rule_at_its_edges(period):
    """validate_structure gives s[-1] > tol * s[0] on the frame's singular
    values s at the edge tol s[-1] / s[0] and the floats on either side of
    it, at 1271161007.0 and at tols whose product with s[0] passes the float
    range, with no RuntimeWarning."""
    s = np.linalg.svd(ComplexStructure(period).frame, compute_uv=False)
    edge = s[-1] / s[0]
    tols = [np.nextafter(edge, 0), edge, np.nextafter(edge, np.inf), 1271161007.0,
            np.finfo(float).max, np.inf]
    with np.errstate(over="ignore"):
        expected = [bool(s[-1] > tol * s[0]) for tol in tols]
    structure = ComplexStructure(period)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert [validate_structure(structure, tol) for tol in tols] == expected
    assert (expected[0], expected[2]) == (True, False)  # the three tols straddle the edge


def test_frame_is_read_only():
    # A write would leave the kept singular values describing another frame.
    structure = standard_structure(2)
    for array in (structure.period, structure.frame):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0


@pytest.mark.parametrize("shape", [(3, 1), (2, 2), (4, 1), (1, 1)])
def test_bad_period_shapes(shape):
    with pytest.raises(StructureDegenerateError):
        ComplexStructure(np.zeros(shape, dtype=complex))


def test_basis_change_frozen_example():
    structure = standard_structure(1)  # period column (1, -i)
    change = basis_change(structure)
    assert np.allclose(change, 0.5 * np.array([[1, 1j], [1, -1j]]))


def test_basis_change_inverts_frame():
    rng = np.random.default_rng(0)
    structure = random_structure(3, rng)
    change = basis_change(structure)
    assert np.allclose(change @ structure.frame, np.eye(6), atol=1e-10)


def test_split_coordinates_of_real_vectors_conjugate():
    structure = random_structure(2, 5)
    x = np.array([1, -2, 0, 3])
    w, w_conj = split_coordinates(structure, x)
    assert np.allclose(w_conj, np.conj(w))
    # reassembling from the two halves recovers the vector
    assert np.allclose(structure.period @ w + np.conj(structure.period) @ w_conj, x)


def test_standard_structure_is_gaussian():
    structure = standard_structure(2)
    # the odd generator is i times the even one
    for a in range(2):
        w_even, _ = split_coordinates(structure, np.eye(4)[2 * a])
        w_odd, _ = split_coordinates(structure, np.eye(4)[2 * a + 1])
        assert np.allclose(w_odd, 1j * w_even)


def test_random_structure_deterministic():
    a = random_structure(2, seed=17)
    b = random_structure(2, seed=17)
    c = random_structure(2, seed=18)
    assert np.array_equal(a.period, b.period)
    assert not np.array_equal(a.period, c.period)


def test_random_structure_valid_across_seeds():
    for seed in range(20):
        assert validate_structure(random_structure(3, seed))


def test_random_structure_accepts_generator():
    rng = np.random.default_rng(9)
    first = random_structure(1, rng)
    second = random_structure(1, rng)  # consumes the stream, so it differs
    assert not np.array_equal(first.period, second.period)


def test_random_structure_refuses_zero_half_rank():
    with pytest.raises(ValueError, match="half rank must be positive"):
        random_structure(0, 0)


def test_random_structure_gives_up_after_its_draws(monkeypatch):
    # Every frame rejected: the generator is exhausted after _MAX_DRAWS draws.
    monkeypatch.setattr(periods, "validate_structure", lambda structure, tol: False)
    with pytest.raises(StructureDegenerateError,
                       match="no valid period matrix of half rank 2 found in 64 draws"):
        random_structure(2, 0)
