"""Shared construction helpers for the test suite."""

import math
import os
import pathlib
import sys

import numpy as np

import tbi
from tbi import BundleDatum, ComplexStructure, ExtensionForm, standard_structure
from tbi.cohomology import _d2_block, _rank_from_singular_values, _svd


def subprocess_env():
    """Environment whose subprocesses import the same tbi as this process,
    whatever the working directory and whatever else is installed."""
    env = dict(os.environ)
    root = str(pathlib.Path(tbi.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def count_calls(monkeypatch, function) -> list:
    """Route every tbi module's reference to function through a recorder and
    return the list that gets one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "tbi" or name.startswith("tbi.")) \
                and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def skew_d2_image(monkeypatch):
    """Patch the spectral table so that, for m = 4 and d = 2, the bases that
    Serre duality carries into block (2,1) skip the Hodge star there.  d2 out
    of (2,1) is the dual of d2 out of (0,2), the one of the pair that is
    built, and its kernel becomes the rest of that d2's u: the orthogonal
    complement of the image arriving at (2,1).  So a member with a non-zero
    holomorphic block gives overlap rank 0 for image rank 1.  (No change to
    a d2 block alone can do this: ⋆ is antisymmetric on (2,1), so the derived
    kernel holds the image whatever d2 out of (0,2) is.)"""
    dual_columns = tbi.cohomology._dual_columns

    def skewed(columns, m, d, i, j):
        if (m, d, i, j) == (4, 2, 2, 1):
            return columns.copy()
        return dual_columns(columns, m, d, i, j)

    monkeypatch.setattr(tbi.cohomology, "_dual_columns", skewed)


def d2_blocks(datum):
    """The d2 blocks of leray_table(datum) and the image bases it chose, as
    leray_table builds them: d2 keyed by source block, and per block (i, j)
    an orthonormal basis of the image of the d2 arriving there (no columns
    where none arrives)."""
    split = datum.split
    m, d = split.base_half_rank, split.fibre_half_rank
    conj_two_forms = np.conj(split.holomorphic)
    d2 = {}
    images = {(i, j): np.zeros((math.comb(m, i) * math.comb(d, j), 0), dtype=complex)
              for i in range(m + 1) for j in range(d + 1)}
    for i in range(m - 1):
        for j in range(1, d + 1):
            block = _d2_block(conj_two_forms, m, d, i, j)
            u, sing, _ = _svd(block)
            rank = _rank_from_singular_values(sing, datum.tol, split.scale, "")
            d2[(i, j)] = block
            images[(i + 2, j - 1)] = u[:, :rank]
    return d2, images


def random_alternating_form(rng, m, d, span=3):
    """Random integer extension form with entries in [-span, span]."""
    raw = rng.integers(-span, span + 1, size=(2 * d, 2 * m, 2 * m))
    return ExtensionForm(raw - raw.transpose(0, 2, 1))


def random_group_element_parts(rng, form, span=5):
    fibre = rng.integers(-span, span + 1, size=form.fibre_rank)
    base = rng.integers(-span, span + 1, size=form.base_rank)
    return fibre, base


def gaussian_bilinear_form(m, coeffs) -> ExtensionForm:
    """Extension form (d = 1) of a complex-bilinear alternating form on the
    Gaussian-integer lattice Z[i]^m with Gaussian-integer coefficients:
    sum over h < l of coeffs[h, l] * (x_h y_l - x_l y_h), expanded in the
    basis e_{2a} = unit_a, e_{2a+1} = i * unit_a (and f1 = 1, f2 = i).

    Such forms split with hermitian and antiholomorphic blocks exactly zero
    for the standard structures, which makes them the building block for
    parallelizable non-product instances.
    """
    coeffs = np.asarray(coeffs)
    generators = []
    for a in range(m):
        for unit in (1, 1j):
            vector = np.zeros(m, dtype=complex)
            vector[a] = unit
            generators.append(vector)
    tensor = np.zeros((2, 2 * m, 2 * m), dtype=np.int64)
    for i, x in enumerate(generators):
        for j, y in enumerate(generators):
            value = 0j
            for h in range(m):
                for l in range(h + 1, m):
                    value += coeffs[h, l] * (x[h] * y[l] - x[l] * y[h])
            tensor[0, i, j] = int(round(value.real))
            tensor[1, i, j] = int(round(value.imag))
    return ExtensionForm(tensor)


def gaussian_member(rng, kind, m, d) -> BundleDatum:
    """Member on Z[i]^m over Z[i]^d with the standard structures.  Fibre
    component c of the form is x^T B_c y + Im(x* H_c y), in the real
    coordinate of that component, with B_c antisymmetric and H_c hermitian
    Gaussian-integer matrices drawn until they have full generic rank.  kind
    "pure_hermitian" sets every B_c to zero, "zero_hermitian" every H_c; no
    part has a (0,2) piece, so the standard structures are compatible, and the
    ranks of B and H sit far from any threshold."""
    def gaussian(shape):
        return rng.integers(-2, 3, size=shape) + 1j * rng.integers(-2, 3, size=shape)

    b = np.zeros((d, m, m), dtype=complex)
    h = b.copy()
    while kind != "pure_hermitian" and any(np.linalg.matrix_rank(x) < m - m % 2 for x in b):
        upper = np.triu(gaussian((d, m, m)), 1)
        b = upper - upper.transpose(0, 2, 1)
    while kind != "zero_hermitian" and any(np.linalg.matrix_rank(x) < m for x in h):
        upper = np.triu(gaussian((d, m, m)), 1)
        h = upper + upper.conj().transpose(0, 2, 1) + np.diag(rng.integers(-2, 3, size=m))
    return BundleDatum.checked(form_from_blocks(b, h), standard_structure(m),
                               standard_structure(d))


def form_from_blocks(b, h) -> ExtensionForm:
    """The integer form whose fibre component c is x^T B_c y + Im(x* H_c y)
    in the real coordinate of that component, on Z[i]^m over Z[i]^d, for
    d x m x m Gaussian-integer arrays b (antisymmetric) and h (hermitian)."""
    d, m, _ = b.shape
    units = np.zeros((2 * m, m), dtype=complex)  # row k: the k-th real generator
    units[0::2] = np.eye(m)
    units[1::2] = 1j * np.eye(m)
    holomorphic = np.einsum("ia,cab,jb->cij", units, b, units)
    hermitian = np.einsum("ia,cab,jb->cij", units.conj(), h, units).imag
    tensor = np.zeros((2 * d, 2 * m, 2 * m))
    tensor[0::2] = holomorphic.real + hermitian
    tensor[1::2] = holomorphic.imag
    return ExtensionForm(np.rint(tensor).astype(np.int64))


def near_threshold_member() -> BundleDatum:
    """m = 3, d = 1 at tol 0.015, with B = 40 (E01 - E10 + E12 - E21) and
    H = I: the split's scale is 80, so the cut is 1.2, and the hermitian
    block has max-norm 1 below it but singular value (Frobenius norm) sqrt(3)
    above it.  Its rank decision is 1: the datum is not parallelizable."""
    b = np.zeros((1, 3, 3), dtype=complex)
    b[0, 0, 1] = b[0, 1, 2] = 40
    b -= b.transpose(0, 2, 1)
    return BundleDatum.checked(form_from_blocks(b, np.eye(3)[None]), standard_structure(3),
                               standard_structure(1), tol=0.015)


SMALL_MEMBERS = [(kind, m, d) for kind in ("mixed", "pure_hermitian", "zero_hermitian")
                 for m in range(2, 6) for d in (1, 2)]


def small_member(kind, m, d) -> BundleDatum:
    """The gaussian_member of SMALL_MEMBERS slot (kind, m, d)."""
    return gaussian_member(np.random.default_rng([103, m, d]), kind, m, d)


def unimodular_matrix(rng, n, steps=None) -> np.ndarray:
    """Random GL(n, Z) matrix built from row shears, a permutation and sign
    flips.  Shear counts and magnitudes are kept small so the matrix stays
    well-conditioned (the tests rely on exact-zero blocks surviving the
    change of basis numerically)."""
    if steps is None:
        steps = n
    matrix = np.eye(n, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(n, size=2, replace=False)
        matrix[i] += int(rng.choice([-1, 1])) * matrix[j]
    matrix = matrix[rng.permutation(n)]
    matrix *= rng.choice([-1, 1], size=(n, 1))
    return matrix


def integer_inverse(matrix) -> np.ndarray:
    inverse = np.rint(np.linalg.inv(matrix)).astype(np.int64)
    assert np.array_equal(matrix @ inverse, np.eye(len(matrix), dtype=np.int64))
    return inverse


def transport(form, base, fibre, basis_change_base, basis_change_fibre):
    """Rewrite a bundle datum in new lattice bases.

    The new basis vectors are the columns of the change matrices expressed in
    the old bases; the subspaces do not move, so membership and all block
    norms are preserved up to roundoff.
    """
    q_inv = integer_inverse(basis_change_fibre)
    tensor = np.einsum("lk,kij,ia,jb->lab", q_inv, form.coefficients,
                       basis_change_base, basis_change_base)
    new_base = ComplexStructure(
        np.linalg.solve(basis_change_base.astype(float), base.period))
    new_fibre = ComplexStructure(q_inv @ fibre.period)
    return ExtensionForm(tensor), new_base, new_fibre


def transported_case1(rng, m):
    """A parallelizable-type instance (hermitian block exactly zero) in a
    scrambled lattice basis: complex-bilinear Gaussian-integer form with the
    standard structures, transported by random unimodular matrices."""
    while True:
        coeffs = rng.integers(-2, 3, size=(m, m)) + 1j * rng.integers(-2, 3, size=(m, m))
        if np.any(np.triu(coeffs, k=1)):
            break
    form = gaussian_bilinear_form(m, coeffs)
    p = unimodular_matrix(rng, 2 * m)
    q = unimodular_matrix(rng, 2)
    return transport(form, standard_structure(m), standard_structure(1), p, q)


def exact_rank(rows) -> int:
    """Rank over Q of an integer matrix, given as rows of Python ints, by
    fraction-free (Bareiss) elimination: every division is exact, because each
    entry stays a minor of the original matrix."""
    rows = [[int(x) for x in row] for row in rows]
    rank, pivot = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        found = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            rows[r] = [(top[col] * x - rows[r][col] * y) // pivot for x, y in zip(rows[r], top)]
        pivot = top[col]
        rank += 1
    return rank


def betti_one(form: ExtensionForm) -> int:
    """b1 of the nilmanifold of form: 2m + 2d - rank_Q(A), with A read as the
    2d x C(2m, 2) integer matrix of its values on the pairs i < j (Nomizu:
    b1 = dim H^1 of the Lie algebra)."""
    i, j = np.triu_indices(form.base_rank, k=1)
    matrix = [[layer[a][b] for a, b in zip(i, j)] for layer in form.coefficients.tolist()]
    return form.base_rank + form.fibre_rank - exact_rank(matrix)
