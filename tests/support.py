"""Shared construction helpers for the test suite."""

import json
import math
import os
import pathlib
import sys

import numpy as np

import tbi
from tbi import (DEFAULT_TOL, BundleDatum, ComplexStructure, ExtensionForm, MembershipResult,
                 basis_change, standard_structure)
from tbi.cohomology import (_d2_block, _degree_blocks, _rank_from_singular_values, _svd,
                            _wedge_map, _wedge_products, leray_table)
from tbi.decomposition import _contract


def subprocess_env():
    """Environment whose subprocesses import the same tbi as this process,
    whatever the working directory and whatever else is installed."""
    env = dict(os.environ)
    root = str(pathlib.Path(tbi.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def count_calls(monkeypatch, function) -> list:
    """Route every tbi module's reference to function, and the one in the
    module that defines it (numpy.linalg for np.linalg.svd, which tbi looks
    up there on each call), through a recorder and return the list that
    gets one entry, the pair (args, kwargs), per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name in ("tbi", function.__module__) or name.startswith("tbi.")) \
                and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def count_frame_svds(monkeypatch) -> list:
    """Record every np.linalg.svd call on the frame of a ComplexStructure
    built from here on, and return the list that gets the frame's shape, one
    entry per call."""
    structures, shapes = [], []
    post_init, svd = ComplexStructure.__post_init__, np.linalg.svd

    def recording(self):
        post_init(self)
        structures.append(self)

    def counting(matrix, *args, **kwargs):
        if any(matrix is structure.__dict__.get("frame") for structure in structures):
            shapes.append(matrix.shape)
        return svd(matrix, *args, **kwargs)

    monkeypatch.setattr(ComplexStructure, "__post_init__", recording)
    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


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


def full_split(datum) -> np.ndarray:
    """The whole split tensor of shape (2d, 2m, 2m), the reference for
    decompose, which contracts only its U-valued half, in the same order.
    Output index blocks: [:d] U-coordinates, [d:] conjugate coordinates.  Each
    input index: [:m] V-slots, [m:] conjugate slots."""
    return _contract(basis_change(datum.fibre, datum.tol),
                     datum.form.coefficients.astype(complex), datum.base.frame)


def reconstruct(datum) -> np.ndarray:
    """Invert decompose, returning a complex tensor that should equal the
    original integer coefficients up to roundoff: the whole split, rebuilt
    from the U-valued blocks of datum.split, goes through _contract with
    fibre.frame and basis_change(base), O(d m^2 (d + m))."""
    split = datum.split
    m = split.base_half_rank
    d = split.fibre_half_rank
    full = np.zeros((2 * d, 2 * m, 2 * m), dtype=complex)
    # Mixed blocks with swapped slots are forced by alternation of the form.
    full[:d, :m, :m] = split.holomorphic
    full[:d, :m, m:] = split.hermitian
    full[:d, m:, :m] = -split.hermitian.transpose(0, 2, 1)
    full[:d, m:, m:] = split.antiholomorphic
    # Reality of the integer form: the Ubar-valued half is the conjugate of
    # the U-valued half with V and Vbar slots exchanged.
    swap = np.r_[m:2 * m, 0:m]
    full[d:] = np.conj(full[:d][:, swap][:, :, swap])
    return _contract(datum.fibre.frame, full, basis_change(datum.base, datum.tol))


def naive_split(datum) -> np.ndarray:
    """The U-valued half of the split as one term-by-term 4-operand einsum,
    O(d^2 m^4): the oracle for decompose's pairwise contraction."""
    frame_base = datum.base.frame
    u_rows = basis_change(datum.fibre, datum.tol)[:datum.fibre.half_rank]
    return np.einsum("ak,kij,ir,js->ars", u_rows, datum.form.coefficients.astype(complex),
                     frame_base, frame_base)


def d2_blocks(datum):
    """The d2 blocks of leray_table(datum) and the bases it chose, as
    leray_table builds them: d2 keyed by source block, and per block (i, j)
    an orthonormal basis of the image of the d2 arriving there and one of the
    coimage (row space) of the d2 leaving it (no columns where none arrives,
    or none leaves)."""
    split = datum.split
    m, d = split.base_half_rank, split.fibre_half_rank
    conj_two_forms = np.conj(split.holomorphic)
    d2 = {}
    empty = {(i, j): np.zeros((math.comb(m, i) * math.comb(d, j), 0), dtype=complex)
             for i in range(m + 1) for j in range(d + 1)}
    images, coimages = dict(empty), dict(empty)
    for i in range(m - 1):
        for j in range(1, d + 1):
            block = _d2_block(conj_two_forms, m, d, i, j)
            u, sing, vh = _svd(block)
            rank = _rank_from_singular_values(sing, datum.tol, split.scale, "").rank
            d2[(i, j)] = block
            images[(i + 2, j - 1)] = u[:, :rank]
            coimages[(i, j)] = vh[:rank].conj().T
    return d2, images, coimages


def twist_residual(datum) -> float:
    """Reference for the largest part of a level-map image that lies outside
    the kernel of the outgoing d2, relative to the size of that image.

    Per degree p and row (a, s) of the hermitian block, W_{a,s} wedges the
    one-form of (a, s) into every representative of degree p; the part on
    the coimages of the d2 out of the target blocks, over the whole image,
    read where the image is above tol · scale.  Every image is formed
    densely, on the identity frame of its target block.  Because
    d2(h∧x) = −h∧d2(x) the part is zero in exact arithmetic."""
    table = leray_table(datum)
    coimages = d2_blocks(datum)[2]
    split = datum.split
    m, d = split.base_half_rank, split.fibre_half_rank
    one_forms = split.hermitian.reshape(d * m, m)
    twist = 0.0
    for p in range(m + d + 1):
        dropped_sq, image_sq = np.zeros(d * m), np.zeros(d * m)
        for i, j in _degree_blocks(m, d, p):
            source = table.basis(i, j)
            if i == m or source.shape[1] == 0:
                continue
            identity = np.eye(math.comb(m, i + 1) * math.comb(d, j), dtype=complex)
            for frame, total in ((coimages[(i + 1, j)], dropped_sq), (identity, image_sq)):
                parts = np.einsum("ak,xkw->axw", one_forms, _wedge_products(frame, source, m, i))
                total += np.sum(np.abs(parts) ** 2, axis=(1, 2))
        image = np.sqrt(image_sq)
        moved = image > datum.tol * split.scale
        if np.any(moved):
            twist = max(twist, float(np.max(np.sqrt(dropped_sq[moved]) / image[moved])))
    return twist


def scattered_whole_piece(one_forms, m, i):
    """Reference for the level piece from block (i, ·) to (i+1, ·) between
    identity frames at fibre count 1, laid out as _level_piece's: row (x, a),
    column (s, w).  Its entry is sign·one_forms[(a, s), k] where x = w ∪ {k}
    and e_k ∧ e_w = sign·e_x, and 0 elsewhere, so it is scattered through
    _wedge_map, with no GEMM against the identity."""
    index, src, sign = _wedge_map(m, i)
    d = one_forms.shape[0] // m
    height, width = math.comb(m, i + 1), math.comb(m, i)
    piece = np.zeros((height, d, m, width), dtype=complex)
    values = one_forms.reshape(d, m, m)[:, :, index] * sign  # (a, s, pos, x)
    piece[np.arange(height), :, :, src] = values.transpose(2, 3, 0, 1)
    return piece.reshape(height * d, m * width)


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


def pair_matrix(form: ExtensionForm) -> list:
    """A as the 2d x C(2m, 2) integer matrix of its values on the base pairs
    i < j, as rows of Python ints: the map from Lambda^2 of the base lattice
    to the fibre lattice."""
    i, j = np.triu_indices(form.base_rank, k=1)
    return [[layer[a][b] for a, b in zip(i, j)] for layer in form.coefficients.tolist()]


def betti_one(form: ExtensionForm) -> int:
    """b1 of the nilmanifold of form: 2m + 2d - rank_Q(A), with A read as
    pair_matrix (Nomizu: b1 = dim H^1 of the Lie algebra)."""
    return form.base_rank + form.fibre_rank - exact_rank(pair_matrix(form))


def invariant_factors(rows) -> list:
    """The non-zero invariant factors d_1 | d_2 | ... of an integer matrix,
    given as rows of Python ints: the diagonal of its Smith normal form.

    Row and column operations over Z move the smallest non-zero entry to the
    corner and reduce its row and column by it; a remainder gives a smaller
    pivot, so the loop ends with the corner dividing its row and column,
    which are then cleared.  The diagonal that results is put in divisibility
    order by replacing pairs (a, b) with (gcd, lcm), which keeps the group
    Z/a + Z/b."""
    rows = [[int(x) for x in row] for row in rows]
    diagonal = []
    while rows and rows[0]:
        entries = [(abs(x), r, c) for r, row in enumerate(rows) for c, x in enumerate(row) if x]
        if not entries:
            break
        _, r, c = min(entries)
        rows[0], rows[r] = rows[r], rows[0]
        for row in rows:
            row[0], row[c] = row[c], row[0]
        top = rows[0]
        pivot = top[0]
        for row in rows[1:]:
            quotient = row[0] // pivot
            row[:] = [x - quotient * y for x, y in zip(row, top)]
        for c in range(1, len(top)):
            quotient = top[c] // pivot
            for row in rows:
                row[c] -= quotient * row[0]
        if not any(row[0] for row in rows[1:]) and not any(top[1:]):
            diagonal.append(abs(pivot))
            rows = [row[1:] for row in rows[1:]]
    for a in range(len(diagonal)):
        for b in range(a + 1, len(diagonal)):
            g = math.gcd(diagonal[a], diagonal[b])
            diagonal[a], diagonal[b] = g, diagonal[a] * diagonal[b] // g
    return diagonal


def first_homology(form: ExtensionForm) -> tuple:
    """H_1(M; Z) of the nilmanifold of form as (free rank, torsion).

    The abelianization of the extension group is Z^{2m} + coker A, with A
    the pair_matrix, so the free rank is 2m + 2d - rank A (which is b1) and
    the torsion is the invariant factors of A above 1, in divisibility
    order."""
    factors = invariant_factors(pair_matrix(form))
    return form.base_rank + form.fibre_rank - len(factors), tuple(f for f in factors if f > 1)


def reference_values(form, base) -> np.ndarray:
    """pairwise_values as one einsum per pair: the rows A(v_h, v_l), h < l."""
    coeff = form.coefficients.astype(complex)
    m = base.half_rank
    columns = [np.einsum("kij,i,j->k", coeff, base.period[:, h], base.period[:, l])
               for h in range(m) for l in range(h + 1, m)]
    return np.array(columns).reshape(len(columns), form.fibre_rank)


def values_outside_fibre(form, base, fibre) -> MembershipResult:
    """A chart-free membership verdict, independent of the split: the pair
    is compatible when every pairwise value A(v_h, v_l) lies in span(U).
    residual is the max-norm of the values' parts outside span(U), taken
    through a QR of the fibre periods, and scale the max-norm of the values;
    member when residual <= DEFAULT_TOL * scale.  With no pairs (m = 1) both
    are 0 and the pair is a member."""
    values = reference_values(form, base)
    q = np.linalg.qr(fibre.period)[0]
    outside = values - values @ q.conj() @ q.T
    residual = float(np.max(np.abs(outside), initial=0.0))
    scale = float(np.max(np.abs(values), initial=0.0))
    return MembershipResult(residual <= DEFAULT_TOL * scale, residual, scale)


def _reference_emit(value, pieces, indent):
    """The emitter of tbi.serialize as an isinstance chain, kept as the
    oracle for the type-dispatched one."""
    if isinstance(value, dict):
        if not value:
            pieces.append("{}")
            return
        pieces.append("{\n")
        inner = indent + "  "
        for pos, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {type(key).__name__}")
            pieces.append(f"{inner}{json.dumps(key)}: ")
            _reference_emit(item, pieces, inner)
            pieces.append(",\n" if pos < len(value) - 1 else "\n")
        pieces.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for pos, item in enumerate(value):
            if pos:
                pieces.append(", ")
            _reference_emit(item, pieces, indent)
        pieces.append("]")
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif value is None:
        pieces.append("null")
    elif isinstance(value, (bool, np.bool_)):
        pieces.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("cannot serialize a non-finite float")
        pieces.append(format(value, ".17g"))
    elif isinstance(value, (complex, np.complexfloating)):
        _reference_emit([value.real, value.imag], pieces, indent)
    elif isinstance(value, np.ndarray):
        _reference_emit(value.tolist(), pieces, indent)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_dumps(value) -> str:
    """tbi.dumps as an isinstance chain: the oracle for its byte layout and
    for the errors it raises."""
    pieces: list = []
    _reference_emit(value, pieces, "")
    return "".join(pieces)
