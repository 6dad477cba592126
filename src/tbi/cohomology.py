"""Sheaf-cohomology dimensions of a torus bundle from its split form.

Everything here is linear algebra over the six blocks of a DecomposedForm.
The structure-sheaf dimensions come from a two-page spectral table whose
only differential contracts a conjugated fibre index into the conjugated
holomorphic two-form block; the tangent-sheaf dimensions come from level
maps that wedge a hermitian-block one-form into the chosen representatives.

Wedging a basis one-form into a wedge monomial, and contracting one out of
it, are signed index permutations of subsets.  _wedge_map caches them as
integer arrays, and each d2 block is one scatter through them.  The level
maps are built by base direction: _wedge_directions regroups the maps by the
wedged direction k, and one GEMM per k pairs the target representatives
with e_k ∧ (source representatives); one more GEMM against the hermitian
block gives every (fibre, base) block of a level piece at once.  The piece
between identity frames is built the same way, and at d = 1 its singular
values have a closed form.  An exactly zero hermitian block makes every level
piece exactly zero, and no piece is built; an exactly zero holomorphic block
makes every d2 block exactly zero, and no d2 block is built.  No operator on
a whole degree space is ever built.

Every rank decision is one RankDecision record: the smallest singular value
kept, the largest discarded, the threshold, and how many singular values lie
near the threshold (RankDecision), so a dimension jump can be traced to the
singular value that caused it and a borderline cut is flagged by its own
record.  Every distinct matrix is decomposed once: the rank, kernel, image
and coimage of a d2 block come from one SVD.  Serre duality (trivial
canonical bundle) makes the d2 out of (i, j) and out of (m-2-i, d+1-j)
starred transposes of each other (_dual_columns), so one SVD serves both.  A
block that no d2 of rank > 0 leaves keeps the whole block as kernel, so its
representatives are the rest of that SVD's u, and no overlap is decomposed
for it.  Between two whole blocks (no d2 of rank > 0 enters or leaves either)
every level piece is, up to a permutation, I ⊗ Q_i with Q_i the piece at
fibre count 1, so Q_i is decomposed once per base degree i.  At fibre
dimension d = 1 it is not decomposed at all: Q_i Q_iᴴ is the additive
compound of conj(Hᴴ H) on Λ^{i+1} for H the m x m hermitian block (M. Fiedler,
Additive compound matrices and an inequality for eigenvalues of symmetric
stochastic matrices, Czech. Math. J. 1974), so the singular values of Q_i are
√(Σ_{s∈x} σ_s(H)²) over the (i+1)-subsets x, and one SVD of H serves every i.

Every table matrix (d2 block, image/kernel overlap, level-map piece) is
decomposed in its tall orientation by _svd: a wide matrix goes to LAPACK as
its adjoint, whose factors are those of the matrix with u and vh swapped
(as its transpose when only singular values are wanted).  A tall matrix is
first reduced to a small triangular factor (Chan, ACM TOMS 1982), and
numpy's SVD of a wide C-ordered complex matrix takes about twice as long as
that of its transpose.  Square and tall matrices go through unchanged.  The
d-row flats of the one-form counts are left as they are: they cost
microseconds.

The spectral table keeps only what a later reader reads: the page grids,
the representatives that the tangent table consumes, and the rank
decisions; a whole block keeps no matrix, and SpectralTable.basis reads it
as the identity.  One pass of leray_table forms the d2 blocks, their image
bases and their coimages block by block, and keeps none of them.
bundle_report is the one entry point that computes every dimension from one
build of each table, and it refuses a report that breaks a duality identity.
The palindrome of h_structure holds by construction of e3; the test suite
checks the d2 duality it rests on.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .decomposition import BundleDatum
from .errors import TableTooLargeError, ToleranceAmbiguityError

_NEAR_FACTOR = 10.0  # singular values within this factor of the cut are flagged
TABLE_BYTES_LIMIT = 2**33  # fixed: no option or environment variable moves it
_SHORT = 32  # up to this many singular values, a rank decision counts in Python


@dataclass(frozen=True)
class RankDecision:
    """Audit record for one numerical rank determination.  near counts the
    singular values above threshold / _NEAR_FACTOR and, when tol *
    _NEAR_FACTOR < 1, below threshold * _NEAR_FACTOR (0 when there are none
    or the threshold is 0).  From tol * _NEAR_FACTOR = 1 up that upper limit
    is at or above every singular value, and is not tested."""

    label: str
    rank: int
    smallest_kept: float
    largest_dropped: float
    threshold: float
    near: int

    @property
    def warning(self) -> str:
        return (f"rank decision '{self.label}': {self.near} singular value(s) "
                f"within a factor {_NEAR_FACTOR:g} of the threshold {self.threshold:.3e}")


def numerical_rank(matrix, tol, scale, label, decisions=None) -> int:
    """Rank by singular values, cut at tol * max(scale, largest value).

    Measuring against an external scale (typically the max-norm of the whole
    split tensor) keeps a block of pure roundoff at rank zero instead of
    letting its own largest singular value promote noise to full rank.
    """
    decision = _rank_from_singular_values(np.linalg.svd(np.asarray(matrix), compute_uv=False),
                                          tol, scale, label)
    if decisions is not None:
        decisions.append(decision)
    return decision.rank


def _svd(matrix, compute_uv=True):
    """np.linalg.svd(matrix, compute_uv=compute_uv) with full matrices, a
    wide matrix decomposed as its adjoint (as its transpose, a view, when
    only the singular values are wanted).  Tall and square matrices get
    numpy's result bit for bit.  np.linalg.svd is looked up on every call,
    so a patched svd sees each decomposition."""
    rows, cols = matrix.shape
    if rows >= cols:
        return np.linalg.svd(matrix, compute_uv=compute_uv)
    if not compute_uv:
        return np.linalg.svd(matrix.T, compute_uv=False)
    u, sing, vh = np.linalg.svd(matrix.T.conj())
    return vh.T.conj(), sing, u.T.conj()


def _rank_from_singular_values(sing, tol, scale, label) -> RankDecision:
    """The rank decision of numerical_rank, on descending singular values
    that the caller already has (empty for an empty matrix)."""
    threshold = tol * max(scale, float(sing[0])) if sing.size else 0.0
    # No value exceeds max(scale, sing[0]), so from tol * _NEAR_FACTOR = 1 up
    # the band is open at the top and rounding cannot drop a value on its edge.
    upper = threshold * _NEAR_FACTOR if tol * _NEAR_FACTOR < 1 else np.inf
    if sing.size <= _SHORT and sing.dtype == np.float64:
        # The same counts on Python floats, without a numpy reduction.
        values = sing.tolist()
        rank = sum(value > threshold for value in values)
        near = sum(threshold / _NEAR_FACTOR < value < upper for value in values)
    else:
        rank = int(np.sum(sing > threshold))
        near = int(np.sum((sing > threshold / _NEAR_FACTOR) & (sing < upper)))
    smallest_kept = float(sing[rank - 1]) if rank else 0.0
    largest_dropped = float(sing[rank]) if rank < sing.size else 0.0
    return RankDecision(label, rank, smallest_kept, largest_dropped, threshold, near)


# ---------------------------------------------------------------------------
# Annihilator-style dimension counts


def _corank(datum: BundleDatum, blocks, label, decisions) -> int:
    """m + d minus the numerical rank of the blocks' d-row flats side by side:
    the m base forms plus the fibre functionals that annihilate every block."""
    split = datum.split
    d = split.fibre_half_rank
    flats = np.concatenate([block.reshape(d, -1) for block in blocks], axis=1)
    return split.base_half_rank + d - numerical_rank(flats, datum.tol, split.scale, label,
                                                     decisions)


def h0_forms(datum: BundleDatum, decisions=None) -> int:
    """Global 1-forms: the m base forms always survive; a fibre functional
    survives exactly when it annihilates the image of the hermitian block."""
    return _corank(datum, [datum.split.hermitian], "hermitian block", decisions)


def closed_forms_dim(datum: BundleDatum, decisions=None) -> int:
    """Closed global 1-forms: the fibre functional must annihilate both the
    holomorphic and the hermitian block images."""
    split = datum.split
    return _corank(datum, [split.holomorphic, split.hermitian],
                   "holomorphic+hermitian blocks", decisions)


def h1_structure_sheaf(datum: BundleDatum, decisions=None) -> int:
    """First cohomology of the structure sheaf: m plus the corank of the
    holomorphic block as a map from fibre functionals to base two-forms."""
    return _corank(datum, [datum.split.holomorphic], "holomorphic block", decisions)


# ---------------------------------------------------------------------------
# Wedge bookkeeping on index maps


@functools.cache
def _wedge_map(count, size):
    """Left wedge by a basis one-form, from size-subsets to (size+1)-subsets
    of range(count), both numbered in itertools.combinations order.

    Returns read-only int arrays (index, src, sign) of shape
    (size + 1, C(count, size + 1)).  Column r is the r-th (size+1)-subset R;
    row pos removes its pos-th element k = index[pos, r], which leaves the
    subset numbered src[pos, r], and e_k ∧ e_src = sign[pos, r] · e_R with
    sign (-1)**pos.  Read from src to R the map is e_k ∧ ·; read from R to
    src it is the interior product ι_k.
    """
    number = {s: n for n, s in enumerate(itertools.combinations(range(count), size))}
    targets = list(itertools.combinations(range(count), size + 1))
    shape = (size + 1, len(targets))
    index = np.array([r[pos] for pos in range(size + 1) for r in targets],
                     dtype=np.intp).reshape(shape)
    src = np.array([number[r[:pos] + r[pos + 1:]] for pos in range(size + 1) for r in targets],
                   dtype=np.intp).reshape(shape)
    sign = np.ones(shape, dtype=np.intp)
    sign[1::2] = -1
    for array in (index, src, sign):
        array.flags.writeable = False
    return index, src, sign


def _degree_blocks(m, d, p):
    """(i, j) with i + j = p in range, ascending base degree i."""
    return [(i, p - i) for i in range(max(0, p - d), min(m, p) + 1)]


# ---------------------------------------------------------------------------
# The two-differential spectral table


@dataclass(frozen=True, eq=False)
class SpectralTable:
    """First and second page dimensions, with the bases the tangent table reads.

    e2/e3 are (m+1) x (d+1) integer grids indexed by (base degree, fibre
    degree).  representatives holds the bases leray_table computed: per block
    that a d2 of rank > 0 enters or leaves, an orthonormal basis of the
    surviving subspace (the kernel of the outgoing d2 intersected with the
    orthogonal complement of the incoming image).  A whole block, one with
    e3 == e2, holds no matrix; basis(i, j) reads it as the identity.  The d2
    blocks, the image bases and the coimages (row spaces of the outgoing d2)
    are not kept.
    """

    e2: np.ndarray
    e3: np.ndarray
    representatives: dict
    decisions: tuple

    def total_dims(self) -> list:
        """Surviving dimension per total degree; on the first page it is C(m+d, p)."""
        m, d = (size - 1 for size in self.e3.shape)
        return [int(sum(self.e3[i, j] for i, j in _degree_blocks(m, d, p)))
                for p in range(m + d + 1)]

    def basis(self, i, j) -> np.ndarray:
        """The representatives of block (i, j): the stored basis, or for a
        whole block, which stores none, the identity."""
        reps = self.representatives.get((i, j))
        return np.eye(self.e2[i, j], dtype=complex) if reps is None else reps


def _d2_block(conj_two_forms, m, d, i, j):
    """Matrix of the differential out of block (i, j).

    Acts on e_S ⊗ e_T by removing one conjugated fibre index t (interior
    product, sign (-1)^position) and left-wedging the corresponding
    conjugated two-form into e_S.  Vector index is S-major.
    """
    # Every pair low < high inside an (i+2)-subset R, with S = R minus both:
    # e_low ∧ e_high ∧ e_S = sign · e_R, removing low first and high second.
    low, middle, sign_low = _wedge_map(m, i + 1)
    high, s_src, sign_high = (array[:, middle] for array in _wedge_map(m, i))
    low = np.broadcast_to(low, high.shape)
    pair = low < high
    r_dst = np.broadcast_to(np.arange(low.shape[-1]), high.shape)[pair]
    sign_pair = (sign_low * sign_high)[pair]
    low, high, s_src = low[pair], high[pair], s_src[pair]
    # Every j-subset T and t in it: ι_t e_T = sign_t · e_{T minus t}.
    t, t_dst, sign_t = (array.ravel() for array in _wedge_map(d, j - 1))
    t_src = np.tile(np.arange(math.comb(d, j)), j)

    rows = r_dst[:, None] * math.comb(d, j - 1) + t_dst
    cols = s_src[:, None] * math.comb(d, j) + t_src
    matrix = np.zeros((math.comb(m, i + 2) * math.comb(d, j - 1),
                       math.comb(m, i) * math.comb(d, j)), dtype=complex)
    # Each (row, col) pair occurs once: R minus S fixes the pair, T minus the
    # contracted subset fixes t.
    matrix[rows, cols] = (conj_two_forms[t, low[:, None], high[:, None]]
                          * (sign_pair[:, None] * sign_t))
    return matrix


def require_table_fits(datum: BundleDatum) -> None:
    """Refuse a datum whose tables would be too large, before allocating.

    With n = m + d, a d2 block has at most about C(n, n//2)^2 complex entries
    of 16 bytes, and the level piece from block (i, j) to (i+1, j) at most
    d·C(m,i+1)·C(d,j) x m·C(m,i)·C(d,j).  When the larger of the two sizes is
    above TABLE_BYTES_LIMIT (n >= 16) the datum is refused with
    TableTooLargeError.
    """
    m, d = datum.base.half_rank, datum.fibre.half_rank
    n = m + d
    piece = d * m * max(math.comb(m, i + 1) * math.comb(m, i) * math.comb(d, j) ** 2
                        for i in range(m) for j in range(d + 1))
    estimate = 16 * max(math.comb(n, n // 2) ** 2, piece)
    if estimate > TABLE_BYTES_LIMIT:
        raise TableTooLargeError(
            f"cohomology tables for n = m + d = {n} need an estimated {estimate} bytes, "
            f"above the fixed limit of {TABLE_BYTES_LIMIT} bytes")


@functools.cache
def _star_signs(m, d, i, j):
    """Signs of the Hodge star on block (i, j), which takes e_S ⊗ e_T to
    ε(S, Sᶜ)·ε(T, Tᶜ)·e_{Sᶜ} ⊗ e_{Tᶜ} in block (m-i, d-j).  Complements
    number the subsets in reverse combinations order, so on S-major vectors
    ⋆x = (sign·x)[::-1], and ε(S, Sᶜ) = (-1)^(Σ_p S[p] - p)."""
    def parities(count, size):
        sums = [sum(subset) for subset in itertools.combinations(range(count), size)]
        return 1 - 2 * ((np.array(sums, dtype=np.intp) - size * (size - 1) // 2) % 2)

    sign = np.outer(parities(m, i), parities(d, j)).ravel()
    sign.flags.writeable = False
    return sign


def _dual_columns(columns, m, d, i, j):
    """⋆ᵀ conj(columns) for ⋆ the Hodge star on block (i, j): columns of block
    (m-i, d-j) taken to block (i, j).

    d2 out of (i, j) and d2 out of its dual (i', j') = (m-2-i, d+1-j) are
    related by Serre duality, exactly: d2' = (-1)^(i(m+1)+(j-1)d) ⋆ d2ᵀ ⋆'
    with ⋆ on (i, j) and ⋆' on (i', j').  So one SVD d2 = u·s·vh also
    decomposes d2', with vh'ᴴ = _dual_columns(u, m, d, i', j') and
    u' = (-1)^(d-j) _dual_columns(vhᴴ, m, d, m-i, d-j), and the same s."""
    dual = columns[::-1].conj()
    dual *= _star_signs(m, d, i, j)[:, None]
    return dual


def leray_table(datum: BundleDatum) -> SpectralTable:
    """Build the spectral table for the structure sheaf of the bundle.

    First-page block (i, j) is spanned by wedges of i conjugated base forms
    and j conjugated fibre forms, so has dimension C(m,i)·C(d,j).  The
    differential contracts a fibre index into the conjugated holomorphic
    block.  Surviving dimensions come from the rank bookkeeping

        e3[i,j] = e2[i,j] - rank(out of (i,j)) - rank(into (i,j)),

    which holds when the image into (i, j) lies in the kernel out of it; an
    image/kernel overlap of lower rank than the image means the tolerance
    cannot separate the two and is reported as ToleranceAmbiguityError.

    Each Serre-dual pair of d2 blocks, out of (i, j) and (m-2-i, d+1-j), is
    built and decomposed once (_dual_columns): the dual's singular values,
    and so its rank decision, are the same, under its own label and in its
    own place; its kernel and coimage are read off the u of the SVD at once,
    and the image arriving at each block off the coimage (or, for the rest,
    the kernel) of the dual of the d2 that brings it.  Since rank(into
    (i, j)) = rank(out of (m-i, d-j)), e3 is a Serre-dual grid by
    construction.  An exactly zero holomorphic block builds no d2 block: each
    d2 decision takes the exact zeros LAPACK would return.  Where no d2 of
    rank > 0 leaves (i, j), the kernel is the whole block and holds the
    orthonormal image exactly: the overlap is recorded with singular values 1
    and not decomposed, and the representatives are the rest of the incoming
    d2's u.  A whole block stores none.  require_table_fits runs first.

    One pass walks the blocks upward in base degree i, then j.  At (i, j) it
    decomposes the d2 out of (i, j) unless its dual was, then decides the
    overlap, whose incoming d2 is decided at a lower base degree.  So an
    overlap refusal wins over a later d2's "SVD did not converge" (exit 5).
    """
    require_table_fits(datum)
    split = datum.split
    m, d = split.base_half_rank, split.fibre_half_rank
    tol, scale = datum.tol, split.scale
    conj_two_forms = np.conj(split.holomorphic)
    zero = not conj_two_forms.any()

    e2 = np.array([[math.comb(m, i) * math.comb(d, j) for j in range(d + 1)]
                   for i in range(m + 1)], dtype=np.int64)

    d2_decisions, kernels, coimages, representatives = {}, {}, {}, {}
    overlaps = []
    e3 = np.zeros_like(e2)
    for i, j in itertools.product(range(m + 1), range(d + 1)):
        dual = (m - 2 - i, d + 1 - j)
        if i < m - 1 and j and dual not in d2_decisions:
            if zero:  # the exact zeros LAPACK returns for an exactly zero block
                u, sing, vh = None, np.zeros(min(e2[i + 2, j - 1], e2[i, j])), None
            else:
                u, sing, vh = _svd(_d2_block(conj_two_forms, m, d, i, j))
            for key in {(i, j), dual}:
                d2_decisions[key] = _rank_from_singular_values(
                    sing, tol, scale, "d2 out of ({},{})".format(*key))
            rank = d2_decisions[(i, j)].rank
            if rank:
                kernels[(i, j)] = vh[rank:].conj().T
                coimages[(i, j)] = vh[:rank].conj().T
                if dual != (i, j):
                    kernels[dual] = _dual_columns(u[:, rank:], m, d, *dual)
                    coimages[dual] = _dual_columns(u[:, :rank], m, d, *dual)
            del u, vh  # before the next SVD

        rank_in = d2_decisions[(i - 2, j + 1)].rank if (i - 2, j + 1) in d2_decisions else 0
        reps = kernels.get((i, j))
        sing, vh_overlap = np.zeros(0), None
        if rank_in:
            # The d2 arriving here is dual to d2 out of (m-i, d-j), whose
            # coimage and kernel give, up to sign, the image and the rest of
            # this d2's u.
            source = (m - i, d - j)
            if reps is None:
                # An orthonormal image inside the whole block: every overlap
                # singular value is 1, and the rest of u spans the complement.
                sing, reps = np.ones(rank_in), _dual_columns(kernels[source], m, d, i, j)
            else:
                sing, vh_overlap = _svd(  # keeps neither the image nor u
                    _dual_columns(coimages[source], m, d, i, j).conj().T @ reps)[1:]
        overlap = _rank_from_singular_values(sing, tol, 1.0, f"image/kernel overlap at ({i},{j})")
        overlaps.append(overlap)
        if overlap.rank != rank_in:
            raise ToleranceAmbiguityError(
                f"spectral block ({i},{j}): image does not lie in the kernel "
                f"at the working tolerance (overlap rank {overlap.rank}, "
                f"image rank {rank_in})"
            )
        if vh_overlap is not None:  # used once, then freed before the next SVD
            reps, vh_overlap = reps @ vh_overlap[overlap.rank:].conj().T, None
        if reps is not None:  # else a whole block
            representatives[(i, j)] = reps
        e3[i, j] = e2[i, j] if reps is None else reps.shape[1]

    decisions = [d2_decisions[key] for key in sorted(d2_decisions)] + overlaps
    return SpectralTable(e2, e3, representatives, tuple(decisions))


# ---------------------------------------------------------------------------
# Tangent-sheaf dimensions via level maps on representatives


@functools.cache
def _wedge_directions(count, size):
    """_wedge_map(count, size) regrouped by the wedged base direction.

    Returns read-only int arrays (dst, src, sign) of shape
    (count, C(count - 1, size)).  Row k lists, in ascending order, the
    (size+1)-subsets R that contain k, the number of R minus k, and the sign
    with e_k ∧ e_src = sign · e_R.
    """
    index, src, sign = _wedge_map(count, size)
    dst, pos = zip(*(np.nonzero(index.T == k) for k in range(count)))
    dst, pos = np.array(dst), np.array(pos)
    arrays = (dst, src[pos, dst], sign[pos, dst])
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _wedge_products(frame, source, m, i):
    """products[x, k, w] = <frame[:, x], e_k ∧ source[:, w]>, with frame
    columns in block (i+1, j) and source columns in block (i, j): one GEMM
    per base direction k, on the rows R of frame that contain k against the
    signed rows R minus k of source.  Rows are S-major, so the gathers act
    on the base index and carry the fibre index along."""
    dst, src, sign = _wedge_directions(m, i)
    height, width = frame.shape[1], source.shape[1]
    fibre = source.shape[0] // math.comb(m, i)
    adjoint = frame.conj().reshape(math.comb(m, i + 1), fibre, height)
    rows = source.reshape(math.comb(m, i), fibre, width)
    length = dst.shape[1] * fibre
    products = np.empty((height, m, width), dtype=complex)
    for k in range(m):
        pushed = rows[src[k]]
        pushed *= sign[k][:, None, None]
        np.matmul(adjoint[dst[k]].reshape(length, height).T,
                  pushed.reshape(length, width), out=products[:, k])
    return products


def _level_piece(one_forms, source, target, m, i):
    """Singular values of the level-map piece from block (i, j) to (i+1, j),
    built by base direction (no values, and no SVD, for an empty piece)."""
    height, width = target.shape[1], source.shape[1]
    blocks = np.matmul(one_forms, _wedge_products(target, source, m, i))  # (x, a·s, w)
    piece = blocks.reshape(height * (one_forms.shape[0] // m), m * width)
    return _svd(piece, compute_uv=False) if piece.size else np.zeros(0)


def _closed_whole_pieces(one_forms, m):
    """At d = 1, the singular values of every whole piece Q_i, i = 0..m-1,
    descending, from one SVD of the m x m hermitian block.

    Q_i Q_iᴴ is the additive compound of conj(Hᴴ H) on Λ^{i+1} (Fiedler,
    Czech. Math. J. 1974), so Q_i has singular values √(Σ_{s∈x} σ_s(H)²)
    over the (i+1)-subsets x, listed by the rows of _wedge_map(m, i)[0].
    Only squares are summed, so nothing cancels.  They are taken relative
    to the power of two just above σ_0, which is exact and keeps them in
    range at any split scale."""
    sing = _svd(one_forms, compute_uv=False)
    exponent = np.frexp(sing[0])[1]
    squares = np.ldexp(sing, -exponent) ** 2
    return {i: np.ldexp(np.sqrt(np.sort(squares[_wedge_map(m, i)[0]].sum(axis=0))[::-1]),
                        exponent)
            for i in range(m)}


@dataclass(frozen=True, eq=False)
class TangentTable:
    """Tangent-sheaf dimensions, per degree the cokernel of the incoming
    level map plus the kernel of the outgoing one, with the decisions behind
    them: the rank of the level map at degree p is decisions[p].rank."""

    coker: tuple
    ker: tuple
    decisions: tuple

    @property
    def dims(self) -> tuple:
        return tuple(c + k for c, k in zip(self.coker, self.ker))


def tangent_table(datum: BundleDatum, table: SpectralTable) -> TangentTable:
    """Tangent-sheaf cohomology dimensions for all degrees.

    In degree p the space splits into the cokernel of the level-(p-1) map
    and the kernel of the level-p map, where the level map pairs a base
    frame direction s with a representative by wedging the hermitian
    one-form of s into the representative and reading the result in fibre
    components a.  The map keeps the fibre degree j, so up to a permutation
    of rows and columns it is a direct sum of one piece per block (i, j) to
    (i+1, j), and its singular values are those of the pieces together.  One
    walk builds the pieces in leray_table's block order, and files each
    one's values under its degree p = i + j, in ascending i; after the walk
    each degree's values are merged, descending, and decided.

    Each piece is built by base direction k, not by (a, s): one GEMM per k
    pairs the target representatives with e_k ∧ source (_wedge_products),
    and one GEMM against the (d·m) x m hermitian block then gives every
    (a, s) block at once, laid out (x, a) x (s, w) for target column x and
    source column w, so the piece is used as computed.  Each image is read on
    the target representatives.  Since d2(h∧x) = −h∧d2(x), a level map
    carries the kernel of d2 into the kernel, so in exact arithmetic no part
    of an image is dropped.  Representatives that lie only in the numerical
    kernel move their images out of it, relative to their size, by no more
    than the largest largest_dropped / smallest_kept of the d2 decisions of
    rank > 0, which the report prints; the test suite checks that bound.

    Between two whole blocks (e3 == e2, no stored basis) the piece for (i, j)
    is, up to a permutation, the Kronecker product I_{C(d,j)} ⊗ Q_i, where
    Q_i is the piece between identity frames at fibre count 1, and its
    singular values count C(d, j) times for each such (i, j).  At d = 1
    they are √(Σ_{s∈x} σ_s(H)²) over the (i+1)-subsets x, with σ_s(H) the
    singular values of the m x m hermitian block H, because Q_i Q_iᴴ is the
    additive compound of conj(Hᴴ H) on Λ^{i+1} (M. Fiedler, Czech. Math. J.
    1974): one SVD of H per table gives every Q_i (_closed_whole_pieces).  At
    d >= 2 there is no such closed form, and Q_i is built by _level_piece
    between identity frames and decomposed once per base degree i.

    An exactly zero hermitian block makes every piece exactly zero, so then
    each level decision takes exact zero singular values, with no piece
    built and no SVD, as LAPACK would return for the zero pieces.
    """
    split = datum.split
    m, d = split.base_half_rank, split.fibre_half_rank
    tol, scale = datum.tol, split.scale
    total = m + d
    one_forms = split.hermitian.reshape(d * m, m)  # row (a, s), column k
    zero = not one_forms.any()

    decisions: list = []
    h = table.total_dims() + [0]  # nothing above the top degree

    whole = table.e3 == table.e2
    # i -> singular values of Q_i, all in closed form at d = 1
    whole_pieces = _closed_whole_pieces(one_forms, m) if d == 1 and not zero else {}

    pieces = [[] for _ in range(total + 1)]  # per degree p = i + j, ascending i
    for i, j in () if zero else itertools.product(range(m), range(d + 1)):
        if table.e3[i, j] == 0:
            continue
        if whole[i, j] and whole[i + 1, j]:
            if i not in whole_pieces:
                frames = (np.eye(math.comb(m, k), dtype=complex) for k in (i, i + 1))
                whole_pieces[i] = _level_piece(one_forms, *frames, m, i)
            sing = np.tile(whole_pieces[i], math.comb(d, j))
        else:
            sing = _level_piece(one_forms, table.basis(i, j), table.basis(i + 1, j), m, i)
        pieces[i + j].append(sing)

    for p, singular_values in enumerate(pieces):
        # Padded with the exact zeros of the rows and columns no piece covers.
        sing = np.zeros(min(d * h[p + 1], m * h[p]))
        merged = np.sort(np.concatenate(singular_values + [[]]))[::-1]
        sing[:merged.size] = merged
        decisions.append(_rank_from_singular_values(sing, tol, scale, f"level map at degree {p}"))

    level_ranks = [decision.rank for decision in decisions]
    coker = tuple(d * h[p] - (level_ranks[p - 1] if p else 0) for p in range(total + 1))
    ker = tuple(m * h[p] - level_ranks[p] for p in range(total + 1))
    return TangentTable(coker, ker, tuple(decisions))


# ---------------------------------------------------------------------------
# Reports


def _classification(datum: BundleDatum, parallelizable: bool, h1: int) -> str | None:
    """Coarse label by which blocks vanish; only defined for one-dimensional
    fibres (d=1), None otherwise.  "abelian" is decided exactly on the
    integer form; "zero_hermitian" (parallelizable) and "pure_hermitian"
    (h^1(O) = m + 1, not parallelizable) on the blocks' rank decisions."""
    split = datum.split
    if split.fibre_half_rank != 1:
        return None
    if not np.any(datum.form.coefficients):
        return "abelian"
    if parallelizable:
        return "zero_hermitian"
    return "pure_hermitian" if h1 == split.base_half_rank + 1 else "mixed"


@dataclass(frozen=True, eq=False)
class CohomologyReport:
    """Everything the report command prints for one bundle datum.  e2 and e3
    are the first and second page grids of the spectral table.  The
    deformation count m^2 + m is that of the family obtained by moving the
    structure pair; h_tangent[1] is compared against it."""

    e2: np.ndarray
    e3: np.ndarray
    h_structure: tuple
    h0_one_forms: int
    closed_one_forms: int
    h1_structure: int
    parallelizable: bool
    h_tangent: tuple
    deformation_target: int
    classification: str | None
    decisions: tuple


def _require_identities(h_structure, h_tangent, h0_one_forms, h1_structure) -> None:
    """Refuse a report that breaks an identity every datum satisfies: Serre
    duality with a trivial canonical bundle (h_structure is a palindrome and
    h^n(Θ) = h^0(Ω^1)), and h^1(O) counted two ways.  leray_table reads each
    d2 off its Serre dual, so e3 is a dual grid and the palindrome holds by
    construction; the check guards that construction, in the table
    bundle_report has just built, against a change to leray_table."""
    n = len(h_structure) - 1
    if h_structure != h_structure[::-1]:
        problem = f"structure-sheaf dimensions {list(h_structure)} are not a palindrome"
    elif h_tangent[n] != h0_one_forms:
        problem = (f"h^{n} of the tangent sheaf is {h_tangent[n]}, "
                   f"not the {h0_one_forms} global 1-forms")
    elif h_structure[1] != h1_structure:
        problem = (f"h^1 of the structure sheaf is {h_structure[1]} from the spectral "
                   f"table, not {h1_structure} from the holomorphic block")
    else:
        return
    raise ToleranceAmbiguityError(f"inconsistent report at the working tolerance: {problem}")


def bundle_report(datum: BundleDatum) -> CohomologyReport:
    """Run every dimension computation once and collect the audit trail;
    parallelizable and classification read its block rank decisions.
    An oversized datum is refused by require_table_fits before any work, and
    a report that breaks a duality identity by ToleranceAmbiguityError."""
    require_table_fits(datum)
    decisions: list = []
    forms = h0_forms(datum, decisions)
    closed = closed_forms_dim(datum, decisions)
    h1 = h1_structure_sheaf(datum, decisions)
    table = leray_table(datum)
    tangent = tangent_table(datum, table)
    h_structure = tuple(table.total_dims())
    _require_identities(h_structure, tangent.dims, forms, h1)
    m, d = datum.split.base_half_rank, datum.split.fibre_half_rank
    # All m + d frame forms are global exactly when the hermitian block has rank 0.
    parallelizable = forms == m + d
    return CohomologyReport(
        e2=table.e2,
        e3=table.e3,
        h_structure=h_structure,
        h0_one_forms=forms,
        closed_one_forms=closed,
        h1_structure=h1,
        parallelizable=parallelizable,
        h_tangent=tangent.dims,
        deformation_target=m * m + m,
        classification=_classification(datum, parallelizable, h1),
        decisions=tuple(decisions) + table.decisions + tangent.decisions,
    )
