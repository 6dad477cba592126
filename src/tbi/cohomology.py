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
block gives every (fibre, base) block of a level piece at once.  Between
identity frames the piece is known entry by entry, and _whole_piece scatters
it through _wedge_map instead.  The part of an image that the
representatives drop is read on the row space of the outgoing d2
(SpectralTable.coimages), and the image norm comes from the m x m Gram of
the e_k ∧ source, so no operator on a whole degree space and no image vector
is ever built.

Every rank decision is one RankDecision record: the smallest singular value
kept, the largest discarded, the threshold, and how many singular values lie
near the threshold (RankDecision), so a dimension jump can be traced to the
singular value that caused it and a borderline cut is flagged by its own
record.  Every distinct matrix is decomposed once: the rank, kernel, image
and coimage of a d2 block come from one SVD.  Serre duality (trivial
canonical bundle) makes the d2 out of (i, j) and out of (m-2-i, d+1-j)
starred transposes of each other (_dual_columns), so one SVD serves both, and
an exactly zero d2 block takes zero singular values without one.  A block
that no d2 of rank > 0 leaves keeps the whole block as kernel, so its
representatives are the rest of that SVD's u, and no overlap is decomposed
for it.  Between two whole blocks (no d2 of rank > 0 enters or leaves either)
every level piece is, up to a permutation, I ⊗ Q_i with Q_i the piece at
fibre count 1, so Q_i is decomposed once per base degree i.

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
the representatives and coimages that the tangent table consumes, and the
rank decisions.  The d2 blocks and their image bases are locals of
leray_table and are freed when it returns.  bundle_report is the one entry
point that computes every dimension from one build of each table, and it
refuses a report that breaks a duality identity.  The palindrome of
h_structure holds by construction of e3; the test suite checks the d2
duality it rests on.
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
    sing = np.linalg.svd(np.asarray(matrix), compute_uv=False)
    return _rank_from_singular_values(sing, tol, scale, label, decisions)


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


def _rank_from_singular_values(sing, tol, scale, label, decisions=None) -> int:
    """The rank decision of numerical_rank, on descending singular values
    that the caller already has (empty for an empty matrix)."""
    threshold = tol * max(scale, float(sing[0])) if sing.size else 0.0
    rank = int(np.sum(sing > threshold))
    if decisions is not None:
        smallest_kept = float(sing[rank - 1]) if rank else 0.0
        largest_dropped = float(sing[rank]) if rank < sing.size else 0.0
        # No value exceeds max(scale, sing[0]), so from tol * _NEAR_FACTOR = 1 up
        # the band is open at the top and rounding cannot drop a value on its edge.
        upper = threshold * _NEAR_FACTOR if tol * _NEAR_FACTOR < 1 else np.inf
        near = int(np.sum((sing > threshold / _NEAR_FACTOR) & (sing < upper)))
        decisions.append(RankDecision(label, rank, smallest_kept, largest_dropped,
                                      threshold, near))
    return rank


# ---------------------------------------------------------------------------
# Annihilator-style dimension counts


@dataclass(frozen=True)
class OneFormsSpace:
    """Dimension of the global holomorphic 1-forms."""

    dim: int


def _corank(datum: BundleDatum, blocks, label, decisions) -> int:
    """m + d minus the numerical rank of the blocks' d-row flats side by side:
    the m base forms plus the fibre functionals that annihilate every block."""
    split = datum.split
    d = split.fibre_half_rank
    flats = np.concatenate([block.reshape(d, -1) for block in blocks], axis=1)
    return split.base_half_rank + d - numerical_rank(flats, datum.tol, split.scale, label,
                                                     decisions)


def h0_forms(datum: BundleDatum, decisions=None) -> OneFormsSpace:
    """Global 1-forms: the m base forms always survive; a fibre functional
    survives exactly when it annihilates the image of the hermitian block."""
    return OneFormsSpace(_corank(datum, [datum.split.hermitian], "hermitian block", decisions))


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


def is_parallelizable(datum: BundleDatum) -> bool:
    """The bundle's total space is parallelizable exactly when the hermitian
    block vanishes, that is when its rank decision ("hermitian block") gives
    rank 0: then all m + d frame forms are global."""
    split = datum.split
    return h0_forms(datum).dim == split.base_half_rank + split.fibre_half_rank


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
    degree).  representatives holds, per block, an orthonormal basis of the
    surviving subspace (the kernel of the outgoing d2 intersected with the
    orthogonal complement of the incoming image), and coimages an
    orthonormal basis of the row space of the outgoing d2 (no columns where
    no d2 of rank > 0 leaves).  A whole block, one with e3 == e2, holds
    exactly the identity.  The d2 blocks and the image bases are not kept.
    """

    e2: np.ndarray
    e3: np.ndarray
    representatives: dict
    coimages: dict
    decisions: tuple

    def total_dims(self, page) -> list:
        grid = self.e2 if page == 2 else self.e3
        m, d = (size - 1 for size in grid.shape)
        return [int(sum(grid[i, j] for i, j in _degree_blocks(m, d, p)))
                for p in range(m + d + 1)]


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

    With n = m + d, the largest dense matrix of the tables has about
    C(n, n//2)^2 complex entries of 16 bytes; above TABLE_BYTES_LIMIT
    (n >= 17) the datum is refused with TableTooLargeError.
    """
    n = datum.split.base_half_rank + datum.split.fibre_half_rank
    estimate = 16 * math.comb(n, n // 2) ** 2
    if estimate > TABLE_BYTES_LIMIT:
        raise TableTooLargeError(
            f"cohomology tables for n = m + d = {n} need an estimated {estimate} bytes "
            f"(16*C({n},{n // 2})**2), above the fixed limit of {TABLE_BYTES_LIMIT} bytes")


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
    construction.  An exactly zero d2 block takes exact zero singular values
    without an SVD.  Where no d2 of rank > 0 leaves (i, j), the kernel is the
    whole block and holds the orthonormal image exactly: the overlap is
    recorded with singular values 1 and not decomposed, and the
    representatives are the rest of the incoming d2's u.  require_table_fits
    runs first.
    """
    require_table_fits(datum)
    split = datum.split
    m, d = split.base_half_rank, split.fibre_half_rank
    tol, scale = datum.tol, split.scale
    conj_two_forms = np.conj(split.holomorphic)

    e2 = np.array([[math.comb(m, i) * math.comb(d, j) for j in range(d + 1)]
                   for i in range(m + 1)], dtype=np.int64)

    d2_decisions = {}
    ranks = {}
    kernels = {}
    coimages = {}
    for i, j in itertools.product(range(m - 1), range(1, d + 1)):
        dual = (m - 2 - i, d + 1 - j)
        if dual in ranks:
            continue
        block = _d2_block(conj_two_forms, m, d, i, j)
        # LAPACK returns exact zeros for an exactly zero block.
        u, sing, vh = _svd(block) if block.any() else (None, np.zeros(min(block.shape)), None)
        for key in {(i, j), dual}:
            recorded = []
            ranks[key] = _rank_from_singular_values(
                sing, tol, scale, "d2 out of ({},{})".format(*key), recorded)
            d2_decisions[key], = recorded
        rank = ranks[(i, j)]
        if rank:
            kernels[(i, j)] = vh[rank:].conj().T
            coimages[(i, j)] = vh[:rank].conj().T
            if dual != (i, j):
                kernels[dual] = _dual_columns(u[:, rank:], m, d, *dual)
                coimages[dual] = _dual_columns(u[:, :rank], m, d, *dual)
        del block, u, vh  # before the next SVD
    decisions = [d2_decisions[key] for key in sorted(d2_decisions)]

    e3 = np.zeros_like(e2)
    representatives = {}
    for i in range(m + 1):
        for j in range(d + 1):
            dim = int(e2[i, j])
            rank_in = ranks.get((i - 2, j + 1), 0)
            coimages.setdefault((i, j), np.zeros((dim, 0), dtype=complex))
            reps = kernels.get((i, j))
            vh_overlap = None
            sing = np.zeros(0)
            if rank_in:
                # The d2 arriving here is dual to d2 out of (m-i, d-j), whose
                # coimage and kernel give, up to sign, the image and the rest
                # of this d2's u.
                source = (m - i, d - j)
                if reps is None:
                    # An orthonormal image inside the whole block: every
                    # overlap singular value is 1, and the rest of u spans the
                    # complement.
                    sing, reps = np.ones(rank_in), _dual_columns(kernels[source], m, d, i, j)
                else:
                    image = _dual_columns(coimages[source], m, d, i, j)
                    _, sing, vh_overlap = _svd(image.conj().T @ reps)
            elif reps is None:
                reps = np.eye(dim, dtype=complex)
            overlap_rank = _rank_from_singular_values(
                sing, tol, 1.0, f"image/kernel overlap at ({i},{j})", decisions)
            if overlap_rank != rank_in:
                raise ToleranceAmbiguityError(
                    f"spectral block ({i},{j}): image does not lie in the kernel "
                    f"at the working tolerance (overlap rank {overlap_rank}, "
                    f"image rank {rank_in})"
                )
            if vh_overlap is not None:
                reps = reps @ vh_overlap[overlap_rank:].conj().T
            representatives[(i, j)] = reps
            e3[i, j] = reps.shape[1]

    return SpectralTable(e2, e3, representatives, coimages, tuple(decisions))


def structure_sheaf_dims(datum: BundleDatum) -> list:
    """h^p of the structure sheaf for p = 0..m+d."""
    return leray_table(datum).total_dims(3)


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


def _wedge_gram(source, m, i):
    """gram[k, l] = <e_k ∧ source, e_l ∧ source>, summed over the columns of
    source (a block (i, j) matrix), accumulated one pair of wedge positions
    at a time: positions p <= q of each (i+1)-subset R hold k < l (or k = l
    when p = q) and take the rows R minus k and R minus l of source."""
    index, src, sign = _wedge_map(m, i)
    rows = source.reshape(math.comb(m, i), -1)
    gram = np.zeros((m, m), dtype=complex)
    for p in range(i + 1):
        left = rows[src[p]].conj()
        for q in range(p, i + 1):
            values = np.einsum("rx,rx->r", left, rows[src[q]]) * (sign[p] * sign[q])
            np.add.at(gram, (index[p], index[q]), values)
    upper = np.triu(gram, 1)
    return gram + upper.conj().T


def _level_piece(one_forms, source, target, coimage, m, i):
    """The level-map piece from block (i, j) to (i+1, j), by base direction.

    Returns its singular values (None when it is empty) and, per row (a, s)
    of one_forms, the squared norm of the image W_{a,s} source on the
    coimage of the outgoing differential, a quadratic form in one_forms of
    an m x m Gram.  The coimage products are released before the piece is
    built, so the peak memory is that of the piece and its SVD."""
    dropped_sq = np.zeros(one_forms.shape[0])
    if coimage.shape[1]:
        dropped = _wedge_products(coimage, source, m, i)
        gram = np.matmul(dropped.conj(), dropped.transpose(0, 2, 1)).sum(axis=0)
        dropped_sq = _quadratic_norms(one_forms, gram)
        del dropped
    height, width = target.shape[1], source.shape[1]
    blocks = np.matmul(one_forms, _wedge_products(target, source, m, i))  # (x, a·s, w)
    piece = blocks.reshape(height * (one_forms.shape[0] // m), m * width)
    return (_svd(piece, compute_uv=False) if piece.size else None), dropped_sq


def _whole_piece(one_forms, m, i):
    """The level piece from block (i, ·) to (i+1, ·) between identity frames
    at fibre count 1, laid out as _level_piece's: row (x, a), column (s, w).
    Its entry is sign·one_forms[(a, s), k] where x = w ∪ {k} and
    e_k ∧ e_w = sign·e_x, and 0 elsewhere, so it is scattered through
    _wedge_map, with no GEMM against the identity."""
    index, src, sign = _wedge_map(m, i)
    d = one_forms.shape[0] // m
    height, width = math.comb(m, i + 1), math.comb(m, i)
    piece = np.zeros((height, d, m, width), dtype=complex)
    values = one_forms.reshape(d, m, m)[:, :, index] * sign  # (a, s, pos, x)
    piece[np.arange(height), :, :, src] = values.transpose(2, 3, 0, 1)
    return piece.reshape(height * d, m * width)


def _quadratic_norms(one_forms, gram):
    """Per row f of one_forms, f^H gram f for a positive semidefinite gram,
    clamped at 0 against roundoff."""
    values = np.einsum("ak,kl,al->a", one_forms.conj(), gram, one_forms).real
    return np.maximum(values, 0.0)


@dataclass(frozen=True, eq=False)
class TangentTable:
    """Tangent-sheaf dimensions, per degree the cokernel of the incoming
    level map plus the kernel of the outgoing one, with the ranks behind them."""

    coker: tuple
    ker: tuple
    level_ranks: tuple
    twist_residual: float
    decisions: tuple

    @property
    def dims(self) -> tuple:
        return tuple(c + k for c, k in zip(self.coker, self.ker))


def tangent_table(datum: BundleDatum, table: SpectralTable | None = None) -> TangentTable:
    """Tangent-sheaf cohomology dimensions for all degrees.

    In degree p the space splits into the cokernel of the level-(p-1) map
    and the kernel of the level-p map, where the level map pairs a base
    frame direction s with a representative by wedging the hermitian
    one-form of s into the representative and reading the result in fibre
    components a.  The map keeps the fibre degree j, so up to a permutation
    of rows and columns it is a direct sum of one piece per block (i, j) to
    (i+1, j), and its singular values are those of the pieces together.

    Each piece is built by base direction k, not by (a, s): one GEMM per k
    pairs the target representatives with e_k ∧ source (_wedge_products),
    and one GEMM against the (d·m) x m hermitian block then gives every
    (a, s) block at once, laid out (x, a) x (s, w) for target column x and
    source column w, so the piece is used as computed.  The part of each
    image outside the kernel of the outgoing differential, which the
    representative projection drops, is read on that differential's row
    space (SpectralTable.coimages) by the same per-direction gathers, and
    reported relative to the image norm as twist_residual.  Both squared
    norms are quadratic forms of the hermitian block in m x m Grams; the
    image norm comes from the Gram of the e_k ∧ source (_wedge_gram), so no
    image vector is formed.

    Between two whole blocks (e3 == e2, identity representatives, empty
    coimage) the piece for (i, j) is, up to a permutation, the Kronecker
    product I_{C(d,j)} ⊗ Q_i, where Q_i is the piece between identity frames
    at fibre count 1.  Q_i is scattered from the hermitian block
    (_whole_piece) with no GEMM, decomposed once per base degree i, and its
    singular values count C(d, j) times for each such (i, j).
    """
    if table is None:
        table = leray_table(datum)
    split = datum.split
    m, d = split.base_half_rank, split.fibre_half_rank
    tol, scale = datum.tol, split.scale
    total = m + d
    one_forms = split.hermitian.reshape(d * m, m)  # row (a, s), column k

    decisions: list = []
    h = table.total_dims(3) + [0]  # nothing above the top degree
    reps = table.representatives

    whole = table.e3 == table.e2
    whole_pieces = {}  # i -> singular values of Q_i

    level_ranks = []
    twist = 0.0
    for p in range(total + 1):
        singular_values = []
        dropped_sq = np.zeros(d * m)
        sources = []
        for i, j in _degree_blocks(m, d, p):
            source = reps[(i, j)]
            if i == m or source.shape[1] == 0:
                continue
            if whole[i, j] and whole[i + 1, j]:
                fibre = math.comb(d, j)
                if i not in whole_pieces:
                    whole_pieces[i] = _svd(_whole_piece(one_forms, m, i), compute_uv=False)
                sing, dropped = np.tile(whole_pieces[i], fibre), 0.0
            else:
                sing, dropped = _level_piece(one_forms, source, reps[(i + 1, j)],
                                             table.coimages[(i + 1, j)], m, i)
            if sing is not None:
                singular_values.append(sing)
            dropped_sq += dropped
            sources.append((source, i))
        if np.any(dropped_sq):  # the image norms matter only where a part was dropped
            pushed_norm = np.sqrt(sum(_quadratic_norms(one_forms, _wedge_gram(source, m, i))
                                      for source, i in sources))
            moved = pushed_norm > tol * scale
            if np.any(moved):
                twist = max(twist, float(np.max(np.sqrt(dropped_sq[moved]) / pushed_norm[moved])))
        # Padded with the exact zeros of the rows and columns no piece covers.
        sing = np.zeros(min(d * h[p + 1], m * h[p]))
        if singular_values:
            merged = np.sort(np.concatenate(singular_values))[::-1]
            sing[:merged.size] = merged
        level_ranks.append(_rank_from_singular_values(
            sing, tol, scale, f"level map at degree {p}", decisions))

    coker = tuple(d * h[p] - (level_ranks[p - 1] if p else 0) for p in range(total + 1))
    ker = tuple(m * h[p] - level_ranks[p] for p in range(total + 1))
    return TangentTable(coker, ker, tuple(level_ranks), twist, tuple(decisions))


@dataclass(frozen=True)
class ThetaCohomology:
    dim: int
    coker_dim: int
    ker_dim: int


def theta_cohomology(datum: BundleDatum, degree: int) -> ThetaCohomology:
    """Tangent-sheaf cohomology in one degree, split into the cokernel of the
    incoming level map and the kernel of the outgoing one."""
    split = datum.split
    total = split.base_half_rank + split.fibre_half_rank
    if not 0 <= degree <= total:
        raise ValueError(f"degree must lie in 0..{total}, got {degree}")
    tangent = tangent_table(datum)
    return ThetaCohomology(tangent.dims[degree], tangent.coker[degree], tangent.ker[degree])


# ---------------------------------------------------------------------------
# Reports


def classify_blocks(datum: BundleDatum) -> str | None:
    """Coarse label by which blocks vanish; only defined for one-dimensional
    fibres (d=1), None otherwise.  "abelian" is decided exactly on the
    integer form; "zero_hermitian" (parallelizable) and "pure_hermitian"
    (h^1(O) = m + 1, not parallelizable) on the blocks' rank decisions."""
    return _classification(datum, is_parallelizable(datum), h1_structure_sheaf(datum))


def _classification(datum: BundleDatum, parallelizable: bool, h1: int) -> str | None:
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
    twist_residual: float
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
    h_structure = tuple(table.total_dims(3))
    _require_identities(h_structure, tangent.dims, forms.dim, h1)
    m, d = datum.split.base_half_rank, datum.split.fibre_half_rank
    parallelizable = forms.dim == m + d
    return CohomologyReport(
        e2=table.e2,
        e3=table.e3,
        h_structure=h_structure,
        h0_one_forms=forms.dim,
        closed_one_forms=closed,
        h1_structure=h1,
        parallelizable=parallelizable,
        h_tangent=tangent.dims,
        deformation_target=m * m + m,
        classification=_classification(datum, parallelizable, h1),
        twist_residual=tangent.twist_residual,
        decisions=tuple(decisions) + table.decisions + tangent.decisions,
    )
