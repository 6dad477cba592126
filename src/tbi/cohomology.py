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
block gives every (fibre, base) block of a level piece at once.  The part
of an image that the representatives drop is read on the row space of the
outgoing d2 (SpectralTable.coimages), and the image norm comes from the
m x m Gram of the e_k ∧ source, so no operator on a whole degree space and
no image vector is ever built.

Every rank decision is one RankDecision record: the smallest singular value
kept, the largest discarded, the threshold, and how many singular values lie
within a factor 10 of the threshold, so a dimension jump can be traced to the
singular value that caused it and a borderline cut is flagged by its own
record.  Every matrix is decomposed once: its rank, kernel and image come
from the same SVD.

Every table matrix (d2 block, image/kernel overlap, level-map piece) is
decomposed in its tall orientation by _svd: a wide matrix goes to LAPACK as
its adjoint, whose factors are those of the matrix with u and vh swapped
(as its transpose when only singular values are wanted).  A tall matrix is
first reduced to a small triangular factor (Chan, ACM TOMS 1982), and
numpy's SVD of a wide C-ordered complex matrix takes about twice as long as
that of its transpose.  Square and tall matrices go through unchanged.  The
d-row flats of the annihilator counts are left as they are: they cost
microseconds.
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
    singular values strictly within a factor _NEAR_FACTOR of the threshold
    (0 when there are none or the threshold is 0)."""

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
        near = int(np.sum((sing > threshold / _NEAR_FACTOR) & (sing < threshold * _NEAR_FACTOR)))
        decisions.append(RankDecision(label, rank, smallest_kept, largest_dropped,
                                      threshold, near))
    return rank


# ---------------------------------------------------------------------------
# Annihilator-style dimension counts


@dataclass(frozen=True)
class OneFormsSpace:
    """Dimension of the global holomorphic 1-forms, with the fibre-functional
    annihilator that produced the fibre contribution (rows are orthonormal
    functionals killing the image of the hermitian block)."""

    dim: int
    annihilator: np.ndarray


def h0_forms(datum: BundleDatum, decisions=None) -> OneFormsSpace:
    """Global 1-forms: the m base forms always survive; a fibre functional
    survives exactly when it annihilates the image of the hermitian block."""
    split = datum.split
    u, sing, _ = np.linalg.svd(split.hermitian.reshape(split.fibre_half_rank, -1))
    rank = _rank_from_singular_values(sing, datum.tol, split.scale, "hermitian block",
                                      decisions)
    annihilator = u[:, rank:].conj().T
    return OneFormsSpace(split.base_half_rank + split.fibre_half_rank - rank, annihilator)


def closed_forms_dim(datum: BundleDatum, decisions=None) -> int:
    """Closed global 1-forms: the fibre functional must annihilate both the
    holomorphic and the hermitian block images."""
    split = datum.split
    d = split.fibre_half_rank
    combined = np.concatenate([split.holomorphic.reshape(d, -1),
                               split.hermitian.reshape(d, -1)], axis=1)
    rank = numerical_rank(combined, datum.tol, split.scale,
                          "holomorphic+hermitian blocks", decisions)
    return split.base_half_rank + split.fibre_half_rank - rank


def h1_structure_sheaf(datum: BundleDatum, decisions=None) -> int:
    """First cohomology of the structure sheaf: m plus the corank of the
    holomorphic block as a map from fibre functionals to base two-forms."""
    split = datum.split
    rank = numerical_rank(split.holomorphic.reshape(split.fibre_half_rank, -1), datum.tol,
                          split.scale, "holomorphic block", decisions)
    return split.base_half_rank + split.fibre_half_rank - rank


def is_parallelizable(datum: BundleDatum) -> bool:
    """The bundle's total space is parallelizable exactly when the hermitian
    block vanishes (then all m + d frame forms are global)."""
    split = datum.split
    return bool(np.max(np.abs(split.hermitian)) <= datum.tol * split.scale)


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
    """First page dimensions, the differential, and the second page.

    e2/e3 are (m+1) x (d+1) integer grids indexed by (base degree, fibre
    degree).  d2 maps are stored by source block; representatives holds an
    orthonormal basis of the surviving subspace (kernel intersected with the
    orthogonal complement of the image) per block, images the orthonormal
    image bases used for that choice (no columns where no d2 arrives), and
    coimages orthonormal bases of the row space of the outgoing d2 (no
    columns where none leaves).  Per block, [representatives, images,
    coimages] is unitary.
    """

    e2: np.ndarray
    d2: dict
    e3: np.ndarray
    representatives: dict
    images: dict
    coimages: dict
    decisions: tuple

    @property
    def base_degrees(self) -> int:
        return self.e2.shape[0] - 1

    @property
    def fibre_degrees(self) -> int:
        return self.e2.shape[1] - 1

    def total_dims(self, page) -> list:
        grid = self.e2 if page == 2 else self.e3
        m, d = self.base_degrees, self.fibre_degrees
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
    require_table_fits runs first.
    """
    require_table_fits(datum)
    split = datum.split
    m, d = split.base_half_rank, split.fibre_half_rank
    tol, scale = datum.tol, split.scale
    conj_two_forms = np.conj(split.holomorphic)

    e2 = np.array([[math.comb(m, i) * math.comb(d, j) for j in range(d + 1)]
                   for i in range(m + 1)], dtype=np.int64)

    decisions: list = []
    d2 = {}
    ranks = {}
    kernels = {}
    images = {}
    coimages = {}
    for i in range(m - 1):
        for j in range(1, d + 1):
            block = _d2_block(conj_two_forms, m, d, i, j)
            u, sing, vh = _svd(block)
            rank = _rank_from_singular_values(
                sing, tol, scale, f"d2 out of ({i},{j})", decisions)
            d2[(i, j)] = block
            ranks[(i, j)] = rank
            kernels[(i, j)] = vh[rank:].conj().T
            coimages[(i, j)] = vh[:rank].conj().T
            images[(i + 2, j - 1)] = u[:, :rank].copy()  # not a view that keeps all of u

    e3 = np.zeros_like(e2)
    representatives = {}
    for i in range(m + 1):
        for j in range(d + 1):
            dim = int(e2[i, j])
            rank_in = ranks.get((i - 2, j + 1), 0)
            kernel = kernels.get((i, j))
            if kernel is None:
                kernel = np.eye(dim, dtype=complex)
            image = images.setdefault((i, j), np.zeros((dim, 0), dtype=complex))
            coimages.setdefault((i, j), np.zeros((dim, 0), dtype=complex))
            overlap = image.conj().T @ kernel
            if overlap.size:
                _, sing, vh_overlap = _svd(overlap)
            else:
                sing = np.zeros(0)
            overlap_rank = _rank_from_singular_values(
                sing, tol, 1.0, f"image/kernel overlap at ({i},{j})", decisions)
            if overlap_rank != rank_in:
                raise ToleranceAmbiguityError(
                    f"spectral block ({i},{j}): image does not lie in the kernel "
                    f"at the working tolerance (overlap rank {overlap_rank}, "
                    f"image rank {rank_in})"
                )
            reps = kernel @ vh_overlap[overlap_rank:].conj().T if overlap.size else kernel
            representatives[(i, j)] = reps
            e3[i, j] = reps.shape[1]

    return SpectralTable(e2, d2, e3, representatives, images, coimages,
                         tuple(decisions))


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


def theta_cohomology(datum: BundleDatum, degree: int,
                     table: SpectralTable | None = None,
                     tangent: TangentTable | None = None) -> ThetaCohomology:
    """Tangent-sheaf cohomology in one degree, split into the cokernel of the
    incoming level map and the kernel of the outgoing one.  table and
    tangent, when given, are leray_table(datum) and tangent_table(datum,
    table) already built."""
    split = datum.split
    total = split.base_half_rank + split.fibre_half_rank
    if not 0 <= degree <= total:
        raise ValueError(f"degree must lie in 0..{total}, got {degree}")
    if tangent is None:
        tangent = tangent_table(datum, table)
    return ThetaCohomology(tangent.dims[degree], tangent.coker[degree], tangent.ker[degree])


# ---------------------------------------------------------------------------
# Reports


def classify_blocks(datum: BundleDatum) -> str | None:
    """Coarse label by which blocks vanish; only defined for one-dimensional
    fibres (d=1), None otherwise."""
    split = datum.split
    if split.fibre_half_rank != 1:
        return None
    tol, scale = datum.tol, split.scale
    if scale <= tol:
        return "abelian"
    if is_parallelizable(datum):
        return "zero_hermitian"
    if np.max(np.abs(split.holomorphic)) <= tol * scale:
        return "pure_hermitian"
    return "mixed"


@dataclass(frozen=True)
class KodairaSpencerReport:
    """First tangent cohomology against the dimension count of the family of
    deformations obtained by moving the structure pair (m^2 base moduli plus
    m fibre-direction moduli per base dimension when d = 1)."""

    h1_tangent: int
    target: int
    classification: str | None

    @property
    def matches_target(self) -> bool:
        return self.h1_tangent == self.target


def kodaira_spencer_report(datum: BundleDatum) -> KodairaSpencerReport:
    m = datum.split.base_half_rank
    return KodairaSpencerReport(tangent_table(datum).dims[1], m * m + m,
                                classify_blocks(datum))


@dataclass(frozen=True, eq=False)
class CohomologyReport:
    """Everything the report command prints for one bundle datum."""

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


def bundle_report(datum: BundleDatum, table: SpectralTable | None = None) -> CohomologyReport:
    """Run every dimension computation once and collect the audit trail;
    table, when given, is leray_table(datum) already built."""
    decisions: list = []
    forms = h0_forms(datum, decisions)
    closed = closed_forms_dim(datum, decisions)
    h1 = h1_structure_sheaf(datum, decisions)
    if table is None:
        table = leray_table(datum)
    tangent = tangent_table(datum, table)
    m = datum.split.base_half_rank
    return CohomologyReport(
        h_structure=tuple(table.total_dims(3)),
        h0_one_forms=forms.dim,
        closed_one_forms=closed,
        h1_structure=h1,
        parallelizable=is_parallelizable(datum),
        h_tangent=tangent.dims,
        deformation_target=m * m + m,
        classification=classify_blocks(datum),
        twist_residual=tangent.twist_residual,
        decisions=tuple(decisions) + table.decisions + tangent.decisions,
    )
