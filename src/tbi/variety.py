"""Local equations and sampling for the variety of compatible structure pairs.

For a fixed extension form, the pairs (base structure, fibre structure) that
satisfy the membership condition cut out a subvariety of a product of two
Grassmannians.  Fixing the base structure, the condition is linear in the
fibre subspace: every pairwise value

    w_{h,l} = A(v_h, v_l)   (columns h < l of the base period matrix)

must lie in the fibre subspace.  In the graph chart of the fibre Grassmannian,
where the subspace is { (u', U* u') }, this reads w'' = U* w' per pair, which
is what LocalEquations records.

sample_point is a rejection search over random base structures.  Its attempts
run in batches of growing size (1, 4, 16, ...) on stacked arrays.  Per batch,
_generators builds the attempts' generators with one stacked hash of their
seed pools, random_periods draws the bases (one QR and one n x n SVD for their
frames), and a screen takes the pairwise values as matrix products and only
their singular values.
A batch in which no attempt can pass the rank test is done at that point.
Any other batch is ranked exactly: one einsum for the pairwise values and one
SVD with vectors, and the attempts that pass are completed one at a time.  So
the result -- found, attempts, residual and period bytes -- equals that of
trying the attempts one by one.  pairwise_values and random_structure are the
one-element case of the same kernels.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decomposition import riemann_check
from .errors import StructureDegenerateError
from .lattices import ExtensionForm, exact_integers
from .periods import (ComplexStructure, DEFAULT_TOL, draws_exhausted, random_periods,
                      validate_structure)

_MAX_BATCH = 256  # attempts per screened batch, so memory does not grow with max_attempts
_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hashes its 4-word pool, read cyclically, into output
# word i of a state by a xor with INIT_B * MULT_B**i, a product with
# INIT_B * MULT_B**(i + 1) (mod 2**32) and a xorshift by 16, with INIT_B =
# 0x8B51F9DD and MULT_B = 0x58F38DED.  PCG64 takes 8 such words as 4
# little-endian uint64.
_HASH = np.array([0x8B51F9DD * pow(0x58F38DED, i, 1 << 32) & _MASK32 for i in range(9)],
                 dtype=np.uint32)
_STATE_XOR, _STATE_MUL = _HASH[:8].reshape(2, 4), _HASH[1:].reshape(2, 4)


@dataclass(frozen=True)
class LocalEquations:
    """Pairwise values and chart residuals at one (base, chart) point.

    pairs holds the 1-based index pairs (h, l) with h < l; w_vectors the
    corresponding values in ambient fibre coordinates (one row per pair);
    residuals the per-pair defects w'' - U* w'; member compares their
    max-norm with DEFAULT_TOL times that of the values.
    """

    pairs: tuple
    w_vectors: np.ndarray
    chart: np.ndarray
    residuals: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals), initial=0.0))

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.w_vectors), initial=0.0))

    @property
    def member(self) -> bool:
        return self.max_residual <= DEFAULT_TOL * self.scale


@lru_cache(maxsize=None)
def _pair_index(m: int):
    """Row and column indices of the pairs h < l, in pair-label order."""
    index = np.triu_indices(m, 1)
    for axis in index:
        axis.setflags(write=False)
    return index


def _pair_values(coeff: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """A(v_h, v_l) for h < l on a stack of period matrices, one einsum call.

    coeff is the form's coefficient tensor as complex; periods has shape
    (k, 2m, m).  The result has shape (k, 2d, pairs): for each period
    matrix, the values as columns in the order of the pair labels.
    """
    h, l = _pair_index(periods.shape[-1])
    return np.einsum("aih,kij,ajl->akhl", periods, coeff, periods)[:, :, h, l]


def _may_have_low_rank(coeff: np.ndarray, periods: np.ndarray, d: int, tol: float,
                       slack: float) -> np.ndarray:
    """For each period matrix of the stack, whether its pairwise values can
    have rank at most d at tol, from matrix products and values-only
    singular values s: False only when s_d > max(2 tol, 1e-12) s_0 + slack.

    The exact ranks (_pair_values and an SVD with vectors) differ from these
    values and singular values by rounding alone.  The factor 2 covers it
    relative to s_0, 1e-12 does at a tiny tol, and slack, the caller's
    margin, does when s_0 is tiny beside the form's coefficients.  So no
    attempt that the exact test passes is ruled out here.
    """
    h, l = _pair_index(periods.shape[-1])
    values = (np.swapaxes(periods, -1, -2)[:, None] @ coeff @ periods[:, None])[:, :, h, l]
    sing = np.linalg.svd(values, compute_uv=False)
    # A huge tol passes every attempt: a product past the float range is inf,
    # and inf times zero values is nan, which no singular value exceeds.
    with np.errstate(over="ignore", invalid="ignore"):
        return ~(sing[:, d] > max(2 * tol, 1e-12) * sing[:, 0] + slack)


def pairwise_values(form: ExtensionForm, base: ComplexStructure):
    """The vectors A(v_h, v_l) for h < l, plus the 1-based pair labels."""
    m = base.half_rank
    pairs = tuple((h + 1, l + 1) for h in range(m) for l in range(h + 1, m))
    values = _pair_values(form.coefficients.astype(complex), base.period[None])
    return pairs, np.ascontiguousarray(values[0].T)


def chart_structure(chart) -> ComplexStructure:
    """The fibre structure whose subspace is the graph { (u', chart @ u') }."""
    chart = np.asarray(chart, dtype=complex)
    if chart.ndim != 2 or chart.shape[0] != chart.shape[1]:
        raise ValueError("chart must be a square matrix")
    d = chart.shape[0]
    return ComplexStructure(np.vstack([np.eye(d), chart]))


def graph_chart(fibre: ComplexStructure) -> np.ndarray:
    """Express a fibre structure in the graph chart: the d x d matrix U* with
    column span { (u', U* u') }.  Fails when the subspace does not project
    onto the first d coordinates (the point is outside this chart).  The
    rank of the top rows is cut relative to the whole period matrix, so the
    test does not depend on how the period columns are scaled."""
    d = fibre.half_rank
    top = fibre.period[:d, :]
    bottom = fibre.period[d:, :]
    if np.linalg.matrix_rank(top, tol=DEFAULT_TOL * float(np.max(np.abs(fibre.period)))) < d:
        raise StructureDegenerateError("fibre subspace is outside the graph chart")
    return np.linalg.solve(top.T, bottom.T).T


def local_equations(form: ExtensionForm, base: ComplexStructure, chart) -> LocalEquations:
    """Evaluate the chart equations w'' = U* w' at a (base, chart) point.
    chart may be a d x d matrix or a ComplexStructure (converted via
    graph_chart); the values alone are pairwise_values.
    """
    pairs, values = pairwise_values(form, base)
    if isinstance(chart, ComplexStructure):
        chart = graph_chart(chart)
    chart = np.asarray(chart, dtype=complex)
    structure = chart_structure(chart)
    if not validate_structure(structure):
        raise StructureDegenerateError(
            "chart does not describe a complex structure (graph meets its conjugate)"
        )
    d = chart.shape[0]
    return LocalEquations(pairs, values, chart, values[:, d:] - values[:, :d] @ chart.T)


@dataclass(frozen=True)
class SampleResult:
    found: bool
    base: ComplexStructure | None
    fibre: ComplexStructure | None
    attempts: int
    best_residual: float | None

    def __bool__(self):
        return self.found


def _chunks(max_attempts: int):
    """Attempt ranges of length 1, 4, 16, ... up to _MAX_BATCH, the last one
    cut at max_attempts, so an early success costs one small batch and a
    full search of 100 attempts takes 5 batches."""
    start, size = 1, 1
    while start <= max_attempts:
        stop = min(start + size, max_attempts + 1)
        yield range(start, stop)
        start, size = stop, min(4 * size, _MAX_BATCH)


def _seed_words(value: int) -> list:
    """numpy's split of a seed integer into uint32 words: lowest word first,
    and 0 as one word; a negative one is refused with numpy's message."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


@lru_cache(maxsize=None)
def _fixed_state_type():
    """A SeedSequence stand-in that gives PCG64 a state computed beforehand.
    PCG64 accepts only an ISeedSequence, and numpy.random is imported here,
    on the first search, because it costs a cold process several ms."""
    from numpy.random.bit_generator import ISeedSequence

    class FixedState(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for 4 uint64 words

    return FixedState


def _generators(words: list, attempts: range) -> list:
    """np.random.default_rng(prefix + [attempt]) for each attempt, stream for
    stream, where words holds the _seed_words of the prefix's entries.

    SeedSequence mixes each attempt's uint32 entropy (the prefix's words, then
    the attempt's) into its pool, as it does for the list of ints, without
    coercing Python ints.  The pools of all attempts are then hashed into
    PCG64 states together, a few operations on one (attempts, 2, 4) array,
    where generate_state loops over the words of one pool at a time."""
    random = np.random
    entropy = [np.array(words + _seed_words(a), dtype=np.uint32) for a in attempts]
    pools = np.array([random.SeedSequence(row).pool for row in entropy])
    states = pools[:, None, :] ^ _STATE_XOR
    states *= _STATE_MUL
    states ^= states >> 16
    states = states.reshape(len(pools), 8).astype("<u4", copy=False).view("<u8")
    fixed_state = _fixed_state_type()
    return [random.Generator(random.PCG64(fixed_state(state)))
            for state in states.astype(np.uint64, copy=False)]


def sample_point(form: ExtensionForm, seed=0, max_attempts: int = 100,
                 tol: float = DEFAULT_TOL) -> SampleResult:
    """Search for a compatible structure pair for the given form.

    Each attempt draws a random base structure, collects the pairwise values,
    and -- when their span fits inside a d-dimensional subspace -- completes
    that span with random directions to a candidate fibre structure.  The
    candidate is kept if it is a valid structure and the membership check
    passes.  seed is a non-negative integer or sequence of them; attempt k
    draws from np.random.default_rng(seed + [k]) (seed as a list), so attempts
    are independent and the first success (lowest attempt index) is returned
    deterministically.

    Attempts run in batches of size 1, 4, 16, ... up to _MAX_BATCH.  Each
    batch builds its generators with _generators, from the seed's words
    split once per search, and draws its bases with random_periods.  When
    the values can have rank above d (there are more than d pairs), a screen
    (_may_have_low_rank) first rules out the attempts whose values are
    clearly of higher rank; a batch with no attempt left, and no exhausted
    draw, is done.  Any other batch takes the pairwise values of all its
    attempts in one einsum and their ranks from one stacked SVD, and the
    attempts whose rank is at most d are completed and checked, one by one in
    attempt order.  Every attempt keeps its own generator, so the result is
    the same as trying the attempts one at a time.
    """
    d = form.fibre_rank // 2
    m = form.base_rank // 2
    prefix = exact_integers(np.array(seed, dtype=object, ndmin=1).tolist(), "seed",
                            bounded=False)
    words = [word for value in prefix for word in _seed_words(value)]
    coeff = form.coefficients.astype(complex)
    # Entries of orthonormal periods are at most 1 in size, so no pairwise
    # value exceeds the form's weight; 1e-9 of it is far above their rounding.
    screened, slack = m * (m - 1) // 2 > d, 1e-9 * float(form._weight)
    best_residual = None
    for chunk in _chunks(max_attempts):
        rngs = _generators(words, chunk)
        periods, valid = random_periods(m, rngs)
        if screened and valid.all() \
                and not _may_have_low_rank(coeff, periods, d, tol, slack).any():
            continue
        values = _pair_values(coeff, periods)  # (attempt, ambient row, pair)
        # With no pairs (m = 1) every rank is 0 and u_svd is the identity.
        # Singular values come sorted, so all-zero values have rank 0 too.
        u_svd, sing, _ = np.linalg.svd(values, full_matrices=True)
        with np.errstate(over="ignore"):  # past the float range, as in the screen
            ranks = (sing > tol * sing[:, :1]).sum(axis=1)
        for a in ((ranks <= d) | ~valid).nonzero()[0]:
            if not valid[a]:
                raise draws_exhausted(m)
            rng, rank = rngs[a], int(ranks[a])
            padding = rng.standard_normal((2 * d, d - rank)) \
                + 1j * rng.standard_normal((2 * d, d - rank))
            candidate = np.hstack([u_svd[a, :, :rank], padding])
            # QR keeps leading column spans, so the candidate still contains
            # the span of the pairwise values.
            q, _ = np.linalg.qr(candidate)
            fibre = ComplexStructure(q)
            base = ComplexStructure(periods[a])
            try:  # the split's basis change tests the fibre frame at tol
                verdict = riemann_check(form, base, fibre, tol)
            except StructureDegenerateError:
                continue
            if best_residual is None or verdict.residual < best_residual:
                best_residual = verdict.residual
            if verdict.member:
                return SampleResult(True, base, fibre, chunk[a], verdict.residual)
    return SampleResult(False, None, None, max_attempts, best_residual)
