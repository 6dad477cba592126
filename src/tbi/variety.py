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
are screened in batches of doubling size on stacked arrays: one QR and one
frame SVD for the bases (random_periods), one einsum for the pairwise values
and one SVD for their ranks per batch.  Only attempts that pass the rank test
are completed one at a time, so the result -- found, attempts, residual and
period bytes -- equals that of trying the attempts one by one.
pairwise_values and random_structure are the one-element case of the same
kernels.
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


@dataclass(frozen=True)
class LocalEquations:
    """Pairwise values and chart residuals at one (base, chart) point.

    pairs holds the 1-based index pairs (h, l) with h < l; w_vectors the
    corresponding values in ambient fibre coordinates (one row per pair);
    residuals the per-pair defects w'' - U* w'.  chart is None when only the
    values were requested.
    """

    pairs: tuple
    w_vectors: np.ndarray
    chart: np.ndarray | None
    residuals: np.ndarray | None
    tol: float

    @property
    def max_residual(self) -> float:
        if self.residuals is None or self.residuals.size == 0:
            return 0.0
        return float(np.max(np.abs(self.residuals)))

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.w_vectors))) if self.w_vectors.size else 0.0

    @property
    def member(self) -> bool:
        return self.max_residual <= self.tol * self.scale


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


def graph_chart(fibre: ComplexStructure, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Express a fibre structure in the graph chart: the d x d matrix U* with
    column span { (u', U* u') }.  Fails when the subspace does not project
    onto the first d coordinates (the point is outside this chart).  The
    rank of the top rows is cut relative to the whole period matrix, so the
    test does not depend on how the period columns are scaled."""
    d = fibre.half_rank
    top = fibre.period[:d, :]
    bottom = fibre.period[d:, :]
    if np.linalg.matrix_rank(top, tol=tol * float(np.max(np.abs(fibre.period)))) < d:
        raise StructureDegenerateError("fibre subspace is outside the graph chart")
    return np.linalg.solve(top.T, bottom.T).T


def local_equations(form: ExtensionForm, base: ComplexStructure, chart=None,
                    tol: float = DEFAULT_TOL) -> LocalEquations:
    """Evaluate the chart equations w'' = U* w' at a (base, chart) point.

    chart may be a d x d matrix, a ComplexStructure (converted via
    graph_chart), or None to record the pairwise values alone.
    """
    pairs, values = pairwise_values(form, base)
    if chart is None:
        return LocalEquations(pairs, values, None, None, tol)
    if isinstance(chart, ComplexStructure):
        chart = graph_chart(chart, tol)
    chart = np.asarray(chart, dtype=complex)
    structure = chart_structure(chart)
    if not validate_structure(structure, tol):
        raise StructureDegenerateError(
            "chart does not describe a complex structure (graph meets its conjugate)"
        )
    d = chart.shape[0]
    if values.size:
        residuals = values[:, d:] - values[:, :d] @ chart.T
    else:
        residuals = np.zeros((0, d), dtype=complex)
    return LocalEquations(pairs, values, chart, residuals, tol)


def codim_bound(m: int, d: int) -> int:
    """Upper bound for the codimension of the compatible locus inside the
    product of Grassmannians: one fibre-coordinate equation per pair h < l."""
    if m < 1 or d < 1:
        raise ValueError("ranks must be positive")
    return d * m * (m - 1) // 2


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
    """Attempt ranges of doubling length 1, 2, 4, ... up to _MAX_BATCH, the
    last one cut at max_attempts, so an early success costs one small batch
    and a full search of 100 attempts takes 7 batches."""
    start, size = 1, 1
    while start <= max_attempts:
        stop = min(start + size, max_attempts + 1)
        yield range(start, stop)
        start, size = stop, min(2 * size, _MAX_BATCH)


def sample_point(form: ExtensionForm, seed=0, max_attempts: int = 100,
                 tol: float = DEFAULT_TOL) -> SampleResult:
    """Search for a compatible structure pair for the given form.

    Each attempt draws a random base structure, collects the pairwise values,
    and -- when their span fits inside a d-dimensional subspace -- completes
    that span with random directions to a candidate fibre structure.  The
    candidate is kept if it is a valid structure and the membership check
    passes.  seed is a non-negative integer or sequence of them; attempts use
    per-attempt derived seeds, so they are independent and the first success
    (lowest attempt index) is returned deterministically.

    Attempts are screened in batches of doubling size (1, 2, 4, ... up to
    _MAX_BATCH): each batch draws its bases with random_periods, takes the
    pairwise values of all of them in one einsum and their ranks from one
    stacked SVD.  Only the attempts whose rank is at most d are completed and
    checked, one by one in attempt order.  Every attempt keeps its own
    generator, so the result is the same as trying the attempts one at a
    time.
    """
    d = form.fibre_rank // 2
    m = form.base_rank // 2
    prefix = exact_integers(np.array(seed, dtype=object, ndmin=1).tolist(), "seed",
                            bounded=False)
    coeff = form.coefficients.astype(complex)
    best_residual = None
    for chunk in _chunks(max_attempts):
        rngs = [np.random.default_rng(prefix + [attempt]) for attempt in chunk]
        periods, valid = random_periods(m, rngs)
        values = _pair_values(coeff, periods)  # (attempt, ambient row, pair)
        # With no pairs (m = 1) every rank is 0 and u_svd is the identity.
        # Singular values come sorted, so all-zero values have rank 0 too.
        u_svd, sing, _ = np.linalg.svd(values, full_matrices=True)
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
