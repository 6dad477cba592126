"""Sampling of the variety of compatible structure pairs.

For a fixed extension form, the pairs (base structure, fibre structure) that
satisfy the membership condition cut out a subvariety of a product of two
Grassmannians.  Fixing the base structure, the condition is linear in the
fibre subspace: every pairwise value

    w_{h,l} = A(v_h, v_l)   (columns h < l of the base period matrix)

must lie in the fibre subspace.  riemann_check decides that condition, as the
vanishing of the forbidden block at the caller's tol; it is the one
membership verdict.

sample_point builds its points instead of searching for them.  Each attempt
keeps random base columns v_1, v_2, ... while their pairwise values span at
most d dimensions.  At the first column that would exceed d, the fibre
subspace U is fixed as the span of the values so far plus random directions,
and every later column is drawn from the null space of the linear conditions
A(v_i, x) in U for the columns v_i before it, so its values lie in U by
construction.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decomposition import riemann_check
from .errors import StructureDegenerateError
from .lattices import ExtensionForm, exact_integers
from .periods import ComplexStructure, DEFAULT_TOL, _RANDOM_FRAME_TOL, _rank_at, validate_structure


@lru_cache(maxsize=None)
def _pair_index(m: int):
    """Row and column indices of the pairs h < l, in pair-label order."""
    index = np.triu_indices(m, 1)
    for axis in index:
        axis.setflags(write=False)
    return index


def _pair_values(coeff: np.ndarray, period: np.ndarray) -> np.ndarray:
    """A(v_h, v_l) for h < l as the columns of a (2d, pairs) array, in the
    order of the pair labels; coeff is the form's coefficient tensor as
    complex and period a (2m, k) matrix of columns v."""
    h, l = _pair_index(period.shape[1])
    return np.einsum("ih,kij,jl->khl", period, coeff, period)[:, h, l]


def pairwise_values(form: ExtensionForm, base: ComplexStructure):
    """The pairwise values of the base columns and their labels.

    Returns (pairs, values): pairs lists the 1-based labels (h, l), h < l, in
    lexicographic order, and values is a (len(pairs), 2d) complex array whose
    rows are A(v_h, v_l) in ambient fibre coordinates, in the same order.  The
    pair (base, fibre) is compatible exactly when every row lies in the fibre
    subspace; riemann_check decides that, at its tol.
    """
    m = base.half_rank
    pairs = tuple((h + 1, l + 1) for h in range(m) for l in range(h + 1, m))
    values = _pair_values(form.coefficients.astype(complex), base.period)
    return pairs, np.ascontiguousarray(values.T)


@dataclass(frozen=True)
class SampleResult:
    """The outcome of sample_point; true exactly when a pair was found.

    On success, base and fibre are the pair, attempts the 1-based index of
    the attempt that built it and best_residual its riemann_check residual.
    On failure, base and fibre are None and attempts == max_attempts;
    best_residual is the smallest residual riemann_check gave over the
    attempts, or None when no attempt reached a riemann_check verdict.
    """

    found: bool
    base: ComplexStructure | None
    fibre: ComplexStructure | None
    attempts: int
    best_residual: float | None

    def __bool__(self):
        return self.found


def _complete(coeff: np.ndarray, columns: np.ndarray, draws: np.ndarray, fibre: np.ndarray,
              tol: float):
    """Extend the base columns by one column per draw, each projected onto
    the null space of the conditions A(v_i, x) in span(fibre) for all columns
    v_i so far.  Returns the orthonormalised columns, or None as soon as that
    null space has no direction outside the span of the columns, which it
    always contains."""
    outside = np.eye(len(fibre)) - fibre @ fibre.conj().T  # the projection that kills U
    for draw in draws.T:
        conditions = outside @ np.einsum("ai,kab->ikb", columns, coeff)
        _, sing, vh = np.linalg.svd(conditions.reshape(-1, len(draw)))
        rows = vh[:_rank_at(sing, tol)]
        if len(draw) - len(rows) <= columns.shape[1]:
            return None
        columns = np.column_stack([columns, draw - rows.conj().T @ (rows @ draw)])
    return np.linalg.qr(columns)[0]


def _attempt(coeff: np.ndarray, m: int, d: int, rng, tol: float):
    """One attempt's (base, fibre) structures, or None when it fails."""
    draw = rng.standard_normal((2, 2 * m, m))
    gauss = draw[0] + 1j * draw[1]
    period = np.linalg.qr(gauss)[0]
    # u[:, :rank] spans the values of the first `kept` columns; with no pairs
    # (one column) the rank is 0.  QR keeps leading column spans, so the
    # values of period's first columns span those of the draw's.
    u, rank, kept = np.eye(2 * d, dtype=complex), 0, 1
    while kept < m:
        u_next, sing, _ = np.linalg.svd(_pair_values(coeff, period[:, :kept + 1]))
        rank_next = _rank_at(sing, tol)
        if rank_next > d:
            break
        u, rank, kept = u_next, rank_next, kept + 1
    padding = rng.standard_normal((2 * d, d - rank)) + 1j * rng.standard_normal((2 * d, d - rank))
    # QR keeps leading column spans, so the fibre contains the values' span.
    fibre = np.linalg.qr(np.hstack([u[:, :rank], padding]))[0]
    if kept < m:
        period = _complete(coeff, period[:, :kept], gauss[:, kept:], fibre, tol)
        if period is None:
            return None
    base = ComplexStructure(period)
    if not validate_structure(base, _RANDOM_FRAME_TOL):
        return None
    return base, ComplexStructure(fibre)


def sample_point(form: ExtensionForm, seed=0, max_attempts: int = 100,
                 tol: float = DEFAULT_TOL) -> SampleResult:
    """Build a compatible structure pair for the given form.

    Attempt k draws from np.random.default_rng(seed + [k]) (seed as a list of
    non-negative integers), so attempts are independent and the first
    success (lowest attempt index) is returned deterministically.  An
    attempt draws the base columns v_1 ... v_m at once and keeps them while
    the pairwise values of the first k of them span at most d dimensions at
    tol.  At the first k where they would not, the fibre subspace U is fixed
    as the span of the values so far plus random directions up to dimension
    d, and v_k, ..., v_m are redrawn one by one, each the projection of its
    own draw onto the null space of the conditions A(v_i, x) in U for the
    columns before it.  The attempt ends at once when that null space has no
    direction outside the columns' span.  When every value fits (at most d
    pairs, the zero form, Iwasawa), U is the span of all the values plus
    random directions.  The base is orthonormalised by QR, and an attempt
    whose base frame is nearly singular (below _RANDOM_FRAME_TOL) fails;
    riemann_check at tol decides the rest.
    """
    d = form.fibre_rank // 2
    m = form.base_rank // 2
    prefix = exact_integers(np.array(seed, dtype=object, ndmin=1).tolist(), "seed",
                            bounded=False)
    coeff = form.coefficients.astype(complex)
    best_residual = None
    for attempt in range(1, max_attempts + 1):
        pair = _attempt(coeff, m, d, np.random.default_rng(prefix + [attempt]), tol)
        if pair is None:
            continue
        base, fibre = pair
        try:  # the split's basis change tests the fibre frame at tol
            verdict = riemann_check(form, base, fibre, tol)
        except StructureDegenerateError:
            continue
        if best_residual is None or verdict.residual < best_residual:
            best_residual = verdict.residual
        if verdict.member:
            return SampleResult(True, base, fibre, attempt, verdict.residual)
    return SampleResult(False, None, None, max_attempts, best_residual)
