"""Complex structures on real tori, presented by period matrices.

A complex structure on the torus R^{2n}/Z^{2n} is recorded as a complex
2n x n matrix P whose columns span a subspace W of the complexified lattice
with W + conj(W) = C^{2n}.  The torus is then W / (projection of Z^{2n}),
and the projection of a real vector x onto W gives its holomorphic
coordinates.

Nothing here normalises P: two period matrices with the same column span
describe the same structure, and callers are expected to treat them as
charts, not canonical forms.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructureDegenerateError

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class ComplexStructure:
    """Subspace chart for a complex torus of half rank n.

    period: complex array of shape (2n, n), columns spanning the subspace.
    """

    period: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.period, dtype=complex)
        if p.ndim != 2 or p.shape[0] != 2 * p.shape[1] or p.shape[1] == 0:
            raise StructureDegenerateError(
                f"period matrix must have shape (2n, n) with n >= 1, got {p.shape}"
            )
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "period", p)

    @property
    def half_rank(self) -> int:
        return self.period.shape[1]

    @property
    def full_rank(self) -> int:
        return self.period.shape[0]

    @cached_property
    def frame(self) -> np.ndarray:
        """The square matrix (P | conj P) pairing the subspace with its conjugate."""
        return np.hstack([self.period, np.conj(self.period)])

    @cached_property
    def _verdicts(self) -> dict:
        """validate_structure's verdict at each tol it was asked for; the
        period matrix is read-only, so a verdict never changes."""
        return {}


def _frames_invertible(frames: np.ndarray, tol: float):
    """Whether each frame (the last two axes) has its smallest singular value
    above tol times its largest; a stack of frames takes one SVD call."""
    # Transposed, the singular values are indexed by rank first: s[0] is
    # the largest of one frame (a scalar) or of each frame in a stack.
    s = np.linalg.svd(frames, compute_uv=False).T
    # A product past the float range is inf, which no singular value exceeds.
    with np.errstate(over="ignore"):
        return s[-1] > tol * s[0]


def validate_structure(structure: ComplexStructure, tol: float = DEFAULT_TOL) -> bool:
    """True when (P | conj P) is invertible at relative tolerance tol.

    The test compares the smallest singular value of the frame against
    tol times the largest, so rescaling the period matrix does not change
    the verdict.  The verdict is kept on the structure, so a period matrix
    tested when a document is parsed is not decomposed again when the split
    tests it at the same tol.
    """
    verdicts = structure._verdicts
    if tol not in verdicts:
        verdicts[tol] = bool(_frames_invertible(structure.frame, tol))
    return verdicts[tol]


def require_structure(structure: ComplexStructure, tol: float = DEFAULT_TOL,
                      name: str | None = None) -> None:
    """Raise StructureDegenerateError unless validate_structure holds; name,
    when given, is the period matrix's name in the message ('V' or 'U')."""
    if not validate_structure(structure, tol):
        label = f" '{name}'" if name else ""
        raise StructureDegenerateError(
            f"period matrix{label} is degenerate: its columns and their "
            f"conjugates do not span the ambient space at tolerance {tol:g}"
        )


def basis_change(structure: ComplexStructure, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse C of the frame, so C @ (P | conj P) = identity.

    For a real vector x the two halves of C @ x are complex conjugates of
    each other; the top half holds the holomorphic coordinates of x.
    """
    require_structure(structure, tol)
    n = structure.full_rank
    return np.linalg.solve(structure.frame, np.eye(n, dtype=complex))


def split_coordinates(structure: ComplexStructure, x, tol: float = DEFAULT_TOL):
    """Coordinates (w, w_conj) of x with x = P w + conj(P) w_conj."""
    coords = basis_change(structure, tol) @ np.asarray(x, dtype=complex)
    n = structure.half_rank
    return coords[:n], coords[n:]


# Frames this close to singular get redrawn: it bounds the condition number
# of every frame a random structure can produce, so downstream solves lose at
# most ~4 digits instead of an unbounded amount on unlucky seeds.
_RANDOM_FRAME_TOL = 1e-2
_MAX_DRAWS = 64  # redraws per generator before it counts as exhausted


def draws_exhausted(n: int) -> StructureDegenerateError:
    """The error for a generator that gave no valid frame in _MAX_DRAWS draws."""
    return StructureDegenerateError(
        f"no valid period matrix of half rank {n} found in {_MAX_DRAWS} draws"
    )


def _orthonormal_frames_invertible(periods: np.ndarray, tol: float):
    """_frames_invertible for the frames (P | conj P) of a stack of period
    matrices P with orthonormal columns, from one stacked n x n SVD.

    For such P the frame has singular values sqrt(1 +- s_k), s_k those of
    the complex-symmetric P^T P, so the test reads
    sqrt((1 - s_max) / (1 + s_max)) > tol.  A ratio within 1e-6 * tol of
    tol, where the rounding of either computation might decide, is settled
    by _frames_invertible itself, so every verdict is the one it gives.
    """
    s = np.linalg.svd(np.swapaxes(periods, -1, -2) @ periods, compute_uv=False)[..., 0]
    # Rounding may put s_max of a nearly real subspace just above 1.
    ratio = np.sqrt(np.maximum(1.0 - s, 0.0) / (1.0 + s))
    accepted = ratio > tol
    close = np.abs(ratio - tol) <= 1e-6 * tol
    if close.any():
        near = periods[close]
        accepted[close] = _frames_invertible(np.concatenate([near, np.conj(near)], axis=-1),
                                             tol)
    return accepted


def random_periods(n: int, rngs):
    """Stacked random period matrices, one per generator in rngs.

    Returns (periods, valid): periods has shape (len(rngs), 2n, n) and
    valid[a] tells whether generator a produced an acceptable frame within
    _MAX_DRAWS draws.  Each generator is used exactly as random_structure
    uses it -- one normal draw of shape (2, 2n, n), the real part and then
    the imaginary part, redrawn while the frame is nearly singular -- so
    entry a equals random_structure(n, rngs[a]) bit for bit.  Every round
    of draws is orthonormalised by one stacked QR, and its frames are tested
    by _orthonormal_frames_invertible, one stacked n x n SVD.
    """
    if n < 1:
        raise ValueError("half rank must be positive")
    periods = np.empty((len(rngs), 2 * n, n), dtype=complex)
    valid = np.zeros(len(rngs), dtype=bool)
    pending = np.arange(len(rngs))
    for _ in range(_MAX_DRAWS):
        if not pending.size:
            break
        draws = np.array([rngs[a].standard_normal((2, 2 * n, n)) for a in pending])
        fresh = np.linalg.qr(draws[:, 0] + 1j * draws[:, 1])[0]
        accepted = _orthonormal_frames_invertible(fresh, _RANDOM_FRAME_TOL)
        periods[pending] = fresh
        valid[pending] = accepted
        pending = pending[~accepted]
    return periods, valid


def random_structure(n: int, seed) -> ComplexStructure:
    """Deterministic random structure of half rank n.

    seed may be anything np.random.default_rng accepts, including an
    existing Generator (used when several draws must share one stream).
    The period matrix is the orthonormalisation of a complex Gaussian draw,
    so the subspace is uniform on the Grassmannian; draws whose frame is
    nearly singular (the subspace almost meets its conjugate) are redrawn.
    This is the one-generator case of random_periods.
    """
    periods, valid = random_periods(n, [np.random.default_rng(seed)])
    if not valid[0]:
        raise draws_exhausted(n)
    return ComplexStructure(periods[0])


def standard_structure(n: int) -> ComplexStructure:
    """Structure identifying Z^{2n} with the Gaussian integers Z[i]^n.

    Basis vector e_{2a} maps to the a-th complex unit and e_{2a+1} to i
    times it, so the column for coordinate a is e_{2a} - i e_{2a+1}.
    """
    period = np.zeros((2 * n, n), dtype=complex)
    for a in range(n):
        period[2 * a, a] = 1.0
        period[2 * a + 1, a] = -1.0j
    return ComplexStructure(period)
