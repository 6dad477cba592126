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
    The frame (P | conj P) is read-only like the period matrix, so its
    spectrum, taken once on first use, serves validate_structure at any tol.
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
        frame = np.hstack([self.period, np.conj(self.period)])
        frame.setflags(write=False)
        return frame

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """The frame's singular values, in descending order."""
        return np.linalg.svd(self.frame, compute_uv=False)


def _rank_at(sing: np.ndarray, tol: float) -> int:
    """How many of the descending singular values exceed tol times the largest."""
    with np.errstate(over="ignore"):  # a tol past the float range counts none
        return int((sing > tol * sing[:1]).sum())


def validate_structure(structure: ComplexStructure, tol: float = DEFAULT_TOL) -> bool:
    """True when (P | conj P) is invertible at relative tolerance tol.

    The test asks that the smallest singular value of the frame exceed tol
    times the largest, so rescaling the period matrix does not change the
    verdict.  The singular values are kept on the structure, so a period
    matrix tested when a document is parsed is not decomposed again when
    the split tests it, at any tol.
    """
    return _rank_at(structure._spectrum, tol) == structure.full_rank


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


# Random frames this close to singular are redrawn here and fail their
# attempt in sample_point: it bounds the condition number of every frame a
# random structure can produce, so downstream solves lose at most ~4 digits
# instead of an unbounded amount on unlucky seeds.
_RANDOM_FRAME_TOL = 1e-2
_MAX_DRAWS = 64  # redraws before random_structure gives up


def random_structure(n: int, seed) -> ComplexStructure:
    """Deterministic random structure of half rank n.

    seed may be anything np.random.default_rng accepts, including an
    existing Generator (used when several draws must share one stream).
    The period matrix is the orthonormalisation of a complex Gaussian draw
    (one normal draw of shape (2, 2n, n): the real part, then the imaginary
    part), so the subspace is uniform on the Grassmannian; draws whose frame
    is nearly singular (the subspace almost meets its conjugate) are redrawn.
    """
    if n < 1:
        raise ValueError("half rank must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_DRAWS):
        draw = rng.standard_normal((2, 2 * n, n))
        structure = ComplexStructure(np.linalg.qr(draw[0] + 1j * draw[1])[0])
        if validate_structure(structure, _RANDOM_FRAME_TOL):
            return structure
    raise StructureDegenerateError(
        f"no valid period matrix of half rank {n} found in {_MAX_DRAWS} draws"
    )


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
