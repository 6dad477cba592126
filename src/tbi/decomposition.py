"""Splitting an extension form along a pair of complex structures.

Choosing structures on base (half rank m) and fibre (half rank d) splits the
complexified form into six blocks, indexed by where the two input slots sit
(holomorphic subspace V or its conjugate) and where the value lands (fibre
subspace U or its conjugate).  The three U-valued blocks are::

    holomorphic       value on (V, V) pairs       d x m x m, antisymmetric
    hermitian         value on (V, Vbar) pairs    d x m x m, no symmetry
    antiholomorphic   value on (Vbar, Vbar) pairs d x m x m, antisymmetric

The pair of structures is compatible with the form exactly when the
antiholomorphic block vanishes; that is the membership test for the
parameter variety of bundle structures.  The three conjugate (Ubar-valued)
blocks are determined by reality of the integer form (the conjugates of the
U-valued blocks with V and Vbar slots exchanged), so decompose neither
computes nor keeps them.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MembershipError, StructureDegenerateError
from .lattices import ExtensionForm, _int_array
from .periods import (ComplexStructure, DEFAULT_TOL, basis_change, require_structure,
                      split_coordinates)


@dataclass(frozen=True)
class DecomposedForm:
    """The three U-valued blocks of a split extension form, plus bookkeeping.

    scale is the max-norm of the U-valued half, which by reality of the form
    is that of the full split tensor, and is the reference against which all
    residual norms on this datum are measured.
    """

    holomorphic: np.ndarray
    hermitian: np.ndarray
    antiholomorphic: np.ndarray
    scale: float

    @property
    def base_half_rank(self) -> int:
        return self.holomorphic.shape[1]

    @property
    def fibre_half_rank(self) -> int:
        return self.holomorphic.shape[0]


@dataclass(frozen=True)
class MembershipResult:
    """Boolean verdict together with the residual that produced it."""

    member: bool
    residual: float
    scale: float

    def __bool__(self):
        return self.member


def _contract(left: np.ndarray, tensor: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum over k, i, j of left[a, k] tensor[k, i, j] right[i, r] right[j, s],
    as two matrix products: left into the value index first, then right into
    each slot, the order in which a term-by-term sum multiplies, so products
    overflow and underflow as in that sum (only the order of the additions
    differs, which shows at the ends of the float range).  The caller decides
    what a non-finite entry means, so no RuntimeWarning escapes; adding 0.0
    makes an exact zero +0.0, as that sum gives it."""
    k, n = tensor.shape[0], tensor.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        return right.T @ (left @ tensor.reshape(k, n * n)).reshape(-1, n, n) @ right + 0.0


def decompose(form: ExtensionForm, base: ComplexStructure, fibre: ComplexStructure,
              tol: float = DEFAULT_TOL) -> DecomposedForm:
    """The U-valued blocks of the form split along the structure pair: the
    output index runs over the U-coordinates alone, each input index over the
    V-slots [:m] and the conjugate slots [m:].  The Ubar-valued half is their
    conjugate, so it is not contracted.

    _contract takes the U rows of basis_change(fibre) into the value index,
    then base.frame into each slot, in O(d m^2 (d + m)) operations where a
    term-by-term sum takes O(d^2 m^4).  A split that overflows to a
    non-finite entry raises StructureDegenerateError."""
    if base.full_rank != form.base_rank or fibre.full_rank != form.fibre_rank:
        raise ValueError(
            f"rank mismatch: form is {form.fibre_rank}x{form.base_rank}^2, "
            f"structures are {fibre.full_rank} and {base.full_rank}"
        )
    m = base.half_rank
    half = _contract(basis_change(fibre, tol)[:fibre.half_rank],
                     form.coefficients.astype(complex), base.frame)
    if not np.all(np.isfinite(half)):
        raise StructureDegenerateError("the split of the form along 'V' and 'U' is not finite: "
                                       "a period matrix is too large or too small in scale")
    return DecomposedForm(
        holomorphic=half[:, :m, :m],
        hermitian=half[:, :m, m:],
        antiholomorphic=half[:, m:, m:],
        scale=float(np.max(np.abs(half))) if half.size else 0.0,
    )


def riemann_check(form: ExtensionForm, base: ComplexStructure, fibre: ComplexStructure,
                  tol: float = DEFAULT_TOL) -> MembershipResult:
    """Does the structure pair make the form the obstruction class of a
    holomorphic bundle?  Yes iff the antiholomorphic block vanishes.

    The residual is the max-norm of that block, compared against
    tol * (max-norm of the whole split tensor); the zero form is a member
    of every structure pair.
    """
    return BundleDatum(form, base, fibre, tol=tol).membership


@dataclass(frozen=True)
class BundleDatum:
    """A bundle presentation: extension form, structure pair, optional
    constant translation part of the classifying cocycle.

    translation, when given, holds the fibre-coordinate value assigned to
    each base lattice generator (complex d x 2m matrix), extended additively.
    """

    form: ExtensionForm
    base: ComplexStructure
    fibre: ComplexStructure
    translation: np.ndarray | None = None
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.base.full_rank != self.form.base_rank:
            raise ValueError("base structure rank does not match the form")
        if self.fibre.full_rank != self.form.fibre_rank:
            raise ValueError("fibre structure rank does not match the form")
        if self.translation is not None:
            t = np.asarray(self.translation, dtype=complex)
            expected = (self.fibre.half_rank, self.form.base_rank)
            if t.shape != expected:
                raise ValueError(f"translation must have shape {expected}, got {t.shape}")
            object.__setattr__(self, "translation", t)

    @classmethod
    def checked(cls, form, base, fibre, tol=DEFAULT_TOL):
        """Construct and validate: non-degeneracy and membership (a form is
        alternating by construction)."""
        for name, structure in (("V", base), ("U", fibre)):
            require_structure(structure, tol, name)
        return cls(form, base, fibre, tol=tol).require_member()

    def require_member(self) -> "BundleDatum":
        """This datum, or MembershipError when the pair is not compatible."""
        verdict = self.membership
        if not verdict.member:
            raise MembershipError(
                f"structure pair is incompatible with the form "
                f"(residual {verdict.residual:.3e} vs scale {verdict.scale:.3e})"
            )
        return self

    @cached_property
    def split(self) -> DecomposedForm:
        return decompose(self.form, self.base, self.fibre, self.tol)

    @cached_property
    def membership(self) -> MembershipResult:
        residual = float(np.max(np.abs(self.split.antiholomorphic)))
        return MembershipResult(
            member=bool(residual <= self.tol * self.split.scale),
            residual=residual,
            scale=self.split.scale,
        )

    def translation_value(self, gamma) -> np.ndarray:
        if self.translation is None:
            return np.zeros(self.fibre.half_rank, dtype=complex)
        return self.translation @ np.asarray(gamma)


def _vector(values, length, name, dtype=None) -> np.ndarray:
    """values as a one-dimensional array of the given length, else ValueError."""
    array = np.asarray(values, dtype=dtype)
    if array.shape != (length,):
        raise ValueError(f"{name} must have length {length}")
    return array


def _eval_at_point(datum: BundleDatum, gamma, point) -> np.ndarray:
    """Classifying cocycle at an arbitrary point of the complexified base,
    given in lattice coordinates: -(U-part of A(point, gamma)) + translation."""
    value = np.einsum(
        "kij,i,j->k", datum.form.coefficients.astype(complex),
        np.asarray(point, dtype=complex), np.asarray(gamma, dtype=complex),
    )
    holomorphic, _ = split_coordinates(datum.fibre, value, datum.tol)
    return -holomorphic + datum.translation_value(gamma)


def cocycle_eval(datum: BundleDatum, gamma, z) -> np.ndarray:
    """Value of the classifying cocycle for lattice element gamma at the base
    point z (holomorphic base coordinates, length m), by _eval_at_point.

    The linear part contracts z into the first slot of the holomorphic block
    and gamma -- split into its (V, Vbar) halves -- into the remaining slots
    of the holomorphic and hermitian blocks; it is complex linear in z.
    """
    m = datum.base.half_rank
    gamma, z = _vector(gamma, 2 * m, "gamma"), _vector(z, m, "z", complex)
    return _eval_at_point(datum, gamma, datum.base.period @ z)


def cocycle_defect(datum: BundleDatum, gamma1, gamma2, z) -> np.ndarray:
    """F(g1+g2, z) - F(g1, z+g2) - F(g2, z) for the classifying cocycle F.

    The translated argument z + g2 is taken in the complexified base, i.e.
    g2 keeps its antiholomorphic component instead of being projected onto
    the holomorphic subspace.  With that reading the defect is independent
    of z and equals the fibre coordinates of the integer lattice vector
    A(g2, g1): the bilinear part telescopes and the translation part, being
    additive, cancels exactly.  (Projecting g2 first would leave a hermitian
    remainder that is not a lattice vector.)
    """
    m = datum.base.half_rank
    gamma1 = _vector(gamma1, 2 * m, "gamma1")
    gamma2 = _vector(gamma2, 2 * m, "gamma2")
    point = datum.base.period @ _vector(z, m, "z", complex)
    total = _eval_at_point(datum, gamma1 + gamma2, point)
    translated = _eval_at_point(datum, gamma1, point + gamma2)
    second = _eval_at_point(datum, gamma2, point)
    return total - translated - second


def lattice_vector_from_fibre(datum: BundleDatum, value, tol: float | None = None):
    """Recover the integer fibre-lattice vector whose holomorphic coordinates
    are `value`, or None if no lattice vector matches at tolerance.

    A real vector with holomorphic coordinates w is P w + conj(P w); rounding
    that to integers and projecting back gives the verification residual.
    The vector is exact: int64 while every entry fits, Python ints past that.
    """
    tol = datum.tol if tol is None else tol
    value = _vector(value, datum.fibre.half_rank, "value", complex)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite: no vector
        real = 2 * (datum.fibre.period @ value).real
    if not np.all(np.isfinite(real)):
        return None
    candidate = _int_array(np.rint(real), "fibre vector", bounded=False)
    back, _ = split_coordinates(datum.fibre, candidate, datum.tol)
    scale = max(1.0, float(np.max(np.abs(value))))
    if np.max(np.abs(back - value)) <= tol * scale:
        return candidate
    return None
