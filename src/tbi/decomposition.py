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
blocks are determined by reality of the integer form, so they are not kept:
reconstruct derives them from the U-valued blocks.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormInvalidError, MembershipError, StructureDegenerateError
from .lattices import ExtensionForm, validate_form
from .periods import ComplexStructure, DEFAULT_TOL, basis_change, validate_structure


@dataclass(frozen=True)
class DecomposedForm:
    """The three U-valued blocks of a split extension form, plus bookkeeping.

    scale is the max-norm of the full split tensor and is the reference
    against which all residual norms on this datum are measured.
    """

    holomorphic: np.ndarray
    hermitian: np.ndarray
    antiholomorphic: np.ndarray
    tol: float
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
    tol: float

    def __bool__(self):
        return self.member


def split_form(form: ExtensionForm, base: ComplexStructure, fibre: ComplexStructure,
               tol: float = DEFAULT_TOL) -> np.ndarray:
    """Full split tensor of shape (2d, 2m, 2m).

    Output index blocks: [:d] U-coordinates, [d:] conjugate coordinates.
    Each input index: [:m] V-slots, [m:] conjugate slots.
    """
    if base.full_rank != form.base_rank or fibre.full_rank != form.fibre_rank:
        raise ValueError(
            f"rank mismatch: form is {form.fibre_rank}x{form.base_rank}^2, "
            f"structures are {fibre.full_rank} and {base.full_rank}"
        )
    c_fibre = basis_change(fibre, tol)
    frame_base = base.frame
    return np.einsum(
        "ak,kij,ir,js->ars", c_fibre, form.coefficients.astype(complex),
        frame_base, frame_base,
    )


def decompose(form: ExtensionForm, base: ComplexStructure, fibre: ComplexStructure,
              tol: float = DEFAULT_TOL) -> DecomposedForm:
    full = split_form(form, base, fibre, tol)
    m = base.half_rank
    d = fibre.half_rank
    return DecomposedForm(
        holomorphic=full[:d, :m, :m],
        hermitian=full[:d, :m, m:],
        antiholomorphic=full[:d, m:, m:],
        tol=tol,
        scale=float(np.max(np.abs(full))) if full.size else 0.0,
    )


def reconstruct(split: DecomposedForm, base: ComplexStructure,
                fibre: ComplexStructure) -> np.ndarray:
    """Invert decompose, returning a complex tensor that should equal the
    original integer coefficients up to roundoff."""
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
    c_base = basis_change(base, split.tol)
    return np.einsum("ka,ars,ri,sj->kij", fibre.frame, full, c_base, c_base)


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
    def checked(cls, form, base, fibre, translation=None, tol=DEFAULT_TOL):
        """Construct and validate: alternation, non-degeneracy, membership."""
        violations = validate_form(form)
        if violations:
            raise FormInvalidError("; ".join(violations))
        for name, structure in (("base", base), ("fibre", fibre)):
            if not validate_structure(structure, tol):
                raise StructureDegenerateError(f"{name} period matrix is degenerate")
        datum = cls(form, base, fibre, translation, tol)
        verdict = datum.membership
        if not verdict.member:
            raise MembershipError(
                f"structure pair is incompatible with the form "
                f"(residual {verdict.residual:.3e} vs scale {verdict.scale:.3e})"
            )
        return datum

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
            tol=self.tol,
        )

    def translation_value(self, gamma) -> np.ndarray:
        if self.translation is None:
            return np.zeros(self.fibre.half_rank, dtype=complex)
        return self.translation @ np.asarray(gamma)


def _fibre_projection(datum: BundleDatum, value) -> np.ndarray:
    """Holomorphic fibre coordinates of a fibre-lattice-coordinate vector."""
    coords = basis_change(datum.fibre, datum.tol) @ np.asarray(value, dtype=complex)
    return coords[: datum.fibre.half_rank]


def _eval_at_point(datum: BundleDatum, gamma, point) -> np.ndarray:
    """Classifying cocycle at an arbitrary point of the complexified base,
    given in lattice coordinates: -(U-part of A(point, gamma)) + translation."""
    value = np.einsum(
        "kij,i,j->k", datum.form.coefficients.astype(complex),
        np.asarray(point, dtype=complex), np.asarray(gamma, dtype=complex),
    )
    return -_fibre_projection(datum, value) + datum.translation_value(gamma)


def cocycle_eval(datum: BundleDatum, gamma, z) -> np.ndarray:
    """Value of the classifying cocycle for lattice element gamma at the base
    point z (holomorphic base coordinates, length m).

    The linear part contracts z into the first slot of the holomorphic block
    and gamma -- split into its (V, Vbar) halves -- into the remaining slots
    of the holomorphic and hermitian blocks; it is complex linear in z.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (datum.base.half_rank,):
        raise ValueError(f"z must have length {datum.base.half_rank}")
    gamma = np.asarray(gamma)
    coords = basis_change(datum.base, datum.tol) @ gamma.astype(complex)
    m = datum.base.half_rank
    split = datum.split
    linear = np.einsum("ahl,h,l->a", split.holomorphic, z, coords[:m]) \
        + np.einsum("ahl,h,l->a", split.hermitian, z, coords[m:])
    return -linear + datum.translation_value(gamma)


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
    gamma1 = np.asarray(gamma1)
    gamma2 = np.asarray(gamma2)
    point = datum.base.period @ np.asarray(z, dtype=complex)
    total = _eval_at_point(datum, gamma1 + gamma2, point)
    translated = _eval_at_point(datum, gamma1, point + gamma2)
    second = _eval_at_point(datum, gamma2, point)
    return total - translated - second


def lattice_vector_from_fibre(datum: BundleDatum, value, tol: float | None = None):
    """Recover the integer fibre-lattice vector whose holomorphic coordinates
    are `value`, or None if no lattice vector matches at tolerance.

    A real vector with holomorphic coordinates w is P w + conj(P w); rounding
    that to integers and projecting back gives the verification residual.
    """
    if tol is None:
        tol = datum.tol
    value = np.asarray(value, dtype=complex)
    real = datum.fibre.period @ value
    candidate = np.rint((real + np.conj(real)).real).astype(np.int64)
    back = _fibre_projection(datum, candidate)
    scale = max(1.0, float(np.max(np.abs(value))))
    if np.max(np.abs(back - value)) <= tol * scale:
        return candidate
    return None
