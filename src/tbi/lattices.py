"""Integer side of the bundle data: extension forms and the nilpotent group.

A bundle datum starts from two free abelian groups, a base lattice of even
rank 2m and a fibre lattice of even rank 2d, together with an alternating
bilinear map A from pairs of base vectors to the fibre lattice.  The map is
stored as an integer tensor ``coefficients[k, i, j]`` holding the k-th fibre
coordinate of A(e_i, e_j).

A determines a central extension of the base lattice by the fibre lattice:
the fundamental group of the total space.  Because A/2 need not be integral
we cannot use the symmetric representative of the extension cocycle; instead
we fix the strict upper triangular bilinear representative

    c(e_i, e_j) = A(e_i, e_j)  if i < j,   0 otherwise,

which is integral for every alternating A.  Group elements are pairs
(fibre, base) with multiplication

    (l1, g1) * (l2, g2) = (l1 + l2 + c(g1, g2), g1 + g2).

All arithmetic in this module is exact over the integers.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FormInvalidError

# Coefficients are stored as int64; entries must lie in [-INT64_BOUND, INT64_BOUND).
INT64_BOUND = 2**63


@dataclass(frozen=True)
class ExtensionForm:
    """Alternating integer form from base-lattice pairs to the fibre lattice.

    coefficients: int array of shape (2d, 2m, 2m); entry [k, i, j] is the
    k-th fibre coordinate of the value on the (i, j) base basis pair.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coefficients)
        if coeff.ndim != 3 or coeff.shape[1] != coeff.shape[2]:
            raise FormInvalidError(
                f"coefficients must have shape (2d, 2m, 2m), got {coeff.shape}"
            )
        if coeff.shape[0] % 2 or coeff.shape[1] % 2 or coeff.shape[0] == 0 or coeff.shape[1] == 0:
            raise FormInvalidError(
                f"lattice ranks must be even and positive, got shape {coeff.shape}"
            )
        coeff = _int64_array(coeff, "coefficients", FormInvalidError)
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)

    @functools.cached_property
    def upper(self) -> np.ndarray:
        """The strict upper triangle of coefficients (the cocycle c), taken
        on first use and kept read-only."""
        upper = np.triu(self.coefficients, k=1)
        upper.setflags(write=False)
        return upper

    @property
    def base_rank(self) -> int:
        return self.coefficients.shape[1]

    @property
    def fibre_rank(self) -> int:
        return self.coefficients.shape[0]

    def __call__(self, g1, g2):
        """Full bilinear value A(g1, g2) as an integer fibre vector."""
        g1 = _int_vector(g1, self.base_rank, "g1")
        g2 = _int_vector(g2, self.base_rank, "g2")
        return np.einsum("kij,i,j->k", self.coefficients, g1, g2)


def validate_form(form: ExtensionForm) -> list[str]:
    """Return a list of alternation violations, empty when the form is valid.

    Each violation names the first offending index triple in 1-based
    coordinates, e.g. ``"(k=1, i=1, j=2)"``.
    """
    coeff = form.coefficients
    violations = []
    for k in range(coeff.shape[0]):
        block = coeff[k].astype(object)  # Python ints: -(-2**63) must not wrap
        bad = np.argwhere(block != -block.T)
        for i, j in bad:
            if i <= j:  # report each unordered pair once, diagonal included
                violations.append(
                    f"not alternating at (k={k + 1}, i={i + 1}, j={j + 1}): "
                    f"{block[i, j]} != {-block[j, i]}"
                )
    return violations


@dataclass(frozen=True)
class GroupElement:
    """Element (fibre, base) of the central extension of the base lattice."""

    fibre: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fibre", _int_vector(self.fibre, None, "fibre"))
        object.__setattr__(self, "base", _int_vector(self.base, None, "base"))

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and np.array_equal(self.fibre, other.fibre)
            and np.array_equal(self.base, other.base)
        )


def exact_integers(entries, name, error=ValueError, bounded=True) -> list:
    """The flat list entries as exact Python ints.  Each entry is compared as
    an exact Python number, and error is raised unless it is an integer and,
    when bounded, lies in the int64 range [-2**63, 2**63)."""
    out_of_range = f"{name} must lie in the int64 range [-2**63, 2**63)"
    try:
        exact = [int(x) for x in entries]
    except OverflowError:  # an infinity
        if bounded:
            raise error(out_of_range) from None
        exact = None
    except (TypeError, ValueError):  # NaN, strings, complex numbers
        exact = None
    if exact != entries:
        raise error(f"{name} must be integers")
    if bounded and not all(-INT64_BOUND <= x < INT64_BOUND for x in exact):
        raise error(out_of_range)
    return exact


def _int64_array(values, name, error=ValueError) -> np.ndarray:
    """values as a new int64 array.  Signed-integer input is cast as it is;
    any other input goes through exact_integers as the Python objects it
    holds, so a list mixing ints and floats is not rounded through float64."""
    arr = np.asarray(values)
    if np.issubdtype(arr.dtype, np.signedinteger):
        return arr.astype(np.int64)
    exact = exact_integers(np.asarray(values, dtype=object).ravel().tolist(), name, error)
    return np.array(exact, dtype=np.int64).reshape(arr.shape)


def _int_vector(v, length, name):
    arr = _int64_array(v, name)
    if arr.ndim != 1 or (length is not None and arr.shape[0] != length):
        size = "" if length is None else f" of length {length}"
        raise ValueError(f"{name} must be a vector{size}, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def basis_lift(form: ExtensionForm, index: int) -> GroupElement:
    """The lift (0, e_index) of a base basis vector, index 0-based."""
    base = np.zeros(form.base_rank, dtype=np.int64)
    base[index] = 1
    return GroupElement(np.zeros(form.fibre_rank, dtype=np.int64), base)


def central_lift(form: ExtensionForm, index: int) -> GroupElement:
    """The central element (f_index, 0), index 0-based."""
    fibre = np.zeros(form.fibre_rank, dtype=np.int64)
    fibre[index] = 1
    return GroupElement(fibre, np.zeros(form.base_rank, dtype=np.int64))


def extension_cocycle(form: ExtensionForm, g1_base, g2_base) -> np.ndarray:
    """Strict upper triangular integral representative c(g1, g2).

    Its antisymmetrisation recovers the form:
    c(g1, g2) - c(g2, g1) = A(g1, g2).
    """
    g1 = _int_vector(g1_base, form.base_rank, "g1_base")
    g2 = _int_vector(g2_base, form.base_rank, "g2_base")
    return np.einsum("kij,i,j->k", form.upper, g1, g2)


def _cocycle(form: ExtensionForm, g1: GroupElement, g2: GroupElement) -> np.ndarray:
    """c(g1.base, g2.base), once both operands' lengths match the form."""
    for g in (g1, g2):
        if g.fibre.shape != (form.fibre_rank,) or g.base.shape != (form.base_rank,):
            raise ValueError(f"group element lengths (fibre {g.fibre.size}, base {g.base.size}) "
                             f"do not match the form's ranks ({form.fibre_rank}, {form.base_rank})")
    return np.einsum("kij,i,j->k", form.upper, g1.base, g2.base)


def group_multiply(form: ExtensionForm, g1: GroupElement, g2: GroupElement) -> GroupElement:
    c = _cocycle(form, g1, g2)
    return GroupElement(g1.fibre + g2.fibre + c, g1.base + g2.base)


def group_inverse(form: ExtensionForm, g: GroupElement) -> GroupElement:
    # (l, g)^-1 = (-l + c(g, g), -g); c(g, -g) = -c(g, g) makes both sides check out.
    c = _cocycle(form, g, g)
    return GroupElement(-g.fibre + c, -g.base)


def commutator(form: ExtensionForm, g1: GroupElement, g2: GroupElement) -> GroupElement:
    """g1 g2 g1^-1 g2^-1; always central, with fibre part A(g1.base, g2.base)."""
    product = group_multiply(form, g1, g2)
    product = group_multiply(form, product, group_inverse(form, g1))
    product = group_multiply(form, product, group_inverse(form, g2))
    return product
