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

The group law is exact.  Form coefficients are int64; group coordinates are
int64 while they lie in [-2**63, 2**63) and Python ints past that, and each
operation stays in int64 while a bound on its result keeps it there.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FormInvalidError

# Coefficients are stored as int64; entries must lie in [-INT64_BOUND, INT64_BOUND).
INT64_BOUND = 2**63


def _max_abs(v) -> int:
    """max |v_i| as a Python int, 0 for an empty vector."""
    return max(map(abs, v.tolist()), default=0)


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
        coeff = _int_array(coeff, "coefficients", FormInvalidError)
        coeff.setflags(write=False)
        object.__setattr__(self, "coefficients", coeff)

    @functools.cached_property
    def upper(self) -> np.ndarray:
        """The strict upper triangle of coefficients (the cocycle c), taken
        on first use and kept read-only."""
        upper = np.triu(self.coefficients, k=1)
        upper.setflags(write=False)
        return upper

    @functools.cached_property
    def _weight(self) -> int:
        """max over k of sum_ij |coefficients[k, i, j]|, exact: A(x, y) and
        c(x, y) are at most _weight * max|x| * max|y| in size."""
        return max(sum(map(abs, layer)) for layer in self.coefficients.reshape(
            self.fibre_rank, -1).tolist())

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
        return _bilinear(self.coefficients, self._weight * _max_abs(g1) * _max_abs(g2), g1, g2)[0]


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
    """Element (fibre, base) of the central extension of the base lattice.
    Each part is an int64 array when every entry lies in [-2**63, 2**63),
    and an object array of Python ints otherwise."""

    fibre: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "fibre", _int_vector(self.fibre, None, "fibre"))
        object.__setattr__(self, "base", _int_vector(self.base, None, "base"))

    @functools.cached_property
    def _largest(self) -> int:
        """The largest |entry| of both parts, as a Python int."""
        return _max_abs(np.concatenate([self.fibre, self.base]))

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


def _int_array(values, name, error=ValueError, bounded=True) -> np.ndarray:
    """values as a new integer array: int64 when every entry lies in the int64
    range, else (only when not bounded) an object array of Python ints.
    Signed-integer input is cast as it is; any other input goes through
    exact_integers as the Python objects it holds, so a list mixing ints and
    floats is not rounded through float64."""
    arr = np.asarray(values)
    if arr.dtype.kind == "i":  # signed integers
        return arr.astype(np.int64)
    exact = exact_integers(np.asarray(values, dtype=object).ravel().tolist(), name, error,
                           bounded)
    fits = all(-INT64_BOUND <= x < INT64_BOUND for x in exact)
    return np.array(exact, dtype=np.int64 if fits else object).reshape(arr.shape)


def _int_vector(v, length, name):
    arr = _int_array(v, name, bounded=False)
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
    return _bilinear(form.upper, form._weight * _max_abs(g1) * _max_abs(g2), g1, g2)[0]


def _bilinear(tensor, size, x, y, *more) -> tuple:
    """(sum_ij tensor[k, i, j] x_i y_j for every k, x, y, *more), exactly.

    The vectors stay as they are while size, the caller's bound on every
    value it computes from them, is below 2**63: int64 arithmetic wraps
    modulo 2**64, so an int64 result known to lie in range is exact whatever
    its partial sums did.  Past the bound they become object arrays of
    Python ints, and so does the value."""
    if size >= INT64_BOUND:
        x, y, *more = (v.astype(object) for v in (x, y, *more))
    return tensor @ y @ x, x, y, *more


def _check_lengths(form: ExtensionForm, *elements) -> None:
    for g in elements:
        if g.fibre.shape != (form.fibre_rank,) or g.base.shape != (form.base_rank,):
            raise ValueError(f"group element lengths (fibre {g.fibre.size}, base {g.base.size}) "
                             f"do not match the form's ranks ({form.fibre_rank}, {form.base_rank})")


def group_multiply(form: ExtensionForm, g1: GroupElement, g2: GroupElement) -> GroupElement:
    _check_lengths(form, g1, g2)
    s1, s2 = g1._largest, g2._largest
    c, base1, base2, fibre1, fibre2 = _bilinear(
        form.upper, form._weight * s1 * s2 + s1 + s2, g1.base, g2.base, g1.fibre, g2.fibre)
    return GroupElement(c + fibre1 + fibre2, base1 + base2)


def group_inverse(form: ExtensionForm, g: GroupElement) -> GroupElement:
    # (l, g)^-1 = (-l + c(g, g), -g); c(g, -g) = -c(g, g) makes both sides check out.
    _check_lengths(form, g)
    s = g._largest
    c, base, _, fibre = _bilinear(form.upper, form._weight * s * s + s, g.base, g.base, g.fibre)
    return GroupElement(c - fibre, -base)


def commutator(form: ExtensionForm, g1: GroupElement, g2: GroupElement) -> GroupElement:
    """g1 g2 g1^-1 g2^-1; always central, with fibre part A(g1.base, g2.base)."""
    product = group_multiply(form, g1, g2)
    product = group_multiply(form, product, group_inverse(form, g1))
    product = group_multiply(form, product, group_inverse(form, g2))
    return product
