"""Integer side of the bundle data: extension forms and the nilpotent group.

A bundle datum starts from two free abelian groups, a base lattice of even
rank 2m and a fibre lattice of even rank 2d, together with an alternating
bilinear map A from pairs of base vectors to the fibre lattice.  The map is
stored as an integer tensor ``coefficients[k, i, j]`` holding the k-th fibre
coordinate of A(e_i, e_j).  ExtensionForm refuses a tensor that is not
alternating, so every form is: no consumer checks it again.

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
operation stays in int64 while a bound on its result keeps it there.  That
bound reads each operand's _largest, the largest |entry| of its parts, which
an element computes on its first use as an operand and then keeps: a result
that is never an operand never pays for it.
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
    k-th fibre coordinate of the value on the (i, j) base basis pair.  The
    constructor raises FormInvalidError on a tensor of another shape, on
    entries that are not int64 integers, and, with validate_form's
    violations, on one that is not alternating, so every form is.
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
        violations = validate_form(self)
        if violations:
            raise FormInvalidError("; ".join(violations))

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
        coeff = self.coefficients
        return max(sum(map(abs, layer)) for layer in coeff.reshape(coeff.shape[0], -1).tolist())

    @property
    def base_rank(self) -> int:
        return self.coefficients.shape[1]

    @property
    def fibre_rank(self) -> int:
        return self.coefficients.shape[0]

    def __call__(self, g1, g2):
        """Full bilinear value A(g1, g2) as an integer fibre vector."""
        return self._value(_int_vector(g1, self.base_rank, "g1"),
                           _int_vector(g2, self.base_rank, "g2"))

    def _value(self, x, y):
        """A(x, y) for base vectors already checked as _int_vector checks them."""
        weight = self._weight
        return _bilinear(self.coefficients, weight, weight * _max_abs(x) * _max_abs(y), x, y)[0]


def validate_form(form: ExtensionForm) -> list[str]:
    """Return a list of alternation violations, empty when the form is valid.

    Each violation names the first offending index triple in 1-based
    coordinates, e.g. ``"(k=1, i=1, j=2)"``.  ExtensionForm calls it on its
    integer coefficients and refuses a tensor with any violation, so on a
    built form it returns [].
    """
    coeff = form.coefficients
    # int64 negation is exact but at -2**63, which no alternating form holds
    # (its partner would be 2**63), so one comparison settles a valid form.
    if coeff.min() > -INT64_BOUND and np.array_equal(coeff, -coeff.transpose(0, 2, 1)):
        return []
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
        _store(self, _int_vector(self.fibre, None, "fibre"), _int_vector(self.base, None, "base"))

    @functools.cached_property
    def _largest(self) -> int:
        """The largest |entry| of both parts as a Python int, which bounds
        the group law; taken on first use."""
        return max(map(abs, self.fibre.tolist() + self.base.tolist()), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, GroupElement)
            and np.array_equal(self.fibre, other.fibre)
            and np.array_equal(self.base, other.base)
        )


def _store(element: GroupElement, fibre, base) -> None:
    """Set the read-only parts of element."""
    fibre.setflags(write=False)
    base.setflags(write=False)
    object.__setattr__(element, "fibre", fibre)
    object.__setattr__(element, "base", base)


def _element(fibre, base) -> GroupElement:
    """GroupElement(fibre, base) for parts the group law has just computed,
    without the checks of the public constructor: each part is a new int64
    array or, past the bound, a new object array of Python ints, which is
    narrowed to int64 when every entry fits."""
    element = object.__new__(GroupElement)
    _store(element, _narrow(fibre), _narrow(base))
    return element


def _narrow(part):
    """part as int64 when it is an object array whose entries all fit."""
    if part.dtype == object and all(-INT64_BOUND <= x < INT64_BOUND for x in part.tolist()):
        return part.astype(np.int64)
    return part


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
    return _element(np.zeros(form.fibre_rank, dtype=np.int64), base)


def central_lift(form: ExtensionForm, index: int) -> GroupElement:
    """The central element (f_index, 0), index 0-based."""
    fibre = np.zeros(form.fibre_rank, dtype=np.int64)
    fibre[index] = 1
    return _element(fibre, np.zeros(form.base_rank, dtype=np.int64))


def extension_cocycle(form: ExtensionForm, g1_base, g2_base) -> np.ndarray:
    """Strict upper triangular integral representative c(g1, g2).

    Its antisymmetrisation recovers the form:
    c(g1, g2) - c(g2, g1) = A(g1, g2).
    """
    g1 = _int_vector(g1_base, form.base_rank, "g1_base")
    g2 = _int_vector(g2_base, form.base_rank, "g2_base")
    weight = form._weight
    return _bilinear(form.upper, weight, weight * _max_abs(g1) * _max_abs(g2), g1, g2)[0]


def _bilinear(tensor, weight, size, x, y, *more) -> tuple:
    """(sum_ij tensor[k, i, j] x_i y_j for every k, x, y, *more), exactly.

    The vectors stay as they are while size, the caller's bound on every
    value it computes from them, is below 2**63: int64 arithmetic wraps
    modulo 2**64, so an int64 result known to lie in range is exact whatever
    its partial sums did.  Past the bound they become object arrays of
    Python ints, and so does the value.  There tensor @ y, at most
    weight * max|y| in size for weight the form's _weight, is still taken in
    int64 while that bound is below 2**63, and only that vector is cast:
    casting the whole tensor to Python ints costs about four times as much."""
    if size < INT64_BOUND:
        return tensor @ y @ x, x, y, *more
    narrow = y.dtype != object and weight * _max_abs(y) < INT64_BOUND
    x, wide_y, *more = (v.astype(object) for v in (x, y, *more))
    pushed = (tensor @ y).astype(object) if narrow else tensor @ wide_y
    return pushed @ x, x, wide_y, *more


def _check_lengths(form: ExtensionForm, *elements) -> None:
    fibre_shape, base_shape = (form.fibre_rank,), (form.base_rank,)
    for g in elements:
        if g.fibre.shape != fibre_shape or g.base.shape != base_shape:
            raise ValueError(f"group element lengths (fibre {g.fibre.size}, base {g.base.size}) "
                             f"do not match the form's ranks ({form.fibre_rank}, {form.base_rank})")


def group_multiply(form: ExtensionForm, g1: GroupElement, g2: GroupElement) -> GroupElement:
    """The product g1 g2 in the extension group: for gk = (lk, xk) it is
    (l1 + l2 + c(x1, x2), x1 + x2), with c the cocycle of extension_cocycle.
    Exact for coordinates of any size; ValueError for an operand whose
    lengths do not match the form's ranks."""
    _check_lengths(form, g1, g2)
    s1, s2, weight = g1._largest, g2._largest, form._weight
    c, base1, base2, fibre1, fibre2 = _bilinear(
        form.upper, weight, weight * s1 * s2 + s1 + s2, g1.base, g2.base, g1.fibre, g2.fibre)
    return _element(c + fibre1 + fibre2, base1 + base2)


def group_inverse(form: ExtensionForm, g: GroupElement) -> GroupElement:
    """The element h with g h = h g = (0, 0) in the extension group, exact
    for coordinates of any size; ValueError for an operand whose lengths do
    not match the form's ranks."""
    # (l, g)^-1 = (-l + c(g, g), -g); c(g, -g) = -c(g, g) makes both sides check out.
    _check_lengths(form, g)
    s, weight = g._largest, form._weight
    c, base, _, fibre = _bilinear(form.upper, weight, weight * s * s + s, g.base, g.base, g.fibre)
    return _element(c - fibre, -base)


def commutator(form: ExtensionForm, g1: GroupElement, g2: GroupElement) -> GroupElement:
    """g1 g2 g1^-1 g2^-1 = (A(x, y), 0) for x, y the base parts, in closed
    form.

    The fibre parts are central and cancel, and the cocycle terms of the
    product chain add up to c(x, y) - c(y, x), which is A(x, y) because
    every form is alternating.  The commutator takes it as one exact
    bilinear evaluation, the one ExtensionForm.__call__ makes."""
    _check_lengths(form, g1, g2)
    return _element(form._value(g1.base, g2.base), np.zeros(form.base_rank, dtype=np.int64))
