"""Built-in example data.

The classical non-abelian example lives on the Gaussian integers: the base
lattice is Z[i]^2, the fibre lattice Z[i], and the extension form is the
antisymmetrization of the product map (x, y) -> x*y'.  The product datum is
the degenerate comparison point with zero form.
"""

import numpy as np

from .decomposition import BundleDatum
from .lattices import ExtensionForm
from .periods import DEFAULT_TOL, standard_structure

CATALOG_NAMES = ("iwasawa", "product")


def iwasawa_form() -> ExtensionForm:
    """Extension form of the Iwasawa manifold in the basis
    e1=(1,0), e2=(i,0), e3=(0,1), e4=(0,i) of Z[i]^2 and f1=1, f2=i of Z[i],
    the real and imaginary parts of A((x,y),(x',y')) = x y' - x' y."""
    x, y = np.array([(1, 0), (1j, 0), (0, 1), (0, 1j)]).T
    values = np.outer(x, y) - np.outer(y, x)  # Gaussian integers, exact in floats
    return ExtensionForm(np.array([values.real, values.imag]))


def iwasawa_datum(tol: float = DEFAULT_TOL) -> BundleDatum:
    """The Iwasawa manifold with the standard structures on both lattices."""
    return BundleDatum.checked(
        iwasawa_form(), standard_structure(2), standard_structure(1), tol=tol)


def product_form(m: int = 2, d: int = 1) -> ExtensionForm:
    return ExtensionForm(np.zeros((2 * d, 2 * m, 2 * m), dtype=np.int64))


def product_datum(m: int = 2, d: int = 1, tol: float = DEFAULT_TOL) -> BundleDatum:
    """A product of two tori: zero form, standard structures."""
    return BundleDatum.checked(
        product_form(m, d), standard_structure(m), standard_structure(d), tol=tol)


def catalog_datum(name: str, m: int = 2, d: int = 1, tol: float = DEFAULT_TOL) -> BundleDatum:
    if name == "iwasawa":
        return iwasawa_datum(tol)
    if name == "product":
        return product_datum(m, d, tol)
    raise KeyError(f"unknown catalog name {name!r}; known: {', '.join(CATALOG_NAMES)}")
