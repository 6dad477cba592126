"""Built-in example data.

The classical non-abelian example lives on the Gaussian integers: the base
lattice is Z[i]^2, the fibre lattice Z[i], and the extension form is the
antisymmetrization of the product map (x, y) -> x*y'.  The product datum is
the degenerate comparison point with zero form.  Both data are members by
construction and are built without the membership check, which would split
the form at a cost of order d m^2 (d + m).
"""

import numpy as np

from .decomposition import BundleDatum
from .lattices import ExtensionForm
from .periods import standard_structure

CATALOG_NAMES = ("iwasawa", "product")


def iwasawa_form() -> ExtensionForm:
    """Extension form of the Iwasawa manifold in the basis
    e1=(1,0), e2=(i,0), e3=(0,1), e4=(0,i) of Z[i]^2 and f1=1, f2=i of Z[i],
    the real and imaginary parts of A((x,y),(x',y')) = x y' - x' y."""
    x, y = np.array([(1, 0), (1j, 0), (0, 1), (0, 1j)]).T
    values = np.outer(x, y) - np.outer(y, x)  # Gaussian integers, exact in floats
    return ExtensionForm(np.array([values.real, values.imag]))


def iwasawa_datum() -> BundleDatum:
    """The Iwasawa manifold with the standard structures on both lattices."""
    return BundleDatum(iwasawa_form(), standard_structure(2), standard_structure(1))


def product_form(m: int = 2, d: int = 1) -> ExtensionForm:
    """The zero form on base rank 2m and fibre rank 2d: the topological type
    of a product of two tori."""
    return ExtensionForm(np.zeros((2 * d, 2 * m, 2 * m), dtype=np.int64))


def product_datum(m: int = 2, d: int = 1) -> BundleDatum:
    """A product of two tori: zero form, standard structures."""
    return BundleDatum(product_form(m, d), standard_structure(m), standard_structure(d))


def catalog_datum(name: str, m: int = 2, d: int = 1) -> BundleDatum:
    """The built-in datum called name, one of CATALOG_NAMES; m and d size the
    product datum and are ignored for Iwasawa.  KeyError for any other
    name."""
    if name == "iwasawa":
        return iwasawa_datum()
    if name == "product":
        return product_datum(m, d)
    raise KeyError(f"unknown catalog name {name!r}; known: {', '.join(CATALOG_NAMES)}")
