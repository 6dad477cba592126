"""Closed-form invariants for principal torus bundles over a compact curve.

Unlike the torus-base case, everything over a curve of genus g >= 2 reduces
to arithmetic: the deformation space is smooth and fibred over the product
of curve moduli and fibre-torus moduli, and the topological type of the
bundle is a lattice vector classified up to its divisibility.
"""

import math

import numpy as np

from .lattices import exact_integers


def kuranishi_dim(genus: int, fibre_dim: int) -> int:
    """Dimension of the (smooth) deformation space: 3g - 3 curve moduli,
    d·g twisting moduli, and d^2 fibre-torus moduli.  Only meaningful for
    genus >= 2, where the underlying curve has no automorphism moduli."""
    if genus < 2:
        raise ValueError("the dimension formula requires genus >= 2")
    if fibre_dim < 1:
        raise ValueError("fibre dimension must be positive")
    return 3 * genus - 3 + fibre_dim * genus + fibre_dim ** 2


def divisibility_index(chern_vector) -> int:
    """Non-negative gcd of the entries as exact Python ints (no int64 bound),
    with the convention that the zero vector has index 0; ValueError for
    anything but a one-dimensional vector of integers."""
    entries = np.asarray(chern_vector, dtype=object)
    if entries.ndim != 1:
        raise ValueError("chern vector must be one-dimensional")
    return math.gcd(*exact_integers(entries.tolist(), "chern vector entries", bounded=False))
