"""Closed-form invariants for principal torus bundles over a compact curve.

Unlike the torus-base case, everything over a curve of genus g >= 2 reduces
to arithmetic: the deformation space is smooth and fibred over the product
of curve moduli and fibre-torus moduli, and the topological type of the
bundle is a lattice vector classified up to its divisibility.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattices import exact_integers


@dataclass(frozen=True)
class CurveBundleClass:
    """A bundle type over a curve: genus, fibre dimension, and the lattice
    vector (length 2d) classifying the topological bundle."""

    genus: int
    fibre_dim: int
    chern_vector: tuple

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be non-negative")
        if self.fibre_dim < 1:
            raise ValueError("fibre dimension must be positive")
        vector = tuple(_exact_integers(self.chern_vector))
        if len(vector) != 2 * self.fibre_dim:
            raise ValueError(
                f"chern vector must have length {2 * self.fibre_dim}, got {len(vector)}"
            )
        object.__setattr__(self, "chern_vector", vector)

    @property
    def divisibility(self) -> int:
        return divisibility_index(self.chern_vector)


def kuranishi_dim(genus: int, fibre_dim: int) -> int:
    """Dimension of the (smooth) deformation space: 3g - 3 curve moduli,
    d·g twisting moduli, and d^2 fibre-torus moduli.  Only meaningful for
    genus >= 2, where the underlying curve has no automorphism moduli."""
    if genus < 2:
        raise ValueError("the dimension formula requires genus >= 2")
    if fibre_dim < 1:
        raise ValueError("fibre dimension must be positive")
    return 3 * genus - 3 + fibre_dim * genus + fibre_dim ** 2


def _exact_integers(chern_vector) -> list:
    """The entries as exact Python ints (no int64 bound), or ValueError."""
    entries = np.asarray(chern_vector, dtype=object)
    if entries.ndim != 1:
        raise ValueError("chern vector must be one-dimensional")
    return exact_integers(entries.tolist(), "chern vector entries", bounded=False)


def divisibility_index(chern_vector) -> int:
    """Non-negative gcd of the entries, with the convention that the zero
    vector has index 0."""
    return math.gcd(*_exact_integers(chern_vector))
