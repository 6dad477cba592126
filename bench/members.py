"""Seeded bundle data for the benchmark workloads.

Every member is built on the Gaussian-integer lattices Z[i]^m (base) and
Z[i]^d (fibre) with the standard structures.  Fibre component c of the form
is a Gaussian-integer (2,0) form x^T B_c y plus a (1,1) part Im(x* H_c y),
with H_c a Gaussian-integer hermitian matrix, placed in the real coordinate
of that component.  Neither part has a (0,2) piece, so the standard
structures are compatible with the form by construction.  Setting every B_c
or every H_c to zero gives the pure-hermitian and zero-hermitian classes.

Each grid slot has a fixed *canonical* datum (drawn from the slot's own
generator, independent of the workload seed).  The workload seed only
chooses a unimodular Gaussian-integer change of base coordinates g, acting by
B -> g^T B g and H -> g^* H g.  That is an isomorphism of bundles that keeps
the standard structures, so every dimension, rank and verdict is the same for
all seeds (and can be checked against values recorded once), while the
integer data the program sees, and the order of floating-point work, change
with the seed.
"""

import zlib
from dataclasses import dataclass

import numpy as np

import tbi

MIXED, PURE_HERMITIAN, ZERO_HERMITIAN = "mixed", "pure_hermitian", "zero_hermitian"


@dataclass(frozen=True)
class Slot:
    """One grid position: (class, m, d) plus how the seed moves its basis."""

    name: str
    kind: str
    m: int
    d: int
    scrambled: bool = False  # also a random unimodular change of the real basis


@dataclass(frozen=True)
class Member:
    slot: str
    datum: tbi.BundleDatum


def _slot_rng(name: str) -> np.random.Generator:
    return np.random.default_rng(zlib.crc32(name.encode()))


def _gaussian(rng, shape, span=2):
    return rng.integers(-span, span + 1, size=shape) \
        + 1j * rng.integers(-span, span + 1, size=shape)


def canonical_blocks(slot: Slot):
    """Seed-independent (B, H) for a slot: B antisymmetric, H hermitian,
    both d x m x m Gaussian-integer arrays.  Entries are drawn until each
    nonzero block has full generic rank, which is what makes the recorded
    dimensions those of the class and not of an accident of the draw."""
    rng = _slot_rng(slot.name)
    m, d = slot.m, slot.d
    zeros = np.zeros((d, m, m), dtype=complex)
    b = h = zeros
    if slot.kind in (MIXED, ZERO_HERMITIAN) and m >= 2:
        while True:
            raw = _gaussian(rng, (d, m, m))
            b = np.triu(raw, 1) - np.triu(raw, 1).transpose(0, 2, 1)
            if all(np.linalg.matrix_rank(block) >= 2 * (m // 2) for block in b):
                break
    if slot.kind in (MIXED, PURE_HERMITIAN):
        while True:
            raw = _gaussian(rng, (d, m, m))
            h = np.triu(raw, 1) + np.triu(raw, 1).conj().transpose(0, 2, 1)
            h = h + np.diag(rng.integers(-2, 3, size=m)).astype(complex)
            if all(np.linalg.matrix_rank(block) == m for block in h):
                break
    return b, h


def gaussian_unimodular(rng, m, steps=None) -> np.ndarray:
    """Random element of GL(m, Z[i]) from unit-sized Gaussian shears, a
    permutation and unit rescalings; entries stay small."""
    steps = m if steps is None else steps
    g = np.eye(m, dtype=complex)
    for _ in range(steps):
        i, j = rng.choice(m, size=2, replace=False)
        g[i] += (1, -1, 1j, -1j)[int(rng.integers(4))] * g[j]
    g = g[rng.permutation(m)]
    return g * np.array([(1, -1, 1j, -1j)[int(k)] for k in rng.integers(4, size=m)])


def real_unimodular(rng, n, steps=None) -> np.ndarray:
    """Random GL(n, Z) matrix from unit row shears, a permutation and signs."""
    steps = n if steps is None else steps
    matrix = np.eye(n, dtype=np.int64)
    for _ in range(steps):
        i, j = rng.choice(n, size=2, replace=False)
        matrix[i] += int(rng.choice([-1, 1])) * matrix[j]
    matrix = matrix[rng.permutation(n)]
    return matrix * rng.choice([-1, 1], size=(n, 1))


def form_from_blocks(b, h) -> tbi.ExtensionForm:
    """Real integer tensor of x^T B_c y + Im(x* H_c y), expanded in the basis
    e_{2a} = unit_a, e_{2a+1} = i unit_a (and f_{2c} = 1, f_{2c+1} = i)."""
    d, m, _ = b.shape
    gens = np.zeros((2 * m, m), dtype=complex)  # row k = k-th real generator
    gens[0::2] = np.eye(m)
    gens[1::2] = 1j * np.eye(m)
    holo = np.einsum("ia,cab,jb->cij", gens, b, gens)
    herm = np.einsum("ia,cab,jb->cij", gens.conj(), h, gens).imag
    tensor = np.zeros((2 * d, 2 * m, 2 * m))
    tensor[0::2] = holo.real + herm
    tensor[1::2] = holo.imag
    return tbi.ExtensionForm(np.rint(tensor).astype(np.int64))


def _transport(form, base, fibre, p):
    """Rewrite a datum in the real base basis given by the columns of p."""
    tensor = np.einsum("kij,ia,jb->kab", form.coefficients, p, p)
    new_base = tbi.ComplexStructure(np.linalg.solve(p.astype(float), base.period))
    return tbi.ExtensionForm(tensor), new_base, fibre


def build_member(slot: Slot, seed: int) -> Member:
    """The slot's datum in seed-chosen coordinates, validated by
    BundleDatum.checked (alternation, non-degeneracy, membership)."""
    rng = np.random.default_rng([seed, zlib.crc32(slot.name.encode())])
    b, h = canonical_blocks(slot)
    g = gaussian_unimodular(rng, slot.m)
    b = np.einsum("ai,cab,bj->cij", g, b, g)
    h = np.einsum("ai,cab,bj->cij", g.conj(), h, g)
    form = form_from_blocks(b, h)
    base, fibre = tbi.standard_structure(slot.m), tbi.standard_structure(slot.d)
    if slot.scrambled:
        form, base, fibre = _transport(form, base, fibre, real_unimodular(rng, 2 * slot.m))
    return Member(slot.name, tbi.BundleDatum.checked(form, base, fibre))


def random_form(rng, m, d, span=3) -> tbi.ExtensionForm:
    """Random alternating integer form with entries in [-span, span]."""
    raw = rng.integers(-span, span + 1, size=(2 * d, 2 * m, 2 * m))
    return tbi.ExtensionForm(raw - raw.transpose(0, 2, 1))
