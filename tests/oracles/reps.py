"""Explicit float matrix models and the averaging-projector rank.

Independent of the exact Galois averages in `ringwaves.reps.fixed_dim`: each
irrep is rebuilt here as matrices from its data alone (label, `j`, `N`, the
dressing bit and the circle weight `m`), and a fixed dimension is the trace
of the averaging projector over the closed group.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ringwaves.groups import DihedralElement, GammaPrimeElement
from ringwaves.reps import DihedralIrrep, DressedIrrep, GIrrep, generated_group

ONE_DIMENSIONAL = {
    "trivial": lambda rot, ref: 1,
    "sign": lambda rot, ref: -1 if ref else 1,
    "half": lambda rot, ref: (-1) ** rot,
    "signsign": lambda rot, ref: (-1) ** (rot + ref),
}


def _rotation(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def dihedral_matrix(ir: DihedralIrrep, g: DihedralElement) -> np.ndarray:
    """rho(g): a sign for the one-dimensional irreps; for geom<j>, the
    rotation by 2 pi j rot / N after the reflection diag(1, -1) if g has one."""
    if ir.label in ONE_DIMENSIONAL:
        return np.array([[float(ONE_DIMENSIONAL[ir.label](g.rot, g.ref))]])
    mat = _rotation(2.0 * math.pi * ir.j * g.rot / ir.N)
    if g.ref:
        return mat @ np.array([[1.0, 0.0], [0.0, -1.0]])
    return mat


def dressed_matrix(rep: DressedIrrep, g: GammaPrimeElement) -> np.ndarray:
    """kappa1 acts by -1 on either dressing; kappa2 by -1 only on bit 1."""
    sign = g.kappa1 * (g.kappa2 if rep.bit else 1)
    return sign * dihedral_matrix(rep.base, g.dihedral)


def g_matrix(rep: GIrrep, turn: Fraction, g: GammaPrimeElement) -> np.ndarray:
    """W_m (x) V: the circle turns W_m by the angle 2 pi m turn."""
    if rep.m == 0:
        return dressed_matrix(rep.dressed, g)
    return np.kron(_rotation(float(2.0 * math.pi * rep.m * turn)), dressed_matrix(rep.dressed, g))


def fixed_dim_projector_oracle(rep, generators) -> int:
    """Rank of the explicit averaging projector; independent of `fixed_dim`."""
    if isinstance(rep, DressedIrrep):
        pairs = [(Fraction(0), g) for g in generators]
        rep = GIrrep(0, rep)
    else:
        pairs = list(generators)
    group = generated_group(pairs)
    proj = sum(g_matrix(rep, t, g) for t, g in group) / len(group)
    rank = round(float(np.trace(proj)))
    assert np.allclose(proj @ proj, proj, atol=1e-8), "averaging is not a projector"
    return rank


def cycle_laplacian_matrix(N: int) -> np.ndarray:
    mat = 2.0 * np.eye(N)
    for i in range(N):
        mat[i, (i + 1) % N] -= 1.0
        mat[i, (i - 1) % N] -= 1.0
    return mat
