"""Explicit float matrix models, the averaging-projector rank, and the
circle closure by record products.

Independent of the exact Galois averages in `ringwaves.reps.fixed_dim`: each
irrep is rebuilt here as matrices from its data alone (label, `j`, `N`, the
dressing bit and the circle weight `m`), and a fixed dimension is the trace
of the averaging projector over the group that `closure_oracle` closes.
That oracle multiplies (Fraction, element) pairs, independent of the integer
codes in `ringwaves.reps.circle_closure`.  `permutation_isotypic` splits the ring's
permutation representation into irreps from its fixed-vertex counts.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ringwaves.groups import DihedralElement, GammaPrimeElement
from ringwaves.reps import (
    DihedralIrrep,
    DressedIrrep,
    GIrrep,
    character_table,
    galois_average,
)

from oracles.groups import inverse, product

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
    group = closure_oracle(pairs, math.inf)
    proj = sum(g_matrix(rep, t, g) for t, g in group) / len(group)
    rank = round(float(np.trace(proj)))
    assert np.allclose(proj @ proj, proj, atol=1e-8), "averaging is not a projector"
    return rank


def closure_oracle(generators, limit: int):
    """Set of (turn mod 1, element) pairs generated by `generators`, by
    breadth-first record products; None once it holds more than `limit`."""
    gens = [(t % 1, g) for t, g in generators]
    g0 = gens[0][1]
    seen = {(Fraction(0), product(g0, inverse(g0)))}
    frontier = list(seen)
    while frontier:
        grown = []
        for t, x in frontier:
            for u, g in gens:
                y = ((t + u) % 1, product(x, g))
                if y not in seen:
                    seen.add(y)
                    grown.append(y)
        if len(seen) > limit:
            return None
        frontier = grown
    return seen


def cycle_laplacian_matrix(N: int) -> np.ndarray:
    mat = 2.0 * np.eye(N)
    for i in range(N):
        mat[i, (i + 1) % N] -= 1.0
        mat[i, (i - 1) % N] -= 1.0
    return mat


def permutation_isotypic(N: int) -> dict:
    """Nonzero multiplicities of irreps in the permutation rep (fixed-vertex counts)."""
    group = [DihedralElement(rot, ref, N) for ref in (False, True) for rot in range(N)]
    fixed = [sum(1 for i in range(N) if g.vertex(i) == i) for g in group]
    out = {}
    for ir in character_table(N):
        m = galois_average((f * ir.trace(g, N) for f, g in zip(fixed, group)), N, len(group))
        if m:
            out[ir.label] = m
    return out
