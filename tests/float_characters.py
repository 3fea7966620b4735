"""Float character averages: test oracles for the exact fixed dimensions.

These are the averages the library used before its fixed dimensions became
exact Galois averages: float characters (`DihedralIrrep.char` and the
dressed and circle-extended characters below, all through `cos_turn`)
summed over a group and rounded, with the residual held under a tolerance.
They share no arithmetic with `reps.galois_average`.
"""

from __future__ import annotations

import math

from ringwaves.errors import ExactnessError
from ringwaves.groups import DihedralElement, GammaPrimeElement
from ringwaves.reps import DressedIrrep, GIrrep, character_table, cos_turn

from oracles.reps import closure_oracle

TOL = 1e-9


def _rounded(avg: float) -> int:
    dim = round(avg)
    if abs(avg - dim) > TOL:
        raise ExactnessError(f"float average {avg} is not an integer")
    return dim


def dressed_char(rep: DressedIrrep, g: GammaPrimeElement) -> float:
    """kappa1 acts by -1 on either dressing; kappa2 by -1 only on bit 1."""
    return g.kappa1 * (g.kappa2 if rep.bit else 1) * rep.base.char(g.dihedral)


def g_char(rep: GIrrep, turn, g: GammaPrimeElement) -> float:
    """Character of W_m (x) V: 2 cos(2 pi m turn) times V's, or V's for m = 0."""
    if rep.m == 0:
        return dressed_char(rep.dressed, g)
    return 2.0 * cos_turn(rep.m * turn) * dressed_char(rep.dressed, g)


def char_inner(N: int, chi_a, chi_b) -> float:
    """(1/|D_N|) sum chi_a(g) chi_b(g) over the full group."""
    total = 0.0
    for ref in (False, True):
        for rot in range(N):
            g = DihedralElement(rot, ref, N)
            total += chi_a(g) * chi_b(g)
    return total / (2 * N)


def permutation_character(N: int):
    """Character of the vertex-permutation representation: fixed-point count."""

    def chi(g: DihedralElement) -> float:
        return float(sum(1 for i in range(N) if g.vertex(i) == i))

    return chi


def permutation_isotypic(N: int) -> dict:
    chi_v = permutation_character(N)
    out = {}
    for ir in character_table(N):
        m = _rounded(char_inner(N, chi_v, ir.char))
        if m:
            out[ir.label] = m
    return out


def fixed_dim(rep, pairs) -> int:
    """Float average of a GIrrep's character over the closure of `pairs`,
    closed by the oracle's record products."""
    group = closure_oracle(pairs, math.inf)
    return _rounded(sum(g_char(rep, t, g) for t, g in group) / len(group))


def class_fixed_dims(lattice, rep) -> list:
    """dim V^H for every subgroup class of `lattice`."""
    chars = [dressed_char(rep, g) for g in lattice.group.elements]
    return [_rounded(sum(chars[k] for k in sub) / len(sub)) for sub in lattice.reps]


def twisted_fixed_dims(ctx, rep) -> list:
    """dim (W_l (x) V)^{K^{phi,l}} for every (K, phi)-class of `ctx`."""
    L = ctx.denominator
    cosines = [math.cos(2.0 * math.pi * t / L) for t in range(L)]
    chars = [dressed_char(rep, g) for g in ctx.group.elements]
    out = []
    for elems, turns in ctx.class_keys:
        total = sum(2.0 * cosines[t] * chars[k] for k, t in zip(elems, turns))
        out.append(_rounded(total / len(elems)))
    return out

