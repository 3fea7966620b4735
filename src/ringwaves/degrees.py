"""Basic degrees of irreducible representations and their twisted analogues.

Over the finite group the basic degree of an irrep V is computed from the
top-down recurrence with leading data (-1)^{dim V^H}; over the circle-extended
group the twisted basic degree of W_m (x) V (m >= 1) has leading data
dim(V^H)/2 over the types of positive fixed dimension, and Weyl orders taken
modulo the circle.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import getitem

from .burnside import BurnsideElement, mark_columns, solve_marks
from .errors import ExactnessError
from .groups import SubgroupClassLattice
from .reps import DressedIrrep, GIrrep, galois_average
from .twisted import TwistedContext, TwistedOrbitType, TwistedSum, mark_column


def _class_fixed_dims(lattice: SubgroupClassLattice, rep: DressedIrrep):
    """dim V^H for every subgroup class; the order of the group is a
    multiple of every element's order, so characters live in Q(zeta_|G|)."""
    L = lattice.group.order
    traces = [rep.trace(g, L) for g in lattice.group.elements]
    return [galois_average(map(traces.__getitem__, sub), L, len(sub)) for sub in lattice.reps]


@lru_cache(maxsize=None)
def basic_degree(rep: DressedIrrep, lattice: SubgroupClassLattice) -> BurnsideElement:
    """Degree of minus-identity on the unit ball of the dressed irrep."""
    lead = {h: (-1) ** d for h, d in enumerate(_class_fixed_dims(lattice, rep))}
    coeffs = solve_marks(lead, mark_columns(lattice).__getitem__, lattice.weyl)
    return BurnsideElement.from_dict(lattice, coeffs)


def linear_iso_degree(neg_spectrum, lattice: SubgroupClassLattice) -> BurnsideElement:
    """Degree of a linear isomorphism from its negative-spectrum multiplicities.

    `neg_spectrum` is an iterable of (DressedIrrep, multiplicity) pairs; the
    result is the product of the matching basic degrees to those powers.
    """
    out = BurnsideElement.one(lattice)
    for rep, mult in neg_spectrum:
        if mult < 0:
            raise ValueError("multiplicities must be >= 0")
        deg = basic_degree(rep, lattice)
        for _ in range(mult):
            out = out * deg
    return out


@lru_cache(maxsize=None)
def twisted_fixed_dims(ctx: TwistedContext, rep: DressedIrrep) -> tuple:
    """dim of (W_l (x) V)^{K^{phi,l}} for every (K, phi)-class, by class id.

    Each (z, k) with z^l = phi(k) acts as the plane rotation by phi(k)
    tensored with the dressed action, so the average runs over K only and
    the dimension does not depend on the folding l >= 1.  Row k of the trace
    table, over every turn t, is a signed copy of the base irrep's row at
    k's dihedral part.
    """
    L, elements = ctx.denominator, ctx.group.elements
    base = {d: [rep.base.trace(d, L, t) for t in range(L)] for d in {g.dihedral for g in elements}}
    rows = [[rep.sign(g) * v for v in base[g.dihedral]] for g in elements]
    return tuple(
        galois_average(map(getitem, map(rows.__getitem__, elems), turns), L, len(elems))
        for elems, turns in ctx.class_keys
    )


@lru_cache(maxsize=None)
def twisted_basic_degree(rep: GIrrep, ctx: TwistedContext) -> TwistedSum:
    """Twisted basic degree of W_m (x) V_j^i for m >= 1.

    Solves the marks over the orbit types with positive fixed dimension (the
    support can contain no others: fixed spaces only grow downward, so every
    type above the positive-dimension region has exact coefficient zero).
    The leading data dim/2 is doubled to stay in integers, and every doubled
    coefficient must be even.
    """
    if rep.m < 1:
        raise ValueError("twisted basic degrees need folding m >= 1")
    # context class ids are sorted by descending |K|: top-down order
    dims = {kphi: d for kphi, d in enumerate(twisted_fixed_dims(ctx, rep.dressed)) if d > 0}
    doubled = solve_marks(dims, partial(mark_column, ctx), ctx.weyl)
    coeffs = {TwistedOrbitType(kphi, rep.m): c for kphi, c in doubled.items()}
    for t, c in coeffs.items():
        if c % 2:
            raise ExactnessError(f"non-integer twisted-degree coefficient at {ctx.type_str(t)}")
    return TwistedSum.from_dict(ctx, {t: c // 2 for t, c in coeffs.items()})
