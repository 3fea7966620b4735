"""Basic degrees of irreducible representations and their twisted analogues.

Over the finite group the basic degree of an irrep V is computed from the
top-down recurrence with leading data (-1)^{dim V^H}; over the circle-extended
group the twisted basic degree of W_m (x) V (m >= 1) has leading data
dim(V^H)/2 and Weyl orders taken modulo the circle.  Maximal-kind orbit types
are the maximal isotropy types of W_m (x) V away from the origin.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .burnside import BurnsideElement
from .errors import ExactnessError
from .groups import SubgroupClassLattice
from .reps import FIXED_DIM_TOL, DressedIrrep, GIrrep, cos_turn
from .twisted import TwistedContext, TwistedOrbitType, TwistedSum


@lru_cache(maxsize=None)
def _characters(rep: DressedIrrep, group) -> tuple:
    """rep.char of every element of `group`, by element index."""
    return tuple(rep.char(g) for g in group.elements)


def _class_fixed_dims(lattice: SubgroupClassLattice, rep: DressedIrrep):
    """dim V^H for every subgroup class, by character averaging."""
    chars = _characters(rep, lattice.group)
    dims = []
    for sub in lattice.reps:
        total = 0.0
        for k in sub.elems:
            total += chars[k]
        avg = total / sub.order
        dim = round(avg)
        if abs(avg - dim) > FIXED_DIM_TOL:
            raise ExactnessError(f"non-integer fixed dimension {avg}")
        dims.append(dim)
    return dims


@lru_cache(maxsize=None)
def basic_degree(rep: DressedIrrep, lattice: SubgroupClassLattice) -> BurnsideElement:
    """Degree of minus-identity on the unit ball of the dressed irrep."""
    dims = _class_fixed_dims(lattice, rep)
    n, w = lattice.n_table, lattice.weyl
    res: dict = {}
    for h in range(lattice.n_classes):
        lead = (-1) ** dims[h]
        above = sum(v * n[h][k] * w[k] for k, v in res.items())
        num = lead - above
        if num % w[h]:
            raise ExactnessError(f"non-integer basic-degree coefficient at class {h}")
        c = num // w[h]
        if c:
            res[h] = c
    return BurnsideElement.from_dict(lattice, res)


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
def _turn_cosines(denominator: int) -> tuple:
    """cos_turn(t / denominator) for every integer turn t of a context."""
    return tuple(cos_turn(Fraction(t, denominator)) for t in range(denominator))


def twisted_fixed_dim(ctx: TwistedContext, kphi: int, rep: DressedIrrep) -> int:
    """dim of (W_l (x) V)^{K^{phi,l}}: independent of the folding l >= 1.

    Each (z, k) with z^l = phi(k) acts as the plane rotation by phi(k)
    tensored with the dressed action, so the average runs over K only.
    """
    elems, turns = ctx._classes[kphi]
    cosines = _turn_cosines(ctx.denominator)
    chars = _characters(rep, ctx.group)
    total = 0.0
    for k, turn in zip(elems, turns):
        total += 2.0 * cosines[turn] * chars[k]
    avg = total / len(elems)
    dim = round(avg)
    if abs(avg - dim) > FIXED_DIM_TOL:
        raise ExactnessError(f"non-integer twisted fixed dimension {avg}")
    return dim


@lru_cache(maxsize=None)
def _positive_dim_types(ctx: TwistedContext, rep: DressedIrrep):
    out = []
    for kphi in range(ctx.n_types):
        d = twisted_fixed_dim(ctx, kphi, rep)
        if d > 0:
            out.append((kphi, d))
    return out


@lru_cache(maxsize=None)
def twisted_basic_degree(rep: GIrrep, ctx: TwistedContext) -> TwistedSum:
    """Twisted basic degree of W_m (x) V_j^i for m >= 1.

    Runs the top-down recurrence over the orbit types with positive fixed
    dimension (the support can contain no others: fixed spaces only grow
    downward, so every type above the positive-dimension region has exact
    coefficient zero).
    """
    if rep.m < 1:
        raise ValueError("twisted basic degrees need folding m >= 1")
    m = rep.m
    res: dict = {}
    # context class ids are sorted by descending |K|: top-down order
    for kphi, dim in _positive_dim_types(ctx, rep.dressed):
        t = TwistedOrbitType(kphi, m)
        above = sum(
            v * ctx.n_t(t, tt) * ctx.weyl_t(tt) for tt, v in res.items()
        )
        num2 = dim - 2 * above  # numerator doubled to stay in integers
        den2 = 2 * ctx.weyl_t(t)
        if num2 % den2:
            raise ExactnessError(
                f"non-integer twisted-degree coefficient at {ctx.type_str(t)}"
            )
        c = num2 // den2
        if c:
            res[t] = c
    return TwistedSum.from_dict(ctx, {(t.kphi, t.l): v for t, v in res.items()})


def isotropy_types(rep: GIrrep, ctx: TwistedContext):
    """Orbit types of W_m (x) V_j^i away from 0, with their fixed dimensions.

    A candidate type is an isotropy type iff its fixed space is not covered
    by the fixed spaces of strictly larger candidates; over the reals that
    happens exactly when its dimension strictly exceeds every one of theirs.
    """
    if rep.m < 1:
        raise ValueError("isotropy enumeration needs folding m >= 1")
    cands = _positive_dim_types(ctx, rep.dressed)
    dims = dict(cands)
    out = []
    for kphi, dim in cands:
        t = TwistedOrbitType(kphi, rep.m)
        realized = True
        for other, odim in cands:
            if other == kphi:
                continue
            to = TwistedOrbitType(other, rep.m)
            # strictly larger candidate with the same folding
            if ctx.n_t(t, to) > 0 and odim >= dim:
                realized = False
                break
        if realized:
            out.append((t, dim))
    return out


def maximal_kind_types(rep: GIrrep, ctx: TwistedContext):
    """Maximal elements of the isotropy lattice of W_m (x) V_j^i minus 0."""
    iso = isotropy_types(rep, ctx)
    out = []
    for t, _d in iso:
        if not any(
            other != t and ctx.n_t(t, other) > 0 for other, _ in iso
        ):
            out.append(t)
    # antichain sanity
    for a in out:
        for b in out:
            if a != b and ctx.n_t(a, b) > 0:
                raise AssertionError("maximal types are not an antichain")
    return sorted(out)
