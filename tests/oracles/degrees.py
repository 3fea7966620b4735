"""Isotropy and maximal orbit types of W_m (x) V by an exhaustive scan.

Every (K, phi)-class of positive fixed dimension is a candidate, and each
candidate is compared with every other through `TwistedContext.n_t`.  The
production path never lists isotropy types: `ringwaves.bifurcation` builds
the maximal types' generators in closed form, and the tests compare them
with this scan.
"""

from __future__ import annotations

from ringwaves.degrees import twisted_fixed_dims
from ringwaves.reps import GIrrep
from ringwaves.twisted import TwistedContext, TwistedOrbitType


def isotropy_types(rep: GIrrep, ctx: TwistedContext):
    """Orbit types of W_m (x) V_j^i away from 0, with their fixed dimensions.

    A candidate type is an isotropy type iff its fixed space is not covered
    by the fixed spaces of strictly larger candidates; over the reals that
    happens exactly when its dimension strictly exceeds every one of theirs.
    """
    if rep.m < 1:
        raise ValueError("isotropy enumeration needs folding m >= 1")
    cands = [(TwistedOrbitType(kphi, rep.m), d)
             for kphi, d in enumerate(twisted_fixed_dims(ctx, rep.dressed)) if d > 0]
    # a type is realized unless a strictly larger candidate fixes as much
    return [(t, dim) for t, dim in cands
            if not any(o != t and ctx.n_t(t, o) > 0 and odim >= dim for o, odim in cands)]


def maximal_kind_types(rep: GIrrep, ctx: TwistedContext):
    """Maximal elements of the isotropy lattice of W_m (x) V_j^i minus 0."""
    iso = [t for t, _ in isotropy_types(rep, ctx)]
    return sorted(t for t in iso if not any(o != t and ctx.n_t(t, o) > 0 for o in iso))
