"""Isotropy types, block degrees in closed form and their signs, by scans.

Every (K, phi)-class of positive fixed dimension is a candidate, and each
candidate is compared with every other through `TwistedContext.n_t`.  The
production path never lists isotropy types: `ringwaves.bifurcation` builds
the maximal types' generators in closed form, and the tests compare them
with this scan.  The closed-form block degree and the sign table over a
folding are the references for `predict`'s global claim, which reads
neither.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from ringwaves.bifurcation import maximal_orbit_generators
from ringwaves.degrees import twisted_basic_degree, twisted_fixed_dims
from ringwaves.groups import conjugacy_classes, gamma_prime_element
from ringwaves.reps import DressedIrrep, GIrrep, circle_closure, dressing_bit, isotypic_irreps
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


def folding_signs(ctx: TwistedContext, m: int) -> dict:
    """type -> {block: sign of its coefficient} over the twisted basic degrees
    of every block W_m (x) V_j^bit of folding m: all j, both dressings.

    Only nonzero coefficients are listed, blocks in the order (j, bit).
    """
    table = {}
    for irrep in isotypic_irreps(ctx.group.n):
        for bit in (0, 1):
            rep = GIrrep(m, DressedIrrep(irrep, bit))
            for t, c in twisted_basic_degree(rep, ctx).coeffs:
                table.setdefault(t, {})[rep] = 1 if c > 0 else -1
    return table


@lru_cache(maxsize=None)
def _class_ids(ctx: TwistedContext) -> dict:
    return {key: i for i, key in enumerate(ctx.class_keys)}


def closed_form_degree(ctx: TwistedContext, m: int, n: int, j: int) -> dict:
    """Twisted basic degree of the (m, n, j) block in closed form, {type: coeff}.

    (H) for the one-dimensional V_0 and V_{N/2}; (H) + (S) + (T) - (K0) for a
    geometric V_j.  H, S and T are the closures of `maximal_orbit_generators`;
    K0 is the block's kernel: the (z, g) with g acting on V_j^bit as a sign
    +-1, which its exact trace over Q(zeta_L), +-dim times Euler's phi(L),
    shows, and z^m that sign.  Each type is canonicalized from its integer
    (K, turns) key, with no pairwise homomorphism check.
    """
    N, L = ctx.group.n, ctx.denominator

    def type_of_key(phi):  # element index -> turn mod L
        elems, turns = zip(*sorted(phi.items()))
        key = conjugacy_classes(ctx.lattice.conjugations, [(elems, turns)], ctx.group.order)[0][0]
        return TwistedOrbitType(_class_ids(ctx)[key], m)

    degree = Counter()
    for gens in maximal_orbit_generators(N, m, n, j).values():
        # the closure holds each element of K once per turn z with z^m = phi
        q, pairs = circle_closure(gens.elements)
        if any(m * t * L % q for t, _i in pairs):
            raise ValueError(f"a turn of {gens.kind} is not a multiple of 1/{L}")
        graph = {(i, m * t * L // q % L) for t, i in pairs}
        phi = dict(graph)
        if len(phi) != len(graph):
            raise ValueError(f"{gens.kind} generators give no function K -> S^1")
        degree[type_of_key(phi)] += 1
    rep = DressedIrrep(isotypic_irreps(N)[j], dressing_bit(n))
    if rep.dim == 2:
        full = rep.trace(gamma_prime_element(0, N), L)  # the identity: dim * phi(L)
        kernel = {}
        for i in range(8 * N):
            trace = rep.trace(gamma_prime_element(i, N), L)
            if abs(trace) == full:
                kernel[i] = 0 if trace == full else L // 2
        degree[type_of_key(kernel)] -= 1
    return {t: c for t, c in degree.items() if c}
