"""Twisted Weyl orders and module products by brute force in a finite quotient,
the inflation of twisted types from a smaller ring, and folding.

Each twisted orbit type is realized inside Z_Q x Gamma', with all turns on
the common denominator Q; normalizers and orbit types are then counted
there directly.  Independent of the recurrences in `ringwaves.twisted`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from ringwaves.errors import ExactnessError
from ringwaves.twisted import TwistedContext, TwistedOrbitType, TwistedSum, _circle_homs

from oracles.groups import cayley, quotient_index


def hom_to_circle(group, elems) -> list[dict]:
    """All homomorphisms K -> S^1 as {element: turn} dicts (exact Fractions);
    K is the sorted tuple `elems`."""
    q, homs = _circle_homs(group, elems)
    return [{k: Fraction(t, q) for k, t in phi.items()} for phi in homs]


def is_circle_hom(group, phi: dict) -> bool:
    """phi(a) + phi(b) = phi(ab) mod 1 for every pair, by the oracle's Cayley table."""
    tab = cayley(group).table
    return all((phi[a] + phi[b] - phi[tab[a][b]]) % 1 == 0 for a in phi for b in phi)


class Representative(NamedTuple):
    """A concrete twisted subgroup (K, phi, l) over Gamma'; K is phi's domain."""

    phi: tuple  # ((element, turn), ...) sorted by element, turns as Fractions
    l: int


def representative(ctx: TwistedContext, t: TwistedOrbitType) -> Representative:
    """The canonical (K, phi) of t's class, with t's folding."""
    elems, turns = ctx.class_keys[t.kphi]
    phi = tuple((k, Fraction(u, ctx.denominator)) for k, u in zip(elems, turns))
    return Representative(phi, t.l)


def fold(s: int, a: TwistedSum) -> TwistedSum:
    """Pull back every orbit type through the s-folding circle map.

    The preimage of K^{phi,l} under (z, g) -> (z^s, g) is K^{phi, s*l}, so
    folding just rescales the folding tag; it is Z-linear and multiplicative
    in s.
    """
    if s < 1:
        raise ValueError("folding must be >= 1")
    return TwistedSum(
        a.owner,
        tuple(sorted((TwistedOrbitType(t.kphi, s * t.l), v) for t, v in a.coeffs)),
    )


def _quotient_denominator(ctx: TwistedContext, types, extra: int = 1) -> int:
    """Common circle denominator Q so that every phi value and folding fits."""
    q = extra
    for t in types:
        q = math.lcm(q, t.l)
        for turn in ctx.class_keys[t.kphi][1]:
            q = math.lcm(q, Fraction(turn, ctx.denominator).denominator * t.l)
    return q


def realize_in_quotient(ctx: TwistedContext, t: TwistedOrbitType, q: int):
    """Element set of the representative twisted subgroup inside Z_q x Gamma'."""
    out = set()
    for k, turn in representative(ctx, t).phi:
        for z in range(q):
            if (Fraction(z * t.l, q) - turn) % 1 == 0:
                out.add((z, k))
    return frozenset(out)


def quotient_weyl_oracle(ctx: TwistedContext, t: TwistedOrbitType, q: int | None = None) -> int:
    """|W(H)/S^1| recomputed by brute-force normalizer in Z_q x Gamma'."""
    if q is None:
        q = _quotient_denominator(ctx, [t], extra=2)
    g = ctx.group
    oracle = cayley(g)
    tab, inv = oracle.table, oracle.inverse
    hbar = realize_in_quotient(ctx, t, q)
    # Z_q is central, so the normalizer is Z_q x {c : c conjugates hbar to itself}
    fixers = 0
    for c in range(g.order):
        ci = inv[c]
        conj = frozenset((w, tab[tab[c][k]][ci]) for w, k in hbar)
        if conj == hbar:
            fixers += 1
    norm_order = q * fixers
    if norm_order % len(hbar):
        raise ExactnessError("quotient normalizer order not divisible by |H|")
    w = norm_order // len(hbar)
    circle_order = q // t.l  # Z_q meets H in l elements: its image in N(H)/H
    if w % circle_order:
        raise ExactnessError("quotient Weyl order not divisible by circle part")
    return w // circle_order


def module_product_oracle(
    ctx: TwistedContext, kcls: int, h: TwistedOrbitType, q: int | None = None
) -> dict:
    """(K) * (H) recomputed by orbit counting in the finite quotient.

    Enumerates the product of coset spaces of Z_q x Gamma' by Z_q x K and by
    the realized twisted subgroup, computes every point's isotropy, and
    tallies orbit types; no recurrence is involved.
    """
    if q is None:
        q = _quotient_denominator(ctx, [h], extra=2)
    g = ctx.group
    oracle = cayley(g)
    tab, inv = oracle.table, oracle.inverse
    order = g.order * q

    def mul(a, b):
        return ((a[0] + b[0]) % q, tab[a[1]][b[1]])

    def invq(a):
        return ((-a[0]) % q, inv[a[1]])

    prod_sub = frozenset((z, k) for z in range(q) for k in ctx.lattice.reps[kcls])
    hbar = realize_in_quotient(ctx, h, q)
    elems = [(z, k) for z in range(q) for k in range(g.order)]

    def cosets(sub):
        seen = set()
        reps = []
        for x in elems:
            key = frozenset(mul(x, s) for s in sub)
            if key not in seen:
                seen.add(key)
                reps.append(x)
        return reps

    counts: dict = {}
    for a in cosets(prod_sub):
        ai = invq(a)
        asub = frozenset(mul(mul(a, s), ai) for s in prod_sub)
        for b in cosets(hbar):
            bi = invq(b)
            bsub = frozenset(mul(mul(b, s), bi) for s in hbar)
            iso = asub & bsub
            t = _type_from_quotient_subgroup(ctx, iso, h.l, q)
            counts[t] = counts.get(t, 0) + len(iso)
    out = {}
    for t, weight in counts.items():
        if weight % order:
            raise ExactnessError("orbit sizes do not tile the quotient point count")
        out[t] = weight // order
    return out


def _type_from_quotient_subgroup(ctx, iso, l: int, q: int) -> TwistedOrbitType:
    return ctx.type_of({k: Fraction(z * l, q) % 1 for z, k in iso}, l)


def inflate(ctx: TwistedContext, small: TwistedContext, t: TwistedOrbitType) -> TwistedOrbitType:
    """Type over Gamma'_N of the preimage of a type t over Gamma'_{N/d}.

    The quotient by the rotations g^(N/d) sends index h*N + r to
    h*(N/d) + r mod N/d.  The preimage of the representative (K', phi', l) of
    t is (pi^-1 K', phi' o pi, l), canonicalized in `ctx`.
    """
    n, m = ctx.group.n, small.group.n
    if n % m:
        raise ValueError(f"{m} does not divide {n}")
    phi = dict(representative(small, t).phi)
    pulled = {i: phi[p] for i in range(ctx.group.order) if (p := quotient_index(i, n, m)) in phi}
    return ctx.type_of(pulled, t.l)
