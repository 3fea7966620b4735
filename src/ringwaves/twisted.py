"""Twisted orbit types of S^1 x (Z2 x Z2 x D_N) and their module algebra.

A twisted subgroup of S^1 x Gamma' is identified by a triple (K, phi, l):
K <= Gamma', a homomorphism phi from K to the circle (exact rational turns,
held as integers mod the exponent of Gamma' inside a context), and a
folding integer l >= 1, cutting out {(z, k) : phi(k) = z^l}.  These types
generate the twisted module on which the Burnside ring of Gamma' acts.
Because the circle factor is central, conjugation only moves the (K, phi)
part, so orbit types are Gamma'-orbits of (K, phi) pairs tagged with l; all
conjugacy tests, subconjugation counts n(H, L) and finite Weyl orders
|W(H)/S^1| are computed exactly inside Gamma'.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from .burnside import BurnsideElement, SparseSum, bilinear, mark_columns, solve_marks
from .errors import ExactnessError
from .groups import SubgroupClassLattice, bits, build_once, conjugacy_classes, graph_mask


class TwistedOrbitType(NamedTuple):
    """Conjugacy class of a twisted subgroup: (K, phi)-class id plus folding."""

    kphi: int
    l: int


def _commutator_subgroup(group, elems) -> frozenset:
    """[K, K] = [D, D] for K's image D in D_N, as the sign factors are central:
    trivial for a cyclic D, and for a dihedral D whose rotations are the
    multiples of s, the rotations by multiples of gcd(2s, N)."""
    n = group.n  # element x reflects iff x // n is odd, and rotates by x % n
    if not any(x // n & 1 for x in elems):
        return frozenset([group.identity])
    s = math.gcd(n, *(x % n for x in elems if not x // n & 1))
    return frozenset(range(0, n, math.gcd(2 * s, n)))


def _circle_homs(group, elems):
    """All homomorphisms K -> S^1 as (q, [{element: turn mod q}, ...]); K is
    the sorted tuple `elems` of its element indices.

    A homomorphism K -> S^1 factors through K^ab = K / [K, K].  Greedy
    generators a_1..a_r of K^ab grow a chain [K, K] = B_0 < ... < B_r = K,
    where B_i is the union of the cosets a_i^e B_{i-1}, e < o_i, and o_i is
    the least o with a_i^o in B_{i-1}.  A homomorphism on B_{i-1} extends to
    B_i once phi(a_i) = t solves o_i t = phi(a_i^o_i); with turns as
    integers mod q (the lcm of the a_i's orders, which o_i divides) that
    equation has o_i solutions.  Each level lists its cosets' elements once,
    as (a_i^e b, e, b) for b in B_{i-1}: they make B_i, and phi extends by
    phi(a_i^e b) = e t + phi(b).
    """
    mul = group.mul
    comm = _commutator_subgroup(group, elems)
    chain, levels = comm, []  # levels: (a_i, triples, a_i^o_i, o_i)
    for x in elems:
        if x not in chain:
            powers, y = [group.identity], x
            while y not in chain:
                powers.append(y)
                y = mul(y, x)
            triples = [(mul(p, b), e, b) for e, p in enumerate(powers) for b in chain]
            levels.append((x, triples, y, len(powers)))
            chain = {p for p, _, _ in triples}
    q = math.lcm(*(group.element_order(x) for x, *_ in levels))
    homs = [dict.fromkeys(comm, 0)]
    for _, triples, top, o in levels:
        grown = []
        for phi in homs:
            base, r = divmod(phi[top], o)
            if r:
                raise ExactnessError(f"{o} * t = {phi[top]} has no solution mod {q}")
            for t in range(base, q, q // o):
                grown.append({p: (phi[b] + e * t) % q for p, e, b in triples})
        homs = grown
    return q, homs


class TwistedContext:
    """Canonical (K, phi)-classes over a fixed Gamma' lattice.

    Class ids are stable and ordered by descending |K| (ties broken by the
    canonical key), a total order refining twisted subconjugation at equal
    folding.  Inside the context a turn is an integer mod `denominator`, the
    exponent L of Gamma' (every phi takes values in (1/L)Z / Z); canonical
    keys (`class_keys`, indexed by class id) are (K tuple, turn tuple) pairs.
    Turns leave as Fraction(t, L).  Since t -> t / L is monotone on 0..L-1,
    integer keys order as the Fraction keys would.  Nothing changes after
    construction; `type_of` is the one way in from an explicit (phi, l).
    """

    def __init__(self, lattice: SubgroupClassLattice):
        self.lattice = lattice
        self.group = g = lattice.group
        self.denominator = L = math.lcm(g.n, 2)  # the exponent of D_N and of Z2 x Z2 x D_N
        seeds = []  # every phi on every class rep K, as a (K tuple, turn tuple) key
        for rep in lattice.reps:
            q, homs = _circle_homs(g, rep)
            seeds += ((rep, tuple(phi[k] * (L // q) for k in rep)) for phi in homs)
        found = conjugacy_classes(lattice.conjugations, seeds, g.order)
        self.class_keys = tuple(key for key, _, _ in found)  # canonical (K, turns) per class id
        self._class_ids = {key: i for i, key in enumerate(self.class_keys)}
        self._kclass = [lattice.class_id(key[0]) for key in self.class_keys]  # lattice class of K
        self._kphis = [[] for _ in lattice.reps]  # class ids per lattice class of K, ascending
        for kphi, c in enumerate(self._kclass):
            self._kphis[c].append(kphi)
        self.weyl = [weyl for *_, weyl in found]  # |W(H)/S^1|: phi-preserving normalizer mod K

    @property
    def n_types(self) -> int:
        return len(self.class_keys)

    def type_of(self, phi: dict, l: int) -> TwistedOrbitType:
        """Orbit type of (K, phi, l), K being phi's domain; phi's turns may be
        any rationals."""
        if l < 1:
            raise ValueError("folding must be >= 1")
        mul = self.group.mul
        if self.group.identity not in phi:
            raise ValueError("phi's domain is not a subgroup: it misses the identity")
        try:
            for a in phi:
                for b in phi:
                    if (phi[a] + phi[b] - phi[mul(a, b)]) % 1 != 0:
                        raise ValueError("phi is not a homomorphism")
        except KeyError:
            raise ValueError("phi's domain is not a subgroup: it is not closed under the "
                             "product") from None
        L = self.denominator
        elems = tuple(sorted(phi))
        turns = []
        for k in elems:
            t = phi[k] % 1 * L
            if t.denominator != 1:
                raise ValueError(f"turn {phi[k]} is not a multiple of 1/{L}")
            turns.append(int(t))
        key = conjugacy_classes(self.lattice.conjugations, [(elems, tuple(turns))],
                                self.group.order)[0][0]
        return TwistedOrbitType(self._class_ids[key], l)

    def k_class(self, kphi: int) -> int:
        return self._kclass[kphi]

    def n_t(self, h: TwistedOrbitType, l_type: TwistedOrbitType) -> int:
        """n(H, L): conjugates of L containing H; (H) <= (L) iff it is > 0."""
        if l_type.l % h.l:
            return 0
        return _n_power_phase(self, h.kphi, l_type.kphi, l_type.l // h.l)

    def type_str(self, t: TwistedOrbitType) -> str:
        elems, turns = self.class_keys[t.kphi]
        gens = self.group.generators(elems)  # a small generating set, for display
        phi = dict(zip(elems, turns))
        g = self.group
        gen_str = ",".join(f"{g.elements[x]}" for x in gens) or "e"
        phi_str = ",".join(f"{g.elements[k]}:{Fraction(phi[k], self.denominator)}" for k in gens)
        phi_str = phi_str or "-"
        return f"[{gen_str} | {phi_str} | {t.l}]"


class TwistedSum(SparseSum):
    """Integer combination of twisted orbit types (possibly mixed foldings)."""

    __slots__ = ()

    @classmethod
    def _key(cls, context, t) -> TwistedOrbitType:
        t = TwistedOrbitType(*t)
        if not 0 <= t.kphi < context.n_types or t.l < 1:
            raise ValueError(f"unknown twisted type {t}")
        return t

    def _label(self, t: TwistedOrbitType) -> str:
        return self.owner.type_str(t)


def module_product(a: BurnsideElement, b: TwistedSum) -> TwistedSum:
    """Action of the Burnside ring of Gamma' on twisted sums.

    Bilinear extension of (K) * (H^{phi,l}) computed by the top-down
    recurrence on Weyl-weighted counts; all divisions must be exact.
    """
    if a.owner is not b.owner.lattice:
        raise ValueError("operands live over different lattices")
    return bilinear(a, b, partial(_module_generator_product, b.owner))


@build_once
def twisted_context(lattice: SubgroupClassLattice) -> TwistedContext:
    """The (K, phi)-classes over `lattice`, built once per lattice."""
    return TwistedContext(lattice)


@lru_cache(maxsize=None)
def _n_power_phase(ctx: TwistedContext, kphi1: int, kphi2: int, power: int) -> int:
    """Class-kphi2 pairs (K', phi') with K1 <= K' and phi'|K1 = power * phi1."""
    elems, turns = ctx.class_keys[kphi1]
    L = ctx.denominator
    want = graph_mask(elems, [t * power % L for t in turns], L)
    return sum(1 for graph in _conjugate_masks(ctx, kphi2) if graph & want == want)


@lru_cache(maxsize=None)
def _conjugate_masks(ctx: TwistedContext, kphi: int) -> tuple:
    """One graph mask per conjugate (K', phi') of class kphi: bit k*L + phi'(k).

    The orbit is regenerated from the canonical key on first use, so no
    masks are built for classes no count reads; once built they stay in
    this cache, keyed by the context, and are not freed with it.
    """
    [(_, orbit, _)] = conjugacy_classes(ctx.lattice.conjugations, [ctx.class_keys[kphi]],
                                        ctx.group.order)
    return tuple(graph_mask(*key, ctx.denominator) for key in orbit)


@lru_cache(maxsize=None)
def mark_column(ctx: TwistedContext, kphi: int) -> list:
    """Per class id t, the mark n(t, kphi) |W(kphi)| at equal folding; it can
    be nonzero only where t's K-class lies below kphi's."""
    col, w = [0] * ctx.n_types, ctx.weyl[kphi]
    for c in bits(ctx.lattice.down[ctx.k_class(kphi)]):
        for t in ctx._kphis[c]:
            col[t] = _n_power_phase(ctx, t, kphi, 1) * w
    return col


@lru_cache(maxsize=None)
def _module_generator_product(ctx: TwistedContext, kcls: int, h: TwistedOrbitType):
    """(K) * (H): its mark at a type t of H's folding is n(K_t, K)|W(K)| n(t, H)|W(H)|.

    Types of other foldings, or not under both factors, have mark zero: only
    the K-classes in the down-sets of both (K) and H's K-class are walked.
    """
    lat = ctx.lattice
    col_k, col_h = mark_columns(lat)[kcls], mark_column(ctx, h.kphi)
    # K-classes low to high is top-down: a type lies strictly below another
    # only if its K-class does
    below = bits(lat.down[kcls] & lat.down[ctx.k_class(h.kphi)])
    lead = {kphi: col_k[c] * col_h[kphi] for c in below for kphi in ctx._kphis[c] if col_h[kphi]}
    coeffs = solve_marks(lead, partial(mark_column, ctx), ctx.weyl)
    return {TwistedOrbitType(kphi, h.l): v for kphi, v in coeffs.items()}
