"""Twisted orbit types of S^1 x (Z2 x Z2 x D_N) and their module algebra.

A closed subgroup of S^1 x Gamma' is identified by a triple (K, phi, l):
K <= Gamma', a homomorphism phi from K to the circle (exact rational turns,
held as integers mod the exponent of Gamma' inside a context), and a
folding integer l >= 0, cutting out {(z, k) : phi(k) = z^l}; l = 0 is
reserved for the product subgroups S^1 x K (phi trivial).  Because the
circle factor is central, conjugation only moves the (K, phi) part, so
orbit types are Gamma'-orbits of (K, phi) pairs tagged with l; all
conjugacy tests, subconjugation counts n(H, L) and finite Weyl orders
|W(H)/S^1| are computed exactly inside Gamma'.

A brute-force cross-check realizes types inside the finite quotient
Z_Q x Gamma' (all turns sharing denominator Q); see `quotient_weyl_oracle`
and `module_product_oracle`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .burnside import BurnsideElement
from .errors import ExactnessError
from .groups import SubgroupClassLattice, build_once, generated


class TwistedOrbitType(NamedTuple):
    """Conjugacy class of a twisted subgroup: (K, phi)-class id plus folding."""

    kphi: int
    l: int


@dataclass(frozen=True)
class TwistedSubgroup:
    """A concrete twisted subgroup (K, phi, l) over Gamma'."""

    members: frozenset  # element indices of K
    phi: tuple  # ((elem, turn), ...) sorted by elem
    l: int

    @staticmethod
    def build(lattice, members, phi: dict, l: int) -> "TwistedSubgroup":
        members = frozenset(members)
        if l < 0:
            raise ValueError("folding must be >= 0")
        if l == 0:
            phi = {k: Fraction(0) for k in members}
        g = lattice.group
        if set(phi) != members:
            raise ValueError("phi must be defined exactly on K")
        for a in members:
            for b in members:
                if (phi[a] + phi[b] - phi[g.table[a][b]]) % 1 != 0:
                    raise ValueError("phi is not a homomorphism")
        return TwistedSubgroup(members, tuple(sorted(phi.items())), l)

    def phi_dict(self) -> dict:
        return dict(self.phi)


def _circle_homs(group, members):
    """Integer core of `hom_to_circle`: (q, [{element: turn mod q}, ...]).

    Candidate turns on a greedy generating set of K, as integers mod q (the
    lcm of the generators' orders), give a homomorphism exactly when the
    subgroup of Z_q x K they generate has |K| elements: it is then the graph
    of phi.
    """
    gens = group.generators(sorted(members))
    if not gens:  # trivial subgroup
        return 1, [{group.identity: 0}]
    orders = [group.element_order(g) for g in gens]
    q = math.lcm(*orders)
    tab = group.table

    def mul(a, b):
        return ((a[0] + b[0]) % q, tab[a[1]][b[1]])

    homs = []
    for values in itertools.product(*(range(0, q, q // o) for o in orders)):
        graph = generated(list(zip(values, gens)), mul, [(0, group.identity)], limit=len(members))
        if graph is not None:
            homs.append({k: t for t, k in graph})
    return q, homs


def hom_to_circle(group, members) -> list[dict]:
    """All homomorphisms K -> S^1 as {element: turn} dicts (exact Fractions)."""
    q, homs = _circle_homs(group, members)
    return [{k: Fraction(t, q) for k, t in phi.items()} for phi in homs]


class TwistedContext:
    """Canonical (K, phi)-classes over a fixed Gamma' lattice.

    Class ids are stable and ordered by descending |K| (ties broken by the
    canonical key), a total order refining twisted subconjugation at equal
    folding.  Inside the context a turn is an integer mod `denominator`, the
    exponent L of Gamma' (every phi takes values in (1/L)Z / Z); canonical
    keys are (K tuple, turn tuple) pairs.  Turns leave as Fraction(t, L).
    Since t -> t / L is monotone on 0..L-1, integer keys order as the
    Fraction keys would.
    """

    def __init__(self, lattice: SubgroupClassLattice):
        self.lattice = lattice
        self.group = g = lattice.group
        self.denominator = math.lcm(*(g.element_order(x) for x in range(g.order)))
        self._conj_gens = [
            tuple(g.conj(c, h) for h in range(g.order)) for c in g.generators(range(g.order))
        ]
        self._classes = []  # canonical keys: (K tuple, turn tuple)
        self._class_ids = {}
        # per class, one (K mask, graph mask) per conjugate (K', phi'): K mask
        # has bit k for k in K', graph mask bit k*L + phi'(k)
        self._conjugates = []
        self._weyl = []
        self._kclass = []  # lattice class id of K
        self._n_cache = {}
        self._build()

    # -- construction ------------------------------------------------------

    def _orbit(self, key) -> set:
        """Gamma'-orbit of the (K tuple, turn tuple) key, as a set of keys."""

        def conjugate(key, conj):
            pairs = sorted(zip([conj[k] for k in key[0]], key[1]))
            return tuple(k for k, _ in pairs), tuple(t for _, t in pairs)

        return set(generated(self._conj_gens, conjugate, [key]))

    def _canonical_key(self, phi: dict):
        """Least key in the orbit of (K, phi); phi's turns may be any rationals."""
        L = self.denominator
        elems = tuple(sorted(phi))
        turns = []
        for k in elems:
            t = phi[k] % 1 * L
            if t.denominator != 1:
                raise ValueError(f"turn {phi[k]} is not a multiple of 1/{L}")
            turns.append(int(t))
        return min(self._orbit((elems, tuple(turns))))

    def _build(self):
        lat, L = self.lattice, self.denominator
        found = {}  # canonical key -> (K class, orbit)
        for kclass in range(lat.n_classes):
            elems = lat.reps[kclass].elems
            q, homs = _circle_homs(self.group, elems)
            seen = set()  # orbit keys already met from this K
            for phi in homs:
                own = (elems, tuple(phi[k] * (L // q) for k in elems))
                if own in seen:
                    continue
                orbit = self._orbit(own)
                seen.update(orbit)
                found[min(orbit)] = (kclass, orbit)
        for key in sorted(found, key=lambda key: (-len(key[0]), key)):
            kclass, orbit = found[key]
            # orbit-stabilizer: the phi-preserving normalizer has order |G| / |orbit|
            stab, r = divmod(self.group.order, len(orbit))
            if r or stab % len(key[0]):
                raise ExactnessError("phi-stabilizer order not divisible by |K|")
            self._class_ids[key] = len(self._classes)
            self._classes.append(key)
            self._kclass.append(kclass)
            self._conjugates.append([
                (sum(1 << k for k in elems), self._graph(elems, turns))
                for elems, turns in orbit
            ])
            self._weyl.append(stab // len(key[0]))

    def _graph(self, elems, turns) -> int:
        L = self.denominator
        return sum(1 << (k * L + t) for k, t in zip(elems, turns))

    # -- queries -----------------------------------------------------------

    @property
    def n_types(self) -> int:
        return len(self._classes)

    def canonicalize(self, sub: TwistedSubgroup) -> TwistedOrbitType:
        key = self._canonical_key(sub.phi_dict())
        return TwistedOrbitType(self._class_ids[key], sub.l)

    def type_of(self, members, phi: dict, l: int) -> TwistedOrbitType:
        return self.canonicalize(TwistedSubgroup.build(self.lattice, members, phi, l))

    def representative(self, t: TwistedOrbitType) -> TwistedSubgroup:
        elems, turns = self._classes[t.kphi]
        if t.l == 0:
            turns = (0,) * len(elems)
        phi = tuple((k, Fraction(u, self.denominator)) for k, u in zip(elems, turns))
        return TwistedSubgroup(frozenset(elems), phi, t.l)

    def k_order(self, t) -> int:
        kphi = t.kphi if isinstance(t, TwistedOrbitType) else t
        return len(self._classes[kphi][0])

    def k_class(self, t) -> int:
        kphi = t.kphi if isinstance(t, TwistedOrbitType) else t
        return self._kclass[kphi]

    def weyl_t(self, t) -> int:
        """|W(H)/S^1|: order of the phi-preserving normalizer modulo K."""
        kphi = t.kphi if isinstance(t, TwistedOrbitType) else t
        return self._weyl[kphi]

    def n_t(self, h: TwistedOrbitType, l_type: TwistedOrbitType) -> int:
        """n(H, L): conjugates of L containing H; (H) <= (L) iff it is > 0."""
        if h.l == 0:
            if l_type.l != 0:
                return 0
            return self._n_power_phase(h.kphi, l_type.kphi, 0)
        if l_type.l == 0:
            # K^{phi,l} <= S^1 x K' iff K <= K'
            return self._n_power_phase(h.kphi, l_type.kphi, 0)
        if l_type.l % h.l:
            return 0
        return self._n_power_phase(h.kphi, l_type.kphi, l_type.l // h.l)

    def _n_power_phase(self, kphi1: int, kphi2: int, power: int) -> int:
        """Class-kphi2 pairs (K', phi') with K1 <= K' and phi'|K1 = power * phi1.

        Power 0 counts K1 <= K' alone (a product type on either side).
        """
        got = self._n_cache.get((kphi1, kphi2, power))
        if got is not None:
            return got
        elems, turns = self._classes[kphi1]
        if power:
            want = self._graph(elems, [t * power % self.denominator for t in turns])
            count = sum(1 for _, graph in self._conjugates[kphi2] if graph & want == want)
        else:
            want = sum(1 << k for k in elems)
            count = sum(1 for kmask, _ in self._conjugates[kphi2] if kmask & want == want)
        self._n_cache[(kphi1, kphi2, power)] = count
        return count

    def generating_set(self, t: TwistedOrbitType):
        """Small generating set of the representative's K, for display."""
        return self.group.generators(self._classes[t.kphi][0])

    def type_str(self, t: TwistedOrbitType) -> str:
        elems, turns = self._classes[t.kphi]
        gens = self.generating_set(t)
        phi = dict(zip(elems, turns))
        g = self.group
        gen_str = ",".join(f"{g.elements[x]}" for x in gens) or "e"
        phi_str = ",".join(f"{g.elements[k]}:{Fraction(phi[k], self.denominator)}" for k in gens)
        phi_str = phi_str or "-"
        return f"[{gen_str} | {phi_str} | {t.l}]"


@dataclass(frozen=True)
class TwistedSum:
    """Integer combination of twisted orbit types (possibly mixed foldings)."""

    context: TwistedContext = field(compare=False)
    coeffs: tuple  # sorted ((kphi, l), coeff)

    @staticmethod
    def from_dict(context, d) -> "TwistedSum":
        items = tuple(
            sorted((TwistedOrbitType(*k), v) for k, v in d.items() if v)
        )
        return TwistedSum(context, items)

    @staticmethod
    def zero(context) -> "TwistedSum":
        return TwistedSum(context, ())

    @staticmethod
    def generator(context, t: TwistedOrbitType) -> "TwistedSum":
        return TwistedSum(context, ((t, 1),))

    def as_dict(self) -> dict:
        return {t: v for t, v in self.coeffs}

    def coeff(self, t: TwistedOrbitType) -> int:
        return self.as_dict().get(t, 0)

    def support(self):
        return [t for t, _ in self.coeffs]

    def __add__(self, other: "TwistedSum") -> "TwistedSum":
        if self.context is not other.context:
            raise ValueError("sums live over different twisted contexts")
        d = self.as_dict()
        for t, v in other.coeffs:
            d[t] = d.get(t, 0) + v
        return TwistedSum.from_dict(self.context, d)

    def __neg__(self):
        return TwistedSum(self.context, tuple((t, -v) for t, v in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar: int) -> "TwistedSum":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return TwistedSum.zero(self.context)
        return TwistedSum(self.context, tuple((t, scalar * v) for t, v in self.coeffs))

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{v}*{self.context.type_str(t)}" for t, v in self.coeffs)


def fold(s: int, a: TwistedSum) -> TwistedSum:
    """Pull back every orbit type through the s-folding circle map.

    The preimage of K^{phi,l} under (z, g) -> (z^s, g) is K^{phi, s*l}, so
    folding just rescales the folding tag; it is Z-linear and multiplicative
    in s.
    """
    if s < 1:
        raise ValueError("folding must be >= 1")
    return TwistedSum(
        a.context,
        tuple(sorted((TwistedOrbitType(t.kphi, s * t.l), v) for t, v in a.coeffs)),
    )


def module_product(a: BurnsideElement, b: TwistedSum) -> TwistedSum:
    """Action of the Burnside ring of Gamma' on twisted sums.

    Bilinear extension of (K) * (H^{phi,l}) computed by the top-down
    recurrence on Weyl-weighted counts; all divisions must be exact.
    """
    ctx = b.context
    if a.lattice is not ctx.lattice:
        raise ValueError("operands live over different lattices")
    out: dict = {}
    for kcls, va in a.coeffs:
        for h, vb in b.coeffs:
            for t, v in _module_generator_product(ctx, kcls, h).items():
                out[t] = out.get(t, 0) + va * vb * v
    return TwistedSum.from_dict(ctx, out)


@build_once
def twisted_context(lattice: SubgroupClassLattice) -> TwistedContext:
    """The (K, phi)-classes over `lattice`, built once per lattice."""
    return TwistedContext(lattice)


@lru_cache(maxsize=None)
def _module_generator_product(ctx: TwistedContext, kcls: int, h: TwistedOrbitType):
    lat = ctx.lattice
    wk = lat.weyl[kcls]
    wh = ctx.weyl_t(h)
    # candidate output types: twisted-subconjugate to (H) with K-part
    # subconjugate to (K); same folding as H
    cands = []
    for kphi in range(ctx.n_types):
        t = TwistedOrbitType(kphi, h.l)
        if lat.n_table[ctx.k_class(kphi)][kcls] == 0:
            continue
        if ctx.n_t(t, h) == 0:
            continue
        cands.append(t)
    # context class ids are ordered by descending |K|: already top-down
    res: dict = {}
    for t in cands:
        lead = lat.n_table[ctx.k_class(t)][kcls] * wk * ctx.n_t(t, h) * wh
        above = sum(v * ctx.n_t(t, tt) * ctx.weyl_t(tt) for tt, v in res.items())
        num = lead - above
        den = ctx.weyl_t(t)
        if num % den:
            raise ExactnessError("non-integer coefficient in module product")
        c = num // den
        if c:
            res[t] = c
    return res


# -- finite-quotient oracles -------------------------------------------------


def _quotient_denominator(ctx: TwistedContext, types, extra: int = 1) -> int:
    """Common circle denominator Q so that every phi value and folding fits."""
    q = extra
    for t in types:
        q = math.lcm(q, max(t.l, 1))
        for turn in ctx._classes[t.kphi][1]:
            q = math.lcm(q, Fraction(turn, ctx.denominator).denominator * max(t.l, 1))
    return q


def realize_in_quotient(ctx: TwistedContext, t: TwistedOrbitType, q: int):
    """Element set of the representative twisted subgroup inside Z_q x Gamma'."""
    rep = ctx.representative(t)
    phi = rep.phi_dict()
    out = set()
    for k in rep.members:
        if t.l == 0:
            for z in range(q):
                out.add((z, k))
        else:
            target = phi[k]
            for z in range(q):
                if (Fraction(z * t.l, q) - target) % 1 == 0:
                    out.add((z, k))
    return frozenset(out)


def quotient_weyl_oracle(ctx: TwistedContext, t: TwistedOrbitType, q: int | None = None) -> int:
    """|W(H)/S^1| recomputed by brute-force normalizer in Z_q x Gamma'."""
    if q is None:
        q = _quotient_denominator(ctx, [t], extra=2)
    g = ctx.group
    tab, inv = g.table, g.inverse
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
    # for product types the circle sits inside H, so the Weyl group is finite
    circle_order = 1 if t.l == 0 else q // t.l
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
    tab, inv = g.table, g.inverse
    order = g.order * q

    def mul(a, b):
        return ((a[0] + b[0]) % q, tab[a[1]][b[1]])

    def invq(a):
        return ((-a[0]) % q, inv[a[1]])

    kmembers = ctx.lattice.reps[kcls].members
    prod_sub = frozenset((z, k) for z in range(q) for k in kmembers)
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
    members = frozenset(k for _z, k in iso)
    phi = {}
    for z, k in iso:
        phi[k] = Fraction(z * l, q) % 1
    return ctx.type_of(members, phi, l)
