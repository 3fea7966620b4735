"""Oracles for the structure layer, kept apart from the production path.

The subgroup oracle is the member-union cyclic extension (closing each
cyclic subgroup together with every member of the subgroup it extends);
the orbit oracle builds the (K, phi)-classes with Fraction keys and
conjugates by every element.  Neither uses generator lists, cosets, integer
turns or bit masks.
"""

from __future__ import annotations

import pytest

from ringwaves.groups import enumerate_subgroups, gamma_prime, gamma_prime_lattice
from ringwaves.twisted import TwistedOrbitType, hom_to_circle, twisted_context


def _closure(group, gens):
    """Element indices generated by `gens`, by breadth-first search."""
    seen = {group.identity}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = group.table[a][g]
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return frozenset(seen)


def member_union_subgroups(group):
    """Subgroup element tuples by cyclic extension over all members."""
    trivial = frozenset({group.identity})
    cyclics = {_closure(group, [g]) for g in range(group.order)} - {trivial}
    cyclics = sorted(cyclics, key=lambda s: (len(s), sorted(s)))
    subs = {trivial, *cyclics}
    frontier = list(cyclics)
    seen_unions = set(subs)
    while frontier:
        new = []
        for h in frontier:
            for c in cyclics:
                union = h | c
                if c <= h or union in seen_unions:
                    continue
                seen_unions.add(union)
                k = _closure(group, sorted(union))
                if k not in subs:
                    subs.add(k)
                    new.append(k)
        frontier = new
    return sorted((tuple(sorted(s)) for s in subs), key=lambda s: (len(s), s))


@pytest.mark.parametrize("n", range(3, 11))
def test_subgroups_match_member_union_extension(n):
    group = gamma_prime(n)
    assert [s.elems for s in enumerate_subgroups(group)] == member_union_subgroups(group)


def fraction_orbit_classes(lattice):
    """(key, Weyl order, K class) per (K, phi)-class, with Fraction keys.

    Orbits run over conjugation by every element; the classes are ordered by
    descending |K|, then key, and the Weyl order is |G| / |orbit| / |K|.
    """
    group = lattice.group
    found = {}
    for kclass, rep in enumerate(lattice.reps):
        homs = hom_to_circle(group, rep.elems)
        commutators = [group.mul(group.conj(a, b), group.inv(b)) for a in rep.elems for b in rep.elems]
        # Hom(K, S^1) is the dual of the abelianization K / [K, K]
        assert len(homs) == rep.order // len(_closure(group, sorted(set(commutators))))
        seen = set()
        for phi in homs:
            if (rep.elems, tuple(phi[k] for k in rep.elems)) in seen:
                continue
            orbit = set()
            for c in range(group.order):
                pairs = {group.conj(c, k): t for k, t in phi.items()}
                orbit.add((tuple(sorted(pairs)), tuple(pairs[k] for k in sorted(pairs))))
            seen |= orbit
            found[min(orbit)] = (kclass, len(orbit))
    keys = sorted(found, key=lambda key: (-len(key[0]), key))
    return [(key, group.order // found[key][1] // len(key[0]), found[key][0]) for key in keys]


@pytest.mark.parametrize("n", range(3, 9))
def test_twisted_classes_match_fraction_orbit_build(n):
    lattice = gamma_prime_lattice(n)
    ctx = twisted_context(lattice)
    got = []
    for kphi in range(ctx.n_types):
        rep = ctx.representative(TwistedOrbitType(kphi, 1))
        key = (tuple(k for k, _ in rep.phi), tuple(t for _, t in rep.phi))
        got.append((key, ctx.weyl_t(kphi), ctx.k_class(kphi)))
    assert got == fraction_orbit_classes(lattice)
    assert all(type(t) is int for _, turns in ctx._classes for t in turns)


def test_subconjugation_counts_match_fraction_orbits(lat3, ctx3):
    els, index = lat3.group.elements, lat3.group.index

    def conjugates(kphi):
        rep = ctx3.representative(TwistedOrbitType(kphi, 1))
        return {
            frozenset((index[c * els[k] * c.inverse()], t) for k, t in rep.phi) for c in els
        }

    orbits = [conjugates(kphi) for kphi in range(ctx3.n_types)]
    for h in range(0, ctx3.n_types, 3):
        small = ctx3.representative(TwistedOrbitType(h, 1)).phi
        for l_type in range(0, ctx3.n_types, 2):
            for power in (1, 2):
                want = {(k, t * power % 1) for k, t in small}
                count = sum(1 for big in orbits[l_type] if want <= big)
                assert ctx3.n_t(TwistedOrbitType(h, 1), TwistedOrbitType(l_type, power)) == count
            k_small = {k for k, _ in small}
            count = sum(1 for big in orbits[l_type] if k_small <= {k for k, _ in big})
            assert ctx3.n_t(TwistedOrbitType(h, 0), TwistedOrbitType(l_type, 0)) == count
