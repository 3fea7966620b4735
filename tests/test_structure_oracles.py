"""Oracles for the structure layer, kept apart from the production path.

Production lists subgroups by their known form (Goursat's lemma) and circle
homomorphisms through K^ab.  The oracles here find them by search instead:
- the member-union cyclic extension closes each cyclic subgroup together
  with every member of the subgroup it extends;
- the generator cyclic extension closes a subgroup's generator tuple plus
  one cyclic generator, coset by coset;
- the candidate closure tries every turn vector on a generating set and
  keeps those whose generated subgroup of Z_q x K is a graph;
- the class oracle conjugates every subgroup by every element;
- the orbit oracle builds the (K, phi)-classes with Fraction keys and
  conjugates by every element;
- the commutator oracle closes every commutator of each subgroup.
Every product here comes from the Cayley table of the element records
(`oracles.groups.cayley`), never from production's closed form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from ringwaves.groups import (
    SubgroupClassLattice,
    dihedral_group,
    enumerate_subgroups,
    gamma_prime,
    gamma_prime_lattice,
    generated,
)
from ringwaves.twisted import TwistedOrbitType, _commutator_subgroup, twisted_context

from oracles.groups import cayley
from oracles.twisted import hom_to_circle, representative


def member_union_subgroups(group):
    """Subgroup element tuples by cyclic extension over all members."""
    tab = cayley(group)
    trivial = frozenset({tab.identity})
    cyclics = {tab.closure([g]) for g in range(group.order)} - {trivial}
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
                k = tab.closure(sorted(union))
                if k not in subs:
                    subs.add(k)
                    new.append(k)
        frontier = new
    return sorted((tuple(sorted(s)) for s in subs), key=lambda s: (len(s), s))


@pytest.mark.parametrize("n", range(3, 11))
def test_subgroups_match_member_union_extension(n):
    group = gamma_prime(n)
    assert enumerate_subgroups(group) == member_union_subgroups(group)


def cyclic_extension_subgroups(group):
    """Subgroup element tuples by cyclic extension of generator tuples.

    Each subgroup H found keeps the generator tuple that reached it, so
    adjoining the cyclic subgroup <g> closes that tuple plus g, in right
    cosets of H.  Complete because every subgroup is reached from any
    maximal chain of subgroups below it.
    """
    oracle = cayley(group)
    tab, identity = oracle.table, oracle.identity
    bits = [1 << i for i in range(group.order)]

    def close(gens, base):
        return generated(gens, lambda a, x: tab[a][x], base)

    def mask(members):
        return sum(bits[i] for i in members)

    found = {}  # subgroup mask -> (generator tuple, members with identity first)
    for g in range(group.order):
        members = close([g], [identity])
        found.setdefault(mask(members), ((g,), members))
    trivial = bits[identity]
    found[trivial] = ((), [identity])
    cyclics = sorted(
        (c for c in found if c != trivial), key=lambda c: (len(found[c][1]), sorted(found[c][1]))
    )
    cyclics = [(c, found[c][0][0]) for c in cyclics]
    frontier = [c for c, _ in cyclics]
    seen_unions = set(found)
    full = (1 << group.order) - 1
    while frontier:
        new = []
        for h in frontier:
            if h == full:
                continue
            h_gens, h_members = found[h]
            for c, g in cyclics:
                union = h | c
                if union == h or union in seen_unions:
                    continue
                seen_unions.add(union)
                k_gens = h_gens + (g,)
                members = close(k_gens, h_members)
                k = mask(members)
                if k not in found:
                    found[k] = (k_gens, members)
                    new.append(k)
        frontier = new
    return sorted((tuple(sorted(members)) for _, members in found.values()),
                  key=lambda s: (len(s), s))


def element_conjugation_classes(group, subgroups):
    """(representatives, Weyl orders, n table) from conjugation by every element.

    Classes are ordered by descending order, then representative tuple; the
    representative is the least conjugate, |W(H)| = |G| / |class| / |H|,
    and n(H, K) counts the conjugates of K that contain H.
    """
    conj = cayley(group).conj
    ids = {frozenset(s): i for i, s in enumerate(subgroups)}
    classes = {}
    for s in subgroups:
        orbit = {frozenset(conj(g, h) for h in s) for g in range(group.order)}
        classes[min(tuple(sorted(m)) for m in orbit)] = orbit
    reps = sorted(classes, key=lambda r: (-len(r), r))
    assert sum(len(o) for o in classes.values()) == len(ids)
    weyl = [group.order // len(classes[r]) // len(r) for r in reps]
    n_table = tuple(
        tuple(sum(1 for m in classes[k] if set(h) <= m) for k in reps) for h in reps
    )
    return reps, weyl, n_table


def candidate_closure_homs(group, members):
    """Homomorphisms K -> S^1 as {element: Fraction} dicts, by candidate closure.

    Candidate turns on a greedy generating set of K, as integers mod q (the
    lcm of the generators' orders), give a homomorphism exactly when the
    subgroup of Z_q x K they generate has |K| elements: it is then the graph
    of phi.
    """
    oracle = cayley(group)
    gens = oracle.generators(sorted(members))
    if not gens:  # trivial subgroup
        return [{oracle.identity: Fraction(0)}]
    orders = [oracle.element_order(g) for g in gens]
    q = math.lcm(*orders)
    tab = oracle.table

    def mul(a, b):
        return ((a[0] + b[0]) % q, tab[a[1]][b[1]])

    homs = []
    for values in itertools.product(*(range(0, q, q // o) for o in orders)):
        graph = generated(list(zip(values, gens)), mul, [(0, oracle.identity)], limit=len(members))
        if graph is not None:
            homs.append({k: Fraction(t, q) for t, k in graph})
    return homs


GROUPS = [(build, n) for n in range(3, 13) for build in (dihedral_group, gamma_prime)]
GROUP_IDS = [f"{build.__name__}-{n}" for build, n in GROUPS]


@pytest.mark.parametrize("build, n", GROUPS, ids=GROUP_IDS)
def test_lattice_matches_cyclic_extension_and_element_conjugation(build, n):
    group = build(n)
    subgroups = cyclic_extension_subgroups(group)
    assert enumerate_subgroups(group) == subgroups
    lat = SubgroupClassLattice(group)
    reps, weyl, n_table = element_conjugation_classes(group, subgroups)
    assert list(lat.reps) == reps
    assert lat.weyl == weyl
    assert lat.n_table == n_table
    assert lat.down == [sum(1 << h for h, row in enumerate(n_table) if row[k])
                        for k in range(lat.n_classes)]


@pytest.mark.parametrize("build, n", GROUPS, ids=GROUP_IDS)
def test_circle_homs_match_candidate_closure(build, n):
    group = build(n)
    for sub in enumerate_subgroups(group):
        got = [tuple(sorted(phi.items())) for phi in hom_to_circle(group, sub)]
        want = {tuple(sorted(phi.items())) for phi in candidate_closure_homs(group, sub)}
        assert len(set(got)) == len(got) and set(got) == want, sub


@pytest.mark.parametrize("build, n", GROUPS, ids=GROUP_IDS)
def test_commutator_subgroup_closed_form_matches_closure(build, n):
    group = build(n)
    oracle = cayley(group)
    for sub in enumerate_subgroups(group):
        commutators = {oracle.table[oracle.conj(a, b)][oracle.inverse[b]] for a in sub for b in sub}
        assert _commutator_subgroup(group, sub) == oracle.closure(sorted(commutators)), sub


def fraction_orbit_classes(lattice):
    """(key, Weyl order, K class) per (K, phi)-class, with Fraction keys.

    Orbits run over conjugation by every element; the classes are ordered by
    descending |K|, then key, and the Weyl order is |G| / |orbit| / |K|.
    """
    group = lattice.group
    oracle = cayley(group)
    found = {}
    for kclass, rep in enumerate(lattice.reps):
        homs = hom_to_circle(group, rep)
        commutators = [oracle.table[oracle.conj(a, b)][oracle.inverse[b]]
                       for a in rep for b in rep]
        # Hom(K, S^1) is the dual of the abelianization K / [K, K]
        assert len(homs) == len(rep) // len(oracle.closure(sorted(set(commutators))))
        seen = set()
        for phi in homs:
            if (rep, tuple(phi[k] for k in rep)) in seen:
                continue
            orbit = set()
            for c in range(group.order):
                pairs = {oracle.conj(c, k): t for k, t in phi.items()}
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
        rep = representative(ctx, TwistedOrbitType(kphi, 1))
        key = (tuple(k for k, _ in rep.phi), tuple(t for _, t in rep.phi))
        got.append((key, ctx.weyl[kphi], ctx.k_class(kphi)))
    assert got == fraction_orbit_classes(lattice)
    assert all(type(t) is int for _, turns in ctx.class_keys for t in turns)


def test_subconjugation_counts_match_fraction_orbits(lat3, ctx3):
    conj = cayley(lat3.group).conj

    def conjugates(kphi):
        rep = representative(ctx3, TwistedOrbitType(kphi, 1))
        return {
            frozenset((conj(c, k), t) for k, t in rep.phi) for c in range(lat3.group.order)
        }

    orbits = [conjugates(kphi) for kphi in range(ctx3.n_types)]
    for h in range(0, ctx3.n_types, 3):
        small = representative(ctx3, TwistedOrbitType(h, 1)).phi
        for l_type in range(0, ctx3.n_types, 2):
            for power in (1, 2):
                want = {(k, t * power % 1) for k, t in small}
                count = sum(1 for big in orbits[l_type] if want <= big)
                assert ctx3.n_t(TwistedOrbitType(h, 1), TwistedOrbitType(l_type, power)) == count
