from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ringwaves.burnside import BurnsideElement
from ringwaves.degrees import maximal_kind_types
from ringwaves.groups import DihedralElement, GammaPrimeElement
from ringwaves.reps import DressedIrrep, GIrrep, character_table
from ringwaves.twisted import (
    TwistedOrbitType,
    TwistedSubgroup,
    TwistedSum,
    fold,
    hom_to_circle,
    module_product,
    module_product_oracle,
    quotient_weyl_oracle,
    twisted_context,
    _module_generator_product,
)


def reflection_subgroup(lat, rot):
    g = lat.group
    refl = g.index[GammaPrimeElement(1, 1, DihedralElement(rot, True, 3))]
    return frozenset({g.identity, refl}), refl


def test_hom_enumeration_counts(lat3):
    g = lat3.group
    # homs of the full group = characters of its abelianization Z2^3 (odd N)
    full = frozenset(range(g.order))
    assert len(hom_to_circle(g, full)) == 8
    triv = frozenset({g.identity})
    assert hom_to_circle(g, triv) == [{g.identity: Fraction(0)}]


def test_reflection_types_conjugate(lat3, ctx3):
    sub1, r1 = reflection_subgroup(lat3, 0)
    sub2, r2 = reflection_subgroup(lat3, 1)
    g = lat3.group
    phi1 = {g.identity: Fraction(0), r1: Fraction(1, 2)}
    phi2 = {g.identity: Fraction(0), r2: Fraction(1, 2)}
    t1 = ctx3.type_of(sub1, phi1, 1)
    t2 = ctx3.type_of(sub2, phi2, 1)
    assert t1 == t2


def test_product_type_for_trivial_phi(lat3, ctx3):
    sub, _ = reflection_subgroup(lat3, 0)
    t = ctx3.type_of(sub, {k: Fraction(0) for k in sub}, 0)
    rep = ctx3.representative(t)
    assert rep.l == 0
    assert all(v == 0 for _, v in rep.phi)


def test_canonical_form_stable_under_identity(lat3, ctx3):
    sub, r = reflection_subgroup(lat3, 2)
    phi = {lat3.group.identity: Fraction(0), r: Fraction(1, 2)}
    t = ctx3.type_of(sub, phi, 3)
    assert ctx3.canonicalize(TwistedSubgroup.build(lat3, sub, phi, 3)) == t


def test_invalid_homomorphism_rejected(lat3):
    sub, r = reflection_subgroup(lat3, 0)
    with pytest.raises(ValueError):
        TwistedSubgroup.build(lat3, sub, {lat3.group.identity: Fraction(0), r: Fraction(1, 3)}, 1)


def test_subconjugation_reflexive_and_trivial(lat3, ctx3):
    sub, r = reflection_subgroup(lat3, 0)
    phi = {lat3.group.identity: Fraction(0), r: Fraction(1, 2)}
    t = ctx3.type_of(sub, phi, 1)
    n = ctx3.n_t(t, t)
    assert n == 1
    triv = ctx3.type_of(frozenset({lat3.group.identity}), {lat3.group.identity: Fraction(0)}, 1)
    n = ctx3.n_t(triv, t)
    assert n >= 1


def test_incompatible_foldings(lat3, ctx3):
    sub, r = reflection_subgroup(lat3, 0)
    phi = {lat3.group.identity: Fraction(0), r: Fraction(1, 2)}
    t1 = ctx3.type_of(sub, phi, 1)
    t2 = ctx3.type_of(sub, phi, 2)
    t3 = ctx3.type_of(sub, phi, 3)
    assert ctx3.n_t(t2, t3) == 0  # 2 does not divide 3
    assert ctx3.n_t(t1, t2) >= 0  # 1 divides 2: phase must square-match
    prod = ctx3.type_of(sub, {k: Fraction(0) for k in sub}, 0)
    assert ctx3.n_t(prod, t1) == 0  # product types never sit under twisted ones
    assert ctx3.n_t(t1, prod) == 1


def test_distinct_maximal_types_incomparable(ctx3):
    rep = GIrrep(1, DressedIrrep(character_table(3)[1], 0))
    mk = maximal_kind_types(rep, ctx3)
    assert len(mk) == 3
    for a in mk:
        for b in mk:
            if a != b:
                assert ctx3.n_t(a, b) == 0


def test_module_identity_action(lat3, ctx3):
    one = BurnsideElement.one(lat3)
    sub, r = reflection_subgroup(lat3, 0)
    phi = {lat3.group.identity: Fraction(0), r: Fraction(1, 2)}
    s = TwistedSum.generator(ctx3, ctx3.type_of(sub, phi, 1))
    assert module_product(one, s) == s


def test_module_product_matches_quotient_oracle(lat3, ctx3):
    rng = random.Random(11)
    kinds = list(range(0, ctx3.n_types, 9))
    for kcls in (0, 3, lat3.n_classes - 1):
        for kphi in kinds:
            h = TwistedOrbitType(kphi, 1)
            want = _module_generator_product(ctx3, kcls, h)
            got = {t: v for t, v in module_product_oracle(ctx3, kcls, h).items() if v}
            assert got == want, (kcls, kphi)


def test_module_product_distributes(lat3, ctx3):
    sub, r = reflection_subgroup(lat3, 0)
    phi = {lat3.group.identity: Fraction(0), r: Fraction(1, 2)}
    t1 = TwistedSum.generator(ctx3, ctx3.type_of(sub, phi, 1))
    full = frozenset(range(lat3.group.order))
    hom = hom_to_circle(lat3.group, full)[1]
    t2 = TwistedSum.generator(ctx3, ctx3.type_of(full, hom, 1))
    a = BurnsideElement.generator(lat3, 2)
    assert module_product(a, t1 + t2) == module_product(a, t1) + module_product(a, t2)


def test_weyl_oracle_agrees(ctx3):
    for kphi in range(0, ctx3.n_types, 11):
        t = TwistedOrbitType(kphi, 1)
        assert quotient_weyl_oracle(ctx3, t) == ctx3.weyl_t(t)
    t0 = TwistedOrbitType(0, 0)
    assert quotient_weyl_oracle(ctx3, t0) == ctx3.weyl_t(t0)


def test_fold_linear_and_multiplicative(ctx3):
    rep = GIrrep(1, DressedIrrep(character_table(3)[1], 1))
    from ringwaves.degrees import twisted_basic_degree

    deg = twisted_basic_degree(rep, ctx3)
    assert fold(1, deg) == deg
    assert fold(2, fold(3, deg)) == fold(6, deg)
    folded = fold(2, deg)
    assert all(t.l == 2 for t, _ in folded.coeffs)


def test_fold_preimage_elementwise(lat3, ctx3):
    # folding doubles the folding tag and preserves the finite data
    sub, r = reflection_subgroup(lat3, 0)
    phi = {lat3.group.identity: Fraction(0), r: Fraction(1, 2)}
    t = ctx3.type_of(sub, phi, 1)
    folded = fold(2, TwistedSum.generator(ctx3, t))
    ((t2, coeff),) = folded.coeffs
    assert coeff == 1 and t2 == TwistedOrbitType(t.kphi, 2)
    # and the preimage subgroup realized in a quotient has doubled circle part
    from ringwaves.twisted import realize_in_quotient

    q = 8
    h1 = realize_in_quotient(ctx3, t, q)
    h2 = realize_in_quotient(ctx3, t2, q)
    # the folded subgroup is exactly the preimage under z -> 2z
    assert h2 == frozenset((z, k) for z in range(q) for zz, k in h1 if (2 * z) % q == zz)
    assert len(h2) == 2 * len(h1)


def test_maximal_fold_separation(ctx3):
    # the same finite data at different foldings is never identified
    from ringwaves.groups import gamma_prime_lattice

    for n_ring in (3, 4, 6):
        ctx = ctx3 if n_ring == 3 else twisted_context(gamma_prime_lattice(n_ring))
        for j, ir in enumerate(character_table(n_ring)):
            if ir.dim != 2:
                continue
            collected = {}
            for m in range(1, 10):
                repm = GIrrep(m, DressedIrrep(ir, 0))
                mkm = maximal_kind_types(repm, ctx)
                assert all(t.l == m for t in mkm)
                collected[m] = set(mkm)
            kphis = {frozenset(t.kphi for t in v) for v in collected.values()}
            assert len(kphis) == 1  # same finite data across foldings
            for m in collected:
                for mp in collected:
                    if m != mp:
                        assert not collected[m] & collected[mp]


def test_type_str_roundtrippable(ctx3):
    t = TwistedOrbitType(1, 1)
    s = ctx3.type_str(t)
    assert s.startswith("[") and s.endswith("| 1]")


def test_type_of_takes_turns_outside_the_unit_interval(lat3, ctx3):
    full = frozenset(range(lat3.group.order))
    hom = hom_to_circle(lat3.group, full)[1]
    t = ctx3.type_of(full, hom, 1)
    # every turn here is 0 or 1/2, so -phi and phi + 1 are phi mod 1
    assert ctx3.type_of(full, {k: v + 1 for k, v in hom.items()}, 1) == t
    assert ctx3.type_of(full, {k: -v for k, v in hom.items()}, 1) == t


def test_concurrent_misses_build_each_structure_once(monkeypatch):
    import threading
    from collections import Counter
    from concurrent.futures import ThreadPoolExecutor

    from ringwaves.groups import SubgroupClassLattice, gamma_prime_lattice
    from ringwaves.twisted import TwistedContext

    built = Counter()
    for cls in (SubgroupClassLattice, TwistedContext):

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    barrier = threading.Barrier(4)

    def work(_):
        barrier.wait()  # all four miss the caches together
        return twisted_context(gamma_prime_lattice(11))  # N built by no other test

    with ThreadPoolExecutor(max_workers=4) as pool:
        contexts = list(pool.map(work, range(4)))
    assert all(ctx is contexts[0] for ctx in contexts)
    assert built == {"SubgroupClassLattice": 1, "TwistedContext": 1}
