from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringwaves.burnside import BurnsideElement
from ringwaves.groups import DihedralElement, GammaPrimeElement, gamma_prime_lattice
from ringwaves.reps import DressedIrrep, GIrrep, character_table
from ringwaves.twisted import (
    TwistedContext,
    TwistedOrbitType,
    TwistedSum,
    module_product,
    twisted_context,
    _conjugate_masks,
    _module_generator_product,
)

from oracles.degrees import maximal_kind_types
from oracles.twisted import (
    fold,
    hom_to_circle,
    is_circle_hom,
    module_product_oracle,
    quotient_weyl_oracle,
    realize_in_quotient,
    representative,
)


def reflection(lat, rot):
    """Index of the reflection g^rot k in Gamma'_3."""
    return lat.group.elements.index(GammaPrimeElement(1, 1, DihedralElement(rot, True, 3)))


def test_hom_enumeration_counts(lat3):
    g = lat3.group
    # homs of the full group = characters of its abelianization Z2^3 (odd N)
    assert len(hom_to_circle(g, tuple(range(g.order)))) == 8
    assert hom_to_circle(g, (g.identity,)) == [{g.identity: Fraction(0)}]


def test_reflection_types_conjugate(lat3, ctx3):
    r1, r2 = reflection(lat3, 0), reflection(lat3, 1)
    g = lat3.group
    phi1 = {g.identity: Fraction(0), r1: Fraction(1, 2)}
    phi2 = {g.identity: Fraction(0), r2: Fraction(1, 2)}
    t1 = ctx3.type_of(phi1, 1)
    t2 = ctx3.type_of(phi2, 1)
    assert t1 == t2


def test_type_of_rejects_folding_zero(lat3, ctx3):
    # the twisted module has no folding-0 types: S^1 x K is the Burnside ring's (K)
    phi = {lat3.group.identity: Fraction(0), reflection(lat3, 0): Fraction(0)}
    with pytest.raises(ValueError, match="folding must be >= 1"):
        ctx3.type_of(phi, 0)
    # nor does a twisted sum take one: n_t would divide by the folding
    for key in ((0, 0), (ctx3.n_types, 1), (-1, 1)):
        with pytest.raises(ValueError, match="unknown twisted type"):
            TwistedSum.generator(ctx3, key)


def test_canonical_form_stable_under_identity(lat3, ctx3):
    # a type's representative leads back to the type
    r = reflection(lat3, 2)
    t = ctx3.type_of({lat3.group.identity: Fraction(0), r: Fraction(1, 2)}, 3)
    for kphi in (t.kphi, *range(0, ctx3.n_types, 7)):
        u = TwistedOrbitType(kphi, 3)
        rep = representative(ctx3, u)
        assert ctx3.type_of(dict(rep.phi), rep.l) == u


def test_invalid_homomorphism_rejected(lat3, ctx3):
    r = reflection(lat3, 0)
    with pytest.raises(ValueError):
        ctx3.type_of({lat3.group.identity: Fraction(0), r: Fraction(1, 3)}, 1)


def test_type_of_rejects_a_domain_that_is_not_a_subgroup(lat3, ctx3):
    # K is phi's domain: {e, g} misses g^2, {e, g k, k} misses g, and the
    # empty domain (once a ZeroDivisionError) and {g} miss the identity
    e, g = lat3.group.identity, 1
    cases = [
        ((e, g), "is not closed"),
        ((e, reflection(lat3, 1), reflection(lat3, 0)), "is not closed"),
        ((), "misses the identity"),
        ((g,), "misses the identity"),
    ]
    for domain, why in cases:
        with pytest.raises(ValueError, match=f"domain is not a subgroup: it {why}"):
            ctx3.type_of(dict.fromkeys(domain, Fraction(0)), 1)


@settings(max_examples=200)
@given(st.data())
def test_type_of_rejects_exactly_the_non_homomorphisms(data):
    # the verdict of type_of's homomorphism check against the oracle's pairwise
    # one; a moved turn need not break the map (on K = {e, x}, phi(x) = 1/2
    # moved by 1/2 is the trivial homomorphism)
    lat = gamma_prime_lattice(data.draw(st.integers(3, 8), label="N"))
    ctx = twisted_context(lat)
    members = data.draw(st.sampled_from(lat.reps), label="K")
    phi = data.draw(st.sampled_from(hom_to_circle(lat.group, members)), label="phi")
    l = data.draw(st.integers(1, 3), label="l")
    if data.draw(st.booleans(), label="move"):
        k = data.draw(st.sampled_from(members), label="moved element")
        L = ctx.denominator
        phi = {**phi, k: phi[k] + Fraction(data.draw(st.integers(1, L - 1), label="d"), L)}
    if is_circle_hom(lat.group, phi):
        assert ctx.type_of(phi, l).l == l
    else:
        with pytest.raises(ValueError, match="not a homomorphism"):
            ctx.type_of(phi, l)


def test_subconjugation_reflexive_and_trivial(lat3, ctx3):
    r = reflection(lat3, 0)
    phi = {lat3.group.identity: Fraction(0), r: Fraction(1, 2)}
    t = ctx3.type_of(phi, 1)
    n = ctx3.n_t(t, t)
    assert n == 1
    triv = ctx3.type_of({lat3.group.identity: Fraction(0)}, 1)
    n = ctx3.n_t(triv, t)
    assert n >= 1


def test_incompatible_foldings(lat3, ctx3):
    r = reflection(lat3, 0)
    phi = {lat3.group.identity: Fraction(0), r: Fraction(1, 2)}
    t1 = ctx3.type_of(phi, 1)
    t2 = ctx3.type_of(phi, 2)
    t3 = ctx3.type_of(phi, 3)
    assert ctx3.n_t(t2, t3) == 0  # 2 does not divide 3
    assert ctx3.n_t(t1, t2) >= 0  # 1 divides 2: phase must square-match


def test_distinct_maximal_types_incomparable(ctx3):
    rep = GIrrep(1, DressedIrrep(character_table(3)[1], 0))
    mk = maximal_kind_types(rep, ctx3)
    assert len(mk) == 3
    for a in mk:
        for b in mk:
            if a != b:
                assert ctx3.n_t(a, b) == 0


@pytest.mark.parametrize("n", range(3, 13))
def test_trivial_phi_classes_are_the_lattice_classes(n):
    # a subgroup K is the pair (K, phi = 0): both structures find it by one routine
    lat = gamma_prime_lattice(n)
    ctx = twisted_context(lat)
    class_sizes = Counter(map(lat.class_id, lat.subgroups))
    for c, rep in enumerate(lat.reps):
        kphi = ctx._class_ids[rep, (0,) * len(rep)]
        assert ctx.k_class(kphi) == c
        assert ctx.weyl[kphi] == lat.weyl[c]
        assert len(_conjugate_masks(ctx, kphi)) == class_sizes[c]


def test_conjugate_masks_are_built_on_first_use(lat3):
    before = _conjugate_masks.cache_info().currsize
    ctx = TwistedContext(lat3)
    assert _conjugate_masks.cache_info().currsize == before
    assert ctx.n_t(TwistedOrbitType(0, 1), TwistedOrbitType(0, 1)) == 1
    assert _conjugate_masks.cache_info().currsize == before + 1


def test_module_identity_action(lat3, ctx3):
    one = BurnsideElement.one(lat3)
    r = reflection(lat3, 0)
    phi = {lat3.group.identity: Fraction(0), r: Fraction(1, 2)}
    s = TwistedSum.generator(ctx3, ctx3.type_of(phi, 1))
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


def test_module_product_matches_quotient_oracle_at_n4():
    # at N = 4 the down-set cut walks few of the 583 (K, phi)-classes
    lat = gamma_prime_lattice(4)
    ctx = twisted_context(lat)
    for kcls in [*range(0, lat.n_classes, 7), lat.n_classes - 1]:
        for kphi in range(3, ctx.n_types, 16):
            h = TwistedOrbitType(kphi, 1)
            want = _module_generator_product(ctx, kcls, h)
            got = {t: v for t, v in module_product_oracle(ctx, kcls, h).items() if v}
            assert got == want, (kcls, kphi)


def test_module_product_distributes(lat3, ctx3):
    r = reflection(lat3, 0)
    phi = {lat3.group.identity: Fraction(0), r: Fraction(1, 2)}
    t1 = TwistedSum.generator(ctx3, ctx3.type_of(phi, 1))
    hom = hom_to_circle(lat3.group, tuple(range(lat3.group.order)))[1]
    t2 = TwistedSum.generator(ctx3, ctx3.type_of(hom, 1))
    a = BurnsideElement.generator(lat3, 2)
    assert module_product(a, t1 + t2) == module_product(a, t1) + module_product(a, t2)


def test_weyl_oracle_agrees(ctx3):
    for kphi in range(0, ctx3.n_types, 11):
        t = TwistedOrbitType(kphi, 1)
        assert quotient_weyl_oracle(ctx3, t) == ctx3.weyl[t.kphi]


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
    r = reflection(lat3, 0)
    phi = {lat3.group.identity: Fraction(0), r: Fraction(1, 2)}
    t = ctx3.type_of(phi, 1)
    folded = fold(2, TwistedSum.generator(ctx3, t))
    ((t2, coeff),) = folded.coeffs
    assert coeff == 1 and t2 == TwistedOrbitType(t.kphi, 2)
    # and the preimage subgroup realized in a quotient has doubled circle part
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
    hom = hom_to_circle(lat3.group, tuple(range(lat3.group.order)))[1]
    t = ctx3.type_of(hom, 1)
    # every turn here is 0 or 1/2, so -phi and phi + 1 are phi mod 1
    assert ctx3.type_of({k: v + 1 for k, v in hom.items()}, 1) == t
    assert ctx3.type_of({k: -v for k, v in hom.items()}, 1) == t


def test_concurrent_misses_build_each_structure_once(monkeypatch):
    import threading
    from collections import Counter
    from concurrent.futures import ThreadPoolExecutor

    from ringwaves import groups, twisted
    from ringwaves.groups import SubgroupClassLattice, build_once
    from ringwaves.twisted import TwistedContext

    # fresh memo tables: whatever other tests built, every structure here misses
    for module, name in ((groups, "gamma_prime_lattice"), (twisted, "twisted_context")):
        monkeypatch.setattr(module, name, build_once(getattr(module, name).__wrapped__))
    built = Counter()
    for cls in (SubgroupClassLattice, TwistedContext):

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    barrier = threading.Barrier(4)

    def work(_):
        barrier.wait()  # all four miss the caches together
        return twisted.twisted_context(groups.gamma_prime_lattice(11))

    with ThreadPoolExecutor(max_workers=4) as pool:
        contexts = list(pool.map(work, range(4)))
    assert all(ctx is contexts[0] for ctx in contexts)
    assert built == {"SubgroupClassLattice": 1, "TwistedContext": 1}
