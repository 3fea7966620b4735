from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringwaves import groups
from ringwaves.errors import ExactnessError, SizeCapError
from ringwaves.groups import (
    DihedralElement,
    GammaPrimeElement,
    SubgroupClassLattice,
    conjugacy_classes,
    dihedral_group,
    enumerate_subgroups,
    gamma_prime,
    gamma_prime_element,
    gamma_prime_index,
    generated,
)

from oracles.groups import conj_set, dihedral_lattice, inverse, leq, product, subgroup_count_oracle


def test_dihedral_orders_and_relations():
    d3 = dihedral_group(3)
    assert d3.order == 6
    gamma = d3.elements.index(DihedralElement(1, False, 3))
    kappa = d3.elements.index(DihedralElement(0, True, 3))
    # k g k = g^-1 = g^2
    kg = d3.mul(kappa, gamma)
    assert d3.elements[d3.mul(kg, kappa)] == DihedralElement(2, False, 3)
    assert d3.element_order(gamma) == 3
    assert d3.element_order(kappa) == 2


def test_dihedral_rejects_small_n():
    with pytest.raises(ValueError):
        dihedral_group(2)
    with pytest.raises(ValueError):
        gamma_prime(1)


def test_gamma_squared_central_in_d4():
    d4 = dihedral_group(4)
    g2 = d4.elements.index(DihedralElement(2, False, 4))
    assert all(d4.mul(g2, x) == d4.mul(x, g2) for x in range(d4.order))
    # and gamma itself is not central
    g1 = d4.elements.index(DihedralElement(1, False, 4))
    assert any(d4.mul(g1, x) != d4.mul(x, g1) for x in range(d4.order))


def test_gamma_prime_order_and_involutions():
    gp = gamma_prime(3)
    assert gp.order == 24
    for idx, el in enumerate(gp.elements):
        if el.kappa1 == -1 and el.kappa2 == 1 and el.dihedral.rot == 0 and not el.dihedral.ref:
            assert gp.mul(idx, idx) == gp.identity


def test_center_of_gamma_prime_d3():
    gp = gamma_prime(3)
    center = [
        x
        for x in range(gp.order)
        if all(gp.mul(x, y) == gp.mul(y, x) for y in range(gp.order))
    ]
    assert len(center) == 4  # the two sign factors


def test_cayley_rows_are_permutations():
    gp = gamma_prime(4)
    for a in range(gp.order):
        assert sorted(gp.mul(a, b) for b in range(gp.order)) == list(range(gp.order))


@pytest.mark.parametrize("n", range(3, 31))
def test_closed_form_tables_match_the_dataclass_product(n):
    # the group axioms, checked against the element records' own product
    for group in (dihedral_group(n), gamma_prime(n)):
        els, order = group.elements, group.order
        assert order == len(set(els))
        assert els[group.identity] == product(els[0], inverse(els[0]))
        for a in range(order):
            assert els[group.inv(a)] == inverse(els[a])
            for b in range(order):
                assert els[group.mul(a, b)] == product(els[a], els[b])
            power, k = els[a], 1
            while power != els[group.identity]:
                power, k = product(power, els[a]), k + 1
            assert group.element_order(a) == k
        # gamma and kappa, with the central sign factors, generate the group
        want = [DihedralElement(1, False, n), DihedralElement(0, True, n)]
        if order == 8 * n:
            want = [GammaPrimeElement(1, 1, d) for d in want]
        assert [els[c] for c in group.conjugators] == want
        rest = DihedralElement(0, False, n)
        signs = [i for i, x in enumerate(els) if getattr(x, "dihedral", x) == rest]
        assert len(signs) == order // (2 * n)
        assert all(product(els[z], e) == product(e, els[z]) for z in signs for e in els)
        assert frozenset(generated(group.conjugators, group.mul, signs)) == frozenset(range(order))
    gp = gamma_prime(n)
    for i, el in enumerate(gp.elements):
        assert gamma_prime_index(el) == i
        assert gamma_prime_element(i, n) == el


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 2000), st.booleans(), st.data())
def test_closed_form_products_match_the_dataclass_product_at_large_n(n, signs, data):
    # past the subgroup cap a group still builds: it holds no table
    group = gamma_prime(n) if signs else dihedral_group(n)
    els = group.elements
    index = st.integers(0, group.order - 1)
    for _ in range(20):
        g, a, b = data.draw(st.tuples(index, index, index))
        assert els[group.mul(a, b)] == product(els[a], els[b])
        assert els[group.inv(a)] == inverse(els[a])
        assert els[group.conj(g, a)] == product(product(els[g], els[a]), inverse(els[g]))


def test_subgroup_enumeration_counts():
    d3 = dihedral_group(3)
    assert len(enumerate_subgroups(d3)) == 6
    # Klein four-group as an abstract product inside gamma_prime: use D_N parts
    assert len(enumerate_subgroups(dihedral_group(4))) == 10
    assert len(enumerate_subgroups(dihedral_group(6))) == 16


def test_subgroup_enumeration_matches_exhaustive_oracle():
    for group in (dihedral_group(3), dihedral_group(4), dihedral_group(5)):
        assert len(enumerate_subgroups(group)) == subgroup_count_oracle(group)


def test_trivial_group_case():
    d3 = dihedral_group(3)
    triv = frozenset(generated([], d3.mul, [d3.identity]))
    assert triv == frozenset({d3.identity})


def test_size_cap():
    with pytest.raises(SizeCapError):
        enumerate_subgroups(gamma_prime(26))  # order 208, over the cap of 200


def test_lattice_cap_comes_before_the_cayley_table(monkeypatch):
    # the cap comes before the group is built: predict --N 2000 once ran out
    # of time and memory building a Cayley table, and only then met the cap
    monkeypatch.setattr(groups, "gamma_prime", None)
    monkeypatch.setattr(groups, "dihedral_group", None)
    with pytest.raises(SizeCapError):
        groups.gamma_prime_lattice(2000)
    with pytest.raises(SizeCapError):
        dihedral_lattice(2000)


def test_d3_class_lattice():
    lat = SubgroupClassLattice(dihedral_group(3))
    assert lat.n_classes == 4
    orders = [len(rep) for rep in lat.reps]
    assert orders == [6, 3, 2, 1]  # descending total order
    # |W(Z3)| = 2 since Z3 is normal
    assert lat.weyl[1] == 2
    # n(1, Z2) = 3: three reflection subgroups
    assert lat.n(3, 2) == 3
    assert lat.weyl == [1, 2, 1, 6]


def test_conjugacy_classes_of_tagged_keys_in_d3():
    # D_3 = {g^r} (0..2) and {g^r k} (3..5): a subgroup is the key (K, zeros);
    # tags move with K's elements, and k swaps g and g^2
    lat = SubgroupClassLattice(dihedral_group(3))
    seeds = [(s, (0,) * len(s)) for s in lat.subgroups]
    seeds += [((0, 3), (0, 1)), ((0, 1, 2), (0, 2, 1)), ((0, 1, 2), (0, 1, 2))]
    got = [(key, len(orbit), weyl)
           for key, orbit, weyl in conjugacy_classes(lat.conjugations, seeds, 6)]
    assert got == [
        (((0, 1, 2, 3, 4, 5), (0,) * 6), 1, 1),
        (((0, 1, 2), (0, 0, 0)), 1, 2),
        (((0, 1, 2), (0, 1, 2)), 2, 1),
        (((0, 3), (0, 0)), 3, 1),
        (((0, 3), (0, 1)), 3, 1),
        (((0,), (0,)), 1, 6),
    ]
    # a Weyl order is |G| / |orbit| / |K|, which must divide exactly
    with pytest.raises(ExactnessError):
        conjugacy_classes(lat.conjugations, seeds, 7)


def test_weyl_divisibility_and_n_diagonal():
    for n in (3, 4):
        lat = SubgroupClassLattice(gamma_prime(n))
        for c in range(lat.n_classes):
            assert lat.n(c, c) == 1
            assert lat.weyl[c] >= 1
        for h in range(lat.n_classes):
            for k in range(lat.n_classes):
                if len(lat.reps[k]) < len(lat.reps[h]):
                    assert lat.n(h, k) == 0
                if not leq(lat, h, k):
                    assert lat.n(h, k) == 0


def test_total_order_refines_partial_order():
    lat = SubgroupClassLattice(gamma_prime(3))
    for h in range(lat.n_classes):
        for k in range(lat.n_classes):
            if h != k and leq(lat, h, k):
                assert k < h  # larger classes come first


def test_conjugation_permutes_subgroups():
    group = gamma_prime(3)
    subs = enumerate_subgroups(group)
    all_sets = set(map(frozenset, subs))
    for g in range(0, group.order, 5):
        image = {conj_set(group, g, s) for s in subs}
        assert image == all_sets


def test_a_subgroup_is_its_sorted_index_tuple():
    lat = SubgroupClassLattice(gamma_prime(4))
    assert type(lat.subgroups) is tuple and type(lat.reps) is tuple
    assert all(type(s) is tuple and list(s) == sorted(set(s)) for s in lat.subgroups)
    assert set(lat.reps) <= set(lat.subgroups)
    assert [lat.class_id(rep) for rep in lat.reps] == list(range(lat.n_classes))
    assert lat.class_id(frozenset(range(lat.group.order))) == 0  # class 0 is the full group
    gone = ("subgroup_ids", "classes", "class_of_subgroup", "full_class")
    assert [name for name in gone if hasattr(lat, name)] == []


def test_class_id_lookup_rejects_non_subgroup():
    lat = SubgroupClassLattice(dihedral_group(3))
    with pytest.raises(KeyError):
        lat.class_id(frozenset({1}))


def test_concurrent_reads_after_construction():
    # lattices are immutable after construction; concurrent products must agree
    import concurrent.futures

    from ringwaves.burnside import BurnsideElement, multiply
    from ringwaves.groups import gamma_prime_lattice

    lat = gamma_prime_lattice(3)
    pairs = [(h, k) for h in range(0, lat.n_classes, 3) for k in range(0, lat.n_classes, 5)]

    def job(pair):
        h, k = pair
        return multiply(
            BurnsideElement.generator(lat, h), BurnsideElement.generator(lat, k)
        ).as_dict()

    serial = [job(p) for p in pairs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(job, pairs))
    assert serial == parallel
