from __future__ import annotations

import copy
import random

import pytest

from ringwaves import burnside, degrees, twisted
from ringwaves.burnside import BurnsideElement, multiplication_table, multiply, solve_marks
from ringwaves.errors import ExactnessError
from ringwaves.groups import SubgroupClassLattice, gamma_prime, gamma_prime_lattice
from ringwaves.reps import DressedIrrep, GIrrep, character_table
from ringwaves.twisted import TwistedContext, TwistedOrbitType, TwistedSum

from oracles.burnside import (
    dense_solve,
    multiply_oracle,
    orbit_count_product,
    orbit_count_product_pointwise,
    solve_marks_table,
)
from oracles.groups import dihedral_lattice

# class ids in the D3 lattice (descending order): 0=(D3), 1=(Z3), 2=(Z2), 3=(1)
D3, Z3, Z2, ONE = 0, 1, 2, 3


@pytest.fixture(scope="module")
def d3():
    return dihedral_lattice(3)


def gen(lat, c):
    return BurnsideElement.generator(lat, c)


def test_identity_generator(d3):
    full = gen(d3, D3)
    for c in range(d3.n_classes):
        assert (full * gen(d3, c)) == gen(d3, c)


def test_d3_products_match_hand_values(d3):
    assert (gen(d3, Z2) * gen(d3, Z2)).as_dict() == {Z2: 1, ONE: 1}
    assert (gen(d3, Z3) * gen(d3, Z3)).as_dict() == {Z3: 2}
    assert (gen(d3, ONE) * gen(d3, ONE)).as_dict() == {ONE: 6}
    assert (gen(d3, Z2) * gen(d3, Z3)).as_dict() == {ONE: 1}


def test_oracle_agrees_with_pointwise_enumeration(d3):
    for h in range(d3.n_classes):
        for k in range(d3.n_classes):
            assert orbit_count_product(d3, h, k) == orbit_count_product_pointwise(
                d3, h, k
            )


def test_oracle_identity_cases(d3):
    assert multiply_oracle(gen(d3, D3), gen(d3, Z3)) == gen(d3, Z3)
    assert multiply_oracle(gen(d3, ONE), gen(d3, ONE)).as_dict() == {ONE: 6}


def test_recurrence_equals_oracle_on_gamma_prime_3():
    lat = gamma_prime_lattice(3)
    table = multiplication_table(lat)
    for (h, k), want in table.items():
        assert orbit_count_product(lat, h, k) == want


@pytest.mark.parametrize("n", [8, 12])
def test_table_equals_oracle_on_sampled_pairs(n):
    lat = gamma_prime_lattice(n)
    table = multiplication_table(lat)
    rng = random.Random(n)
    for h, k in rng.sample(sorted(table), 200):
        assert orbit_count_product(lat, h, k) == table[(h, k)], (n, h, k)


@pytest.mark.parametrize("n", [*range(3, 9), 12])
def test_table_equals_the_dense_down_set_solve_in_order(n):
    lat = gamma_prime_lattice(n)
    table, want = multiplication_table(lat), solve_marks_table(lat)
    assert list(table) == list(want)
    for pair, prod in want.items():
        assert list(table[pair].items()) == list(prod.items()), (n, pair)


def test_table_raises_on_an_inexact_division():
    # one more than the true |W| of the trivial class, on a copy of the lattice
    lat = copy.copy(gamma_prime_lattice(3))
    lat.weyl = [*lat.weyl[:-1], lat.weyl[-1] + 1]
    with pytest.raises(ExactnessError):
        solve_marks_table(lat)
    with pytest.raises(ExactnessError):
        multiplication_table(lat)


@pytest.mark.parametrize("n", range(3, 9))
def test_restricted_solve_equals_solve_over_all_classes(n):
    # a product solved only below both factors equals the solve over every class
    lat = gamma_prime_lattice(n)
    nt, w = lat.n_table, lat.weyl
    for h in range(lat.n_classes):
        for k in range(h, lat.n_classes):
            full = dense_solve(lat, range(lat.n_classes),
                               lambda L: nt[L][h] * w[h] * nt[L][k] * w[k])
            assert burnside._generator_product(lat, h, k) == full, (n, h, k)


def test_pointwise_oracle_sample_gamma_prime():
    lat = gamma_prime_lattice(3)
    rng = random.Random(7)
    for _ in range(12):
        h = rng.randrange(lat.n_classes)
        k = rng.randrange(lat.n_classes)
        assert orbit_count_product_pointwise(lat, h, k) == orbit_count_product(
            lat, h, k
        )


def test_commutative_and_associative_sampled():
    lat = gamma_prime_lattice(3)
    rng = random.Random(3)
    gens = [gen(lat, rng.randrange(lat.n_classes)) for _ in range(6)]
    for a in gens:
        for b in gens:
            assert a * b == b * a
    for _ in range(10):
        a, b, c = (gens[rng.randrange(len(gens))] for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_linear_combinations_and_scalars(d3):
    a = 2 * gen(d3, Z3) - gen(d3, ONE)
    b = gen(d3, Z2) + gen(d3, D3)
    assert (a + b).coeff(Z3) == 2
    assert (a - a) == BurnsideElement.zero(d3)
    assert multiply(a, gen(d3, D3)) == a


def test_coeff_projection(d3):
    el = gen(d3, Z2) + gen(d3, ONE)
    assert el.coeff(Z2) == 1
    assert gen(d3, D3).coeff(ONE) == 0
    assert (2 * gen(d3, Z3)).coeff(Z3) == 2
    with pytest.raises(ValueError):
        el.coeff(99)


def test_mixed_lattice_rejected(d3):
    other = gamma_prime_lattice(3)
    with pytest.raises(ValueError):
        multiply(gen(d3, 0), BurnsideElement.generator(other, 0))


def test_solve_marks_is_exact():
    # two unknowns, every mark 1 and Weyl order 2, so each column entry is 2:
    # c_0 * 2 = 2 at the top, then 1 * 2 + c_1 * 2 = lead[1]
    columns, weyl = [[2, 2], [2, 2]], [2, 2]
    assert solve_marks({0: 2, 1: 6}, columns.__getitem__, weyl) == {0: 1, 1: 2}
    assert solve_marks({0: 2, 1: 2}, columns.__getitem__, weyl) == {0: 1}
    with pytest.raises(ExactnessError):
        solve_marks({0: 2, 1: 3}, columns.__getitem__, weyl)


class SolveReached(Exception):
    pass


@pytest.mark.parametrize("call", [
    lambda lat, ctx, rep: burnside.multiplication_table(lat),
    lambda lat, ctx, rep: multiply(gen(lat, lat.n_classes - 1), gen(lat, lat.n_classes - 1)),
    lambda lat, ctx, rep: degrees.basic_degree(rep.dressed, lat),
    lambda lat, ctx, rep: degrees.twisted_basic_degree(rep, ctx),
    lambda lat, ctx, rep: twisted.module_product(gen(lat, lat.n_classes - 1),
                                                 TwistedSum.generator(ctx, TwistedOrbitType(0, 1))),
], ids=["multiplication_table", "multiply", "basic_degree", "twisted_basic_degree",
        "module_product"])
def test_every_product_and_degree_solves_through_solve_marks(call, monkeypatch):
    # one copy of the recurrence: each ring operation reaches `solve_marks`,
    # on a lattice and context that no cache has seen
    def reached(*args):
        raise SolveReached

    for module in (burnside, degrees, twisted):
        monkeypatch.setattr(module, "solve_marks", reached)
    lat = SubgroupClassLattice(gamma_prime(3))
    rep = GIrrep(1, DressedIrrep(character_table(3)[0], 1))
    with pytest.raises(SolveReached):
        call(lat, TwistedContext(lat), rep)


def test_products_reach_the_traced_module_attributes(d3, monkeypatch):
    # the benchmark's tracer counts products by wrapping these names on their modules
    calls = []
    real = burnside.multiply
    monkeypatch.setattr(burnside, "multiply", lambda a, b: calls.append((a, b)) or real(a, b))
    assert gen(d3, Z2) * gen(d3, Z3) == real(gen(d3, Z2), gen(d3, Z3))
    assert len(calls) == 1
    sign = {ir.label: ir for ir in character_table(3)}["sign"]
    assert degrees.linear_iso_degree([(sign, 2)], d3) == BurnsideElement.one(d3)
    assert len(calls) == 3
    for module, name in [(burnside, "multiplication_table"), (twisted, "module_product"),
                         (degrees, "twisted_basic_degree"), (degrees, "linear_iso_degree")]:
        assert callable(vars(module)[name]), name
