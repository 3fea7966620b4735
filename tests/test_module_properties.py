"""Property tests for the Burnside ring, its module action and folding at N = 3, 4."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringwaves.burnside import BurnsideElement, multiply
from ringwaves.groups import gamma_prime_lattice
from ringwaves.twisted import TwistedSum, module_product, twisted_context

from oracles.burnside import orbit_count_product
from oracles.twisted import fold

coeffs = st.sampled_from((-2, -1, 1, 2))


def burnside_elements(lattice):
    classes = st.integers(0, lattice.n_classes - 1)
    return st.dictionaries(classes, coeffs, min_size=1, max_size=2).map(
        lambda d: BurnsideElement.from_dict(lattice, d)
    )


def twisted_sums(ctx):
    types = st.tuples(st.integers(0, ctx.n_types - 1), st.integers(1, 3))
    return st.dictionaries(types, coeffs, min_size=1, max_size=2).map(lambda d: TwistedSum.from_dict(ctx, d))


def _ring_case(n):
    lattice = gamma_prime_lattice(n)
    return st.tuples(*[burnside_elements(lattice)] * 3)


@given(st.sampled_from((3, 4)).flatmap(_ring_case))
def test_burnside_ring_axioms(case):
    a, b, c = case
    one = BurnsideElement.one(a.owner)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert one * a == a == a * one
    assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_multiply_equals_orbit_count_on_every_generator_pair(n):
    # the solve of the marks against a recount of the orbits on (G/H) x (G/K)
    lattice = gamma_prime_lattice(n)
    for h in range(lattice.n_classes):
        for k in range(h, lattice.n_classes):
            got = multiply(BurnsideElement.generator(lattice, h), BurnsideElement.generator(lattice, k))
            assert got.as_dict() == orbit_count_product(lattice, h, k), (n, h, k)


def _module_case(n):
    lattice = gamma_prime_lattice(n)
    return st.tuples(
        burnside_elements(lattice), burnside_elements(lattice), twisted_sums(twisted_context(lattice))
    )


@given(st.sampled_from((3, 4)).flatmap(_module_case))
def test_module_action_is_associative(case):
    a, b, x = case
    assert module_product(a * b, x) == module_product(a, module_product(b, x))


@given(
    st.sampled_from((3, 4)).flatmap(lambda n: twisted_sums(twisted_context(gamma_prime_lattice(n)))),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_fold_composes(x, s, t):
    assert fold(s * t, x) == fold(s, fold(t, x))
