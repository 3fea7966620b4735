"""Property tests for the Burnside ring, its module action and folding at N = 3, 4."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringwaves.burnside import BurnsideElement, multiplication_table, multiply
from ringwaves.groups import gamma_prime_lattice
from ringwaves.twisted import TwistedSum, fold, module_product, twisted_context

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
def test_scalar_solve_equals_bulk_table(n):
    # the two forms of one system of marks: the scalar solve per pair and the table
    lattice = gamma_prime_lattice(n)
    table = multiplication_table(lattice)
    assert len(table) == lattice.n_classes * (lattice.n_classes + 1) // 2
    for (h, k), want in table.items():
        got = multiply(BurnsideElement.generator(lattice, h), BurnsideElement.generator(lattice, k))
        assert got.as_dict() == want, (n, h, k)


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
