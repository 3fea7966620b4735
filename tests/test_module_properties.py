"""Property tests for the Burnside-module action and folding at N = 3, 4."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from ringwaves.burnside import BurnsideElement
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
