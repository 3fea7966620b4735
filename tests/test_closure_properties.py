"""Property tests for the closures behind `generated_group` and
`hom_to_circle`, checked with plain Fraction arithmetic and the element
records' own product."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringwaves import reps
from ringwaves.groups import DihedralElement, GammaPrimeElement, gamma_prime, generated
from ringwaves.reps import generated_group

from oracles.groups import cayley, inverse, product
from oracles.reps import closure_oracle
from oracles.twisted import hom_to_circle

rings = st.integers(3, 6)


def elements(N):
    signs = st.sampled_from((1, -1))
    dihedral = st.builds(DihedralElement, st.integers(0, N - 1), st.booleans(), st.just(N))
    return st.builds(GammaPrimeElement, signs, signs, dihedral)


turns = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 4))
generator_lists = rings.flatmap(
    lambda N: st.lists(st.tuples(turns, elements(N)), min_size=1, max_size=3)
)


@given(generator_lists)
def test_generated_group_is_a_subgroup_holding_the_generators(gens):
    group = generated_group(gens)
    elems = set(group)
    assert len(elems) == len(group)
    assert all(isinstance(t, Fraction) and 0 <= t < 1 for t, _ in group)
    g0 = gens[0][1]
    assert (Fraction(0), product(g0, inverse(g0))) in elems
    for t, g in gens:
        assert (t % 1, g) in elems
    for t, g in group:
        assert ((-t) % 1, inverse(g)) in elems
        for u, h in group:
            assert ((t + u) % 1, product(g, h)) in elems


closure_cases = st.tuples(
    st.integers(3, 12).flatmap(lambda N: st.lists(
        st.tuples(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)), elements(N)),
        min_size=1, max_size=4)),
    st.integers(1, 300),
)


@settings(max_examples=150)
@given(closure_cases)
def test_integer_closure_matches_dataclass_closure(case):
    # integer codes with the closed-form product against (Fraction, element)
    # pairs multiplied as records, and the limit on either side of the size
    gens, limit = case
    want = closure_oracle(gens, limit)
    with mock.patch.object(reps, "MAX_CLOSURE_ELEMENTS", limit):
        if want is None:
            with pytest.raises(ValueError, match=f"more than {limit} elements, the closure limit"):
                generated_group(gens)
            return
        got = generated_group(gens)
    assert len(got) == len(set(got))
    assert set(got) == want


@lru_cache(maxsize=None)
def _group(N):
    return gamma_prime(N)


subgroup_seeds = rings.flatmap(
    lambda N: st.tuples(st.just(N), st.lists(st.integers(0, 8 * N - 1), max_size=3))
)


@given(subgroup_seeds)
def test_hom_to_circle_gives_distinct_homomorphisms(case):
    N, seed = case
    group = _group(N)
    members = frozenset(generated(seed, group.mul, [group.identity]))
    homs = hom_to_circle(group, members)
    assert homs
    assert len({tuple(sorted(phi.items())) for phi in homs}) == len(homs)
    tab = cayley(group).table
    for phi in homs:
        assert set(phi) == members
        for a in members:
            for b in members:
                assert (phi[a] + phi[b] - phi[tab[a][b]]) % 1 == 0
