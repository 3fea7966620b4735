"""Property tests for the closures behind `generated_group` and
`hom_to_circle`, checked with plain Fraction and element arithmetic."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from hypothesis import given
from hypothesis import strategies as st

from ringwaves.groups import DihedralElement, GammaPrimeElement, gamma_prime
from ringwaves.reps import generated_group
from ringwaves.twisted import hom_to_circle

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
    assert (Fraction(0), g0 * g0.inverse()) in elems
    for t, g in gens:
        assert (t % 1, g) in elems
    for t, g in group:
        assert ((-t) % 1, g.inverse()) in elems
        for u, h in group:
            assert ((t + u) % 1, g * h) in elems


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
    members = group.closure(seed)
    homs = hom_to_circle(group, members)
    assert homs
    assert len({tuple(sorted(phi.items())) for phi in homs}) == len(homs)
    els, index = group.elements, group.index
    for phi in homs:
        assert set(phi) == members
        for a in members:
            for b in members:
                ab = index[els[a] * els[b]]
                assert (phi[a] + phi[b] - phi[ab]) % 1 == 0
