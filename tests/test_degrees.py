from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringwaves.bifurcation import generators_to_type, maximal_orbit_generators
from ringwaves.burnside import BurnsideElement
from ringwaves.degrees import basic_degree, linear_iso_degree, twisted_basic_degree, twisted_fixed_dims
from ringwaves.groups import gamma_prime_lattice
from ringwaves.reps import DressedIrrep, GIrrep, character_table, dressing_bit, isotypic_irreps
from ringwaves.twisted import twisted_context

from oracles.burnside import multiply_oracle
from oracles.degrees import closed_form_degree, isotropy_types, maximal_kind_types
from oracles.groups import dihedral_lattice, inflate_class
from oracles.twisted import fold, inflate, quotient_weyl_oracle


def test_basic_degree_sign_rep_d3():
    lat = dihedral_lattice(3)
    sign = {ir.label: ir for ir in character_table(3)}["sign"]
    deg = basic_degree(sign, lat)
    # classes in descending order: (D3), (Z3), (Z2), (1)
    assert deg.as_dict() == {0: 1, 1: -1}
    assert multiply_oracle(deg, deg) == BurnsideElement.one(lat)


def test_basic_degree_trivial_rep_d3():
    lat = dihedral_lattice(3)
    triv = character_table(3)[0]
    deg = basic_degree(triv, lat)
    assert deg.as_dict() == {0: -1}
    assert deg * deg == BurnsideElement.one(lat)


def test_involutivity_all_dressed_irreps():
    for n in (3, 4, 5, 6):
        lat = gamma_prime_lattice(n)
        one = BurnsideElement.one(lat)
        for ir in character_table(n):
            for bit in (0, 1):
                deg = basic_degree(DressedIrrep(ir, bit), lat)
                assert deg * deg == one, (n, ir.label, bit)


def test_linear_iso_degree_cases():
    lat = dihedral_lattice(3)
    sign = {ir.label: ir for ir in character_table(3)}["sign"]
    assert linear_iso_degree([], lat) == BurnsideElement.one(lat)
    assert linear_iso_degree([(sign, 1)], lat) == basic_degree(sign, lat)
    assert linear_iso_degree([(sign, 2)], lat) == BurnsideElement.one(lat)


def test_twisted_degree_w1_v01_single_type(ctx3):
    rep = GIrrep(1, DressedIrrep(character_table(3)[0], 1))
    deg = twisted_basic_degree(rep, ctx3)
    mk = maximal_kind_types(rep, ctx3)
    assert len(mk) == 1
    t = mk[0]
    assert deg.coeff(t) == 1
    assert twisted_fixed_dims(ctx3, rep.dressed)[t.kphi] == 2
    assert ctx3.weyl[t.kphi] == 1
    assert quotient_weyl_oracle(ctx3, t) == 1


def test_twisted_degree_rejects_stationary_folding(ctx3):
    rep = GIrrep(0, DressedIrrep(character_table(3)[0], 0))
    with pytest.raises(ValueError):
        twisted_basic_degree(rep, ctx3)


def test_maximal_coefficients_positive(ctx3, ctx7):
    for n_ring, ctx in ((3, ctx3), (7, ctx7)):
        for ir in character_table(n_ring):
            for bit in (0, 1):
                rep = GIrrep(1, DressedIrrep(ir, bit))
                deg = twisted_basic_degree(rep, ctx)
                for t in maximal_kind_types(rep, ctx):
                    assert deg.coeff(t) >= 1


def test_maximal_closed_form(ctx3):
    # at a maximal type nothing larger contributes: coeff = dim/(2 |W/S1|)
    for ir in character_table(3):
        for bit in (0, 1):
            rep = GIrrep(2, DressedIrrep(ir, bit))
            deg = twisted_basic_degree(rep, ctx3)
            for t in maximal_kind_types(rep, ctx3):
                dim = twisted_fixed_dims(ctx3, rep.dressed)[t.kphi]
                assert 2 * ctx3.weyl[t.kphi] * deg.coeff(t) == dim


def _irrep_case(n):
    return st.tuples(st.just(n), st.sampled_from(character_table(n)), st.sampled_from((0, 1)),
                     st.integers(1, 6))


@settings(max_examples=60)
@given(st.integers(3, 12).flatmap(_irrep_case))
def test_maximal_twisted_coefficients_equal_dim_over_twice_weyl(case):
    # nothing larger than a maximal type contributes to its mark equation, so
    # its coefficient is dim/2 over the Weyl order, here the quotient oracle's
    n, ir, bit, m = case
    ctx = twisted_context(gamma_prime_lattice(n))
    rep = GIrrep(m, DressedIrrep(ir, bit))
    deg = twisted_basic_degree(rep, ctx)
    types = maximal_kind_types(rep, ctx)
    assert types
    for t in types:
        dim = twisted_fixed_dims(ctx, rep.dressed)[t.kphi]
        assert 2 * quotient_weyl_oracle(ctx, t) * deg.coeff(t) == dim, (n, ir.label, bit, m)


@pytest.mark.parametrize("n_ring", range(3, 26))
def test_block_degree_has_its_closed_form(n_ring):
    # the argument behind predict's global claim: a block's degree is (H) at
    # j = 0, N/2 and (H) + (S) + (T) - (K0) otherwise, so its only negative
    # type is its kernel K0; over predict's range N = 3..25, 1068 blocks
    ctx = twisted_context(gamma_prime_lattice(n_ring))
    for m in (1, 2, 3):
        for n in (1, 2):
            for j in range(n_ring // 2 + 1):
                rep = GIrrep(m, DressedIrrep(isotypic_irreps(n_ring)[j], dressing_bit(n)))
                assert closed_form_degree(ctx, m, n, j) == dict(
                    twisted_basic_degree(rep, ctx).coeffs), (n_ring, m, n, j)


def test_fold_relates_twisted_degrees(ctx3):
    for ir in character_table(3):
        for bit in (0, 1):
            rep1 = GIrrep(1, DressedIrrep(ir, bit))
            for s in (2, 3, 4):
                reps = GIrrep(s, DressedIrrep(ir, bit))
                assert fold(s, twisted_basic_degree(rep1, ctx3)) == twisted_basic_degree(
                    reps, ctx3
                )


def test_d7_geometric_has_three_maximal_kinds(ctx7):
    rep = GIrrep(1, DressedIrrep(character_table(7)[1], 0))
    mk = maximal_kind_types(rep, ctx7)
    assert len(mk) == 3


def test_maximal_types_are_antichain(ctx3):
    for ir in character_table(3):
        rep = GIrrep(1, DressedIrrep(ir, 0))
        mk = maximal_kind_types(rep, ctx3)
        for a in mk:
            for b in mk:
                if a != b:
                    assert ctx3.n_t(a, b) == 0


def test_isotropy_types_have_positive_dims(ctx3):
    rep = GIrrep(1, DressedIrrep(character_table(3)[1], 0))
    iso = isotropy_types(rep, ctx3)
    assert all(d > 0 for _, d in iso)
    # every maximal kind is an isotropy type
    mk = set(maximal_kind_types(rep, ctx3))
    assert mk <= {t for t, _ in iso}


# V_j of D_N is pulled back from V_{j/d} of D_{N/d}, d = gcd(N, j): both send
# the rotation to exp(2 pi i j / N), so every isotropy holds the kernel <g^(N/d)>
INFLATION_POINTS = [
    (N, j, bit, m)
    for N in (6, 8, 9, 10, 12, 15, 18, 24)
    for j in range(1, N // 2 + 1)
    if math.gcd(N, j) > 1 and N // math.gcd(N, j) >= 3
    for bit in (0, 1)
    for m in (1, 2, 3)
]


@pytest.mark.parametrize("N, j, bit, m", INFLATION_POINTS)
def test_twisted_basic_degree_is_inflated_from_the_quotient_ring(N, j, bit, m):
    d = math.gcd(N, j)
    ctx = twisted_context(gamma_prime_lattice(N))
    small = twisted_context(gamma_prime_lattice(N // d))
    quotient = twisted_basic_degree(GIrrep(m, DressedIrrep(isotypic_irreps(N // d)[j // d], bit)), small)
    want = {inflate(ctx, small, t): c for t, c in quotient.coeffs}
    assert len(want) == len(quotient.coeffs)
    got = twisted_basic_degree(GIrrep(m, DressedIrrep(isotypic_irreps(N)[j], bit)), ctx)
    assert got.as_dict() == want


@pytest.mark.parametrize("N, j, bit", sorted({point[:3] for point in INFLATION_POINTS}))
def test_basic_degree_is_inflated_from_the_quotient_ring(N, j, bit):
    d = math.gcd(N, j)
    lat, small = gamma_prime_lattice(N), gamma_prime_lattice(N // d)
    quotient = basic_degree(DressedIrrep(isotypic_irreps(N // d)[j // d], bit), small)
    want = {inflate_class(lat, small, c): v for c, v in quotient.coeffs}
    assert len(want) == len(quotient.coeffs)
    assert basic_degree(DressedIrrep(isotypic_irreps(N)[j], bit), lat).as_dict() == want


@pytest.mark.parametrize("N, j, bit, m", INFLATION_POINTS)
def test_maximal_kind_types_are_inflated_from_the_quotient_ring(N, j, bit, m):
    d = math.gcd(N, j)
    ctx = twisted_context(gamma_prime_lattice(N))
    small = twisted_context(gamma_prime_lattice(N // d))
    quotient = maximal_kind_types(GIrrep(m, DressedIrrep(isotypic_irreps(N // d)[j // d], bit)), small)
    got = maximal_kind_types(GIrrep(m, DressedIrrep(isotypic_irreps(N)[j], bit)), ctx)
    assert got == sorted(inflate(ctx, small, t) for t in quotient)


@pytest.mark.parametrize("N, j, bit, m", INFLATION_POINTS)
def test_generator_types_are_inflated_from_the_quotient_ring(N, j, bit, m):
    # each kind's generators at (N, j) give the preimage of its type at (N/d, j/d)
    d = math.gcd(N, j)
    ctx = twisted_context(gamma_prime_lattice(N))
    small = twisted_context(gamma_prime_lattice(N // d))
    n = 2 - bit  # dressing_bit(n) == bit
    gens = maximal_orbit_generators(N, m, n, j)
    quotient = maximal_orbit_generators(N // d, m, n, j // d)
    assert gens.keys() == quotient.keys()
    for kind, g in gens.items():
        want = inflate(ctx, small, generators_to_type(small, quotient[kind], m))
        assert generators_to_type(ctx, g, m) == want, kind
