from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringwaves.groups import (
    DihedralElement,
    GammaPrimeElement,
    gamma_prime,
)
from ringwaves.reps import (
    DressedIrrep,
    GIrrep,
    MAX_CLOSURE_ELEMENTS,
    LaplacianEigendata,
    character_table,
    cycle_laplacian_eigendata,
    dressing_bit,
    fixed_dim,
    generated_group,
    isotypic_irreps,
)

from float_characters import char_inner, permutation_character
from oracles.groups import dihedral_lattice
from oracles.reps import cycle_laplacian_matrix, fixed_dim_projector_oracle, permutation_isotypic


def test_character_counts():
    assert len(character_table(3)) == 3
    assert len(character_table(5)) == 4
    assert len(character_table(4)) == 5
    assert len(character_table(6)) == 6
    for n in range(3, 8):
        assert sum(ir.dim**2 for ir in character_table(n)) == 2 * n


def test_character_values_n3():
    table = {ir.label: ir for ir in character_table(3)}
    g = DihedralElement(1, False, 3)
    k = DihedralElement(0, True, 3)
    assert table["geom1"].char(g) == -1.0  # 2 cos(2 pi / 3) exactly
    assert table["trivial"].char(k) == 1.0
    # orientation character: reflections act by -1, rotations trivially
    assert table["sign"].char(k) == -1.0
    assert table["sign"].char(g) == 1.0


def test_half_character_matches_alternating_eigenvector():
    # the alternating vector (1,-1,...) realizes the half character: the
    # rotation negates it and the base reflection i -> -i fixes it
    n = 6
    table = {ir.label: ir for ir in character_table(n)}
    vec = np.array([(-1.0) ** i for i in range(n)])
    g = DihedralElement(1, False, n)
    k = DihedralElement(0, True, n)
    gv = np.array([vec[g.inverse().vertex(i)] for i in range(n)])
    kv = np.array([vec[k.inverse().vertex(i)] for i in range(n)])
    assert np.allclose(gv, table["half"].char(g) * vec)
    assert np.allclose(kv, table["half"].char(k) * vec)


def test_character_orthogonality():
    for n in range(3, 8):
        table = character_table(n)
        for a in table:
            for b in table:
                want = 1.0 if a.label == b.label else 0.0
                assert char_inner(n, a.char, b.char) == pytest.approx(want, abs=1e-12)


def test_permutation_isotypic():
    assert permutation_isotypic(3) == {"trivial": 1, "geom1": 1}
    assert permutation_isotypic(4) == {"trivial": 1, "geom1": 1, "half": 1}
    # inner product of the permutation character with itself counts summands
    for n in (3, 4, 5, 6, 7):
        chi = permutation_character(n)
        mults = permutation_isotypic(n)
        assert char_inner(n, chi, chi) == pytest.approx(len(mults), abs=1e-12)
        total = sum(
            mult * ir.dim
            for ir in character_table(n)
            for label, mult in mults.items()
            if ir.label == label
        )
        assert total == n


def test_isotypic_irreps_indexing():
    irs = isotypic_irreps(6)
    assert [ir.label for ir in irs] == ["trivial", "geom1", "geom2", "half"]
    assert [ir.label for ir in isotypic_irreps(7)] == [
        "trivial",
        "geom1",
        "geom2",
        "geom3",
    ]


def test_fixed_dim_permutation_subspace():
    # rotation-invariant vectors in the permutation representation: only the
    # diagonal survives, dimension 1 = sum over the isotypic pieces
    n = 3
    gp = gamma_prime(n)
    rot = GammaPrimeElement(1, 1, DihedralElement(1, False, n))
    total = 0
    for j, ir in enumerate(isotypic_irreps(n)):
        total += fixed_dim(DressedIrrep(ir, 0), [rot])
    assert total == 1


def test_fixed_dim_trivial_subgroup_gives_dimension():
    e = GammaPrimeElement(1, 1, DihedralElement(0, False, 5))
    for ir in character_table(5):
        for bit in (0, 1):
            rep = DressedIrrep(ir, bit)
            assert fixed_dim(rep, [e]) == rep.dim
            assert fixed_dim(GIrrep(2, rep), [(Fraction(0), e)]) == 2 * rep.dim


def test_fixed_dim_example_w1_v01():
    # the maximal isotropy of the m=1 fully symmetric block fixes a plane
    n = 3
    e = DihedralElement(0, False, n)
    gens = [
        (Fraction(1, 2), GammaPrimeElement(-1, 1, e)),
        (Fraction(0), GammaPrimeElement(-1, -1, e)),
        (Fraction(0), GammaPrimeElement(1, 1, DihedralElement(1, False, n))),
        (Fraction(0), GammaPrimeElement(1, 1, DihedralElement(0, True, n))),
    ]
    rep = GIrrep(1, DressedIrrep(character_table(n)[0], 1))
    assert fixed_dim(rep, gens) == 2


def test_fixed_dim_rejects_irrational_angles():
    e = GammaPrimeElement(1, 1, DihedralElement(0, False, 3))
    rep = GIrrep(1, DressedIrrep(character_table(3)[0], 0))
    with pytest.raises(ValueError):
        fixed_dim(rep, [(0.123, e)])


def test_fixed_dim_matches_projector_oracle_all_subgroups():
    for n in (3, 4, 5, 6):
        lat = dihedral_lattice(n)
        for sub in lat.subgroups:
            gens = [GammaPrimeElement(1, 1, lat.group.elements[i]) for i in sub]
            for ir in character_table(n):
                rep = DressedIrrep(ir, 0)
                assert fixed_dim(rep, gens) == fixed_dim_projector_oracle(rep, gens)


def test_cycle_laplacian_eigendata():
    assert [z for _, z, _ in cycle_laplacian_eigendata(4).entries] == pytest.approx(
        [0.0, 2.0, 4.0]
    )
    assert [z for _, z, _ in cycle_laplacian_eigendata(3).entries] == pytest.approx(
        [0.0, 3.0]
    )
    for n in range(3, 9):
        data = cycle_laplacian_eigendata(n)
        assert data.entries[0][1] == 0.0
        direct = np.sort(np.linalg.eigvalsh(cycle_laplacian_matrix(n)))
        withmult = sorted(
            [z for j, z, _ in data.entries for _ in range(1 if j in (0, n // 2) and (j == 0 or 2 * j == n) else 2)]
        )
        assert np.allclose(direct, withmult, atol=1e-10)


def test_laplacian_multiplicity_bounds():
    data = cycle_laplacian_eigendata(5)
    assert data.z(1) == pytest.approx(4 * math.sin(math.pi / 5) ** 2)
    with pytest.raises(ValueError):
        data.z(9)
    with pytest.raises(ValueError):
        data.z(1, 2)


def _scan_z(entries, j, k):
    """The lookup as a linear scan over the rows, one row per j."""
    for jj, z, mult in entries:
        if jj == j:
            if not 1 <= k <= mult:
                raise ValueError(f"multiplicity index {k} out of range for j={j}")
            return z
    raise ValueError(f"unknown isotypic index {j}")


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


# LaplacianEigendata rejects a repeated j (tests/test_spectrum.py)
eigendata_rows = st.lists(
    st.tuples(st.integers(0, 5), st.floats(0.0, 16.0), st.integers(1, 4)), max_size=6,
    unique_by=lambda row: row[0])


@given(eigendata_rows, st.integers(-1, 6), st.integers(-1, 5))
def test_eigendata_lookup_matches_linear_scan(rows, j, k):
    data = LaplacianEigendata(tuple(rows))
    assert _outcome(data.z, j, k) == _outcome(_scan_z, rows, j, k)


def test_circle_closure_limit_is_named():
    # a finite group above the closure limit used to be called infinite
    e = GammaPrimeElement(1, 1, DihedralElement(0, False, 3))
    assert len(generated_group([(Fraction(1, MAX_CLOSURE_ELEMENTS), e)])) == MAX_CLOSURE_ELEMENTS
    with pytest.raises(ValueError, match="more than 100000 elements, the closure limit"):
        generated_group([(Fraction(1, MAX_CLOSURE_ELEMENTS + 1), e)])


def test_dressing_bit_parity():
    # odd transverse indices ride the even profile cos(nx)
    assert dressing_bit(1) == 0
    assert dressing_bit(2) == 1
    assert dressing_bit(7) == 0
