"""Exact fixed dimensions against the float character averages they replaced.

Every fixed dimension in the library is a Galois average of integer
Ramanujan sums (`reps.galois_average`); `float_characters` keeps the float
averages as independent oracles.
"""

from __future__ import annotations

import ast
import math
from fractions import Fraction
from pathlib import Path

import pytest

import float_characters as flt
from ringwaves.degrees import _class_fixed_dims, twisted_fixed_dims
from ringwaves.errors import ExactnessError
from ringwaves.groups import (
    DihedralElement,
    GammaPrimeElement,
    SubgroupClassLattice,
    gamma_prime,
    gamma_prime_lattice,
)
from ringwaves.reps import (
    DressedIrrep,
    GIrrep,
    _ramanujan,
    character_table,
    fixed_dim,
    galois_average,
)
from ringwaves.twisted import TwistedContext

from oracles.reps import permutation_isotypic

SRC = Path(__file__).resolve().parents[1] / "src" / "ringwaves"


def _dressed(N):
    return [DressedIrrep(ir, bit) for ir in character_table(N) for bit in (0, 1)]


@pytest.mark.parametrize("L", range(1, 31))
def test_ramanujan_sum_is_trace_of_root_of_unity(L):
    units = [k for k in range(1, L + 1) if math.gcd(k, L) == 1]
    for e in range(L):
        trace = sum(math.cos(2 * math.pi * e * k / L) for k in units)
        assert _ramanujan(L)[e] == round(trace)
        assert abs(trace - round(trace)) < 1e-9
    assert _ramanujan(L)[0] == len(units)


@pytest.mark.parametrize("N", range(3, 13))
def test_twisted_fixed_dim_matches_float_average(N):
    # a context of its own: the shared caches stay as other tests expect them
    ctx = TwistedContext(SubgroupClassLattice(gamma_prime(N)))
    for rep in _dressed(N):
        assert list(twisted_fixed_dims(ctx, rep)) == flt.twisted_fixed_dims(ctx, rep), rep.label


@pytest.mark.parametrize("N", range(3, 9))
def test_class_fixed_dims_match_float_average(N):
    lat = gamma_prime_lattice(N)
    for rep in _dressed(N):
        assert _class_fixed_dims(lat, rep) == flt.class_fixed_dims(lat, rep), rep.label


@pytest.mark.parametrize("N", range(3, 13))
def test_permutation_isotypic_matches_float_inner_product(N):
    assert permutation_isotypic(N) == flt.permutation_isotypic(N)


@pytest.mark.parametrize("N", [3, 4, 6, 7])
def test_fixed_dim_matches_float_average_on_circle_closures(N):
    # turns of denominators 2, 3, 4 and 5 put L = lcm(q, N) above N
    e = DihedralElement(0, False, N)
    rot = DihedralElement(1, False, N)
    ref = DihedralElement(0, True, N)
    gen_sets = [
        [(Fraction(1, 2), GammaPrimeElement(-1, 1, e))],
        [(Fraction(1, 3), GammaPrimeElement(1, 1, rot))],
        [(Fraction(1, 4), GammaPrimeElement(1, -1, ref)), (Fraction(2, 5), GammaPrimeElement(1, 1, e))],
        [(Fraction(1, N), GammaPrimeElement(1, 1, rot)), (Fraction(0), GammaPrimeElement(-1, -1, ref))],
    ]
    for gens in gen_sets:
        for dressed in _dressed(N):
            for m in (0, 1, 2, 3):
                rep = GIrrep(m, dressed)
                assert fixed_dim(rep, gens) == flt.fixed_dim(rep, gens), (gens, rep.label)


def test_non_subgroup_sum_raises_exactness_error():
    # {e, g} is not a subgroup of D_3: geom1 averages (2 + (-1)) / 2 over it
    geom1 = character_table(3)[1]
    pair = [DihedralElement(0, False, 3), DihedralElement(1, False, 3)]
    assert [geom1.trace(g, 3) for g in pair] == [4, -2]
    with pytest.raises(ExactnessError):
        galois_average((geom1.trace(g, 3) for g in pair), 3, len(pair))
    # the whole rotation subgroup fixes nothing
    rots = [DihedralElement(r, False, 3) for r in range(3)]
    assert galois_average((geom1.trace(g, 3) for g in rots), 3, 3) == 0


FORBIDDEN_NAMES = {"round", "cos_turn", "FIXED_DIM_TOL"}


@pytest.mark.parametrize("module", ["groups", "burnside", "twisted", "degrees"])
def test_algebra_modules_have_no_float_rounding(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.alias) and node.name in FORBIDDEN_NAMES | {"cos"}:
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_NAMES | {"cos"}:
            found.append((node.lineno, node.attr))
    assert found == []
