from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from ringwaves.bifurcation import maximal_orbit_generators, symmetry_relations
from ringwaves.spectrum import ModelParams, critical_point
from ringwaves.verify import (
    GridFunction,
    assemble,
    eigenfunction,
    sigma_min,
    sigma_min_scan,
    smallest_singular_value,
    spectral_eigenvalue_deviation,
    symmetry_check,
    transverse_profile,
)


@pytest.fixture()
def params():
    return ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=3)


def test_spectral_assembly_matches_closed_form(params):
    disc = assemble(params, -0.4, 0.9, "spectral", 10, 8)
    assert spectral_eigenvalue_deviation(disc, params) < 1e-10


def test_spectral_assembly_random_points():
    rng = np.random.default_rng(42)
    for _ in range(4):
        p = ModelParams(
            nu=Fraction(int(rng.integers(1, 4)), int(rng.integers(1, 4))),
            delta=float(rng.uniform(0.2, 2.0)),
            tau=float(rng.uniform(0.5, 3.0)),
            N=int(rng.integers(3, 6)),
        )
        alpha, beta = float(rng.normal()), float(rng.normal())
        disc = assemble(p, alpha, beta, "spectral", 6, 5)
        assert spectral_eigenvalue_deviation(disc, p) < 1e-10


def test_fd_far_from_critical_nonsingular(params):
    disc = assemble(params, 1.5, 2.5, "fd", 32, 16)
    assert sigma_min(disc) > 0.3


def test_fd_symmetric_up_to_damping_and_delay():
    p = ModelParams(nu=Fraction(1), delta=1e-9, tau=2.0, N=3)
    disc = assemble(p, 0.3, 0.0, "fd", 16, 8)
    for block in disc.blocks.values():
        asym = abs(block - block.T).max()
        assert asym < 1e-6


def test_sigma_min_scan_detects_singularity(params):
    cp = critical_point(1, 1, 0, 1, params)
    rows = sigma_min_scan(params, cp, 0.1, m_t=64, m_x=32)
    center = rows[0][2]
    ring = min(r[2] for r in rows[1:])
    assert center <= 0.1 * ring


def test_sigma_min_refinement_decreases(params):
    cp = critical_point(1, 1, 0, 1, params)
    coarse = sigma_min(assemble(params, cp[0], cp[1], "fd", 32, 16))
    fine = sigma_min(assemble(params, cp[0], cp[1], "fd", 64, 32))
    assert fine < coarse


def test_sigma_min_ratio_near_regular_point(params):
    rows = sigma_min_scan(params, (1.0, 2.0), 0.1, m_t=32, m_x=16, n_ring=4)
    center = rows[0][2]
    ring = min(r[2] for r in rows[1:])
    assert center > 0.5 * ring


def test_smallest_singular_value_dense_vs_sparse_path():
    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    dense = rng.normal(size=(40, 40))
    want = np.linalg.svd(dense, compute_uv=False)[-1]
    assert smallest_singular_value(sp.csc_matrix(dense)) == pytest.approx(want)


def test_sigma_min_repeats_and_matches_dense_svd(params):
    # 64 x 32 = 2048 unknowns, above DENSE_SVD_LIMIT: the LU + Lanczos path
    alpha, beta = critical_point(1, 1, 0, 1, params)
    block = assemble(params, alpha, beta, "fd", 64, 32).blocks[0]
    got = {smallest_singular_value(block) for _ in range(8)}
    assert len(got) == 1
    want = np.linalg.svd(block.toarray(), compute_uv=False)[-1]
    assert got.pop() == pytest.approx(want, rel=1e-8)


def test_assemble_validates_sizes(params):
    with pytest.raises(ValueError):
        assemble(params, 0.0, 0.0, "fd", 2, 8)
    with pytest.raises(ValueError):
        assemble(params, 0.0, 0.0, "nope", 8, 8)


def test_eigenfunctions_pass_their_relation_suites():
    for kind in ("H", "T", "S"):
        u = eigenfunction(7, 1, 1, 1, kind, 128, 64)
        rels = symmetry_relations(maximal_orbit_generators(7, 1, 1, 1)[kind])
        res = symmetry_check(u, rels, tol=1e-12)
        assert all(r["pass"] for r in res.values()), (kind, res)


def test_eigenfunction_even_reduced_order_kinds():
    # N = 4, j = 1 has an even reduced rotation order; all kinds must verify
    for kind in ("H", "T", "S"):
        u = eigenfunction(4, 1, 2, 1, kind, 64, 32)
        rels = symmetry_relations(maximal_orbit_generators(4, 1, 2, 1)[kind])
        res = symmetry_check(u, rels, tol=1e-12)
        assert all(r["pass"] for r in res.values()), (kind, res)


def test_wrong_kind_relations_fail():
    u = eigenfunction(7, 1, 1, 1, "T", 64, 32)
    rels = symmetry_relations(maximal_orbit_generators(7, 1, 1, 1)["H"])
    res = symmetry_check(u, rels, tol=1e-12)
    assert not all(r["pass"] for r in res.values())


def test_zero_function_passes_everything():
    u = eigenfunction(7, 1, 1, 1, "H", 32, 16)
    zero = GridFunction(u.t_grid, u.x_grid, np.zeros_like(u.values))
    rels = symmetry_relations(maximal_orbit_generators(7, 1, 1, 1)["S"])
    res = symmetry_check(zero, rels, tol=1e-12)
    assert all(r["pass"] for r in res.values())


def test_eigenfunction_rejects_bad_kind():
    with pytest.raises(ValueError):
        eigenfunction(7, 1, 1, 0, "S", 32, 16)
    with pytest.raises(ValueError):
        eigenfunction(7, 1, 1, 1, "X", 32, 16)


def test_transverse_profile_parity_and_boundary():
    x = np.array([-math.pi / 2, 0.3, math.pi / 2])
    assert transverse_profile(1, x)[0] == pytest.approx(0.0, abs=1e-15)
    assert transverse_profile(2, x)[2] == pytest.approx(0.0, abs=1e-15)
    xs = np.linspace(-1.5, 1.5, 7)
    assert np.allclose(transverse_profile(3, -xs), transverse_profile(3, xs))
    assert np.allclose(transverse_profile(4, -xs), -transverse_profile(4, xs))


def test_off_grid_time_shift_is_exact_for_band_limited_data():
    # the N = 7 traveling relation shifts by 2 pi / 7, not a grid multiple
    u = eigenfunction(7, 1, 1, 1, "H", 256, 8)
    rels = [r for r in symmetry_relations(maximal_orbit_generators(7, 1, 1, 1)["H"]) if r.name == "traveling_wave"]
    assert rels and (Fraction(1, 7) * 256).denominator != 1
    res = symmetry_check(u, rels, tol=1e-12)
    assert all(r["pass"] for r in res.values())


def test_eigenfunction_fully_symmetric_and_alternating_blocks():
    # j = 0: all components equal, full permutation invariance; j = N/2 on an
    # even ring: neighbors differ by a sign and a half-period shift
    for n_ring, j in ((7, 0), (4, 2), (6, 3)):
        u = eigenfunction(n_ring, 1, 1, j, "H", 64, 16)
        rels = symmetry_relations(maximal_orbit_generators(n_ring, 1, 1, j)["H"])
        res = symmetry_check(u, rels, tol=1e-12)
        assert all(r["pass"] for r in res.values()), (n_ring, j, res)
    u0 = eigenfunction(7, 1, 1, 0, "H", 32, 8)
    assert np.allclose(u0.values, u0.values[:, :, :1])
