from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def _circulant_shift(n, a):
    """Matrix sending samples u_k to u_{(k - a) mod n}."""
    rows = np.arange(n)
    return sp.csr_matrix((np.ones(n), (rows, (rows - a) % n)), shape=(n, n))


def _fd_matrix(params, alpha, beta, j, k, m_t, m_x):
    """Oracle: the FD block assembled as a sparse matrix, shift by shift."""
    nu2 = float(params.nu) ** 2
    delta, tau = params.delta, params.tau
    cj = params.zeta.evaluate(alpha) * (params.eigendata.z(j, k) + 1.0)
    dt = 2.0 * math.pi / m_t
    dx = math.pi / (m_x + 1)
    shift_fwd = _circulant_shift(m_t, -1)
    shift_bwd = _circulant_shift(m_t, 1)
    eye_t = sp.identity(m_t, format="csr")
    d_t = (shift_fwd - shift_bwd) / (2.0 * dt)
    d_tt = (shift_fwd - 2.0 * eye_t + shift_bwd) / (dt * dt)
    s = tau / dt
    s_hi = math.ceil(s)
    w = s_hi - s
    delay = w * _circulant_shift(m_t, s_hi - 1) + (1.0 - w) * _circulant_shift(m_t, s_hi)
    main = np.full(m_x, 2.0 / (dx * dx))
    off = np.full(m_x - 1, -1.0 / (dx * dx))
    minus_dxx = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    block = (
        sp.kron(nu2 * d_tt + delta * d_t + beta * delay + cj * eye_t, sp.identity(m_x))
        + sp.kron(eye_t, minus_dxx)
    )
    return block.tocsc()


def _lanczos_sigma_min(matrix):
    """Oracle: sparse LU + Lanczos on the inverse normal operator, seeded."""
    n = matrix.shape[0]
    lu = spla.splu(matrix)
    op = spla.LinearOperator((n, n), matvec=lambda x: lu.solve(lu.solve(x, trans="T")))
    v0 = np.random.default_rng(0).standard_normal(n)
    lam = spla.eigsh(op, k=1, which="LM", return_eigenvectors=False, tol=1e-8, v0=v0)
    return float(1.0 / math.sqrt(lam[0]))


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
    for (j, k) in p.eigendata.indices():
        matrix = _fd_matrix(p, 0.3, 0.0, j, k, 16, 8)
        assert abs(matrix - matrix.T).max() < 1e-6
        assert np.abs(disc.blocks[j].imag).max() < 1e-6


@pytest.mark.parametrize("N", [3, 4])
@pytest.mark.parametrize("grid", [(16, 8), (32, 16)])
@pytest.mark.parametrize("tau", [2.0, 2.0 * math.pi * 5 / 16], ids=["tau-2", "tau-whole-steps"])
def test_fd_symbol_gives_every_singular_value(N, grid, tau):
    # tau = 2 pi * 5/16 is a whole number of time steps at m_t = 16 (w = 0)
    p = ModelParams(nu=Fraction(1), delta=1.0, tau=tau, N=N)
    cp = critical_point(1, 1, 0, 1, p)
    for alpha, beta in (cp, (cp[0] + 0.05, cp[1] - 0.05), (1.5, 2.5)):
        disc = assemble(p, alpha, beta, "fd", *grid)
        for (j, k) in p.eigendata.indices():
            want = np.linalg.svd(_fd_matrix(p, alpha, beta, j, k, *grid).toarray(), compute_uv=False)
            got = np.sort(np.abs(disc.blocks[j]))[::-1]
            assert np.abs(got - want).max() <= 1e-12 * want[0]
            assert smallest_singular_value(disc.blocks[j]) == got[-1]


def test_sigma_min_needs_fd(params):
    with pytest.raises(ValueError):
        sigma_min(assemble(params, 0.3, 0.2, "spectral", 6, 5))


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


def test_sigma_min_repeats_and_matches_dense_svd(params, monkeypatch):
    # 64 x 32 = 2048 unknowns: the LU + Lanczos oracle and the symbol both
    # agree with dense SVD of the assembled matrix
    lu_calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda m: lu_calls.append(1) or splu(m))
    alpha, beta = critical_point(1, 1, 0, 1, params)
    block = assemble(params, alpha, beta, "fd", 64, 32).blocks[0]
    got = {smallest_singular_value(block) for _ in range(8)}
    assert len(got) == 1
    matrix = _fd_matrix(params, alpha, beta, 0, 1, 64, 32)
    want = np.linalg.svd(matrix.toarray(), compute_uv=False)[-1]
    assert got.pop() == pytest.approx(want, rel=1e-8)
    assert _lanczos_sigma_min(matrix) == pytest.approx(want, rel=1e-8)
    assert lu_calls == [1]


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
