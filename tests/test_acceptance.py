"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np

from ringwaves.bifurcation import (
    generators_to_type,
    maximal_orbit_generators,
    predict_branches,
    symmetry_relations,
)
from ringwaves.burnside import BurnsideElement, multiplication_table, _orbit_count_product
from ringwaves.degrees import basic_degree, maximal_kind_types, twisted_basic_degree
from ringwaves.groups import gamma_prime_lattice
from ringwaves.reps import (
    DressedIrrep,
    GIrrep,
    character_table,
    dressing_bit,
    fixed_dim,
    fixed_dim_projector_oracle,
)
from ringwaves.spectrum import (
    ModelParams,
    critical_point,
    enumerate_critical_points,
    linear_curve,
    mu,
    newton_critical_oracle,
    rho,
    sigmoid_curve,
    winding_oracle,
    xi_lower_bound_constant,
)
from ringwaves.twisted import quotient_weyl_oracle, twisted_context
from ringwaves.verify import (
    assemble,
    eigenfunction,
    sigma_min,
    sigma_min_scan,
    spectral_eigenvalue_deviation,
    symmetry_check,
)


def _report(num: int, name: str, ok: bool, started: float):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({time.time() - started:.1f}s)")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_burnside_exactness():
    started = time.time()
    ok = True
    for n in (3, 4, 5, 6):
        lat = gamma_prime_lattice(n)
        table = multiplication_table(lat)
        for (h, k), want in table.items():
            if _orbit_count_product(lat, h, k) != want:
                ok = False
    ok = ok and (time.time() - started) <= 60.0
    _report(1, "burnside recurrence == orbit counting", ok, started)


def test_criterion_02_involutivity():
    started = time.time()
    ok = True
    for n in (3, 4, 5, 6):
        lat = gamma_prime_lattice(n)
        one = BurnsideElement.one(lat)
        for ir in character_table(n):
            for bit in (0, 1):
                deg = basic_degree(DressedIrrep(ir, bit), lat)
                if deg * deg != one:
                    ok = False
    _report(2, "basic degrees are involutive", ok, started)


def test_criterion_03_twisted_maximal_coefficients():
    started = time.time()
    ok = True
    for n in range(3, 8):
        lat = gamma_prime_lattice(n)
        ctx = twisted_context(lat)
        for ir in character_table(n):
            for bit in (0, 1):
                for m in (1, 2, 3):
                    rep = GIrrep(m, DressedIrrep(ir, bit))
                    deg = twisted_basic_degree(rep, ctx)
                    for t in maximal_kind_types(rep, ctx):
                        sub = ctx.representative(t)
                        pairs = [(Fraction(1, m), lat.group.elements[lat.group.identity])]
                        for k, turn in sub.phi:
                            pairs.append((turn / m, lat.group.elements[k]))
                        dim = fixed_dim_projector_oracle(rep, pairs)
                        if fixed_dim(rep, pairs) != dim:
                            ok = False
                        weyl = quotient_weyl_oracle(ctx, t)
                        if 2 * weyl * deg.coeff(t) != dim:
                            ok = False
    _report(3, "maximal twisted coefficients == dim/(2 Weyl)", ok, started)


def _min_square_margin(params: ModelParams, c: float, grid: int = 10_000) -> float:
    nu2 = float(params.nu) ** 2
    delta2 = params.delta**2
    n = np.arange(1.0, grid + 1.0)
    n2 = n * n
    worst = math.inf
    for start in range(0, grid + 1, 500):
        m = np.arange(start, min(start + 500, grid + 1), dtype=float)[:, None]
        re = n2[None, :] - nu2 * m * m + 1.0
        margin = re * re + delta2 * (m * m) - (c * (m + n[None, :])) ** 2
        worst = min(worst, float(margin.min()))
    return worst


def test_criterion_04_eigenvalue_lower_bound():
    started = time.time()
    rng = random.Random(20240)
    ok = True
    for _ in range(20):
        nu = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        delta = 10.0 ** rng.uniform(-1.0, 0.7)
        params = ModelParams(nu=nu, delta=delta, tau=1.9, N=3)
        c = xi_lower_bound_constant(params)
        if not (c > 0 and _min_square_margin(params, c) >= 0.0):
            ok = False
    _report(4, "|xi| >= C (m + n) on the full grid", ok, started)


def test_criterion_05_critical_points_against_newton():
    started = time.time()
    ok = True
    cases = [
        ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=3),
        ModelParams(nu=Fraction(3, 2), delta=0.7, tau=1.3, N=4),
        ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=7),
    ]
    for params in cases:
        betas = {}
        for cp in enumerate_critical_points(params, 5, 5, odd_m_only=False):
            q = cp.quad
            if abs(mu(q.m, q.n, q.j, q.k, cp.alpha, cp.beta, params)) > 1e-12:
                ok = False
            got = newton_critical_oracle(
                q.m, q.n, q.j, q.k, params, (cp.alpha + 0.02, cp.beta - 0.02)
            )
            if got is None or abs(got[0] - cp.alpha) > 1e-9 or abs(got[1] - cp.beta) > 1e-9:
                ok = False
            betas.setdefault(q.m, set()).add(round(cp.beta, 12))
            want_beta = params.delta * q.m / math.sin(q.m * params.tau)
            if abs(cp.beta - want_beta) > 1e-12 * max(1.0, abs(want_beta)):
                ok = False
        if any(len(v) != 1 for v in betas.values()):
            ok = False
    _report(5, "closed-form critical points vs Newton oracle", ok, started)


def test_criterion_06_rho_vs_winding():
    started = time.time()
    rng = random.Random(77)
    checked = 0
    ok = True
    while checked < 100:
        nu = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        delta = 10.0 ** rng.uniform(-1.0, 0.3)
        tau = rng.uniform(0.3, 3.0)
        n_ring = rng.choice([3, 4, 5, 6])
        curve = rng.choice(
            [sigmoid_curve(), linear_curve(1.0), linear_curve(-0.7, 0.3)]
        )
        params = ModelParams(nu=nu, delta=delta, tau=tau, N=n_ring, zeta=curve)
        m = rng.choice([1, 1, 2, 3])
        if abs(math.sin(m * tau)) < 1e-3:
            continue
        n = rng.randint(1, 4)
        j = rng.randint(0, n_ring // 2)
        cp = critical_point(m, n, j, 1, params)
        if cp is None:
            continue
        sign = rho(m, n, j, 1, params, cp)
        wound = winding_oracle(m, n, j, 1, params, cp, radius=0.02, steps=10_000)
        if sign != wound:
            ok = False
        checked += 1
    _report(6, "crossing sign == winding number (100 draws)", ok, started)


def test_criterion_07_branch_predictions():
    started = time.time()
    ok = True
    params = ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=3)
    report = predict_branches(params, 5, 5, mode="global")
    points = enumerate_critical_points(params, 5, 5, odd_m_only=True)
    covered = {p.point.quad for p in report.predictions if p.coeff != 0}
    if not points or {cp.quad for cp in points} != covered:
        ok = False
    if report.withheld:
        ok = False
    p7 = ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=7)
    report7 = predict_branches(p7, 1, 1, mode="global")
    kinds = sorted(p.kind for p in report7.predictions if p.point.quad.j == 1)
    if kinds != ["H", "S", "T"]:
        ok = False
    ok = ok and (time.time() - started) <= 120.0
    _report(7, "predictions at every odd critical point; D7 kinds H,S,T", ok, started)


def test_criterion_08_fd_singularity_scan():
    started = time.time()
    params = ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=3)
    point = critical_point(1, 1, 0, 1, params)
    rows = sigma_min_scan(params, point, 0.1, m_t=128, m_x=64)
    center = rows[0][2]
    ring_min = min(r[2] for r in rows[1:])
    ok = center <= 0.1 * ring_min
    doubled = sigma_min(assemble(params, point[0], point[1], "fd", 256, 128))
    ok = ok and doubled < center
    ok = ok and (time.time() - started) <= 300.0
    _report(8, "FD sigma_min singular at the critical point", ok, started)


def test_criterion_09_spectral_cross_check():
    started = time.time()
    rng = random.Random(909)
    ok = True
    for _ in range(10):
        params = ModelParams(
            nu=Fraction(rng.randint(1, 4), rng.randint(1, 4)),
            delta=rng.uniform(0.1, 2.0),
            tau=rng.uniform(0.5, 3.0),
            N=rng.choice([3, 4, 5]),
        )
        alpha, beta = rng.uniform(-2, 2), rng.uniform(-2, 2)
        disc = assemble(params, alpha, beta, "spectral", 9, 7)
        if spectral_eigenvalue_deviation(disc, params) > 1e-10:
            ok = False
    _report(9, "spectral assembly reproduces closed form", ok, started)


def test_criterion_10_eigenfunction_symmetries():
    started = time.time()
    ok = True
    for kind in ("H", "T", "S"):
        grid = eigenfunction(7, 1, 1, 1, kind, 256, 128)
        rels = symmetry_relations(maximal_orbit_generators(7, 1, 1, 1)[kind])
        res = symmetry_check(grid, rels, tol=1e-12)
        if not all(r["pass"] for r in res.values()):
            ok = False
    _report(10, "model eigenfunctions pass their relation suites", ok, started)
