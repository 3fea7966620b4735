from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ringwaves.errors import DegenerateParameterError
from ringwaves.reps import LaplacianEigendata
from ringwaves.spectrum import (
    IndexQuad,
    ModelParams,
    critical_point,
    enumerate_critical_points,
    index_sets,
    linear_curve,
    mu,
    rho,
    sigmoid_curve,
    table_curve,
    xi,
    xi_lower_bound_constant,
)

from oracles.spectrum import newton_critical_oracle, winding_oracle


@pytest.fixture()
def params():
    return ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=3)


def test_xi_values(params):
    assert xi(0, 1, params) == 2 + 0j
    assert xi(1, 1, params) == 1 + 1j
    for m in range(0, 8):
        for n in range(1, 8):
            assert xi(m, n, params).conjugate() == xi(-m, n, params)
            assert xi(m, n, params) != 0


def test_lower_bound_constant(params):
    c = xi_lower_bound_constant(params)
    assert 0 < c <= 0.25
    for m in range(0, 300):
        for n in range(1, 300):
            assert abs(xi(m, n, params)) >= c * (m + n)


def test_lower_bound_positive_random():
    rng = random.Random(5)
    for _ in range(10):
        nu = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        delta = rng.uniform(0.05, 4.0)
        p = ModelParams(nu=nu, delta=delta, tau=1.7, N=3)
        assert xi_lower_bound_constant(p) > 0


def test_lower_bound_monotone_in_damping():
    last = 0.0
    for k in range(6):
        p = ModelParams(nu=Fraction(2, 3), delta=0.1 * 2**k, tau=1.7, N=3)
        c = xi_lower_bound_constant(p)
        assert c >= last
        last = c


def test_mu_basics(params):
    a0, b0 = critical_point(1, 1, 0, 1, params)
    assert abs(mu(1, 1, 0, 1, a0, b0, params)) < 1e-12
    assert mu(0, 2, 0, 1, 0.3, 0.4, params).imag == 0.0
    # direct substitution example: numerator reduces to the damping term
    p = ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=3, zeta=linear_curve())
    val = mu(1, 1, 0, 1, 0.0, 0.0, p)
    assert val == pytest.approx(1j / xi(1, 1, p))


def test_critical_point_examples(params):
    a0, b0 = critical_point(1, 1, 0, 1, params)
    assert a0 == pytest.approx(-0.169776413904, abs=1e-9)
    assert b0 == pytest.approx(1.099750170295, abs=1e-9)
    a1, b1 = critical_point(1, 1, 1, 1, params)
    assert a1 == pytest.approx(-2.046422288558, abs=1e-9)
    assert b1 == b0


def test_critical_point_out_of_range():
    p = ModelParams(nu=Fraction(1), delta=1.0, tau=1.0, N=3)
    assert critical_point(1, 1, 0, 1, p) is None
    plin = ModelParams(nu=Fraction(1), delta=1.0, tau=1.0, N=3, zeta=linear_curve())
    a0, b0 = critical_point(1, 1, 0, 1, plin)
    assert a0 == pytest.approx(-math.cos(1.0) / math.sin(1.0))
    assert b0 == pytest.approx(1.0 / math.sin(1.0))


def test_critical_point_degenerate_delay():
    p = ModelParams(nu=Fraction(1), delta=1.0, tau=math.pi, N=3)
    assert p.tau_near_pi_rational
    with pytest.raises(DegenerateParameterError):
        critical_point(1, 1, 0, 1, p)


def test_beta_depends_only_on_m(params):
    betas = {}
    for cp in enumerate_critical_points(params, 5, 5, odd_m_only=False):
        betas.setdefault(cp.quad.m, set()).add(round(cp.beta, 12))
    for m, vals in betas.items():
        assert len(vals) == 1


def test_newton_oracle_agreement(params):
    for cp in enumerate_critical_points(params, 5, 5, odd_m_only=False):
        got = newton_critical_oracle(
            cp.quad.m,
            cp.quad.n,
            cp.quad.j,
            cp.quad.k,
            params,
            (cp.alpha + 0.01, cp.beta - 0.01),
        )
        assert got is not None
        assert got[0] == pytest.approx(cp.alpha, abs=1e-9)
        assert got[1] == pytest.approx(cp.beta, abs=1e-9)


def test_critical_points_pairwise_separated(params):
    pts = enumerate_critical_points(params, 5, 5, odd_m_only=False)
    for i, a in enumerate(pts):
        for b in pts[i + 1 :]:
            dist = math.hypot(a.alpha - b.alpha, a.beta - b.beta)
            assert dist > 1e-6


def test_rho_signs(params):
    cp = critical_point(1, 1, 0, 1, params)
    assert rho(1, 1, 0, 1, params, cp) == -1  # increasing coupling, sin(2) > 0
    dec = ModelParams(
        nu=Fraction(1), delta=1.0, tau=2.0, N=3, zeta=linear_curve(slope=-1.0)
    )
    cpd = critical_point(1, 1, 0, 1, dec)
    assert rho(1, 1, 0, 1, dec, cpd) == 1
    # m = 3 flips the sign of sin(m tau)
    cp3 = critical_point(3, 4, 1, 1, params)
    assert rho(3, 4, 1, 1, params, cp3) == 1


def _table_curves():
    # strictly monotone: positive steps in alpha and in value, in either direction
    steps = st.lists(st.tuples(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0)),
                     min_size=1, max_size=5)

    def build(args):
        a, v, sign, rows = args
        points = [(a, v)]
        for da, dv in rows:
            a, v = a + da, v + sign * dv
            points.append((a, v))
        return table_curve(points)

    return st.tuples(st.floats(-10.0, 10.0), st.floats(-20.0, 20.0),
                     st.sampled_from((1, -1)), steps).map(build)


# a slope of magnitude below 1e-100 keeps -zeta' (z + 1) sin(m tau) a normal float
_slopes = st.floats(1e-100, 1e100).flatmap(lambda s: st.sampled_from((s, -s)))
_curves = st.one_of(
    st.builds(sigmoid_curve),
    st.builds(linear_curve, _slopes, st.floats(-20.0, 20.0)),
    _table_curves(),
)


@st.composite
def _eigendata(draw, n_ring):
    js = draw(st.lists(st.integers(0, n_ring // 2), min_size=1, unique=True))
    return LaplacianEigendata(tuple(
        (j, draw(st.floats(0.0, 50.0)), draw(st.integers(1, 3))) for j in js))


@given(st.data())
def test_rho_depends_on_m_alone(data):
    # every accepted curve is strictly monotone and z >= 0, so the crossing
    # sign sign(-zeta'(alpha0) (z_j + 1) sin(m tau)) cannot depend on (n, j, k):
    # the global certificate of predict rests on this
    n_ring = data.draw(st.integers(3, 8))
    tau = data.draw(st.floats(0.05, 6.0))
    assume(all(abs(math.sin(m * tau)) > 1e-6 for m in range(1, 6)))
    params = ModelParams(
        nu=data.draw(st.fractions(Fraction(1, 4), 3, max_denominator=8)),
        delta=data.draw(st.floats(0.05, 5.0)),
        tau=tau,
        N=n_ring,
        zeta=data.draw(_curves),
        eigendata=data.draw(_eigendata(n_ring)),
    )
    signs = {}
    for cp in enumerate_critical_points(params, 5, 6, odd_m_only=False):
        m, n, j, k = cp.quad
        signs.setdefault(m, set()).add(rho(m, n, j, k, params, (cp.alpha, cp.beta)))
    assert all(len(got) == 1 and 0 not in got for got in signs.values()), signs


def test_winding_matches_rho(params):
    cp = critical_point(1, 1, 0, 1, params)
    assert winding_oracle(1, 1, 0, 1, params, cp, 0.05) == -1
    assert winding_oracle(1, 1, 0, 1, params, cp, 0.025) == -1  # radius-stable
    off = (cp[0] + 0.3, cp[1] + 0.3)
    assert winding_oracle(1, 1, 0, 1, params, off, 0.05) == 0


def test_index_sets_at_example_point(params):
    cp = critical_point(1, 1, 0, 1, params)
    sets = index_sets(cp[0], cp[1], params)
    assert sets.sigma0 == (IndexQuad(1, 1, 0, 1),)
    assert sets.sigma_minus == ()
    assert sets.b1_ok


def test_index_sets_far_from_critical(params):
    sets = index_sets(0.0, 0.2, params)
    assert sets.sigma0 == ()


def test_sigma_minus_empty_for_positive_coupling_and_beta(params):
    # positive coupling plus positive feedback keeps the stationary block positive
    sets = index_sets(1.3, 2.0, params)
    assert sets.sigma_minus == ()


def test_sigma_minus_nonempty_with_negative_beta(params):
    cp3 = critical_point(3, 4, 1, 1, params)
    sets = index_sets(cp3[0], cp3[1], params)
    assert sets.sigma0 == (IndexQuad(3, 4, 1, 1),)
    assert len(sets.sigma_minus) == 5
    assert sets.b1_ok


def test_index_sets_complete_beyond_window(params):
    # the search takes no window: it scans every m up to |beta| / delta, so
    # the vanishing mode at m = 3, n = 4 is found
    cp3 = critical_point(3, 4, 1, 1, params)
    sets = index_sets(cp3[0], cp3[1], params)
    assert sets.sigma0 == (IndexQuad(3, 4, 1, 1),)


def test_h_fixed_filters_even_foldings(params):
    p = params
    cp2 = critical_point(2, 1, 0, 1, p)
    if cp2 is not None:
        sets = index_sets(cp2[0], cp2[1], p, h_fixed=True)
        assert all(q.m % 2 == 1 for q in sets.sigma0)


def test_table_curve_inverse_roundtrip():
    curve = table_curve([(-2.0, 0.1), (0.0, 0.5), (2.0, 0.9)])
    for y in (0.2, 0.5, 0.7):
        assert curve.evaluate(curve.inverse(y)) == pytest.approx(y)
    assert curve.inverse(2.0) is None
    with pytest.raises(ValueError):
        table_curve([(0.0, 1.0), (1.0, 1.0)])


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(nu=Fraction(0), delta=1.0, tau=1.0, N=3)
    with pytest.raises(ValueError):
        ModelParams(nu=Fraction(1), delta=0.0, tau=1.0, N=3)
    with pytest.raises(ValueError):
        ModelParams(nu=Fraction(1), delta=1.0, tau=1.0, N=2)


def test_repeated_eigenvalue_multiplicities_flow_through():
    # user-supplied coupling spectra may carry isotypic multiplicities > 1
    from ringwaves.reps import LaplacianEigendata

    eig = LaplacianEigendata(((0, 0.0, 1), (1, 3.0, 2)))
    p = ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=3, eigendata=eig)
    cp1 = critical_point(1, 1, 1, 1, p)
    cp2 = critical_point(1, 1, 1, 2, p)
    assert cp1 == cp2  # equal eigenvalues give the same parameter pair
    sets = index_sets(cp1[0], cp1[1], p)
    assert IndexQuad(1, 1, 1, 1) in sets.sigma0
    assert IndexQuad(1, 1, 1, 2) in sets.sigma0


def test_eigendata_rejects_a_repeated_isotypic_index():
    # a second row for j = 1 listed (1, 1, 1) twice in sigma_minus and made
    # three critical points of two, and its z = 5.0 was never read
    from ringwaves.reps import LaplacianEigendata

    with pytest.raises(ValueError, match="lists isotypic index 1 twice"):
        LaplacianEigendata(((0, 0.0, 1), (1, 3.0, 1), (1, 5.0, 1)))
