from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from ringwaves import bifurcation
from ringwaves.bifurcation import (
    OrbitGenerators,
    escapes_block_kernels,
    folding_data,
    generators_to_type,
    h_fixed_invariant,
    local_invariant,
    maximal_orbit_generators,
    predict_branches,
    prediction_report_json,
    symmetry_relations,
)
from ringwaves.burnside import BurnsideElement
from ringwaves.degrees import twisted_basic_degree, twisted_fixed_dims
from ringwaves.errors import DegenerateParameterError
from ringwaves.reps import (
    DressedIrrep,
    GIrrep,
    LaplacianEigendata,
    dressing_bit,
    fixed_dim,
    isotypic_irreps,
)
from ringwaves.spectrum import (
    IndexQuad,
    ModelParams,
    critical_point,
    enumerate_critical_points,
    linear_curve,
    rho,
    sigmoid_curve,
)
from ringwaves.groups import gamma_prime_element, gamma_prime_lattice
from ringwaves.twisted import TwistedSum, module_product, twisted_context

from oracles.degrees import folding_signs, maximal_kind_types


@pytest.fixture()
def params():
    return ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=3)


def test_folding_data_examples():
    assert folding_data(6, 4) == (3, 2, 2)
    assert folding_data(7, 1) == (7, 1, 1)
    assert folding_data(4, 1) == (4, 1, 1)
    assert folding_data(6, 2) == (3, 1, 1)


def test_h_fixed_invariant_example_point(params, lat3, ctx3):
    cp = critical_point(1, 1, 0, 1, params)
    inv = h_fixed_invariant(cp, params, lat3)
    assert inv.contributions == ((IndexQuad(1, 1, 0, 1), -1),)
    assert inv.sigma_minus_factor is None
    rep = GIrrep(1, DressedIrrep(isotypic_irreps(3)[0], dressing_bit(1)))
    assert inv.value == -1 * twisted_basic_degree(rep, ctx3)


def test_full_invariant_matches_h_fixed_at_example(params, lat3):
    cp = critical_point(1, 1, 0, 1, params)
    inv_full = local_invariant(cp, params, lat3)
    inv_h = h_fixed_invariant(cp, params, lat3)
    assert inv_full.value == inv_h.value  # sigma_minus empty, single odd mode
    assert inv_full.sigma_minus_factor == BurnsideElement.one(lat3)


def test_invariant_zero_away_from_critical_set(params, lat3, ctx3):
    inv = h_fixed_invariant((0.0, 0.2), params, lat3)
    assert inv.value == TwistedSum.zero(ctx3)


def test_full_invariant_with_negative_spectrum(params, lat3, ctx3):
    cp3 = critical_point(3, 4, 1, 1, params)
    inv = local_invariant(cp3, params, lat3)
    assert len(inv.sets.sigma_minus) == 5
    factor = inv.sigma_minus_factor
    # the factor squares to the identity (product of involutions)
    assert factor * factor == BurnsideElement.one(lat3)
    # acting with the full-group class leaves the twisted sum unchanged
    assert module_product(BurnsideElement.one(lat3), inv.value) == inv.value
    # support carries only the folding of the single vanishing mode
    assert all(t.l == 3 for t in inv.value.support())


def test_full_invariant_refuses_on_b1_failure(lat3):
    # force a stationary zero eigenvalue: n^2 + zeta_j(alpha) + beta = 0
    p = ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=3, zeta=linear_curve())
    alpha = 0.5
    beta = -1.0 - 0.5  # n = 1, j = 0 block vanishes
    with pytest.raises(DegenerateParameterError):
        local_invariant((alpha, beta), p, lat3)
    inv = h_fixed_invariant((alpha, beta), p, lat3)  # still available
    assert inv.sigma_minus_factor is None


def test_h_fixed_support_only_odd_foldings(params, lat3):
    for quad in ((1, 1, 0), (3, 4, 1), (5, 4, 1)):
        cp = critical_point(quad[0], quad[1], quad[2], 1, params)
        if cp is None:
            continue
        inv = h_fixed_invariant(cp, params, lat3)
        assert all(t.l % 2 == 1 for t in inv.value.support())


def test_maximal_orbit_generators_h_kind_n7():
    gens = maximal_orbit_generators(7, 1, 2, 1)["H"]  # n even: plain parity sign
    turns = [str(t) for t, _ in gens.elements]
    assert turns == ["1/2", "0", "1/7"]
    anti, parity, travel = gens.elements
    assert (anti[1].kappa1, anti[1].kappa2) == (-1, 1)
    assert (parity[1].kappa1, parity[1].kappa2) == (-1, -1)  # even n flips sign
    assert travel[1].dihedral.rot == 1 and not travel[1].dihedral.ref
    # odd n keeps the profile even under the space flip
    parity_odd = maximal_orbit_generators(7, 1, 1, 1)["H"].elements[1]
    assert (parity_odd[1].kappa1, parity_odd[1].kappa2) == (1, -1)


def test_generators_have_positive_fixed_dim():
    for n_ring in (3, 4, 6, 7):
        for j in range(0, n_ring // 2 + 1):
            for n in (1, 2):
                for m in (1, 2):
                    gen_map = maximal_orbit_generators(n_ring, m, n, j)
                    rep = GIrrep(m, DressedIrrep(isotypic_irreps(n_ring)[j], dressing_bit(n)))
                    for gens in gen_map.values():
                        assert fixed_dim(rep, gens.elements) > 0


@pytest.mark.parametrize("n_ring", [*range(3, 9), 24])
def test_generator_types_match_maximal_kinds(n_ring):
    # the exhaustive check of the emitted generator lists: at run time they
    # must fix a nonzero vector and have a nonzero coefficient in their
    # block's degree; at N = 24, j = 9 (the only such blocks up to the cap)
    # the half-turn step gamma^12 once missed the rotation kernel gamma^8
    ctx = twisted_context(gamma_prime_lattice(n_ring))
    for m in (1, 2):
        for n in (1, 2):
            for j in range(0, n_ring // 2 + 1):
                gen_map = maximal_orbit_generators(n_ring, m, n, j)
                types = sorted(generators_to_type(ctx, g, m) for g in gen_map.values())
                rep = GIrrep(m, DressedIrrep(isotypic_irreps(n_ring)[j], dressing_bit(n)))
                assert types == maximal_kind_types(rep, ctx)


def test_generator_folding_coherence(ctx3):
    # generators at folding m are preimages of the m = 1 generators
    for j in (0, 1):
        t1 = {
            kind: generators_to_type(ctx3, g, 1)
            for kind, g in maximal_orbit_generators(3, 1, 1, j).items()
        }
        for m in (3, 5):
            tm = {
                kind: generators_to_type(ctx3, g, m)
                for kind, g in maximal_orbit_generators(3, m, 1, j).items()
            }
            assert {k: t.kphi for k, t in tm.items()} == {
                k: t.kphi for k, t in t1.items()
            }
            assert all(t.l == m for t in tm.values())


def test_kind_availability():
    assert set(maximal_orbit_generators(3, 1, 1, 0)) == {"H"}
    assert set(maximal_orbit_generators(3, 1, 1, 1)) == {"H", "S", "T"}
    assert set(maximal_orbit_generators(4, 1, 1, 2)) == {"H"}  # alternating block
    with pytest.raises(ValueError):
        maximal_orbit_generators(5, 1, 1, 3)
    with pytest.raises(ValueError):
        maximal_orbit_generators(3, 0, 1, 1)


def test_symmetry_relations_shapes():
    rels = symmetry_relations(maximal_orbit_generators(3, 1, 1, 0)["H"])
    names = [r.name for r in rels]
    assert names[0] == "anti_periodicity"
    assert rels[0].sign == -1 and rels[0].t_shift_turns == Fraction(1, 2)
    assert names[1] == "space_parity"
    assert rels[1].x_flip and rels[1].sign == 1  # odd n: even profile
    # j = 0: all component permutations act trivially on the prediction
    assert any(r.perm != tuple(range(3)) for r in rels)
    rels_t = symmetry_relations(maximal_orbit_generators(7, 1, 1, 1)["T"])
    assert any(r.name == "reflection" and r.t_shift_turns == 0 for r in rels_t)
    rels_s = symmetry_relations(maximal_orbit_generators(7, 1, 1, 1)["S"])
    assert any(r.name == "reflection" and r.t_shift_turns == Fraction(1, 2) for r in rels_s)
    rels_h = symmetry_relations(maximal_orbit_generators(7, 1, 1, 1)["H"])
    assert any(r.name == "traveling_wave" for r in rels_h)
    # anti-periodicity present for every kind
    for rels_k in (rels, rels_t, rels_s, rels_h):
        assert rels_k[0].name == "anti_periodicity"


def test_predict_branches_example(params):
    report = predict_branches(params, 5, 5, mode="global")
    assert not report.withheld
    by_quad = {}
    for p in report.predictions:
        by_quad.setdefault(p.point.quad, []).append(p)
    # every enumerated odd-m critical point produced at least one branch
    assert {(q.m, q.n, q.j) for q in by_quad} == {
        (1, 1, 0),
        (1, 1, 1),
        (3, 4, 1),
        (5, 4, 1),
    }
    for preds in by_quad.values():
        assert all(p.coeff != 0 for p in preds)
        assert all(p.unbounded and p.non_stationary for p in preds)
    assert {p.kind for p in by_quad[IndexQuad(1, 1, 1, 1)]} == {"H", "S", "T"}
    assert {p.kind for p in by_quad[IndexQuad(1, 1, 0, 1)]} == {"H"}


def test_predict_local_mode_flags(params):
    report = predict_branches(params, 1, 1, mode="local")
    assert report.predictions
    assert all(not p.unbounded and p.non_stationary for p in report.predictions)


def test_prediction_coefficient_closed_form(params, ctx3):
    report = predict_branches(params, 5, 5, mode="global")
    for p in report.predictions:
        quad = p.point.quad
        sign = rho(quad.m, quad.n, quad.j, quad.k, params, (p.point.alpha, p.point.beta))
        t = generators_to_type(ctx3, p.generators, quad.m)
        dim = twisted_fixed_dims(ctx3, DressedIrrep(isotypic_irreps(3)[quad.j], dressing_bit(quad.n)))[t.kphi]
        assert p.coeff * 2 * ctx3.weyl[t.kphi] == sign * dim


def test_predict_n7_three_kinds():
    p7 = ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=7)
    report = predict_branches(p7, 1, 1, mode="global")
    kinds = sorted(p.kind for p in report.predictions if p.point.quad.j == 1)
    assert kinds == ["H", "S", "T"]


def test_zero_coupling_derivative_withholds_the_point(params):
    # rho is 0 only when -zeta' (z + 1) sin(m tau) is 0: such a point gets no
    # branches, in either mode
    flat = params._replace(zeta=sigmoid_curve()._replace(derivative=lambda a: 0.0))
    points = enumerate_critical_points(flat, 3, 3)
    assert points
    for mode in ("global", "local"):
        report = predict_branches(flat, 3, 3, mode=mode)
        assert not report.predictions
        assert report.withheld == tuple(
            (cp, "degenerate crossing: zero coupling derivative") for cp in points)


def test_every_emitted_type_has_one_sign_over_its_folding():
    # the global certificate holds for every block the generators can emit:
    # each emitted list escapes the block kernels and its type's coefficient
    # has one sign, or is 0, in the twisted basic degree of every block of its
    # folding; the types of negative coefficient are the kernels, which fail
    for n_ring in range(3, 17):
        ctx = twisted_context(gamma_prime_lattice(n_ring))
        L = ctx.denominator
        for m in (1, 3):
            table = folding_signs(ctx, m)
            for j in range(n_ring // 2 + 1):
                for n in (1, 2):
                    rep = GIrrep(m, DressedIrrep(isotypic_irreps(n_ring)[j], dressing_bit(n)))
                    for kind, gens in maximal_orbit_generators(n_ring, m, n, j).items():
                        assert escapes_block_kernels(gens), (n_ring, m, n, j, kind)
                        row = table[generators_to_type(ctx, gens, m)]
                        assert row[rep] == 1, (n_ring, m, n, j, kind)
                        assert set(row.values()) == {1}, (n_ring, m, n, j, kind, row)
            negative = [t for t, row in table.items() if -1 in row.values()]
            assert negative  # j = 1 is geometric for every N >= 3
            for t in negative:
                elems, turns = ctx.class_keys[t.kphi]
                subgroup = OrbitGenerators("K0", tuple(
                    (Fraction(turn, L), gamma_prime_element(k, n_ring))
                    for k, turn in zip(elems, turns)))
                assert not escapes_block_kernels(subgroup), (n_ring, m, ctx.type_str(t))


def _branch_keys(report):
    return [(p.point, p.kind, p.coeff, p.unbounded) for p in report.predictions]


def test_a_kernel_generator_list_is_withheld_in_global_mode(monkeypatch):
    # only j = 1 in the coupling spectrum: the window holds the one point
    # (1, 1, 1).  Cut to the anti-periodicity and the space parity, the S list
    # generates the block's kernel K0, of coefficient -1 in the block's
    # degree: global mode cannot certify it, local mode emits it
    p7 = ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=7)
    p7 = p7._replace(eigendata=LaplacianEigendata(((1, p7.eigendata.z(1), 1),)))
    before = {mode: predict_branches(p7, 1, 1, mode=mode) for mode in ("global", "local")}
    (cp,) = {p.point for p in before["global"].predictions}
    assert not before["global"].withheld
    real = bifurcation.maximal_orbit_generators

    def kernel_s(N, m, n, j):
        gens = real(N, m, n, j)
        gens["S"] = OrbitGenerators("S", gens["S"].elements[:2])
        return gens

    ctx = before["global"].context
    kernel = generators_to_type(ctx, kernel_s(7, 1, 1, 1)["S"], 1)
    own = GIrrep(1, DressedIrrep(isotypic_irreps(7)[1], 0))
    assert twisted_basic_degree(own, ctx).coeff(kernel) == -1
    monkeypatch.setattr(bifurcation, "maximal_orbit_generators", kernel_s)
    reason = "S generators hold no reflection and no gamma^(+-1)"
    after = predict_branches(p7, 1, 1, mode="global")
    assert after.withheld == ((cp, reason),)
    assert _branch_keys(after) == [
        key for key in _branch_keys(before["global"]) if key[1] != "S"]
    payload = prediction_report_json(p7, 1, 1, after)
    assert payload["withheld"] == [{"m": 1, "n": 1, "j": 1, "reason": reason}]
    # local mode makes no global claim: it emits the kernel's branch
    local = predict_branches(p7, 1, 1, mode="local")
    sign = rho(1, 1, 1, 1, p7, (cp.alpha, cp.beta))
    assert not local.withheld
    assert _branch_keys(local) == [
        (cp, "S", -sign, False) if key[1] == "S" else key
        for key in _branch_keys(before["local"])]


@pytest.mark.parametrize("n_ring", [3, 6, 7])
def test_prediction_at_a_point_does_not_depend_on_the_window(n_ring):
    params = ModelParams(nu=Fraction(1), delta=1.0, tau=2.0, N=n_ring)
    small, large = (predict_branches(params, w, w) for w in (3, 5))

    def at(report, cp):
        branches = [(p.kind, p.coeff, p.unbounded) for p in report.predictions
                    if p.point == cp]
        return branches, [why for point, why in report.withheld if point == cp]

    points = [cp for cp, _inv in small.invariants]
    assert points and set(points) < {cp for cp, _inv in large.invariants}
    for cp in points:
        assert at(small, cp) == at(large, cp)


def test_prediction_json_schema(params):
    report = predict_branches(params, 3, 3, mode="global")
    payload = prediction_report_json(params, 3, 3, report)
    assert payload["window"] == {"m_max": 3, "n_max": 3}
    assert payload["critical_points"]
    entry = payload["critical_points"][0]
    for key in ("m", "n", "j", "k", "alpha", "beta", "rho", "invariant", "branches"):
        assert key in entry
    assert entry["invariant"], "per-point invariant serialized"
    branch = entry["branches"][0]
    for key in ("kind", "coeff", "generators", "relations", "unbounded", "non_stationary"):
        assert key in branch


def test_h_fixed_zero_at_even_only_point(params, lat3, ctx3):
    # a critical point whose only vanishing mode has even folding contributes
    # nothing in the anti-periodic reduction
    cp2 = critical_point(2, 1, 1, 1, params)
    assert cp2 is not None
    inv = h_fixed_invariant(cp2, params, lat3)
    assert inv.value == TwistedSum.zero(ctx3)
    assert inv.contributions == ()


def test_concurrent_calls_agree_and_leave_structures_unchanged(params):
    lattice = gamma_prime_lattice(3)
    ctx = twisted_context(lattice)
    keys = (set(vars(lattice)), set(vars(ctx)))
    cp = critical_point(3, 4, 1, 1, params)

    def work(_):
        report = predict_branches(params, 3, 3)
        inv = local_invariant(cp, params, lattice)
        return prediction_report_json(params, 3, 3, report), inv

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads finely
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, i) for i in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r == results[0] for r in results)
    assert results[0][0]["critical_points"] and results[0][1].sets.sigma_minus
    assert (set(vars(lattice)), set(vars(ctx))) == keys
