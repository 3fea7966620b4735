"""Bifurcation invariants and certified branch predictions.

Assembles the twisted-degree invariant at a critical parameter pair from the
null and negative spectra, extracts maximal-kind coefficients, and emits
branch predictions carrying explicit symmetry generators and machine-checkable
relations.  The anti-periodic reduction (only odd temporal foldings) removes
stationary modes, so branches detected that way consist of non-stationary
solutions; in global mode a same-sign crossing check upgrades them to
unbounded branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .burnside import BurnsideElement
from .degrees import linear_iso_degree, twisted_basic_degree
from .errors import DegenerateParameterError
from .groups import DihedralElement, GammaPrimeElement, SubgroupClassLattice, gamma_prime_lattice
from .reps import DressedIrrep, GIrrep, dressing_bit, fixed_dim, generated_group, isotypic_irreps
from .spectrum import (
    CriticalPoint,
    IndexQuad,
    IndexSets,
    ModelParams,
    enumerate_critical_points,
    index_sets,
    rho,
)
from .twisted import TwistedContext, TwistedSum, module_product, twisted_context


@dataclass(frozen=True)
class BifurcationInvariant:
    """The twisted invariant at a critical point with its provenance."""

    value: TwistedSum
    contributions: tuple  # ((IndexQuad, rho sign), ...)
    sigma_minus_factor: BurnsideElement | None  # None in the anti-periodic mode
    sets: IndexSets


@dataclass(frozen=True)
class OrbitGenerators:
    """Explicit generators of a maximal isotropy subgroup.

    Elements are (turn, GammaPrimeElement) pairs with exact rational circle
    turns; the generated twisted subgroup has positive fixed dimension in the
    associated irreducible block (asserted at construction).
    """

    kind: str  # "H" | "S" | "T"
    elements: tuple


@dataclass(frozen=True)
class Relation:
    """Checkable symmetry u_{perm[i]}(t + shift, flip x) = sign * u_i(t, x)."""

    name: str
    sign: int
    perm: tuple
    t_shift_turns: Fraction
    x_flip: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "sign": self.sign,
            "perm": list(self.perm),
            "t_shift_turns": str(self.t_shift_turns),
            "x_flip": self.x_flip,
        }


@dataclass(frozen=True)
class BranchPrediction:
    point: CriticalPoint
    kind: str
    coeff: int
    generators: OrbitGenerators
    relations: tuple
    unbounded: bool
    non_stationary: bool


def folding_data(N: int, j: int):
    """Reduced rotation data: Ntilde = N/gcd, jtilde = j/gcd, h = jtilde^-1."""
    g = math.gcd(N, j)
    ntilde, jtilde = N // g, j // g
    h = pow(jtilde, -1, ntilde)
    return ntilde, jtilde, h


def _irrep_for(N: int, j: int) -> "DihedralIrrep":
    return isotypic_irreps(N)[j]


def _block_irrep(N: int, m: int, n: int, j: int) -> GIrrep:
    return GIrrep(m, DressedIrrep(_irrep_for(N, j), dressing_bit(n)))


def maximal_orbit_generators(N: int, m: int, n: int, j: int) -> dict:
    """Generator lists for the maximal orbit types of the (m, n, j) block.

    Kinds: "H" is the traveling type present for every j; for geometric j
    (0 < j < ceil(N/2)) the plain-reflection type "T" (a standing profile in
    the real eigenvector) and the phase-shifted reflection type "S" (its
    imaginary counterpart) appear as well.  Each list is verified to fix a
    nonzero subspace of W_m (x) V_j at construction.
    """
    if m < 1:
        raise ValueError("maximal kinds need folding m >= 1")
    half = N % 2 == 0 and j == N // 2
    if not 0 <= j <= N // 2:
        # in particular the alternating index N/2 only exists for even N
        raise ValueError(f"isotypic index {j} out of range for N={N}")
    bit = dressing_bit(n)
    e = DihedralElement(0, False, N)
    gamma = DihedralElement(1, False, N)
    kappa = DihedralElement(0, True, N)
    anti = (Fraction(1, 2 * m), GammaPrimeElement(-1, 1, e))
    parity = (Fraction(0), GammaPrimeElement((-1) ** bit, -1, e))
    out = {}
    if j == 0:
        gens = (anti, parity, (Fraction(0), GammaPrimeElement(1, 1, gamma)),
                (Fraction(0), GammaPrimeElement(1, 1, kappa)))
    elif half:
        # kappa acts trivially on the alternating character, so the maximal
        # isotropy keeps it alongside the half-turn traveling rotation
        gens = (anti, parity, (Fraction(1, 2 * m), GammaPrimeElement(1, 1, gamma)),
                (Fraction(0), GammaPrimeElement(1, 1, kappa)))
    else:
        travel = (Fraction(j, N * m) % 1, GammaPrimeElement(1, 1, gamma))
        gens = (anti, parity, travel)
    out["H"] = OrbitGenerators("H", gens)
    if 0 < j and not half:
        ntilde, _jt, h = folding_data(N, j)
        if ntilde % 2 == 1:
            common = []
            if ntilde < N:
                common.append(
                    (Fraction(0), GammaPrimeElement(1, 1, DihedralElement(ntilde, False, N)))
                )
            out["T"] = OrbitGenerators(
                "T",
                (anti, parity, (Fraction(0), GammaPrimeElement(1, 1, kappa)), *common),
            )
            out["S"] = OrbitGenerators(
                "S",
                (anti, parity, (Fraction(1, 2 * m), GammaPrimeElement(1, 1, kappa)), *common),
            )
        else:
            # even reduced order: both reflection types are plain, distinguished
            # by the reflection's phase on the rotation eigenvector (1 for T,
            # the primitive one for S), and share the half-turn traveling step
            step = (ntilde // 2) * h % N
            travel2 = (Fraction(1, 2 * m), GammaPrimeElement(1, 1, DihedralElement(step, False, N)))
            out["T"] = OrbitGenerators(
                "T",
                (anti, parity, (Fraction(0), GammaPrimeElement(1, 1, kappa)), travel2),
            )
            out["S"] = OrbitGenerators(
                "S",
                (anti, parity,
                 (Fraction(0), GammaPrimeElement(1, 1, DihedralElement(h % N, True, N))),
                 travel2),
            )
    rep = GIrrep(m, DressedIrrep(_irrep_for(N, j), bit))
    for g in out.values():
        if fixed_dim(rep, g.elements) <= 0:
            raise AssertionError(f"{g.kind}-generators fix nothing in {rep.label}")
    return out


def generators_to_type(ctx: TwistedContext, gens: OrbitGenerators, m: int):
    """Canonical twisted orbit type generated by an explicit generator list."""
    group = ctx.group
    closure = generated_group(gens.elements)
    members = set()
    phi = {}
    for turn, el in closure:
        idx = group.index[el]
        members.add(idx)
        phi[idx] = (m * turn) % 1
    return ctx.type_of(frozenset(members), phi, m)


def symmetry_relations(gens: OrbitGenerators, *legacy):
    """Checkable relations induced by each maximal-type generator.

    A generator (z, kappa1, kappa2, d) fixes u exactly when
    kappa1 * u_{d^-1(i)}(t + arg z, kappa2 x) = u_i(t, x) for all i, t, x.
    The older form symmetry_relations(kind, N, m, n, j) builds the
    generators itself.
    """
    if isinstance(gens, str):
        gens = maximal_orbit_generators(*legacy)[gens]
    out = []
    names = {0: "anti_periodicity", 1: "space_parity"}
    for pos, (turn, el) in enumerate(gens.elements):
        d = el.dihedral
        dinv = d.inverse()
        perm = tuple(dinv.vertex(i) for i in range(d.n))
        name = names.get(pos, None)
        if name is None:
            if d.ref:
                name = "reflection"
            elif d.rot:
                name = "traveling_wave"
            else:
                name = "phase"
        out.append(
            Relation(
                name=name,
                sign=el.kappa1,
                perm=perm,
                t_shift_turns=turn,
                x_flip=el.kappa2 == -1,
            )
        )
    return out


def _signed_degree_sum(sets: IndexSets, params: ModelParams, point, ctx: TwistedContext):
    """Sum of rho-signed twisted basic degrees over the vanishing modes."""
    total = TwistedSum.zero(ctx)
    contribs = []
    for quad in sets.sigma0:
        sign = rho(quad.m, quad.n, quad.j, quad.k, params, point)
        contribs.append((quad, sign))
        if sign:
            total = total + sign * twisted_basic_degree(
                _block_irrep(params.N, quad.m, quad.n, quad.j), ctx
            )
    return total, tuple(contribs)


def local_invariant(
    point,
    params: ModelParams,
    lattice: SubgroupClassLattice,
    m_max: int = 10,
    n_max: int = 10,
) -> BifurcationInvariant:
    """Full-mode invariant: negative-spectrum Burnside factor acting on the
    signed sum of twisted basic degrees over the vanishing modes."""
    alpha, beta = point
    sets = index_sets(alpha, beta, params, m_max, n_max, h_fixed=False)
    if not sets.b1_ok:
        raise DegenerateParameterError(
            f"stationary eigenvalue vanishes at {sets.b1_violations}; "
            "the full-mode invariant is undefined (anti-periodic mode still works)"
        )
    neg = [
        (DressedIrrep(_irrep_for(params.N, jj), dressing_bit(nn)), 1)
        for nn, jj, _kk in sets.sigma_minus
    ]
    factor = linear_iso_degree(neg, lattice)
    total, contribs = _signed_degree_sum(sets, params, point, twisted_context(lattice))
    return BifurcationInvariant(
        value=module_product(factor, total),
        contributions=contribs,
        sigma_minus_factor=factor,
        sets=sets,
    )


def h_fixed_invariant(
    point,
    params: ModelParams,
    lattice: SubgroupClassLattice,
    m_max: int = 10,
    n_max: int = 10,
) -> BifurcationInvariant:
    """Anti-periodic-mode invariant: odd foldings only, no stationary factor."""
    alpha, beta = point
    sets = index_sets(alpha, beta, params, m_max, n_max, h_fixed=True)
    total, contribs = _signed_degree_sum(sets, params, point, twisted_context(lattice))
    return BifurcationInvariant(
        value=total, contributions=contribs, sigma_minus_factor=None, sets=sets
    )


@dataclass(frozen=True)
class PredictionReport:
    predictions: tuple
    withheld: tuple  # (CriticalPoint, reason) diagnostics
    invariants: tuple  # (CriticalPoint, BifurcationInvariant) pairs
    context: TwistedContext


def predict_branches(
    params: ModelParams,
    m_max: int,
    n_max: int,
    mode: str = "global",
) -> PredictionReport:
    """Branch predictions at every windowed odd-folding critical point.

    Per critical point and per maximal orbit type with a nonzero invariant
    coefficient, emits the type's generators, the induced symmetry relations,
    and flags.  Global mode additionally requires all crossing signs in each
    folding slice (across the windowed critical set) to agree, which certifies
    the branches as unbounded; mixed signs withhold the prediction with a
    diagnostic instead of guessing.
    """
    if mode not in ("local", "global"):
        raise ValueError("mode must be 'local' or 'global'")
    lattice = gamma_prime_lattice(params.N)
    ctx = twisted_context(lattice)
    points = enumerate_critical_points(params, m_max, n_max, odd_m_only=True)

    invariants = {}
    slice_signs: dict = {}
    for cp in points:
        inv = h_fixed_invariant(
            (cp.alpha, cp.beta), params, lattice, m_max=m_max, n_max=n_max
        )
        invariants[cp] = inv
        for quad, sign in inv.contributions:
            slice_signs.setdefault(quad.m, set()).add(sign)

    predictions = []
    withheld = []
    for cp in points:
        inv = invariants[cp]
        s = cp.quad.m
        signs_here = {sign for quad, sign in inv.contributions if quad.m == s}
        if 0 in signs_here:
            withheld.append((cp, "degenerate crossing: zero coupling derivative"))
            continue
        if len(signs_here) > 1:
            withheld.append((cp, "mixed crossing signs within the folding slice"))
            continue
        if mode == "global" and len(slice_signs.get(s, set()) - {0}) > 1:
            withheld.append(
                (cp, "mixed crossing signs across the windowed critical set")
            )
            continue
        gen_map = maximal_orbit_generators(params.N, s, cp.quad.n, cp.quad.j)
        for kind in sorted(gen_map):
            gens = gen_map[kind]
            t = generators_to_type(ctx, gens, s)
            coeff = inv.value.coeff(t)
            if coeff == 0:
                continue
            predictions.append(
                BranchPrediction(
                    point=cp,
                    kind=kind,
                    coeff=coeff,
                    generators=gens,
                    relations=tuple(symmetry_relations(gens)),
                    unbounded=mode == "global",
                    non_stationary=True,
                )
            )
    return PredictionReport(
        predictions=tuple(predictions),
        withheld=tuple(withheld),
        invariants=tuple(invariants.items()),
        context=ctx,
    )


def generators_json(gens: OrbitGenerators) -> list:
    out = []
    for turn, el in gens.elements:
        out.append(
            {
                "turn": str(turn),
                "kappa1": el.kappa1,
                "kappa2": el.kappa2,
                "rotation": el.dihedral.rot,
                "reflection": int(el.dihedral.ref),
            }
        )
    return out


def prediction_report_json(
    params: ModelParams, m_max: int, n_max: int, report: PredictionReport
) -> dict:
    """Stable JSON form of a prediction run (schema: critical_points list)."""
    by_point: dict = {}
    for p in report.predictions:
        key = p.point
        by_point.setdefault(key, []).append(p)
    inv_map = dict(report.invariants)
    points = []
    for cp in sorted(by_point, key=lambda c: c.quad):
        preds = by_point[cp]
        sign = rho(
            cp.quad.m, cp.quad.n, cp.quad.j, cp.quad.k, params, (cp.alpha, cp.beta)
        )
        invariant = []
        if cp in inv_map:
            invariant = [
                {"orbit_type": report.context.type_str(t), "coeff": v}
                for t, v in inv_map[cp].value.coeffs
            ]
        points.append(
            {
                "m": cp.quad.m,
                "n": cp.quad.n,
                "j": cp.quad.j,
                "k": cp.quad.k,
                "alpha": cp.alpha,
                "beta": cp.beta,
                "rho": sign,
                "invariant": invariant,
                "branches": [
                    {
                        "kind": p.kind,
                        "coeff": p.coeff,
                        "generators": generators_json(p.generators),
                        "relations": [r.to_json() for r in p.relations],
                        "unbounded": p.unbounded,
                        "non_stationary": p.non_stationary,
                    }
                    for p in sorted(preds, key=lambda p: p.kind)
                ],
            }
        )
    return {
        "params": {
            "nu": str(params.nu),
            "delta": params.delta,
            "tau": params.tau,
            "N": params.N,
            "zeta": params.zeta.kind,
        },
        "window": {"m_max": m_max, "n_max": n_max},
        "critical_points": points,
        "withheld": [
            {"m": cp.quad.m, "n": cp.quad.n, "j": cp.quad.j, "reason": why}
            for cp, why in report.withheld
        ],
    }
