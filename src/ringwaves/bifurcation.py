"""Bifurcation invariants and certified branch predictions.

Assembles the twisted-degree invariant at a critical parameter pair from the
null and negative spectra, extracts maximal-kind coefficients, and emits
branch predictions carrying explicit symmetry generators and machine-checkable
relations.  The anti-periodic reduction (only odd temporal foldings) removes
stationary modes, so branches detected that way consist of non-stationary
solutions.  Global mode certifies them unbounded by the global alternative
(Rabinowitz 1971), which needs a branch's type to have one sign in every
block degree of its folding.  The only negative type of a block's degree
is the block's kernel (Balanov, Krawcewicz and Steinlein 2006), and no
emitted generator list generates a kernel: each holds a reflection or
gamma^(+-1), which act on a geometric V_j as no scalar.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple

from .burnside import BurnsideElement
from .degrees import linear_iso_degree, twisted_basic_degree
from .errors import DegenerateParameterError, ExactnessError
from .groups import DihedralElement, GammaPrimeElement, SubgroupClassLattice, gamma_prime_lattice
from .reps import DressedIrrep, GIrrep, circle_closure, dressing_bit, fixed_dim, isotypic_irreps
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


class BifurcationInvariant(NamedTuple):
    """The twisted invariant at a critical point with its provenance."""

    value: TwistedSum
    contributions: tuple  # ((IndexQuad, rho sign), ...)
    sigma_minus_factor: BurnsideElement | None  # None in the anti-periodic mode
    sets: IndexSets


class OrbitGenerators(NamedTuple):
    """Explicit generators of a maximal isotropy subgroup.

    Elements are (turn, GammaPrimeElement) pairs with exact rational circle
    turns; the generated twisted subgroup has positive fixed dimension in the
    associated irreducible block (asserted at construction).
    """

    kind: str  # "H" | "S" | "T"
    elements: tuple


class Relation(NamedTuple):
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


class BranchPrediction(NamedTuple):
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


def _block_irrep(N: int, m: int, n: int, j: int) -> GIrrep:
    return GIrrep(m, DressedIrrep(isotypic_irreps(N)[j], dressing_bit(n)))


def maximal_orbit_generators(N: int, m: int, n: int, j: int) -> dict:
    """Generator lists for the maximal orbit types of the (m, n, j) block.

    Kinds: "H" is the traveling type present for every j; for geometric j
    (0 < j < N/2) the plain-reflection type "T" (a standing profile in the
    real eigenvector) and the phase-shifted reflection type "S" (its
    imaginary counterpart) appear as well.  Every list starts with the
    anti-periodicity and the space parity.  Each list is verified to fix a
    nonzero subspace of W_m (x) V_j at construction.
    """
    if m < 1:
        raise ValueError("maximal kinds need folding m >= 1")
    if not 0 <= j <= N // 2:
        # in particular the alternating index N/2 only exists for even N
        raise ValueError(f"isotypic index {j} out of range for N={N}")

    def gen(turn, rot=0, ref=False, kappa1=1, kappa2=1):
        return (Fraction(turn), GammaPrimeElement(kappa1, kappa2, DihedralElement(rot, ref, N)))

    half_turn = Fraction(1, 2 * m)
    kappa = gen(0, ref=True)
    common = (gen(half_turn, kappa1=-1), gen(0, kappa1=(-1) ** dressing_bit(n), kappa2=-1))
    # kappa acts trivially on V_0 and on the alternating V_{N/2}, so their
    # maximal isotropy keeps it alongside the traveling rotation
    geometric = 0 < j and 2 * j != N
    travel = common + (gen(Fraction(j, N * m) % 1, rot=1),)
    out = {"H": travel if geometric else travel + (kappa,)}
    if geometric:
        ntilde, _jt, h = folding_data(N, j)
        if ntilde % 2:
            # the rotation kernel <gamma^ntilde> (trivial when ntilde = N)
            extra = (gen(0, rot=ntilde),) if ntilde < N else ()
            s_ref = gen(half_turn, ref=True)
        else:
            # even reduced order: both reflection types are plain, told apart
            # by the reflection's phase on the rotation eigenvector (1 for T,
            # the primitive one for S), and share the half-turn traveling step
            # gamma^(ntilde/2): it acts by -1 on the block, and its square
            # generates the block's rotation kernel <gamma^ntilde>
            extra = (gen(half_turn, rot=ntilde // 2),)
            s_ref = gen(0, rot=h % N, ref=True)
        out["T"] = common + (kappa,) + extra
        out["S"] = common + (s_ref,) + extra
    rep = _block_irrep(N, m, n, j)
    for kind, elements in out.items():
        if fixed_dim(rep, elements) <= 0:
            raise ExactnessError(f"{kind}-generators fix nothing in {rep.label}")
    return {kind: OrbitGenerators(kind, elements) for kind, elements in out.items()}


def generators_to_type(ctx: TwistedContext, gens: OrbitGenerators, m: int):
    """Canonical twisted orbit type generated by an explicit generator list."""
    if gens.elements[0][1].dihedral.n != ctx.group.n:
        raise ValueError("generators and context have different ring sizes")
    q, pairs = circle_closure(gens.elements)
    phi = {idx: Fraction(m * t % q, q) for t, idx in pairs}
    return ctx.type_of(phi, m)


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
    point, params: ModelParams, lattice: SubgroupClassLattice
) -> BifurcationInvariant:
    """Full-mode invariant: negative-spectrum Burnside factor acting on the
    signed sum of twisted basic degrees over the vanishing modes."""
    alpha, beta = point
    sets = index_sets(alpha, beta, params, h_fixed=False)
    if not sets.b1_ok:
        raise DegenerateParameterError(
            f"stationary eigenvalue vanishes at {sets.b1_violations}; "
            "the full-mode invariant is undefined (anti-periodic mode still works)"
        )
    neg = [
        (DressedIrrep(isotypic_irreps(params.N)[jj], dressing_bit(nn)), 1)
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
    point, params: ModelParams, lattice: SubgroupClassLattice
) -> BifurcationInvariant:
    """Anti-periodic-mode invariant: odd foldings only, no stationary factor."""
    alpha, beta = point
    sets = index_sets(alpha, beta, params, h_fixed=True)
    total, contribs = _signed_degree_sum(sets, params, point, twisted_context(lattice))
    return BifurcationInvariant(
        value=total, contributions=contribs, sigma_minus_factor=None, sets=sets
    )


class PredictionReport(NamedTuple):
    predictions: tuple
    withheld: tuple  # (CriticalPoint, reason) diagnostics
    invariants: tuple  # (CriticalPoint, BifurcationInvariant) pairs
    context: TwistedContext


def escapes_block_kernels(gens: OrbitGenerators) -> bool:
    """Whether the list holds a reflection or gamma^(+-1).

    Neither acts on a geometric V_j as a scalar, while the kernel K0 of a
    block W_m (x) V_j^bit acts on V_j as +-1: a list holding one generates
    no block's kernel, up to conjugacy.
    """
    n = gens.elements[0][1].dihedral.n
    return any(el.dihedral.ref or el.dihedral.rot in (1, n - 1) for _t, el in gens.elements)


def predict_branches(params: ModelParams, m_max: int, n_max: int,
                     mode: str = "global") -> PredictionReport:
    """Branch predictions at every windowed odd-folding critical point, in one pass.

    A point with a zero crossing sign at its folding is withheld.  Otherwise
    each maximal orbit type of its block with a nonzero invariant coefficient
    is emitted with its generators and symmetry relations.  Global mode marks
    it unbounded by the global alternative: a bounded branch of type t meets
    finitely many critical points, whose t-coefficients sum to zero.  Only
    blocks of t's folding m carry t and rho is fixed per m, so that sum cannot
    vanish when t has one sign in every block degree of folding m.  By the
    recurrence for twisted basic degrees a block's degree is (H) at j = 0 and
    N/2 and (H) + (S) + (T) - (K0) otherwise, K0 the block's kernel, so t has
    one sign unless it is some block's kernel, which `escapes_block_kernels`
    rules out.  Every emitted list passes; a branch whose list fails is
    withheld, naming its kind.  The check ignores the window and the curve.
    """
    if mode not in ("local", "global"):
        raise ValueError("mode must be 'local' or 'global'")
    lattice = gamma_prime_lattice(params.N)
    ctx = twisted_context(lattice)
    predictions, withheld, invariants = [], [], []
    for cp in enumerate_critical_points(params, m_max, n_max, odd_m_only=True):
        inv = h_fixed_invariant((cp.alpha, cp.beta), params, lattice)
        invariants.append((cp, inv))
        m, n, j, _k = cp.quad
        if any(sign == 0 for quad, sign in inv.contributions if quad.m == m):
            withheld.append((cp, "degenerate crossing: zero coupling derivative"))
            continue
        rep = _block_irrep(params.N, m, n, j)
        own = twisted_basic_degree(rep, ctx)  # cached by the invariant just built
        for kind, gens in sorted(maximal_orbit_generators(params.N, m, n, j).items()):
            t = generators_to_type(ctx, gens, m)
            # a maximal isotropy type has coefficient dim Fix / (2 |W(H)/S^1|) > 0
            # in its block's degree, so a zero means the generators are wrong
            if own.coeff(t) == 0:
                raise ExactnessError(f"{kind}-generators give a type outside the twisted "
                                     f"basic degree of {rep.label}")
            coeff = inv.value.coeff(t)
            if coeff == 0:
                continue
            if mode == "global" and not escapes_block_kernels(gens):
                withheld.append((cp, f"{kind} generators hold no reflection and no gamma^(+-1)"))
                continue
            predictions.append(BranchPrediction(
                point=cp, kind=kind, coeff=coeff, generators=gens,
                relations=tuple(symmetry_relations(gens)), unbounded=mode == "global",
                non_stationary=True))
    return PredictionReport(predictions=tuple(predictions), withheld=tuple(withheld),
                            invariants=tuple(invariants), context=ctx)


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
    """Stable JSON form of a prediction run (schema: critical_points list).

    `predict_branches` emits predictions in critical-point order, kinds
    sorted within a point, so each point's branches are one run.
    """
    inv_map = dict(report.invariants)
    points = []
    for cp, preds in groupby(report.predictions, key=lambda p: p.point):
        points.append(
            {
                "m": cp.quad.m,
                "n": cp.quad.n,
                "j": cp.quad.j,
                "k": cp.quad.k,
                "alpha": cp.alpha,
                "beta": cp.beta,
                "rho": rho(cp.quad.m, cp.quad.n, cp.quad.j, cp.quad.k, params,
                           (cp.alpha, cp.beta)),
                "invariant": [
                    {"orbit_type": report.context.type_str(t), "coeff": v}
                    for t, v in inv_map[cp].value.coeffs
                ],
                "branches": [
                    {
                        "kind": p.kind,
                        "coeff": p.coeff,
                        "generators": generators_json(p.generators),
                        "relations": [r.to_json() for r in p.relations],
                        "unbounded": p.unbounded,
                        "non_stationary": p.non_stationary,
                    }
                    for p in preds
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
