"""Burnside products recounted from the orbits of (G/H) x (G/K), and the
generator product table by a dense solve of the marks over dense down-sets.

Both are independent of `ringwaves.burnside`: the orbit counts use no marks,
and `dense_solve` reads every mark from the lattice's n(H, K) table and Weyl
orders.  `solve_marks_table` is the dense reference for
`multiplication_table`, which walks down-set bitmasks and mark columns.
"""

from __future__ import annotations

from functools import partial

from ringwaves.burnside import BurnsideElement, bilinear
from ringwaves.errors import ExactnessError
from ringwaves.groups import SubgroupClassLattice

from oracles.groups import cayley, conj_set


def multiply_oracle(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Product recomputed from orbit counting on (G/H) x (G/K).

    The G-orbits of the product coset space correspond to double cosets
    H g K; the orbit through (eH, gK) has isotropy H \\cap gKg^-1.  Orbit
    types are tallied per double coset, with no Weyl-order arithmetic.
    """
    a._check(b)
    return bilinear(a, b, partial(orbit_count_product, a.owner))


def orbit_count_product(lat: SubgroupClassLattice, h: int, k: int) -> dict:
    group = lat.group
    oracle = cayley(group)
    tab, inv = oracle.table, oracle.inverse
    hs, ks = lat.reps[h], lat.reps[k]
    hset = frozenset(hs)
    counts: dict = {}
    visited = bytearray(group.order)
    for g in range(group.order):
        if visited[g]:
            continue
        gk = [tab[g][b] for b in ks]
        for a in hs:
            row = tab[a]
            for x in (row[y] for y in gk):
                visited[x] = 1
        gi = inv[g]
        iso = hset & {tab[x][gi] for x in gk}
        cid = lat.class_id(iso)
        counts[cid] = counts.get(cid, 0) + 1
    return counts


def orbit_count_product_pointwise(lat: SubgroupClassLattice, h: int, k: int) -> dict:
    """Literal orbit tally over every point of (G/H) x (G/K); test-scale only.

    Each point (aH, bK) contributes isotropy aHa^-1 \\cap bKb^-1; the number
    of type-(L) orbits is (#points with isotropy in (L)) * |L| / |G|.
    """
    group = lat.group
    hrep, krep = lat.reps[h], lat.reps[k]
    h_cosets = _cosets(group, hrep)
    k_cosets = _cosets(group, krep)
    per_class_points: dict = {}
    for a in h_cosets:
        ah = conj_set(group, a, hrep)
        for b in k_cosets:
            bk = conj_set(group, b, krep)
            cid = lat.class_id(ah & bk)
            per_class_points[cid] = per_class_points.get(cid, 0) + 1
    out = {}
    for cid, pts in per_class_points.items():
        size = len(lat.reps[cid])
        total = pts * size
        if total % group.order:
            raise AssertionError("orbit sizes do not tile the point count")
        out[cid] = total // group.order
    return out


def _cosets(group, sub_elems):
    tab = cayley(group).table
    seen = set()
    reps = []
    for g in range(group.order):
        coset = frozenset(tab[g][s] for s in sub_elems)
        if coset not in seen:
            seen.add(coset)
            reps.append(g)
    return reps


def dense_solve(lat: SubgroupClassLattice, order, lead) -> dict:
    """Nonzero c_L of sum_U c_U n(L, U) |W(U)| = lead(L), L over `order` top-down.

    Every term reads the table n(L, U) and the Weyl orders afresh; each
    division by |W(L)| must be exact.
    """
    n, w = lat.n_table, lat.weyl
    res = {}
    for L in order:
        c, r = divmod(lead(L) - sum(v * n[L][U] * w[U] for U, v in res.items()), w[L])
        if r:
            raise ExactnessError(f"non-integer coefficient at {L}")
        if c:
            res[L] = c
    return res


def solve_marks_table(lat: SubgroupClassLattice) -> dict:
    """Every generator product (H)*(K), h <= k in ascending order, by one
    `dense_solve` per pair over the classes (L) below both factors, listed by
    scanning the rows n(L, .) of the table top-down."""
    n, w = lat.n_table, lat.weyl
    down = [[L for L in range(lat.n_classes) if n[L][c]] for c in range(lat.n_classes)]
    return {(h, k): dense_solve(lat, [L for L in down[h] if n[L][k]],
                                lambda L: n[L][h] * w[h] * n[L][k] * w[k])
            for h in range(lat.n_classes) for k in range(h, lat.n_classes)}
