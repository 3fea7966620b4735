"""Burnside ring arithmetic over a subgroup-class lattice.

The production multiplication runs the top-down integer recurrence on
Weyl-weighted subconjugation counts; `multiply_oracle` recomputes any
generator product by enumerating the orbits of the product coset space,
which keeps the two routes independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ExactnessError
from .groups import SubgroupClassLattice


@dataclass(frozen=True)
class BurnsideElement:
    """Sparse integer combination of subgroup conjugacy classes."""

    lattice: SubgroupClassLattice = field(compare=False)
    coeffs: tuple  # sorted tuple of (class_id, coeff), coeff != 0

    @staticmethod
    def from_dict(lattice, d) -> "BurnsideElement":
        return BurnsideElement(
            lattice, tuple(sorted((c, v) for c, v in d.items() if v))
        )

    @staticmethod
    def generator(lattice, class_id: int) -> "BurnsideElement":
        if not 0 <= class_id < lattice.n_classes:
            raise ValueError(f"unknown class id {class_id}")
        return BurnsideElement(lattice, ((class_id, 1),))

    @staticmethod
    def one(lattice) -> "BurnsideElement":
        return BurnsideElement.generator(lattice, lattice.full_class())

    @staticmethod
    def zero(lattice) -> "BurnsideElement":
        return BurnsideElement(lattice, ())

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def coeff(self, class_id: int) -> int:
        if not 0 <= class_id < self.lattice.n_classes:
            raise ValueError(f"unknown class id {class_id}")
        return dict(self.coeffs).get(class_id, 0)

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        self._check(other)
        d = dict(self.coeffs)
        for c, v in other.coeffs:
            d[c] = d.get(c, 0) + v
        return BurnsideElement.from_dict(self.lattice, d)

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.lattice, tuple((c, -v) for c, v in self.coeffs))

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        return self + (-other)

    def __rmul__(self, scalar: int) -> "BurnsideElement":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return BurnsideElement.zero(self.lattice)
        return BurnsideElement(
            self.lattice, tuple((c, scalar * v) for c, v in self.coeffs)
        )

    def __mul__(self, other) -> "BurnsideElement":
        if isinstance(other, int):
            return other * self
        return multiply(self, other)

    def _check(self, other: "BurnsideElement"):
        if self.lattice is not other.lattice:
            raise ValueError("elements live over different lattices")

    def __str__(self):
        if not self.coeffs:
            return "0"
        lat = self.lattice
        return " + ".join(f"{v}*({lat.class_label(c)})" for c, v in self.coeffs)


def multiply(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Bilinear extension of the generator product recurrence."""
    a._check(b)
    lat = a.lattice
    out: dict = {}
    for h, va in a.coeffs:
        for k, vb in b.coeffs:
            for c, v in _generator_product(lat, min(h, k), max(h, k)).items():
                out[c] = out.get(c, 0) + va * vb * v
    return BurnsideElement.from_dict(lat, out)


@lru_cache(maxsize=None)
def _generator_product(lat: SubgroupClassLattice, h: int, k: int) -> dict:
    """(H)*(K) = sum n_L (L), n_L from the Weyl-weighted top-down recurrence.

    Callers pass h <= k, so each unordered pair has one cache entry.
    """
    n, w = lat.n_table, lat.weyl
    res: dict = {}
    for L in range(lat.n_classes):
        lead = n[L][h] * w[h] * n[L][k] * w[k]
        above = sum(v * n[L][Lt] * w[Lt] for Lt, v in res.items())
        num = lead - above
        if num % w[L]:
            raise ExactnessError(
                f"non-integer Burnside coefficient at class {L} for ({h})*({k})"
            )
        c = num // w[L]
        if c:
            res[L] = c
    return res


def multiplication_table(lat: SubgroupClassLattice) -> dict:
    """All generator products at once.

    Same recurrence as `multiply`, vectorized: the Weyl-weighted count matrix
    M[L,K] = n(L,K)|W(K)| is lower triangular in the total order, and each
    product column solves M c = M[:,H] * M[:,K] by exact forward substitution.
    """
    nc = lat.n_classes
    marks = np.array(
        [[lat.n_table[L][K] * lat.weyl[K] for K in range(nc)] for L in range(nc)],
        dtype=np.int64,
    )
    pairs = [(h, k) for h in range(nc) for k in range(h, nc)]
    out = {}
    chunk = max(1, 2_000_000 // max(nc, 1))
    for start in range(0, len(pairs), chunk):
        block = pairs[start : start + chunk]
        v = np.empty((nc, len(block)), dtype=np.int64)
        for col, (h, k) in enumerate(block):
            v[:, col] = marks[:, h] * marks[:, k]
        c = np.zeros_like(v)
        for L in range(nc):
            num = v[L] - marks[L, :L] @ c[:L]
            q, r = np.divmod(num, lat.weyl[L])
            if r.any():
                raise ExactnessError("non-integer coefficient in bulk Burnside table")
            c[L] = q
        for col, (h, k) in enumerate(block):
            nz = np.nonzero(c[:, col])[0]
            out[(h, k)] = {int(L): int(c[L, col]) for L in nz}
    return out


def multiply_oracle(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Product recomputed from orbit counting on (G/H) x (G/K).

    The G-orbits of the product coset space correspond to double cosets
    H g K; the orbit through (eH, gK) has isotropy H \\cap gKg^-1.  Orbit
    types are tallied per double coset, with no Weyl-order arithmetic.
    """
    a._check(b)
    lat = a.lattice
    out: dict = {}
    for h, va in a.coeffs:
        for k, vb in b.coeffs:
            for c, v in _orbit_count_product(lat, h, k).items():
                out[c] = out.get(c, 0) + va * vb * v
    return BurnsideElement.from_dict(lat, out)


def _orbit_count_product(lat: SubgroupClassLattice, h: int, k: int) -> dict:
    group = lat.group
    tab, inv = group.table, group.inverse
    hs = lat.reps[h].elems
    ks = lat.reps[k].elems
    hset = lat.reps[h].members
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
    h_cosets = _cosets(group, hrep.elems)
    k_cosets = _cosets(group, krep.elems)
    per_class_points: dict = {}
    for a in h_cosets:
        ah = group.conj_set(a, hrep.elems)
        for b in k_cosets:
            bk = group.conj_set(b, krep.elems)
            cid = lat.class_id(ah & bk)
            per_class_points[cid] = per_class_points.get(cid, 0) + 1
    out = {}
    for cid, pts in per_class_points.items():
        size = lat.reps[cid].order
        total = pts * size
        if total % group.order:
            raise AssertionError("orbit sizes do not tile the point count")
        out[cid] = total // group.order
    return out


def _cosets(group, sub_elems):
    seen = set()
    reps = []
    for g in range(group.order):
        coset = frozenset(group.table[g][s] for s in sub_elems)
        if coset not in seen:
            seen.add(coset)
            reps.append(g)
    return reps
