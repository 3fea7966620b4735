"""Burnside ring arithmetic over a subgroup-class lattice.

Every coefficient in the Burnside ring and in its twisted module solves one
triangular system of marks, sum_u c_u n(t, u) |W(u)| = lead(t), top-down
with exact division by |W(t)| (`solve_marks`); `multiplication_table` is the
same solve vectorized over all generator pairs.  `SparseSum` is the integer
combination both rings' elements are made of.  `multiply_oracle` recomputes
any generator product by enumerating the orbits of the product coset space,
which keeps the two routes independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

from ._lazy import np
from .errors import ExactnessError
from .groups import SubgroupClassLattice


def solve_marks(order, lead, mark, weyl) -> dict:
    """Nonzero c_t of sum_u c_u mark(t, u) weyl(u) = lead(t), t in `order`.

    `order` runs top-down, so every u with mark(t, u) != 0 comes before t;
    each division by weyl(t) must be exact.
    """
    res: dict = {}
    for t in order:
        c, r = divmod(lead(t) - sum(v * mark(t, u) * weyl(u) for u, v in res.items()), weyl(t))
        if r:
            raise ExactnessError(f"non-integer coefficient at {t!r}")
        if c:
            res[t] = c
    return res


@dataclass(frozen=True)
class SparseSum:
    """Sparse integer combination of the basis keys of one owner.

    The owner (a lattice or a twisted context) is shared by identity and
    left out of equality.  Subclasses give `_key(owner, key)`, which checks
    or converts a key, and `_label(key)`, which shows it.
    """

    owner: object = field(compare=False)
    coeffs: tuple  # sorted ((key, coeff), ...), coeff != 0

    @classmethod
    def from_dict(cls, owner, d):
        return cls(owner, tuple(sorted((cls._key(owner, k), v) for k, v in d.items() if v)))

    @classmethod
    def zero(cls, owner):
        return cls(owner, ())

    @classmethod
    def generator(cls, owner, key):
        return cls(owner, ((cls._key(owner, key), 1),))

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def coeff(self, key) -> int:
        return self.as_dict().get(self._key(self.owner, key), 0)

    def support(self) -> list:
        return [k for k, _ in self.coeffs]

    def _check(self, other):
        if self.owner is not other.owner:
            raise ValueError(f"operands live over different {type(self.owner).__name__}s")

    def __add__(self, other):
        self._check(other)
        d = self.as_dict()
        for k, v in other.coeffs:
            d[k] = d.get(k, 0) + v
        return self.from_dict(self.owner, d)

    def __neg__(self):
        return -1 * self

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar == 0:
            return self.zero(self.owner)
        return type(self)(self.owner, tuple((k, scalar * v) for k, v in self.coeffs))

    __mul__ = __rmul__

    def __str__(self):
        return " + ".join(f"{v}*{self._label(k)}" for k, v in self.coeffs) or "0"


class BurnsideElement(SparseSum):
    """Sparse integer combination of subgroup conjugacy classes."""

    @classmethod
    def _key(cls, lattice, class_id: int) -> int:
        if not 0 <= class_id < lattice.n_classes:
            raise ValueError(f"unknown class id {class_id}")
        return class_id

    def _label(self, class_id: int) -> str:
        return f"({self.owner.class_label(class_id)})"

    @staticmethod
    def one(lattice) -> "BurnsideElement":
        return BurnsideElement.generator(lattice, lattice.full_class())

    def __mul__(self, other):
        if isinstance(other, BurnsideElement):
            return multiply(self, other)
        return super().__mul__(other)


def bilinear(a: SparseSum, b: SparseSum, product) -> SparseSum:
    """a * b from `product(key of a, key of b) -> {key: coeff}`; lives with b."""
    out: dict = {}
    for x, va in a.coeffs:
        for y, vb in b.coeffs:
            for c, v in product(x, y).items():
                out[c] = out.get(c, 0) + va * vb * v
    return b.from_dict(b.owner, out)


def multiply(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Bilinear extension of the generator product recurrence."""
    a._check(b)
    return bilinear(a, b, lambda h, k: _generator_product(a.owner, min(h, k), max(h, k)))


@lru_cache(maxsize=None)
def _generator_product(lat: SubgroupClassLattice, h: int, k: int) -> dict:
    """(H)*(K) = sum n_L (L): the marks of (H)(K) at L are the products of theirs.

    Callers pass h <= k, so each unordered pair has one cache entry.
    """
    n, w = lat.n_table, lat.weyl
    return solve_marks(range(lat.n_classes), lambda L: n[L][h] * w[h] * n[L][k] * w[k],
                       lat.n, w.__getitem__)


def multiplication_table(lat: SubgroupClassLattice) -> dict:
    """All generator products at once: `_generator_product` over every pair.

    The same system of marks as `solve_marks`, vectorized: the Weyl-weighted
    count matrix M[L,K] = n(L,K)|W(K)| is lower triangular in the total order,
    and each product column solves M c = M[:,H] * M[:,K] by exact forward
    substitution.  Over all pairs this is several times faster than the
    scalar solve, which `group-tables` would otherwise pay.
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
    return bilinear(a, b, partial(_orbit_count_product, a.owner))


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
