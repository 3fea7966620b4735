"""Burnside ring arithmetic over a subgroup-class lattice.

Every coefficient in the Burnside ring and in its twisted module solves one
triangular system of marks, sum_u c_u n(t, u) |W(u)| = lead(t), top-down
with exact division by |W(t)| (`solve_marks`), on precomputed mark columns.
A generator product solves it over the classes below both factors, and
`multiplication_table` collects those products over all generator pairs.
`SparseSum` is the integer combination both rings' elements are made of.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ExactnessError
from .groups import SubgroupClassLattice, bits


def solve_marks(lead: dict, column, weyl) -> dict:
    """Nonzero c_t of sum_u c_u column(u)[t] = lead[t], t over the keys of `lead`.

    `column(u)[t]` is the mark n(t, u) |W(u)|, fetched once c_u turns out
    nonzero.  The keys run top-down, so every u with a nonzero mark at t
    comes before t; each division by weyl[t] = |W(t)| must be exact.
    """
    res, found = {}, []  # found: (column(u), c_u) per nonzero c_u
    for t, x in lead.items():
        for col, v in found:
            x -= v * col[t]
        c, r = divmod(x, weyl[t])
        if r:
            raise ExactnessError(f"non-integer coefficient at {t!r}")
        if c:
            res[t] = c
            found.append((column(t), c))
    return res


class SparseSum:
    """Sparse integer combination of the basis keys of one owner.

    Immutable.  The owner (a lattice or a twisted context) is shared by
    identity and left out of equality and hashing.  Subclasses give
    `_key(owner, key)`, which checks or converts a key, and `_label(key)`,
    which shows it.
    """

    __slots__ = ("owner", "coeffs")

    def __init__(self, owner, coeffs: tuple):  # sorted ((key, coeff), ...), coeff != 0
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.coeffs == other.coeffs if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"{type(self).__qualname__}(owner={self.owner!r}, coeffs={self.coeffs!r})"

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

    __slots__ = ()

    @classmethod
    def _key(cls, lattice, class_id: int) -> int:
        if not 0 <= class_id < lattice.n_classes:
            raise ValueError(f"unknown class id {class_id}")
        return class_id

    def _label(self, class_id: int) -> str:
        return f"({self.owner.class_label(class_id)})"

    @staticmethod
    def one(lattice) -> "BurnsideElement":
        return BurnsideElement.generator(lattice, 0)  # class 0 is the full group

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
def mark_columns(lat: SubgroupClassLattice) -> list:
    """Per class u, its mark column L -> n(L, u) |W(u)|."""
    return [[x * w for x in col] for col, w in zip(zip(*lat.n_table), lat.weyl)]


@lru_cache(maxsize=None)
def _generator_product(lat: SubgroupClassLattice, h: int, k: int) -> dict:
    """(H)*(K) = sum n_L (L): its marks are the products of theirs.  One entry
    per unordered pair, since `multiply` passes h <= k.  Only the classes
    below both, the set bits of both down-set masks low to high (top-down),
    are solved: elsewhere the lead is zero, and every mark n(L, U) != 0 of a
    nonzero c_U has (L) <= (U) <= (H), (K), so the full solve gives zero."""
    cols = mark_columns(lat)
    col_h, col_k = cols[h], cols[k]
    lead = {t: col_h[t] * col_k[t] for t in bits(lat.down[h] & lat.down[k])}
    return solve_marks(lead, cols.__getitem__, lat.weyl)


def multiplication_table(lat: SubgroupClassLattice) -> dict:
    """All generator products (H)*(K), h <= k, in ascending (h, k) order,
    each solved as in `_generator_product`."""
    cols, down, weyl = mark_columns(lat), lat.down, lat.weyl
    column, table = cols.__getitem__, {}
    for h in range(lat.n_classes):
        col_h, down_h = cols[h], down[h]
        for k in range(h, lat.n_classes):
            col_k, lead = cols[k], {}
            for t in bits(down_h & down[k]):  # a loop: a comprehension is a call per pair
                lead[t] = col_h[t] * col_k[t]
            table[h, k] = solve_marks(lead, column, weyl)
    return table
