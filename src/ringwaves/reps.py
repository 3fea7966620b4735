"""Irreducible representations of D_N and Z2 x Z2 x D_N, and cycle eigendata.

The dihedral table has the trivial representation, the 2-dimensional
geometric ones rho_j, the orientation character ("sign", reflections act by
-1), and for even N the alternating character ("half", the rotation acts by
-1, matching the (1,-1,1,...,-1) Laplacian eigenvector) plus their product
("signsign").

Fixed-point dimensions are exact: a character's sum over a finite group is
rational and its values are sums of L-th roots of unity, so the sum is its
trace over Q(zeta_L), a sum of integer Ramanujan sums, divided by phi(L).
Circle coordinates must be exact rational turns so that group is finite.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import ExactnessError
from .groups import (
    DihedralElement,
    GammaPrimeElement,
    gamma_prime_element,
    gamma_prime_index,
    generated,
    mul_index,
)

MAX_CLOSURE_ELEMENTS = 100_000  # cap on the elements of one generated circle subgroup

_EXACT_COS = {
    Fraction(0, 1): 1.0,
    Fraction(1, 2): -1.0,
    Fraction(1, 4): 0.0,
    Fraction(3, 4): 0.0,
    Fraction(1, 3): -0.5,
    Fraction(2, 3): -0.5,
    Fraction(1, 6): 0.5,
    Fraction(5, 6): 0.5,
}


def cos_turn(turn: Fraction) -> float:
    """cos(2*pi*turn), exact for the rational angles with rational cosine."""
    t = turn % 1
    got = _EXACT_COS.get(t)
    if got is not None:
        return got
    return math.cos(2.0 * math.pi * float(t))


@lru_cache(maxsize=None)
def _ramanujan(L: int) -> tuple:
    """Ramanujan's sums c_L(e), the traces of zeta_L^e over Q(zeta_L), for
    e = 0..L-1; c_L(0) = phi(L).  Each L-th root of unity is primitive of
    exactly one order d | L, so the c_d(e) over d | L sum to L [L | e]."""
    return tuple(
        (0 if e else L) - sum(_ramanujan(d)[e % d] for d in range(1, L) if L % d == 0)
        for e in range(L)
    )


def galois_average(traces, L: int, order: int) -> int:
    """Average over `order` elements of a character given by the traces of its
    values over Q(zeta_L): sum(traces) / (phi(L) * order), exactly."""
    total = sum(traces)
    dim, rem = divmod(total, _ramanujan(L)[0] * order)
    if rem:
        raise ExactnessError(f"character sum {total} is not divisible by phi({L}) * {order}")
    return dim


class DihedralIrrep(NamedTuple):
    """An irreducible representation of D_N."""

    label: str  # "trivial" | "geom<j>" | "half" | "sign" | "signsign"
    j: int | None  # geometric rotation index; N/2 for half; None otherwise
    dim: int
    N: int

    def char(self, g: DihedralElement) -> float:
        if self.dim == 1:
            return float(self.sign(g))
        if g.ref:
            return 0.0
        return 2.0 * cos_turn(Fraction(self.j * g.rot, self.N))

    def sign(self, g: DihedralElement) -> int:
        """Value of a one-dimensional irrep at g."""
        if self.label == "sign":
            return -1 if g.ref else 1
        if self.label == "half":
            return (-1) ** g.rot
        if self.label == "signsign":
            return (-1) ** (g.rot + g.ref)
        return 1

    def trace(self, g: DihedralElement, L: int, b: int | None = None) -> int:
        """Trace over Q(zeta_L) of char(g), times zeta_L^b + zeta_L^-b unless
        b is None; N must divide L.  On a rotation a geometric irrep is
        zeta^a + zeta^-a with a = j rot L/N, and c_L is even."""
        c = _ramanujan(L)
        if self.dim == 1:
            return self.sign(g) * (c[0] if b is None else 2 * c[b % L])
        if g.ref:
            return 0
        a = self.j * g.rot * (L // self.N)
        if b is None:
            return 2 * c[a % L]
        return 2 * (c[(a + b) % L] + c[(a - b) % L])


def character_table(N: int) -> list[DihedralIrrep]:
    """All irreducible D_N representations; count (N+3)/2 odd, N/2+3 even."""
    if N < 3:
        raise ValueError("cycle model needs N >= 3")
    irreps = [DihedralIrrep("trivial", 0, 1, N)]
    for j in range(1, (N + 1) // 2):
        irreps.append(DihedralIrrep(f"geom{j}", j, 2, N))
    if N % 2 == 0:
        irreps.append(DihedralIrrep("half", N // 2, 1, N))
    irreps.append(DihedralIrrep("sign", None, 1, N))
    if N % 2 == 0:
        irreps.append(DihedralIrrep("signsign", None, 1, N))
    return irreps


def isotypic_irreps(N: int) -> list[DihedralIrrep]:
    """Irreps indexed by the cycle-graph isotypic index j = 0..floor(N/2)."""
    table = {ir.label: ir for ir in character_table(N)}
    out = [table["trivial"]]
    for j in range(1, (N + 1) // 2):
        out.append(table[f"geom{j}"])
    if N % 2 == 0:
        out.append(table["half"])
    return out


class DressedIrrep(NamedTuple):
    """A D_N irrep with a Z2 x Z2 dressing.

    bit 0: kappa1 acts antipodally, kappa2 trivially; bit 1: both antipodal.
    """

    base: DihedralIrrep
    bit: int

    @property
    def dim(self) -> int:
        return self.base.dim

    def sign(self, g: GammaPrimeElement) -> int:
        return g.kappa1 * (g.kappa2 if self.bit else 1)

    def trace(self, g: GammaPrimeElement, L: int, b: int | None = None) -> int:
        return self.sign(g) * self.base.trace(g.dihedral, L, b)

    @property
    def label(self) -> str:
        return f"{self.base.label}^{self.bit}"


class GIrrep(NamedTuple):
    """W_m (x) V_j^bit: the circle acts by the m-fold rotation on W_m."""

    m: int
    dressed: DressedIrrep

    @property
    def dim(self) -> int:
        return self.dressed.dim * (1 if self.m == 0 else 2)

    def trace(self, turn: Fraction, g: GammaPrimeElement, L: int) -> int:
        """Trace over Q(zeta_L) of char(turn, g); L * turn must be an integer."""
        if self.m == 0:
            return self.dressed.trace(g, L)
        b = self.m * turn.numerator * (L // turn.denominator) % L
        return self.dressed.trace(g, L, b)

    @property
    def label(self) -> str:
        return f"W{self.m}x{self.dressed.label}"


def dressing_bit(n: int) -> int:
    """Z2 x Z2 dressing carried by the n-th transverse mode.

    Odd n pairs with the even profile cos(nx) (x-flip acts trivially, bit 0);
    even n pairs with sin(nx) (x-flip antipodal, bit 1).
    """
    return 0 if n % 2 else 1


def circle_closure(generators):
    """Closure of (turn, GammaPrimeElement) pairs as (q, [(t, i), ...]).

    Each (t, i) is the turn t / q, q the lcm of the generators' denominators,
    with the element of index i in gamma_prime(N).  The closure runs over
    the integer codes t * 8N + i with products by `mul_index` and no Cayley
    table, so any N works.
    """
    generators = list(generators)
    if not all(isinstance(t, Fraction) for t, _ in generators):
        raise ValueError("circle coordinates must be exact rational turns")
    if not generators:
        raise ValueError("empty generator list")
    n = generators[0][1].dihedral.n
    if any(g.dihedral.n != n for _, g in generators):
        raise ValueError("mismatched dihedral orders")
    q = math.lcm(*(t.denominator for t, _ in generators))
    size = 8 * n
    gens = [t.numerator * (q // t.denominator) % q * size + gamma_prime_index(g)
            for t, g in generators]

    def mul(x, y):
        tx, ix = divmod(x, size)
        ty, iy = divmod(y, size)
        return (tx + ty) % q * size + mul_index(ix, iy, n)

    codes = generated(gens, mul, [0], limit=MAX_CLOSURE_ELEMENTS)
    if codes is None:
        raise ValueError(f"generated circle subgroup has more than {MAX_CLOSURE_ELEMENTS} "
                         "elements, the closure limit")
    return q, [divmod(code, size) for code in codes]


def generated_group(generators) -> list:
    """Closure of (turn, GammaPrimeElement) pairs; turns must be Fractions."""
    generators = list(generators)
    q, pairs = circle_closure(generators)
    n = generators[0][1].dihedral.n
    return [(Fraction(t, q), gamma_prime_element(i, n)) for t, i in pairs]


def fixed_dim(rep, generators) -> int:
    """dim of the subspace fixed by the group generated by `generators`.

    For a DressedIrrep, generators are GammaPrimeElements; for a GIrrep they
    are (turn, GammaPrimeElement) pairs with exact rational turns.
    """
    if isinstance(rep, DressedIrrep):
        pairs = [(Fraction(0), g) for g in generators]
        rep = GIrrep(0, rep)
    else:
        pairs = list(generators)
    group = generated_group(pairs)
    L = math.lcm(rep.dressed.base.N, *(t.denominator for t, _ in pairs))
    return galois_average((rep.trace(t, g, L) for t, g in group), L, len(group))


class LaplacianEigendata:
    """Eigenvalues z_{j,k} >= 0 of an invariant coupling Laplacian.

    Immutable; equal, and hashed, by `entries` alone.
    """

    __slots__ = ("entries", "_by_j")

    def __init__(self, entries: tuple):  # tuple of (j, z, multiplicity)
        by_j = {}  # j -> (z, mult)
        for j, z, mult in entries:
            # each isotypic block has one eigenvalue: a second row for j
            # would be a second z for one block
            if j in by_j:
                raise ValueError(f"eigendata lists isotypic index {j} twice")
            by_j[j] = (z, mult)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_by_j", by_j)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self.entries == other.entries if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"LaplacianEigendata(entries={self.entries!r})"

    def z(self, j: int, k: int = 1) -> float:
        got = self._by_j.get(j)
        if got is None:
            raise ValueError(f"unknown isotypic index {j}")
        z, mult = got
        if not 1 <= k <= mult:
            raise ValueError(f"multiplicity index {k} out of range for j={j}")
        return z

    def indices(self):
        for j, _z, mult in self.entries:
            for k in range(1, mult + 1):
                yield j, k


def cycle_laplacian_eigendata(N: int) -> LaplacianEigendata:
    """z_j = 4 sin^2(pi j / N) for j = 0..floor(N/2); simple multiplicities.

    Sign convention: the Laplacian is positive semidefinite (diagonal 2 on the
    cycle), so all z_j >= 0.
    """
    if N < 3:
        raise ValueError("cycle model needs N >= 3")
    entries = []
    for j in range(N // 2 + 1):
        entries.append((j, 4.0 * math.sin(math.pi * j / N) ** 2, 1))
    return LaplacianEigendata(tuple(entries))
