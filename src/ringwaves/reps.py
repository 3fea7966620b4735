"""Irreducible representations of D_N and Z2 x Z2 x D_N, and cycle eigendata.

The dihedral table has the trivial representation, the 2-dimensional
geometric ones rho_j, the orientation character ("sign", reflections act by
-1), and for even N the alternating character ("half", the rotation acts by
-1, matching the (1,-1,1,...,-1) Laplacian eigenvector) plus their product
("signsign").  Geometric irreps are stored as explicit 2x2 matrix models so
characters are derived and an averaging-projector oracle is possible.

Fixed-point dimensions come from character averaging over the finite group
generated by the given elements; circle coordinates must be exact rational
turns so that group is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ExactnessError
from .groups import DihedralElement, GammaPrimeElement, generated

FIXED_DIM_TOL = 1e-9

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


def sin_turn(turn: Fraction) -> float:
    return cos_turn(turn - Fraction(1, 4))


@dataclass(frozen=True)
class DihedralIrrep:
    """An irreducible representation of D_N with an explicit matrix model."""

    label: str  # "trivial" | "geom<j>" | "half" | "sign" | "signsign"
    j: int | None  # geometric rotation index; N/2 for half; None otherwise
    dim: int
    N: int

    def matrix(self, g: DihedralElement) -> np.ndarray:
        if self.dim == 1:
            return np.array([[self.char(g)]])
        theta = 2.0 * math.pi * self.j * g.rot / self.N
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        if g.ref:
            return rot @ np.array([[1.0, 0.0], [0.0, -1.0]])
        return rot

    def char(self, g: DihedralElement) -> float:
        if self.label == "trivial":
            return 1.0
        if self.label == "sign":
            return -1.0 if g.ref else 1.0
        if self.label == "half":
            return float((-1) ** g.rot)
        if self.label == "signsign":
            return float((-1) ** (g.rot + g.ref))
        if g.ref:
            return 0.0
        return 2.0 * cos_turn(Fraction(self.j * g.rot, self.N))


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


def char_inner(N: int, chi_a, chi_b) -> float:
    """(1/|D_N|) sum chi_a(g) chi_b(g) over the full group."""
    total = 0.0
    for ref in (False, True):
        for rot in range(N):
            g = DihedralElement(rot, ref, N)
            total += chi_a(g) * chi_b(g)
    return total / (2 * N)


def permutation_character(N: int) -> "callable":
    """Character of the vertex-permutation representation: fixed-point count."""

    def chi(g: DihedralElement) -> float:
        return float(sum(1 for i in range(N) if g.vertex(i) == i))

    return chi


def permutation_isotypic(N: int) -> dict:
    """Nonzero multiplicities of each irrep inside the permutation rep."""
    chi_v = permutation_character(N)
    out = {}
    for ir in character_table(N):
        m = char_inner(N, chi_v, ir.char)
        mi = round(m)
        if abs(m - mi) > FIXED_DIM_TOL:
            raise ExactnessError(f"non-integer multiplicity {m} for {ir.label}")
        if mi:
            out[ir.label] = mi
    return out


@dataclass(frozen=True)
class DressedIrrep:
    """A D_N irrep with a Z2 x Z2 dressing.

    bit 0: kappa1 acts antipodally, kappa2 trivially; bit 1: both antipodal.
    """

    base: DihedralIrrep
    bit: int

    @property
    def dim(self) -> int:
        return self.base.dim

    def sign(self, g: GammaPrimeElement) -> int:
        s = g.kappa1 * (g.kappa2 if self.bit else 1)
        return s

    def char(self, g: GammaPrimeElement) -> float:
        return self.sign(g) * self.base.char(g.dihedral)

    def matrix(self, g: GammaPrimeElement) -> np.ndarray:
        return self.sign(g) * self.base.matrix(g.dihedral)

    @property
    def label(self) -> str:
        return f"{self.base.label}^{self.bit}"


@dataclass(frozen=True)
class GIrrep:
    """W_m (x) V_j^bit: the circle acts by the m-fold rotation on W_m."""

    m: int
    dressed: DressedIrrep

    @property
    def dim(self) -> int:
        return self.dressed.dim * (1 if self.m == 0 else 2)

    def char(self, turn: Fraction, g: GammaPrimeElement) -> float:
        if self.m == 0:
            return self.dressed.char(g)
        return 2.0 * cos_turn(self.m * turn) * self.dressed.char(g)

    def matrix(self, turn: Fraction, g: GammaPrimeElement) -> np.ndarray:
        if self.m == 0:
            return self.dressed.matrix(g)
        t = float(2.0 * math.pi * self.m * turn)
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        return np.kron(rot, self.dressed.matrix(g))

    @property
    def label(self) -> str:
        return f"W{self.m}x{self.dressed.label}"


def dressing_bit(n: int) -> int:
    """Z2 x Z2 dressing carried by the n-th transverse mode.

    Odd n pairs with the even profile cos(nx) (x-flip acts trivially, bit 0);
    even n pairs with sin(nx) (x-flip antipodal, bit 1).
    """
    return 0 if n % 2 else 1


def generated_group(generators) -> list:
    """Closure of (turn, GammaPrimeElement) pairs; turns must be Fractions.

    Inside the closure a turn is an integer mod q, the lcm of the generators'
    denominators.
    """
    generators = list(generators)
    if not all(isinstance(t, Fraction) for t, _ in generators):
        raise ValueError("circle coordinates must be exact rational turns")
    if not generators:
        raise ValueError("empty generator list")
    q = math.lcm(*(t.denominator for t, _ in generators))
    gens = [(int(t * q) % q, g) for t, g in generators]
    g0 = generators[0][1]

    def mul(a, b):
        return ((a[0] + b[0]) % q, a[1] * b[1])

    elems = generated(gens, mul, [(0, g0 * g0.inverse())], limit=100_000)
    if elems is None:
        raise ValueError("generated circle subgroup is too large to be finite")
    return [(Fraction(t, q), g) for t, g in elems]


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
    total = sum(rep.char(t, g) for t, g in group)
    avg = total / len(group)
    dim = round(avg)
    if abs(avg - dim) > FIXED_DIM_TOL:
        raise ExactnessError(f"fixed-dimension average {avg} is not an integer")
    return dim


def fixed_dim_projector_oracle(rep, generators) -> int:
    """Rank of the explicit averaging projector; independent of `fixed_dim`."""
    if isinstance(rep, DressedIrrep):
        pairs = [(Fraction(0), g) for g in generators]
        rep = GIrrep(0, rep)
    else:
        pairs = list(generators)
    group = generated_group(pairs)
    proj = sum(rep.matrix(t, g) for t, g in group) / len(group)
    rank = round(float(np.trace(proj)))
    assert np.allclose(proj @ proj, proj, atol=1e-8), "averaging is not a projector"
    return rank


@dataclass(frozen=True)
class LaplacianEigendata:
    """Eigenvalues z_{j,k} >= 0 of an invariant coupling Laplacian."""

    entries: tuple  # tuple of (j, z, multiplicity)

    def z(self, j: int, k: int = 1) -> float:
        for jj, z, mult in self.entries:
            if jj == j:
                if not 1 <= k <= mult:
                    raise ValueError(f"multiplicity index {k} out of range for j={j}")
                return z
        raise ValueError(f"unknown isotypic index {j}")

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


def cycle_laplacian_matrix(N: int) -> np.ndarray:
    mat = 2.0 * np.eye(N)
    for i in range(N):
        mat[i, (i + 1) % N] -= 1.0
        mat[i, (i - 1) % N] -= 1.0
    return mat
