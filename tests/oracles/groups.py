"""The element records' own product and the Cayley table built from it,
subgroups counted by brute force (independent of the Goursat listing in
`ringwaves.groups.enumerate_subgroups`), the subgroup lattice of D_N alone,
the inflation of subgroup classes from a quotient ring, and small set-level
helpers that only tests use.

Production multiplies element indices by the closed form
`ringwaves.groups.mul_index`.  Everything here multiplies the records
instead, so the oracles share no product with the code they check.
"""

from __future__ import annotations

import itertools

from ringwaves import groups
from ringwaves.groups import DihedralElement, FiniteGroup, GammaPrimeElement, SubgroupClassLattice


def product(a, b):
    """a * b for two DihedralElements, or for two GammaPrimeElements."""
    if isinstance(a, GammaPrimeElement):
        return GammaPrimeElement(a.kappa1 * b.kappa1, a.kappa2 * b.kappa2,
                                 product(a.dihedral, b.dihedral))
    if a.n != b.n:
        raise ValueError("mismatched dihedral orders")
    rot = a.rot + (-b.rot if a.ref else b.rot)
    return DihedralElement(rot % a.n, a.ref ^ b.ref, a.n)


def inverse(a):
    """a^-1 for a DihedralElement or a GammaPrimeElement."""
    if isinstance(a, GammaPrimeElement):
        return GammaPrimeElement(a.kappa1, a.kappa2, a.dihedral.inverse())
    return a.inverse()


class Cayley:
    """A group's Cayley table and inverses, from `product` by dict lookup
    over the group's element list."""

    def __init__(self, elements):
        self.index = {e: i for i, e in enumerate(elements)}
        self.table = tuple(tuple(self.index[product(a, b)] for b in elements) for a in elements)
        self.inverse = tuple(self.index[inverse(a)] for a in elements)
        self.identity = self.index[product(elements[0], inverse(elements[0]))]

    def conj(self, g: int, h: int) -> int:
        """g h g^-1."""
        return self.table[self.table[g][h]][self.inverse[g]]

    def closure(self, gens) -> frozenset:
        """Element indices generated by `gens`, by breadth-first search."""
        seen = {self.identity}
        frontier = list(seen)
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    c = self.table[a][g]
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
            frontier = new
        return frozenset(seen)

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != self.identity:
            y = self.table[y][x]
            k += 1
        return k

    def generators(self, members) -> list:
        """Greedy generating set: each member not generated by earlier picks."""
        gens, have = [], {self.identity}
        for x in members:
            if x not in have:
                gens.append(x)
                have = self.closure(gens)
        return gens


_tables = {}


def cayley(group: FiniteGroup) -> Cayley:
    """The oracle table of `group`, built once per (N, order)."""
    key = group.n, group.order
    if key not in _tables:
        _tables[key] = Cayley(group.elements)
    return _tables[key]


def subgroup_count_oracle(group: FiniteGroup, max_generators: int = 2) -> int:
    """Independent subgroup count: closures of all <=k-element generating sets,
    then joins until stable.  Exponential; test-scale only."""
    oracle = cayley(group)
    subs = {frozenset({oracle.identity})}
    ids = list(range(group.order))
    for r in range(1, max_generators + 1):
        for combo in itertools.combinations(ids, r):
            subs.add(oracle.closure(combo))
    while True:
        new = set()
        for a in subs:
            for b in subs:
                if a >= b:
                    continue
                j = oracle.closure(a | b)
                if j not in subs:
                    new.add(j)
        if not new:
            break
        subs.update(new)
    return len(subs)


def conj_set(group: FiniteGroup, g: int, sub) -> frozenset:
    """g S g^-1 for a set S of element indices."""
    conj = cayley(group).conj
    return frozenset(conj(g, h) for h in sub)


def leq(lattice: SubgroupClassLattice, h: int, k: int) -> bool:
    """Subconjugation partial order (H) <= (K)."""
    return lattice.n_table[h][k] > 0


@groups.build_once
def dihedral_lattice(n: int) -> SubgroupClassLattice:
    """The subgroup-class lattice of D_N, for the tests of the finite layers."""
    groups._check_order(2 * n)  # bounds the subgroup enumeration and the n(H, K) table
    return SubgroupClassLattice(groups.dihedral_group(n))


def quotient_index(i: int, n: int, m: int) -> int:
    """Image of index i of Gamma'_n in Gamma'_m, m | n, under the quotient by
    the rotations g^m: index h*n + r goes to h*m + r mod m."""
    return i // n * m + i % n % m


def inflate_class(lattice: SubgroupClassLattice, small: SubgroupClassLattice, c: int) -> int:
    """Class in `lattice` of the preimage of `small`'s class-c representative,
    `small` being the lattice of a quotient Gamma'_{N/d} of Gamma'_N."""
    n, m = lattice.group.n, small.group.n
    rep = set(small.reps[c])
    return lattice.class_id(i for i in range(lattice.group.order) if quotient_index(i, n, m) in rep)
