"""Subgroups counted by brute force, independent of the Goursat listing in
`ringwaves.groups.enumerate_subgroups`, and small set-level helpers that
only tests use."""

from __future__ import annotations

import itertools

from ringwaves.groups import FiniteGroup, SubgroupClassLattice


def subgroup_count_oracle(group: FiniteGroup, max_generators: int = 2) -> int:
    """Independent subgroup count: closures of all <=k-element generating sets,
    then joins until stable.  Exponential; test-scale only."""
    subs = {frozenset({group.identity})}
    ids = list(range(group.order))
    for r in range(1, max_generators + 1):
        for combo in itertools.combinations(ids, r):
            subs.add(group.closure(combo))
    while True:
        new = set()
        for a in subs:
            for b in subs:
                if a >= b:
                    continue
                j = group.closure(b, base=a)
                if j not in subs:
                    new.add(j)
        if not new:
            break
        subs.update(new)
    return len(subs)


def conj_set(group: FiniteGroup, g: int, sub) -> frozenset:
    """g S g^-1 for a set S of element indices."""
    row, gi, tab = group.table[g], group.inverse[g], group.table
    return frozenset(tab[row[h]][gi] for h in sub)


def leq(lattice: SubgroupClassLattice, h: int, k: int) -> bool:
    """Subconjugation partial order (H) <= (K)."""
    return lattice.n_table[h][k] > 0
