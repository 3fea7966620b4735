"""Exact finite-group machinery for the coupled-string symmetry groups.

Builds the dihedral group D_N and the full finite symmetry factor
Z2 x Z2 x D_N as Cayley-complete groups with densely indexed elements,
enumerates their subgroup lattices by cyclic extension, and organizes
subgroups into conjugacy classes with Weyl orders and the subconjugation
counting table n(H, K).  Everything downstream (Burnside arithmetic,
basic degrees, twisted orbit types) consumes this data.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field

from .errors import SizeCapError

DEFAULT_SUBGROUP_CAP = 200


@dataclass(frozen=True)
class DihedralElement:
    """Element gamma^rot * kappa^ref of D_N, acting on vertices 0..N-1."""

    rot: int
    ref: bool
    n: int

    def __post_init__(self):
        object.__setattr__(self, "rot", self.rot % self.n)

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        if other.n != self.n:
            raise ValueError("mismatched dihedral orders")
        rot = self.rot + (other.rot if not self.ref else -other.rot)
        return DihedralElement(rot % self.n, self.ref ^ other.ref, self.n)

    def inverse(self) -> "DihedralElement":
        if self.ref:
            return self
        return DihedralElement((-self.rot) % self.n, False, self.n)

    def vertex(self, i: int) -> int:
        """Image of vertex i under the permutation action on the cycle graph."""
        return (self.rot + (-i if self.ref else i)) % self.n

    def __repr__(self):
        if not self.ref:
            return "e" if self.rot == 0 else f"g^{self.rot}"
        return "k" if self.rot == 0 else f"g^{self.rot}k"


@dataclass(frozen=True)
class GammaPrimeElement:
    """Element (kappa1, kappa2, d) of Z2 x Z2 x D_N with kappa_i in {+1,-1}."""

    kappa1: int
    kappa2: int
    dihedral: DihedralElement

    def __mul__(self, other: "GammaPrimeElement") -> "GammaPrimeElement":
        return GammaPrimeElement(
            self.kappa1 * other.kappa1,
            self.kappa2 * other.kappa2,
            self.dihedral * other.dihedral,
        )

    def inverse(self) -> "GammaPrimeElement":
        return GammaPrimeElement(self.kappa1, self.kappa2, self.dihedral.inverse())

    def __repr__(self):
        return f"({self.kappa1:+d},{self.kappa2:+d},{self.dihedral})"


def generated(gens, mul, base, limit=None):
    """Elements generated by `gens` under `mul`, or None past `limit`.

    `base` lists a subgroup of the result, identity first (at least the
    identity).  The result is built as right cosets of `base`: the first
    element of each coset, times each generator, either lies in a coset
    already found or starts a new one.  That suffices, since h x g lies in
    the coset of x g.  The group must be finite: every inverse is then a
    positive power, so no inverse step is needed.  With `base` a single
    point and `mul` a group action, the result is that point's orbit.
    Returns the element list, `base` first, or None as soon as it holds
    more than `limit` elements.
    """
    elems = list(base)
    rest = elems[1:]
    seen = set(elems)
    i = 0
    while i < len(elems):
        x = elems[i]
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                elems.append(y)
                for h in rest:
                    z = mul(h, y)
                    seen.add(z)
                    elems.append(z)
                if limit is not None and len(elems) > limit:
                    return None
        i += len(base)
    return elems


class FiniteGroup:
    """A finite group given by an element list and a full Cayley table.

    Elements are referred to by dense indices 0..order-1; all tables are
    immutable after construction and safe for concurrent reads.
    """

    def __init__(self, elements, mul):
        self.elements = tuple(elements)
        self.order = len(self.elements)
        index = {e: i for i, e in enumerate(self.elements)}
        if len(index) != self.order:
            raise ValueError("duplicate elements")
        self.index = index
        self.table = tuple(
            tuple(index[mul(a, b)] for b in self.elements) for a in self.elements
        )
        identity = None
        for i in range(self.order):
            if all(self.table[i][j] == j for j in range(self.order)):
                identity = i
                break
        if identity is None:
            raise ValueError("no identity element")
        self.identity = identity
        inv = [None] * self.order
        for i in range(self.order):
            for j in range(self.order):
                if self.table[i][j] == identity:
                    inv[i] = j
                    break
        if any(v is None for v in inv):
            raise ValueError("missing inverses")
        self.inverse = tuple(inv)
        for row in self.table:
            if len(set(row)) != self.order:
                raise ValueError("Cayley table row is not a permutation")

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def conj(self, g: int, h: int) -> int:
        """g h g^-1."""
        return self.table[self.table[g][h]][self.inverse[g]]

    def conj_set(self, g: int, sub) -> frozenset:
        row = self.table[g]
        gi = self.inverse[g]
        tab = self.table
        return frozenset(tab[row[h]][gi] for h in sub)

    def element_order(self, i: int) -> int:
        k, x = 1, i
        while x != self.identity:
            x = self.table[x][i]
            k += 1
        return k

    def closure(self, seed, base=None) -> frozenset:
        """Subgroup generated by the subgroup `base` and the indices in `seed`."""
        tab = self.table
        base = [self.identity] + sorted(set(base or ()) - {self.identity})
        return frozenset(generated(list(seed) + base, lambda a, g: tab[a][g], base))

    def generators(self, members) -> list:
        """Greedy generating set: each member not generated by earlier picks."""
        gens, have = [], frozenset({self.identity})
        for x in members:
            if x not in have:
                gens.append(x)
                have = self.closure([x], base=have)
        return gens


def dihedral_group(n: int) -> FiniteGroup:
    """D_N with relations g^N = e, k^2 = e, kgk = g^-1.  Requires N >= 3."""
    if n < 3:
        raise ValueError("cycle model needs N >= 3")
    elements = [DihedralElement(r, bool(s), n) for s in (0, 1) for r in range(n)]
    group = FiniteGroup(elements, lambda a, b: a * b)
    group.name = f"D{n}"
    return group


def gamma_prime(n: int) -> FiniteGroup:
    """Z2 x Z2 x D_N, the finite part of the model's symmetry group."""
    if n < 3:
        raise ValueError("cycle model needs N >= 3")
    elements = [
        GammaPrimeElement(k1, k2, DihedralElement(r, bool(s), n))
        for k1 in (1, -1)
        for k2 in (1, -1)
        for s in (0, 1)
        for r in range(n)
    ]
    group = FiniteGroup(elements, lambda a, b: a * b)
    group.name = f"Z2xZ2xD{n}"
    return group


@dataclass(frozen=True)
class Subgroup:
    """A subgroup as a sorted tuple of element indices."""

    elems: tuple
    members: frozenset = field(compare=False, hash=False, repr=False, default=None)

    @staticmethod
    def from_set(s) -> "Subgroup":
        fs = frozenset(s)
        return Subgroup(tuple(sorted(fs)), fs)

    @property
    def order(self) -> int:
        return len(self.elems)

    def __contains__(self, i: int) -> bool:
        return i in self.members


def enumerate_subgroups(group: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP):
    """All subgroups of `group`, found by cyclic extension.

    Starts from the cyclic subgroups and repeatedly adjoins one cyclic
    generator at a time; dedupes by element set.  Each subgroup H found
    keeps the generator tuple that reached it, so adjoining the cyclic
    subgroup <g> closes that tuple plus g, in right cosets of H.  Complete
    because every subgroup is reached from any maximal chain of subgroups
    below it.
    """
    if group.order > cap:
        raise SizeCapError(f"group order {group.order} exceeds cap {cap}")
    tab = group.table
    bits = [1 << i for i in range(group.order)]

    def close(gens, base):
        return generated(gens, lambda a, x: tab[a][x], base)

    def mask(members):
        return sum(bits[i] for i in members)

    found = {}  # subgroup mask -> (generator tuple, members with identity first)
    for g in range(group.order):
        members = close([g], [group.identity])
        found.setdefault(mask(members), ((g,), members))
    trivial = bits[group.identity]
    found[trivial] = ((), [group.identity])
    cyclics = sorted(
        (c for c in found if c != trivial), key=lambda c: (len(found[c][1]), sorted(found[c][1]))
    )
    cyclics = [(c, found[c][0][0]) for c in cyclics]
    frontier = [c for c, _ in cyclics]
    seen_unions = set(found)
    full = (1 << group.order) - 1
    while frontier:
        new = []
        for h in frontier:
            if h == full:
                continue
            h_gens, h_members = found[h]
            for c, g in cyclics:
                union = h | c
                if union == h or union in seen_unions:
                    continue
                seen_unions.add(union)
                k_gens = h_gens + (g,)
                members = close(k_gens, h_members)
                k = mask(members)
                if k not in found:
                    found[k] = (k_gens, members)
                    new.append(k)
        frontier = new
    subs = (Subgroup.from_set(members) for _, members in found.values())
    return sorted(subs, key=lambda s: (s.order, s.elems))


class SubgroupClassLattice:
    """Conjugacy classes of subgroups with Weyl orders and n(H, K) counts.

    Classes are totally ordered by descending subgroup order with ties broken
    by the class representative's minimal element tuple; this refines the
    subconjugation partial order, so index 0 is the full group and all ring
    recurrences can run top-down deterministically.
    """

    def __init__(self, group: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP):
        self.group = group
        self.subgroups = enumerate_subgroups(group, cap=cap)
        sub_ids = {s.members: i for i, s in enumerate(self.subgroups)}
        self.subgroup_ids = sub_ids

        n_subs = len(self.subgroups)
        class_of_sub = [-1] * n_subs
        classes = []  # list of lists of subgroup ids
        for i, s in enumerate(self.subgroups):
            if class_of_sub[i] >= 0:
                continue
            orbit = {s.members}
            for g in range(group.order):
                orbit.add(group.conj_set(g, s.elems))
            ids = sorted(sub_ids[m] for m in orbit)
            cid = len(classes)
            for k in ids:
                class_of_sub[k] = cid
            classes.append(ids)
        self.class_of_subgroup = class_of_sub

        # representative: member with minimal element tuple
        reps = []
        for ids in classes:
            rep = min((self.subgroups[i] for i in ids), key=lambda s: s.elems)
            reps.append(rep)
        order_key = sorted(
            range(len(classes)), key=lambda c: (-reps[c].order, reps[c].elems)
        )
        # re-index classes so that position == total-order rank (descending)
        self.classes = [sorted(classes[c]) for c in order_key]
        self.reps = [reps[c] for c in order_key]
        remap = {old: new for new, old in enumerate(order_key)}
        self.class_of_subgroup = [remap[c] for c in class_of_sub]
        self.n_classes = len(self.classes)

        # orbit-stabilizer: |N(H)| = |G| / (class size), |W(H)| = |N(H)| / |H|
        self.weyl = []
        for ids, rep in zip(self.classes, self.reps):
            norm, r = divmod(group.order, len(ids))
            if r or norm % rep.order:
                raise AssertionError("normalizer order not divisible by subgroup order")
            self.weyl.append(norm // rep.order)
        self.n_table = self._build_n_table()

    def _build_n_table(self):
        """n[h][k] = number of conjugates of the class-k rep that contain rep h."""
        conjugates = []
        for ids in self.classes:
            conjugates.append([self.subgroups[i].members for i in ids])
        table = []
        for h in range(self.n_classes):
            hrep = self.reps[h].members
            horder = self.reps[h].order
            row = []
            for k in range(self.n_classes):
                if self.reps[k].order % horder or self.reps[k].order < horder:
                    row.append(0)
                    continue
                row.append(sum(1 for m in conjugates[k] if hrep <= m))
            table.append(tuple(row))
        return tuple(table)

    def n(self, h: int, k: int) -> int:
        return self.n_table[h][k]

    def leq(self, h: int, k: int) -> bool:
        """Subconjugation partial order (H) <= (K)."""
        return self.n_table[h][k] > 0

    def class_id(self, members) -> int:
        """Class of an explicit subgroup element set; KeyError if not a subgroup."""
        return self.class_of_subgroup[self.subgroup_ids[frozenset(members)]]

    def full_class(self) -> int:
        return 0

    def class_label(self, c: int) -> str:
        rep = self.reps[c]
        return f"|{rep.order}|" + ",".join(str(e) for e in rep.elems[:6]) + (
            ",..." if rep.order > 6 else ""
        )


def build_once(build):
    """Cache `build` on its one argument; concurrent misses build once.

    A hit reads the cache without locking; a miss takes the lock, so a
    second thread that misses the same key waits and then reads the result.
    """
    cache = {}
    lock = threading.Lock()

    @functools.wraps(build)
    def cached(key):
        if key not in cache:
            with lock:
                if key not in cache:
                    cache[key] = build(key)
        return cache[key]

    return cached


@build_once
def dihedral_lattice(n: int) -> SubgroupClassLattice:
    return SubgroupClassLattice(dihedral_group(n))


@build_once
def gamma_prime_lattice(n: int) -> SubgroupClassLattice:
    return SubgroupClassLattice(gamma_prime(n))


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
