"""Exact finite-group machinery for the coupled-string symmetry groups.

Builds the dihedral group D_N and the full finite symmetry factor
Z2 x Z2 x D_N with elements indexed in closed form: element
((k1 * 2 + k2) * 2 + s) * N + r is (kappa1, kappa2, gamma^r kappa^s), so
products, inverses and conjugates follow from a formula (`mul_index`) and a
group holds nothing quadratic in its order.  Lists their subgroups from the
known subgroups of D_N (lifted through Z2 x Z2 by Goursat's lemma), and
organizes subgroups into conjugacy classes with Weyl orders and the
subconjugation counting table n(H, K), by `conjugacy_classes`, which the
twisted orbit types share.  Everything downstream (Burnside arithmetic,
basic degrees, twisted orbit types) consumes this data.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import NamedTuple

from .errors import ExactnessError, SizeCapError

DEFAULT_SUBGROUP_CAP = 200


class DihedralElement(NamedTuple("DihedralElement", [("rot", int), ("ref", bool), ("n", int)])):
    """Element gamma^rot * kappa^ref of D_N, acting on vertices 0..N-1."""

    __slots__ = ()

    def __new__(cls, rot: int, ref: bool, n: int):
        return super().__new__(cls, rot % n, ref, n)

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


class GammaPrimeElement(NamedTuple):
    """Element (kappa1, kappa2, d) of Z2 x Z2 x D_N with kappa_i in {+1,-1}."""

    kappa1: int
    kappa2: int
    dihedral: DihedralElement

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


def mul_index(a: int, b: int, n: int) -> int:
    """Product of the elements with indices a and b in Z2 x Z2 x D_N (or D_N).

    Index ((k1 * 2 + k2) * 2 + s) * N + r is (kappa1, kappa2, gamma^r kappa^s),
    with bit k_i set for kappa_i = -1.  The sign and reflection bits of a
    product are the XOR of its factors' bits, and gamma^r kappa^s gamma^x =
    gamma^(r -+ x) kappa^s.
    """
    ha, hb = a // n, b // n
    ra, rb = a - ha * n, b - hb * n
    return (ha ^ hb) * n + (ra - rb if ha & 1 else ra + rb) % n


def gamma_prime_index(el: GammaPrimeElement) -> int:
    """Index of `el` in gamma_prime(N); see `mul_index`."""
    d = el.dihedral
    return (((el.kappa1 < 0) * 2 + (el.kappa2 < 0)) * 2 + d.ref) * d.n + d.rot


def gamma_prime_element(i: int, n: int) -> GammaPrimeElement:
    """Element with index i in gamma_prime(n); inverse of `gamma_prime_index`."""
    h, r = divmod(i, n)
    return GammaPrimeElement(1 - (h >> 1 & 2), 1 - (h & 2), DihedralElement(r, bool(h & 1), n))


class FiniteGroup:
    """D_N, or Z2 x Z2 x D_N with `signs`, indexed as in `mul_index`.

    The identity is 0 and D_N is the indices below 2N.  Products, inverses
    and conjugates come in closed form, and the conjugators are gamma and
    kappa (the sign factors are central, so these two generate every
    conjugation).  Nothing changes after construction.
    """

    def __init__(self, n: int, signs: bool):
        if n < 3:
            raise ValueError("cycle model needs N >= 3")
        elements = [DihedralElement(r, bool(s), n) for s in (0, 1) for r in range(n)]
        if signs:
            elements = [GammaPrimeElement(k1, k2, d)
                        for k1 in (1, -1) for k2 in (1, -1) for d in elements]
        self.n = n
        self.elements = tuple(elements)
        self.order = len(self.elements)
        self.identity = 0
        self.conjugators = (1, n)

    def mul(self, i: int, j: int) -> int:
        return mul_index(i, j, self.n)

    def inv(self, i: int) -> int:
        h, r = divmod(i, self.n)
        return i if h & 1 else h * self.n + -r % self.n  # reflections are involutions

    def conj(self, g: int, h: int) -> int:
        """g h g^-1: h's sign and reflection bits, and its rotation mirrored by
        a reflecting g, then moved by twice g's rotation if h reflects."""
        hg, rg = divmod(g, self.n)
        hh, rh = divmod(h, self.n)
        r = -rh if hg & 1 else rh
        return hh * self.n + (r + 2 * rg if hh & 1 else r) % self.n

    def element_order(self, i: int) -> int:
        h, r = divmod(i, self.n)
        if h & 1:  # reflections are involutions
            return 2
        k = self.n // math.gcd(self.n, r)  # the rotation's order
        return k if h == 0 or k % 2 == 0 else 2 * k  # a sign factor has order 2

    def generators(self, members) -> list:
        """Greedy generating set: each member not generated by earlier picks."""
        gens, have = [], [self.identity]
        seen = set(have)
        for x in members:
            if x not in seen:
                gens.append(x)
                have = generated(gens, self.mul, have)
                seen = set(have)
        return gens


def dihedral_group(n: int) -> FiniteGroup:
    """D_N with relations g^N = e, k^2 = e, kgk = g^-1.  Requires N >= 3."""
    return FiniteGroup(n, signs=False)


def gamma_prime(n: int) -> FiniteGroup:
    """Z2 x Z2 x D_N, the finite part of the model's symmetry group."""
    return FiniteGroup(n, signs=True)


def _check_order(order: int):
    if order > DEFAULT_SUBGROUP_CAP:
        raise SizeCapError(f"group order {order} exceeds cap {DEFAULT_SUBGROUP_CAP}")


def _dihedral_subgroups(n: int):
    """D_N's subgroups as (step s, reflection offset i or None) pairs.

    For each d | N, with s = N/d: Z_d = <g^s>, and the s conjugates
    D_d^(i) = <g^s, g^i k>, i = 0..s-1.
    """
    for s in range(1, n + 1):
        if n % s == 0:
            yield s, None
            yield from ((s, i) for i in range(s))


def enumerate_subgroups(group: FiniteGroup):
    """All subgroups of D_N or of Z2 x Z2 x D_N, listed by their known form.

    D_N's subgroups are Z_d and the N/d conjugates of D_d, for each d | N.
    Those of A x D_N, A = Z2 x Z2, come from Goursat's lemma: a triple
    (A1 <| A2 <= A, D1 <| D2 <= D_N, theta: A2/A1 ~ D2/D1).  As A is
    abelian, the triple is A1 with a homomorphism psi: D2 -> A/A1 (D1 its
    kernel, A2/A1 its image), and the subgroup is {(a, d) : a in psi(d)}.
    psi is fixed by u = psi(g^s), which must be trivial for odd d, and, for
    a dihedral D2, v = psi(g^i k).  Each subgroup is the sorted tuple of its
    element indices, and the list is sorted by (order, tuple).
    """
    _check_order(group.order)
    n, n_signs = group.n, group.order // (2 * group.n)
    # a ^ b is the product of the elements a, b of A; (a * 2 + ref) * n + rot is
    # the index of (a, g^rot k^ref)
    a_subgroups = [(0,), (0, 1), (0, 2), (0, 3), (0, 1, 2, 3)][: 1 if n_signs == 1 else 5]
    subs = []
    for s, i in _dihedral_subgroups(n):
        d = n // s
        for a1 in a_subgroups:
            cosets = sorted({min(a ^ b for b in a1) for a in range(n_signs)})  # of A/A1
            for u in cosets if d % 2 == 0 else (0,):
                for v in (None,) if i is None else cosets:
                    members = []
                    for k in range(d):
                        shift = u if k % 2 else 0
                        members += ((a ^ shift) * 2 * n + k * s for a in a1)
                        if v is not None:
                            members += (((a ^ shift ^ v) * 2 + 1) * n + (k * s + i) % n
                                        for a in a1)
                    subs.append(tuple(sorted(members)))
    return sorted(subs, key=lambda s: (len(s), s))


def conjugacy_classes(conjugations, seeds, order):
    """Conjugacy classes of the (K tuple, tag tuple) keys in `seeds`.

    A conjugation (a permutation of the group's indices) sends K to the
    sorted tuple K' and permutes the tags along with K's elements; each
    (K, conjugation) move is found once per call and serves every tag tuple
    on K.  A subgroup is the key (K, zeros), a (K, phi) pair the key
    (K, turns).  Returns (canonical key, orbit, Weyl order) per class, the
    canonical key being the least key of the orbit, ordered by (-|K|, key).
    By orbit-stabilizer the Weyl order is `order` / |orbit| / |K|.
    """
    moves = {}  # (K tuple, conjugation) -> (K' tuple, position permutation)

    def conjugate(key, c):
        elems, tags = key
        move = moves.get((elems, c))
        if move is None:
            image = list(map(conjugations[c].__getitem__, elems))
            perm = sorted(range(len(elems)), key=image.__getitem__)
            move = moves[elems, c] = tuple(map(image.__getitem__, perm)), perm
        return move[0], tuple(map(tags.__getitem__, move[1]))

    found, seen = {}, set()  # canonical key -> orbit; keys of the orbits found
    for key in seeds:
        if key not in seen:
            orbit = generated(range(len(conjugations)), conjugate, [key])
            seen.update(orbit)
            found[min(orbit)] = orbit
    classes = []
    for key in sorted(found, key=lambda key: (-len(key[0]), key)):
        weyl, r = divmod(order, len(found[key]) * len(key[0]))
        if r:
            raise ExactnessError(f"|orbit| * |K| does not divide the group order {order}")
        classes.append((key, found[key], weyl))
    return classes


def bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def graph_mask(elems, tags, width=1) -> int:
    """Bit k * width + t for each element k with tag t, so that one key lies
    in another (K <= K' with equal tags on K) iff its mask's bits are set."""
    return sum(1 << (k * width + t) for k, t in zip(elems, tags))


class SubgroupClassLattice:
    """Conjugacy classes of subgroups with Weyl orders and n(H, K) counts.

    A subgroup is the sorted tuple of its element indices: `subgroups` lists
    them all, `reps` one per class, and `class_id` maps each to its class.
    Classes are totally ordered by descending subgroup order with ties broken
    by the class representative's minimal element tuple; this refines the
    subconjugation partial order, so index 0 is the full group and all ring
    recurrences can run top-down deterministically.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.subgroups = tuple(enumerate_subgroups(group))

        # per conjugator c of the group, the permutation h -> c h c^-1
        self.conjugations = [
            tuple(group.conj(c, h) for h in range(group.order)) for c in group.conjugators
        ]
        found = conjugacy_classes(
            self.conjugations, [(s, (0,) * len(s)) for s in self.subgroups], group.order
        )
        self.reps = tuple(key[0] for key, _, _ in found)
        self.weyl = [weyl for *_, weyl in found]
        self.n_classes = len(self.reps)
        self._class_of = {elems: c for c, (_, orbit, _) in enumerate(found) for elems, _ in orbit}

        # n[h][k] = number of conjugates of the class-k rep that contain rep h.
        # H <= gKg^-1 needs |H| to divide |K| and every element of H to be
        # conjugate into K: `meeting[x]` has bit k for each rep k that meets
        # the element class named by its least element x, and the conjugates
        # are counted only for the k in every one of rep h's classes.
        # `down[k]` has bit h iff n(h, k) != 0: the classes below class k
        least = {}  # element -> least element of its conjugacy class
        for x in range(group.order):
            if x not in least:
                orbit = generated(self.conjugations, lambda y, perm: perm[y], [x])
                least.update(dict.fromkeys(orbit, x))
        meeting = dict.fromkeys(least.values(), 0)
        for k, rep in enumerate(self.reps):
            for y in rep:
                meeting[least[y]] |= 1 << k
        masks = [[graph_mask(*key) for key in orbit] for _, orbit, _ in found]
        rows, self.down = [], [0] * self.n_classes
        for h, (key, _, _) in enumerate(found):
            want, order, row = graph_mask(*key), len(key[0]), [0] * self.n_classes
            for k in bits(functools.reduce(int.__and__, (meeting[least[y]] for y in key[0]))):
                if len(self.reps[k]) % order:
                    continue
                row[k] = sum(1 for m in masks[k] if m & want == want)
                if row[k]:
                    self.down[k] |= 1 << h
            rows.append(tuple(row))
        self.n_table = tuple(rows)

    def n(self, h: int, k: int) -> int:
        return self.n_table[h][k]

    def class_id(self, members) -> int:
        """Class of an explicit subgroup element set; KeyError if not a subgroup."""
        return self._class_of[tuple(sorted(members))]

    def class_label(self, c: int) -> str:
        rep = self.reps[c]
        return f"|{len(rep)}|" + ",".join(map(str, rep[:6])) + (",..." if len(rep) > 6 else "")


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


def check_gamma_prime_order(n: int):
    """Raise SizeCapError if |Gamma'_N| = 8N is over the cap, building nothing."""
    _check_order(8 * n)


@build_once
def gamma_prime_lattice(n: int) -> SubgroupClassLattice:
    check_gamma_prime_order(n)  # bounds the subgroup enumeration and the n(H, K) table
    return SubgroupClassLattice(gamma_prime(n))
