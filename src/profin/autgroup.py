"""Automorphism-style bijections of a finite power A^X pinned at marked
points, and the labelled conjugator construction turning kernel translates
of a shuffle tuple into conjugates.

Every element is one ``PowerAut``, stored in its semidirect normal form
hbar(d) o khat(k): a coordinate shuffle d of the free points after a
pointwise kernel k.  ``Hbar`` and ``Khat`` are the validating constructors
of the two factors.  Composition is right-to-left: (u * v)(f) = u(v(f)),
and the conjugate of h by c is c^-1 o h o c (c applied first).  Products
and inverses stay in normal form at O(|X|*|A|) cost, and for |A| >= 2 the
wreath product Sym(A) wr Sym(free X) acts faithfully on the free
coordinates, so two elements are equal exactly when their normal forms
are.  Evaluation on the full function space D (``function_space`` and
``PowerAut.act``, on tuples of rows) is the test oracle.

Set-mode: the carrier A is a plain finite set and kernel values are
arbitrary permutations of it.  Algebra-mode: A is a FinAlgebra and kernel
values must preserve its operations.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product
from typing import Mapping, Sequence

from .algebra import BooleanPowerSpace, FinAlgebra, preserves_operations
from .errors import CapExhausted, VerificationError
from .groups import (FinGroup, Labelling, compose_perms, exponent,
                     invert_perm)
from .maps import StructMap, check_epimorphism, check_homomorphism, compose
from .spirals import QPWitness, Spiral, _propagate_mu, verify_qp
from .structures import FinStructure, Partition, disjoint_union, quotient

# Rows are Python tuples: a table at the cap (19 points, |A| = 2) takes
# about 104 MB, and the cache below keeps up to 8 tables.
_ROW_CAP = 2 ** 19


@lru_cache(maxsize=8)
def function_space(space: BooleanPowerSpace,
                   a_size: int) -> tuple[tuple[int, ...], ...]:
    """Every element of D, one function per row, free coordinates in lex
    order.

    Raises ``CapExhausted`` above ``_ROW_CAP`` rows instead of allocating.
    """
    free = space.free_points()
    count = a_size ** len(free)
    if count > _ROW_CAP:
        raise CapExhausted(f"{count} functions exceed the row cap",
                           budget=_ROW_CAP, stats={"rows": count})
    row = [0] * space.points
    for x, e in zip(space.marked, space.pins):
        row[x] = e
    table = []
    for vals in product(range(a_size), repeat=len(free)):
        for x, v in zip(free, vals):
            row[x] = v
        table.append(tuple(row))
    return tuple(table)


def _carrier_size(carrier: FinAlgebra | int) -> int:
    return carrier.size if isinstance(carrier, FinAlgebra) else int(carrier)


class PowerAut:
    """Bijection hbar(perm) o khat(values) of the pinned function space D:
    (g f)(x) = values[y](f(y)) with y = perm^-1(x), where ``perm`` fixes
    the marked points and ``values`` holds a permutation of A at every
    free point.  When |A| < 2, D is one function and the shuffle is
    dropped, so ``==`` is equality as bijections of D.
    """

    __slots__ = ("space", "a_size", "perm", "values")

    def __init__(self, space: BooleanPowerSpace, carrier: FinAlgebra | int,
                 perm: Sequence[int], values: Mapping[int, tuple[int, ...]]):
        self.space = space
        self.a_size = _carrier_size(carrier)
        self.perm = (tuple(perm) if self.a_size >= 2
                     else tuple(range(space.points)))
        self.values = dict(values)

    def __mul__(self, other: "PowerAut") -> "PowerAut":
        """Composition with ``self`` applied last."""
        if (other.space, other.a_size) != (self.space, self.a_size):
            raise ValueError("elements act on different function spaces")
        d = other.perm
        return PowerAut(self.space, self.a_size, compose_perms(self.perm, d),
                        {x: compose_perms(self.values[d[x]], k)
                         for x, k in other.values.items()})

    def inverse(self) -> "PowerAut":
        d = self.perm
        return PowerAut(self.space, self.a_size, invert_perm(d),
                        {d[x]: invert_perm(k) for x, k in self.values.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerAut):
            return NotImplemented
        return (self.space, self.a_size, self.perm, self.values) == \
            (other.space, other.a_size, other.perm, other.values)

    def act(self, rows: Sequence[tuple[int, ...]]
            ) -> tuple[tuple[int, ...], ...]:
        """The element on every row of ``rows``; the evaluation oracle."""
        inv = invert_perm(self.perm)
        out = []
        for row in rows:
            f = list(row)
            for x, p in self.values.items():
                f[x] = p[row[x]]
            out.append(tuple(f[y] for y in inv))
        return tuple(out)

    def __repr__(self) -> str:
        return f"PowerAut({self.perm}, {len(self.values)} kernel values)"


def _shuffle(space: BooleanPowerSpace, perm: Sequence[int]
             ) -> tuple[int, ...]:
    """``perm`` as a permutation of the points that fixes the marked ones;
    raises ``ValueError`` otherwise."""
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(space.points)):
        raise ValueError("not a permutation of the point set")
    for x in space.marked:
        if p[x] != x:
            raise ValueError(f"marked point {x} is moved")
    return p


def Hbar(space: BooleanPowerSpace, carrier: FinAlgebra | int,
         perm: Sequence[int]) -> PowerAut:
    """Coordinate shuffle: (hbar f)(x) = f(perm^-1(x))."""
    ident = tuple(range(_carrier_size(carrier)))
    return PowerAut(space, carrier, _shuffle(space, perm),
                    {x: ident for x in space.free_points()})


def Khat(space: BooleanPowerSpace, carrier: FinAlgebra | int,
         values: Mapping[int, Sequence[int]]) -> PowerAut:
    """Pointwise kernel: (khat f)(x) = values[x](f(x)) off the marked
    points; over an algebra every value must be one of its automorphisms."""
    a_size = _carrier_size(carrier)
    free = set(space.free_points())
    vals: dict[int, tuple[int, ...]] = {}
    for x in free:
        if x not in values:
            raise ValueError(f"kernel map misses point {x}")
        p = tuple(int(v) for v in values[x])
        if sorted(p) != list(range(a_size)):
            raise ValueError(f"value at point {x} is not a permutation")
        vals[x] = p
    extra = set(values) - free
    if extra:
        raise ValueError(f"kernel map defined on marked points {extra}")
    if isinstance(carrier, FinAlgebra):
        for x, p in vals.items():
            if not preserves_operations(carrier, p):
                raise ValueError(
                    f"value at point {x} is not an automorphism")
    return PowerAut(space, a_size, range(space.points), vals)


def ProductAut(factors: Sequence[PowerAut]) -> PowerAut:
    """Composition of factors, rightmost applied first."""
    if not factors:
        raise ValueError("empty product")
    return reduce(operator.mul, factors)


def elements_equal(e1: PowerAut, e2: PowerAut, space: BooleanPowerSpace,
                   carrier: FinAlgebra | int) -> bool:
    """Equality as bijections of D, decided by normal form."""
    return e1 == e2


def conjugate(h: PowerAut, c: PowerAut) -> PowerAut:
    """c^-1 o h o c, with c applied first."""
    return c.inverse() * h * c


def preserves_filtered_operations(elem: PowerAut, a: FinAlgebra,
                                  space: BooleanPowerSpace) -> bool:
    """The element is an algebra automorphism of D: shuffles preserve the
    pointwise operations and the free coordinates range over all of A, so
    exactly when every kernel value of its normal form is one of A."""
    return all(preserves_operations(a, p) for p in elem.values.values())


def block_quotient(space: BooleanPowerSpace, h: Sequence[Sequence[int]],
                   partition: Partition) -> tuple[FinStructure, StructMap]:
    """The block structure and projection of the point structure of ``h``
    (relation i holds x -> h_i(x), the marked points are its constants) by
    ``partition``.  Each h_i is checked first; raises ``ValueError``."""
    rels = []
    for i, perm in enumerate(h):
        try:
            p = _shuffle(space, perm)
        except ValueError as exc:
            raise ValueError(f"h[{i}]: {exc}") from None
        rels.append({(x, p[x]) for x in range(space.points)})
    points = FinStructure(len(h), range(space.points), rels,
                          constants=space.marked)
    return quotient(points, partition)


@dataclass
class TransconjInstance:
    """Certified input for the translate-to-conjugate construction.

    The kernel tuple acts blockwise by fixed permutations, the labelled
    cover (phi2, lam, mu) satisfies the quotient property over the block
    quotient of the shuffle tuple h (``block_quotient``), which is
    ``phi2.codomain``, and psi maps the point structure into the cover
    with phi2 o psi the projection onto the blocks.
    """

    space: BooleanPowerSpace
    a_size: int
    group: FinGroup
    action: tuple[tuple[int, ...], ...]
    h: tuple[tuple[int, ...], ...]
    partition: Partition
    q: FinStructure
    phi2: StructMap
    lam: Labelling
    mu: Labelling
    psi: dict[int, int]
    kernel: tuple[PowerAut, ...]

    @property
    def m(self) -> int:
        return len(self.h)

    def verify(self) -> None:
        """Re-check every invariant, naming the first violation."""
        for x, e in zip(self.space.marked, self.space.pins):
            if not 0 <= e < self.a_size:
                raise VerificationError(f"pin {e} at point {x} is not in A")
        try:
            blk, proj = block_quotient(self.space, self.h, self.partition)
            check_action(self.group, self.action, self.a_size)
        except ValueError as exc:
            raise VerificationError(str(exc)) from None
        if (self.phi2.domain, self.phi2.codomain) != (self.q, blk):
            raise VerificationError(
                "phi2 is not a map from the cover to the block quotient")
        if not check_epimorphism(self.phi2):
            raise VerificationError("phi2 is not an epimorphism")
        try:
            psi = StructMap(proj.domain, self.q, self.psi)
        except ValueError as exc:
            raise VerificationError(f"psi: {exc}") from None
        if not check_homomorphism(psi):
            raise VerificationError(
                "psi is not a homomorphism of the point structure")
        if compose(self.phi2, psi) != proj:
            raise VerificationError("phi2 o psi differs from the projection")
        rep = verify_qp(QPWitness(self.phi2, self.lam, self.mu))
        if not rep:
            raise VerificationError(
                f"quotient property fails on edge {rep.edge} of "
                f"relation {rep.relation}")
        if len(self.kernel) != self.m:
            raise VerificationError("kernel tuple arity mismatch")
        for i, k in enumerate(self.kernel):
            for x in self.space.free_points():
                want = self.action[self.group.inverse[
                    self.lam.component(proj.mapping[x], i)]]
                if k.values[x] != want:
                    raise VerificationError(
                        f"kernel[{i}] does not act as the inverse block "
                        f"label at point {x}")


def qp_conjugator(inst: TransconjInstance) -> PowerAut:
    """Kernel element c with a_i o hbar_i = c^-1 o hbar_i o c for all i.

    The instance is re-verified first; the conjugator value at x is the
    action of mu(psi(x)).  The identity is then checked by
    ``verify_conjugator``.
    """
    inst.verify()
    c = Khat(inst.space, inst.a_size,
             {x: inst.action[inst.mu.component(inst.psi[x], 0)]
              for x in inst.space.free_points()})
    verify_conjugator(inst, c)
    return c


def verify_conjugator(inst: TransconjInstance, c: PowerAut) -> None:
    """Check a_i o hbar_i = c^-1 o hbar_i o c for every relation i, by
    normal form, naming the first relation where it fails."""
    for i in range(inst.m):
        hb = Hbar(inst.space, inst.a_size, inst.h[i])
        if inst.kernel[i] * hb != conjugate(hb, c):
            raise VerificationError(
                f"translate/conjugate identity fails for relation {i}")


def check_action(group: FinGroup, action: Sequence[Sequence[int]],
                 a_size: int) -> tuple[tuple[int, ...], ...]:
    acts = tuple(tuple(int(v) for v in p) for p in action)
    if len(acts) != group.order:
        raise ValueError("action must give one permutation per element")
    for p in acts:
        if sorted(p) != list(range(a_size)):
            raise ValueError("action value is not a permutation of A")
    for g1 in range(group.order):
        for g2 in range(group.order):
            if compose_perms(acts[g1], acts[g2]) != acts[group.table[g1][g2]]:
                raise ValueError("action is not a homomorphism")
    if len(set(acts)) != group.order:
        raise ValueError("action is not faithful")
    return acts


def natural_action(group: FinGroup) -> tuple[tuple[int, ...], ...]:
    """The stored permutation realization of a permutation-backed group."""
    if group.perms is None:
        raise ValueError("group carries no permutation realization")
    return group.perms


def regular_action(group: FinGroup) -> tuple[tuple[int, ...], ...]:
    """Left-translation action on the group's own elements (faithful)."""
    return tuple(tuple(group.table[g][x] for x in range(group.order))
                 for g in range(group.order))


def cycle_cover_instance(p: int, q: int, r: int, group: FinGroup,
                         action: Sequence[Sequence[int]], a_size: int,
                         lam: Labelling, ell: int = 1,
                         alpha: int = 0) -> TransconjInstance:
    """Cyclic shuffle on Z_{ell*t*p} with a blockwise kernel tuple (m=1).

    The points wind ell times around the block p-cycle; the cover is the
    spiral S(tp, q, tr) collapsed onto that cycle, carrying the propagated
    labelling.  The c-cycle must wind fully, so p must divide r.  The
    spiral labelling must be constant on collapse fibres (vertices at the
    same cycle position).
    """
    base = Spiral(p, q, r)
    if r % p != 0:
        raise ValueError("p must divide r so the c-cycle winds fully")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    acts = check_action(group, action, a_size)
    if lam.width != 1 or lam.carrier != base.structure.vertices:
        raise ValueError("lam must be a width-1 labelling of the base "
                         "spiral")
    for v in base.path_vertices():
        if lam.values[v] != lam.values[v % p]:
            raise ValueError(
                f"labelling is not constant on cycle position {v % p}"
                f" (vertex {base.structure.label_of(v)})")

    t = exponent(group)
    n_pts = ell * t * p
    succ = tuple((k + 1) % n_pts for k in range(n_pts))
    space = BooleanPowerSpace(n_pts)
    part = Partition([{k for k in range(n_pts) if k % p == j}
                      for j in range(p)])
    blk, _ = block_quotient(space, (succ,), part)

    cover = Spiral(t * p, q, t * r)
    phi2 = StructMap(cover.structure, blk,
                     {v: v % p for v in cover.path_vertices()})
    lam_blocks = Labelling(blk.vertices, group, 1,
                           {j: lam.values[j] for j in range(p)})
    mu = _propagate_mu(cover, phi2, lam_blocks, 0, group, cover.a(1), alpha)
    kernel = Khat(space, a_size,
                  {x: acts[group.inverse[lam_blocks.component(x % p, 0)]]
                   for x in range(n_pts)})
    psi = {k: cover.a((k % (t * p)) + 1) for k in range(n_pts)}
    inst = TransconjInstance(
        space=space, a_size=a_size, group=group, action=acts,
        h=(succ,), partition=part, q=cover.structure, phi2=phi2,
        lam=lam_blocks, mu=mu, psi=psi, kernel=(kernel,))
    inst.verify()
    return inst


def pinned_union_instance(far: TransconjInstance, near: TransconjInstance,
                          pin: int) -> tuple[TransconjInstance,
                                             frozenset[int]]:
    """Join two unmarked m=1 instances and adjoin one pinned fixed point.

    ``near`` plays the finite stand-in for the component cluster adjacent
    to the marked point; its kernel values must stabilise the pin, which
    forces the conjugator values there into the stabiliser as well.
    Returns the combined instance and the set of near points.
    """
    if far.space.marked or near.space.marked:
        raise ValueError("sub-instances must have no marked points")
    if far.m != 1 or near.m != 1:
        raise ValueError("sub-instances must have one relation")
    if far.a_size != near.a_size or far.group != near.group \
            or far.action != near.action:
        raise ValueError("sub-instances must share carrier, group and "
                         "action")
    if not 0 <= pin < near.a_size:
        raise ValueError("pin is not a carrier element")
    for x, perm in near.kernel[0].values.items():
        if perm[pin] != pin:
            raise ValueError(
                f"near kernel value at point {x} does not stabilise the pin")
    for v in near.mu.values.values():
        if near.action[v[0]][pin] != pin:
            raise ValueError("near labelling leaves the pin stabiliser")

    n_far, n_near = far.space.points, near.space.points
    n_pts = n_far + n_near + 1
    star = n_pts - 1
    space = BooleanPowerSpace(n_pts, marked=(star,), pins=(pin,))

    h = tuple(
        [far.h[0][k] for k in range(n_far)]
        + [near.h[0][k] + n_far for k in range(n_near)]
        + [star])
    part = Partition(
        [set(b) for b in far.partition.blocks]
        + [{x + n_far for x in b} for b in near.partition.blocks]
        + [{star}])
    blk, _ = block_quotient(space, (h,), part)
    # Blocks are ordered by least point, so far keeps its block ids, near's
    # shift by len(far.partition), and the star's block comes last.
    n_far_blocks = len(far.partition)
    star_block = len(part) - 1

    star_q = FinStructure(1, [0], [{(0, 0)}], constants=[0],
                          labels={0: "qstar"})
    union_q, (inj_f, inj_n, inj_s) = disjoint_union([far.q, near.q, star_q])

    phi2_map = {inj_f[v]: b for v, b in far.phi2.mapping.items()}
    phi2_map.update({inj_n[v]: b + n_far_blocks
                     for v, b in near.phi2.mapping.items()})
    phi2_map[inj_s[0]] = star_block
    phi2 = StructMap(union_q, blk, phi2_map)

    lam_vals = dict(far.lam.values)
    lam_vals.update({j + n_far_blocks: val
                     for j, val in near.lam.values.items()})
    lam_vals[star_block] = (0,)
    lam = Labelling(blk.vertices, far.group, 1, lam_vals)

    mu_vals = {inj_f[v]: g for v, g in far.mu.values.items()}
    mu_vals.update({inj_n[v]: g for v, g in near.mu.values.items()})
    mu_vals[inj_s[0]] = (0,)
    mu = Labelling(union_q.vertices, far.group, 1, mu_vals)

    psi = {k: inj_f[far.psi[k]] for k in range(n_far)}
    psi.update({k + n_far: inj_n[near.psi[k]] for k in range(n_near)})
    psi[star] = inj_s[0]

    kernel_vals = {k: far.kernel[0].values[k] for k in range(n_far)}
    kernel_vals.update({k + n_far: near.kernel[0].values[k]
                        for k in range(n_near)})
    kernel = Khat(space, far.a_size, kernel_vals)

    inst = TransconjInstance(
        space=space, a_size=far.a_size, group=far.group, action=far.action,
        h=(h,), partition=part, q=union_q, phi2=phi2, lam=lam, mu=mu,
        psi=psi, kernel=(kernel,))
    inst.verify()
    return inst, frozenset(range(n_far, n_far + n_near))


def conjugator_values_in_stabiliser(c: PowerAut, points: frozenset[int],
                                    pin: int) -> bool:
    return all(c.values[x][pin] == pin for x in points)


__all__ = [
    "Hbar", "Khat", "PowerAut", "ProductAut", "TransconjInstance",
    "block_quotient", "check_action", "conjugate",
    "conjugator_values_in_stabiliser", "cycle_cover_instance",
    "elements_equal", "function_space", "natural_action",
    "pinned_union_instance", "preserves_filtered_operations",
    "qp_conjugator", "verify_conjugator",
]
