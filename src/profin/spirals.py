"""Spiral digraphs, covering maps, and quotient-property labellings.

A spiral S(p,q,r) is a directed p-cycle and a directed r-cycle joined by a
directed path on q vertices, with the identifications a_p = b_1 and
b_q = c_1.  The quotient property ties a group labelling mu on a covering
structure to a labelling lam on its image: for every edge (x,y) of relation
i, mu(x)^-1 mu(y) = lam(phi(y))_i.  A QP cover of a whole F0 structure is
the derived graph of lam (``surj_qp_cover``); spirals serve the single-cycle
constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import CapExhausted, VerificationError
from .groups import FinGroup, Labelling, exponent, subgroup_closure
from .maps import StructMap
from .structures import F0, FinStructure, in_family

# Largest spiral built, in vertices; a larger one raises CapExhausted
# before anything is allocated.  Peak RSS at the cap (CPython 3.11, x86-64):
# `profin spiral make` 157 MB, `profin spiral cover` onto S(2,1,2) 221 MB,
# and `profin qp label` over A4 (cover S(6p,1,6p)) 467 MB.
_SPIRAL_CAP = 2 ** 18


class Spiral:
    """Spiral digraph with canonical vertex ids and a_i/b_i/c_i names."""

    __slots__ = ("p", "q", "r", "structure")

    def __init__(self, p: int, q: int, r: int):
        if p < 2 or r < 2:
            raise ValueError("spiral needs p > 1 and r > 1")
        if q < 1:
            raise ValueError("spiral needs q >= 1")
        count = p + q + r - 2
        if count > _SPIRAL_CAP:
            raise CapExhausted(f"spiral S({p},{q},{r}) has {count} vertices, "
                               "over the spiral cap", budget=_SPIRAL_CAP,
                               stats={"needed": count})
        self.p, self.q, self.r = p, q, r
        edges = set()
        for i in range(1, p):
            edges.add((self._a(i), self._a(i + 1)))
        edges.add((self._a(p), self._a(1)))
        for i in range(1, q):
            edges.add((self._b(i), self._b(i + 1)))
        for i in range(1, r):
            edges.add((self._c(i), self._c(i + 1)))
        edges.add((self._c(r), self._c(1)))
        labels = {self._a(i): f"a{i}" for i in range(1, p + 1)}
        for i in range(2, q + 1):
            labels[self._b(i)] = f"b{i}"
        for i in range(2, r + 1):
            labels[self._c(i)] = f"c{i}"
        self.structure = FinStructure(1, range(count), [edges], labels=labels)

    def _a(self, i: int) -> int:
        return i - 1

    def _b(self, i: int) -> int:
        return self.p - 1 if i == 1 else self.p + i - 2

    def _c(self, i: int) -> int:
        return self._b(self.q) if i == 1 else self.p + self.q + i - 3

    def a(self, i: int) -> int:
        if not 1 <= i <= self.p:
            raise ValueError(f"a index {i} out of range")
        return self._a(i)

    def b(self, i: int) -> int:
        if not 1 <= i <= self.q:
            raise ValueError(f"b index {i} out of range")
        return self._b(i)

    def c(self, i: int) -> int:
        if not 1 <= i <= self.r:
            raise ValueError(f"c index {i} out of range")
        return self._c(i)

    def path_vertices(self) -> list[int]:
        """The walk a_1 .. a_p = b_1 .. b_q = c_1 .. c_r, each vertex once."""
        seq = [self._a(i) for i in range(1, self.p + 1)]
        seq.extend(self._b(i) for i in range(2, self.q + 1))
        seq.extend(self._c(i) for i in range(2, self.r + 1))
        return seq

    def vertex_by_name(self, name: str) -> int:
        kind, idx = name[0], int(name[1:])
        return {"a": self.a, "b": self.b, "c": self.c}[kind](idx)

    def __repr__(self) -> str:
        return f"Spiral({self.p},{self.q},{self.r})"


def make_spiral(p: int, q: int, r: int) -> Spiral:
    return Spiral(p, q, r)


@lru_cache(maxsize=512)
def _cover_pair(t: int, p: int, q: int,
                r: int) -> tuple[Spiral, Spiral, StructMap]:
    if t < 1:
        raise ValueError("t must be >= 1")
    base = Spiral(p, q, r)
    cover = Spiral(t * p, q, t * r)
    mapping = {}
    for i in range(1, t * p + 1):
        mapping[cover.a(i)] = base.a((i - 1) % p + 1)
    for i in range(1, q + 1):
        mapping[cover.b(i)] = base.b(i)
    for i in range(1, t * r + 1):
        mapping[cover.c(i)] = base.c((i - 1) % r + 1)
    return base, cover, StructMap(cover.structure, base.structure, mapping)


def spiral_cover_map(t: int, p: int, q: int, r: int) -> StructMap:
    """Winding epimorphism from S(tp, q, tr) onto S(p, q, r)."""
    return _cover_pair(t, p, q, r)[2]


@dataclass(frozen=True)
class QPWitness:
    """Epimorphism with labellings tied by the quotient property."""

    phi: StructMap
    lam: Labelling
    mu: Labelling


@dataclass(frozen=True)
class QPReport:
    ok: bool
    reason: str = ""
    relation: int | None = None
    edge: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_qp(w: QPWitness) -> QPReport:
    """Check mu(x)^-1 mu(y) = lam(phi(y))_i on every domain edge."""
    dom, cod = w.phi.domain, w.phi.codomain
    if dom.m != cod.m:
        raise ValueError("arity mismatch between domain and codomain")
    if w.lam.width != cod.m:
        raise ValueError(f"lam width {w.lam.width} does not match m={cod.m}")
    if w.mu.width != 1:
        raise ValueError("mu must have width 1")
    if w.lam.group is not w.mu.group and w.lam.group != w.mu.group:
        raise ValueError("lam and mu use different groups")
    t = w.lam.group
    table, inv = t.table, t.inverse
    mp = w.phi.mapping
    mu, lam = w.mu.values, w.lam.values
    for i in range(dom.m):
        for x, y in sorted(dom.relations[i]):
            lhs = table[inv[mu[x][0]]][mu[y][0]]
            rhs = lam[mp[y]][i]
            if lhs != rhs:
                return QPReport(False,
                                f"quotient property fails: got {lhs}, "
                                f"expected {rhs}", relation=i, edge=(x, y))
    return QPReport(True)


def _propagate_mu(cover: Spiral, phi: StructMap, lam: Labelling,
                  component: int, t_group: FinGroup, x0: int,
                  alpha: int) -> Labelling:
    """Propagate mu along the spiral walk from mu(x0) = alpha.

    Each walk edge (x, y) forces mu(y) = mu(x) * lam(phi(y))_i forward and
    mu(x) = mu(y) * lam(phi(y))_i^-1 backward.
    """
    seq = cover.path_vertices()
    if x0 not in cover.structure.vertices:
        raise ValueError(f"x0={x0} is not a cover vertex")
    if not 0 <= alpha < t_group.order:
        raise ValueError("alpha outside the group")
    table, inv = t_group.table, t_group.inverse
    pos = seq.index(x0)
    mu = {x0: alpha}
    for k in range(pos + 1, len(seq)):
        inc = lam.component(phi.mapping[seq[k]], component)
        mu[seq[k]] = table[mu[seq[k - 1]]][inc]
    for k in range(pos - 1, -1, -1):
        inc = lam.component(phi.mapping[seq[k + 1]], component)
        mu[seq[k]] = table[mu[seq[k + 1]]][inv[inc]]
    return Labelling(cover.structure.vertices, t_group, 1,
                     {v: (g,) for v, g in mu.items()})


def spiral_qp_labelling(base: Spiral, lam: Labelling, component: int,
                        t_group: FinGroup, x0: int, alpha: int) -> QPWitness:
    """Labelling of the exponent-fold spiral cover satisfying QP.

    ``lam`` labels the base spiral with width-m tuples; ``component`` picks
    the coordinate the single spiral relation stands for.  ``x0`` is a
    vertex of the cover S(tp, q, tr), t the group exponent, and
    mu(x0) = alpha.  The two wrap edges hold by the exponent telescoping
    and are re-checked.
    """
    t = exponent(t_group)
    if not 0 <= component < lam.width:
        raise ValueError(f"component {component} out of range")
    if lam.carrier != base.structure.vertices:
        raise ValueError("lam does not label the base spiral")
    _, cover, phi = _cover_pair(t, base.p, base.q, base.r)
    mu = _propagate_mu(cover, phi, lam, component, t_group, x0, alpha)
    sliced = Labelling(base.structure.vertices, t_group, 1,
                       {v: (lam.component(v, component),)
                        for v in base.structure.vertices})
    witness = QPWitness(phi, sliced, mu)
    rep = verify_qp(witness)
    if not rep:
        raise VerificationError(f"propagated labelling fails QP on "
                                f"edge {rep.edge}: {rep.reason}")
    return witness


def surj_qp_cover(a: FinStructure, lam: Labelling,
                  t_group: FinGroup) -> QPWitness:
    """QP cover of an F0 structure: the derived graph of the voltage lam.

    Vertices are the pairs (v, g) with v a vertex of ``a`` and g in T, with
    id index(v)·|T| + g over the sorted vertices and label "(<v>,g)"; R_i
    holds (x, g) -> (y, g·lam(y)_i) for every (x, y) in R_i and every g
    (Gross and Tucker, *Topological Graph Theory*, 1987).  phi(v, g) = v and
    mu(v, g) = g, so mu(x)^-1 mu(y) = lam(phi(y))_i holds on every pair by
    construction.  Every pair of ``a`` lifts, so phi is an epimorphism and
    the cover is in F0; every (vertex, value) pair occurs exactly once,
    which is full label richness.  The cover has |V|·|T| vertices.
    """
    rep = in_family(a, F0)
    if not rep:
        raise ValueError(f"structure is not in F0: {rep.reason}")
    if lam.width != a.m:
        raise ValueError(f"lam width {lam.width} does not match m={a.m}")
    if lam.carrier != a.vertices:
        raise ValueError("lam does not label the structure")
    order, table = t_group.order, t_group.table
    verts = a.sorted_vertices()
    base = {v: k * order for k, v in enumerate(verts)}
    values = lam.values
    rels = [{(base[x] + g, base[y] + table[g][values[y][i]])
             for x, y in rel for g in range(order)}
            for i, rel in enumerate(a.relations)]
    labels = {base[v] + g: f"({a.label_of(v)},{g})"
              for v in verts for g in range(order)}
    cover = FinStructure(a.m, range(len(verts) * order), rels, labels=labels)
    phi = StructMap(cover, a, {base[v] + g: v
                               for v in verts for g in range(order)})
    mu = Labelling(cover.vertices, t_group, 1,
                   {base[v] + g: (g,) for v in verts for g in range(order)})
    return QPWitness(phi, lam, mu)


def mu_values_in_subgroup(w: QPWitness, extra: tuple[int, ...] = ()) -> bool:
    """All mu values lie in the subgroup generated by the lam components."""
    gens = {g for tup in w.lam.values.values() for g in tup} | set(extra)
    closure = subgroup_closure(w.lam.group, gens)
    return all(v[0] in closure for v in w.mu.values.values())


def richness_scan(w: QPWitness) -> bool:
    """Every codomain vertex is hit over every group value."""
    seen = {(w.phi.mapping[v], w.mu.component(v, 0))
            for v in w.phi.domain.vertices}
    return len(seen) == len(w.phi.codomain.vertices) * w.mu.group.order
