"""Spiral digraphs, covering maps, and quotient-property labellings.

A spiral S(p,q,r) is a directed p-cycle and a directed r-cycle joined by a
directed path on q vertices, with the identifications a_p = b_1 and
b_q = c_1.  The quotient property ties a group labelling mu on a covering
structure to a labelling lam on its image: for every edge (x,y) of relation
i, mu(x)^-1 mu(y) = lam(phi(y))_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import VerificationError
from .groups import FinGroup, Labelling, exponent, subgroup_closure
from .maps import StructMap, check_epimorphism
from .structures import F0, FinStructure, in_family, is_surjective_relation


class Spiral:
    """Spiral digraph with canonical vertex ids and a_i/b_i/c_i names."""

    __slots__ = ("p", "q", "r", "structure")

    def __init__(self, p: int, q: int, r: int):
        if p < 2 or r < 2:
            raise ValueError("spiral needs p > 1 and r > 1")
        if q < 1:
            raise ValueError("spiral needs q >= 1")
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
        count = p + q + r - 2
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


def _bfs(s: FinStructure, i: int, start: int,
         backward: bool = False) -> dict[int, int | None]:
    """Parent of every vertex reachable from start (None at start), set at
    first discovery, following edges or their reverses; the keys are in
    discovery order."""
    parent: dict[int, int | None] = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for w in (s.in_neighbors(i, u) if backward
                      else s.out_neighbors(i, u)):
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    return parent


def _walk_back(parent: dict[int, int | None], v: int) -> list[int]:
    """Vertices of the BFS tree path from the start to v."""
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _shortest_cycle_through(s: FinStructure, i: int, v: int) -> list[int]:
    """Vertices of a shortest directed cycle through v, starting at v."""
    parent = _bfs(s, i, v)
    for u in parent:
        if v in s.out_neighbors(i, u):
            return _walk_back(parent, u)
    raise ValueError(f"vertex {v} lies on no directed cycle of relation {i}")


def reduct(s: FinStructure, i: int) -> FinStructure:
    """Single-relation reduct, keeping vertices and labels, no constants."""
    if not 0 <= i < s.m:
        raise IndexError(f"relation index {i} out of range")
    return FinStructure(1, s.vertices, [s.relations[i]], labels=s.labels)


@dataclass(frozen=True)
class SpiralCover:
    """Disjoint spiral union covering a single-relation digraph."""

    structure: FinStructure
    map: StructMap
    components: tuple[tuple[Spiral, StructMap], ...]


def spiral_cover_of_digraph(s: FinStructure, i: int) -> SpiralCover:
    """Cover of the i-reduct by one spiral per edge.

    The spiral for edge (u, v) walks a shortest ancestor cycle, a shortest
    path to u, the edge itself, a shortest path from v into a descendant
    cycle, and that cycle.  Length-1 cycles are traversed twice to respect
    p, r > 1.  The union of the spiral maps covers every edge, so the
    result is an epimorphism onto the reduct.
    """
    if not is_surjective_relation(s, i):
        raise ValueError(f"relation {i} is not surjective")
    target = reduct(s, i)
    cycle_cache: dict[int, list[int] | None] = {}

    def cycle_at(v: int) -> list[int] | None:
        if v not in cycle_cache:
            try:
                cycle_cache[v] = _shortest_cycle_through(target, 0, v)
            except ValueError:
                cycle_cache[v] = None
        return cycle_cache[v]

    cycle_verts = [v for v in target.sorted_vertices()
                   if cycle_at(v) is not None]

    components: list[tuple[Spiral, StructMap]] = []
    for u, v in sorted(s.relations[i]):
        cyc_u = cycle_at(u)
        if u == v and cyc_u is not None and len(cyc_u) == 1:
            spiral = Spiral(2, 1, 2)
            walk_map = {w: u for w in spiral.structure.vertices}
            components.append(
                (spiral, StructMap(spiral.structure, target, walk_map)))
            continue
        to_u = _bfs(target, 0, u, backward=True)
        from_v = _bfs(target, 0, v)
        anc = min((z for z in cycle_verts if z in to_u),
                  key=lambda z: (len(_walk_back(to_u, z))
                                 + len(cycle_at(z)), z))
        dec = min((z for z in cycle_verts if z in from_v),
                  key=lambda z: (len(_walk_back(from_v, z))
                                 + len(cycle_at(z)), z))
        cyc_a = cycle_at(anc)
        cyc_c = cycle_at(dec)
        assert cyc_a is not None and cyc_c is not None
        walk = (_walk_back(_bfs(target, 0, anc), u)
                + _walk_back(from_v, dec))
        p = len(cyc_a) if len(cyc_a) > 1 else 2
        r = len(cyc_c) if len(cyc_c) > 1 else 2
        q = len(walk)
        spiral = Spiral(p, q, r)
        walk_map = {}
        for j in range(1, p + 1):
            walk_map[spiral.a(j)] = cyc_a[j % len(cyc_a)]
        for j in range(1, q + 1):
            walk_map[spiral.b(j)] = walk[j - 1]
        for j in range(1, r + 1):
            walk_map[spiral.c(j)] = cyc_c[(j - 1) % len(cyc_c)]
        phi = StructMap(spiral.structure, target, walk_map)
        components.append((spiral, phi))

    offset = 0
    verts: list[int] = []
    edges: set[tuple[int, int]] = set()
    mapping: dict[int, int] = {}
    labels: dict[int, str] = {}
    for spiral, phi in components:
        st = spiral.structure
        for w in st.sorted_vertices():
            verts.append(offset + w)
            mapping[offset + w] = phi.mapping[w]
            labels[offset + w] = st.label_of(w)
        edges.update((offset + a, offset + b) for a, b in st.relations[0])
        offset += len(st.vertices)
    union = FinStructure(1, verts, [edges], labels=labels)
    out = StructMap(union, target, mapping)
    if not check_epimorphism(out):
        raise VerificationError("spiral union does not cover the reduct")
    return SpiralCover(union, out, tuple(components))


def surj_qp_cover(a: FinStructure, lam: Labelling,
                  t_group: FinGroup) -> QPWitness:
    """QP cover of a surjective structure by labelled spiral unions.

    Per relation i the reduct gets a spiral cover, each spiral is replaced
    by its exponent-fold cover carrying one propagated labelling per group
    element (left shifts), and the per-relation parts are finally stitched
    by extra edges so that every relation of the result is surjective.
    Every vertex of the result keeps full label richness: each structure
    vertex appears over every group value in every part.
    """
    rep = in_family(a, F0)
    if not rep:
        raise ValueError(f"structure is not in F0: {rep.reason}")
    if lam.width != a.m:
        raise ValueError(f"lam width {lam.width} does not match m={a.m}")
    if lam.carrier != a.vertices:
        raise ValueError("lam does not label the structure")
    t = exponent(t_group)
    table, inv = t_group.table, t_group.inverse

    verts: list[int] = []
    rels: list[set[tuple[int, int]]] = [set() for _ in range(a.m)]
    mapping: dict[int, int] = {}
    mu_vals: dict[int, tuple[int]] = {}
    labels: dict[int, str] = {}
    part_of: dict[int, int] = {}
    rich: dict[tuple[int, int, int], list[int]] = {}
    offset = 0

    for i in range(a.m):
        cover_i = spiral_cover_of_digraph(a, i)
        for spiral, walk in cover_i.components:
            base_lam = Labelling(
                spiral.structure.vertices, t_group, a.m,
                {v: lam.value(walk.mapping[v])
                 for v in spiral.structure.vertices})
            _, big, phi_big = _cover_pair(t, spiral.p, spiral.q, spiral.r)
            seed = _propagate_mu(big, phi_big, base_lam, i, t_group,
                                 big.a(1), 0)
            into_a = {v: walk.mapping[phi_big.mapping[v]]
                      for v in big.structure.vertices}
            for g in range(t_group.order):
                st = big.structure
                for w in st.sorted_vertices():
                    vid = offset + w
                    verts.append(vid)
                    mapping[vid] = into_a[w]
                    mu_vals[vid] = (table[g][seed.values[w][0]],)
                    labels[vid] = f"r{i}g{g}:{st.label_of(w)}"
                    part_of[vid] = i
                    rich.setdefault((mapping[vid], mu_vals[vid][0], i),
                                    []).append(vid)
                rels[i].update((offset + x, offset + y)
                               for x, y in st.relations[0])
                offset += len(st.vertices)

    for lst in rich.values():
        lst.sort()
    for key in [(va, alpha, i) for va in a.vertices
                for alpha in range(t_group.order) for i in range(a.m)]:
        if key not in rich:
            raise VerificationError(f"richness gap at {key}")

    # Stitch the parts: each vertex of part i needs in/out edges in every
    # other relation j, chosen so QP and the homomorphism property persist.
    # Every added pair is re-checked on the spot.
    if a.m > 1:
        for b in verts:
            i = part_of[b]
            ab = mapping[b]
            for j in range(a.m):
                if j == i:
                    continue
                succ = a.out_neighbors(j, ab)[0]
                want = table[mu_vals[b][0]][lam.component(succ, j)]
                partner = rich[(succ, want, j)][0]
                if (ab, mapping[partner]) not in a.relations[j] or \
                        table[inv[mu_vals[b][0]]][mu_vals[partner][0]] \
                        != lam.component(succ, j):
                    raise VerificationError(
                        f"stitch pair breaks relation {j}")
                rels[j].add((b, partner))
                pred = a.in_neighbors(j, ab)[0]
                want = table[mu_vals[b][0]][inv[lam.component(ab, j)]]
                partner = rich[(pred, want, j)][0]
                if (mapping[partner], ab) not in a.relations[j] or \
                        table[inv[mu_vals[partner][0]]][mu_vals[b][0]] \
                        != lam.component(ab, j):
                    raise VerificationError(
                        f"stitch pair breaks relation {j}")
                rels[j].add((partner, b))

    cover = FinStructure(a.m, verts, rels, labels=labels)
    phi = StructMap(cover, a, mapping)
    mu = Labelling(cover.vertices, t_group, 1, mu_vals)
    return QPWitness(phi, lam, mu)


def mu_values_in_subgroup(w: QPWitness, extra: tuple[int, ...] = ()) -> bool:
    """All mu values lie in the subgroup generated by the lam components."""
    gens = {g for tup in w.lam.values.values() for g in tup} | set(extra)
    closure = subgroup_closure(w.lam.group, gens)
    return all(v[0] in closure for v in w.mu.values.values())


def cover_part_of(cover: FinStructure) -> dict[int, int]:
    """Relation part each vertex of a surj_qp_cover domain belongs to.

    The cover labels its vertices "r<i>g<g>:<name>"; the part is the
    relation whose spiral union contributed the vertex.
    """
    if not cover.labels:
        raise ValueError("cover carries no part labels")
    out = {}
    for v in cover.vertices:
        lab = cover.labels[v]
        if not lab.startswith("r") or "g" not in lab:
            raise ValueError(f"vertex {v} has no part label")
        out[v] = int(lab[1:lab.index("g")])
    return out


def richness_scan(w: QPWitness) -> bool:
    """Every codomain vertex is hit over every group value in every part."""
    part = cover_part_of(w.phi.domain)
    seen = {(w.phi.mapping[v], w.mu.component(v, 0), part[v])
            for v in w.phi.domain.vertices}
    cod = w.phi.codomain
    return all((a, alpha, i) in seen
               for a in cod.vertices
               for alpha in range(w.mu.group.order)
               for i in range(cod.m))
