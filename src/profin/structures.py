"""Finite relational structures with distinguished constants.

A structure has m binary relations and n constants over a finite vertex set.
Vertices are opaque integers; human-readable names (spiral vertex names,
block names) live in an optional label map that never influences algorithms.
All values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

FWD = "fwd"
INV = "inv"

F0 = "F0"
F = "F"
F0N = "F0n"
FN = "Fn"
FAMILIES = (F0, F, F0N, FN)

Pair = tuple[int, int]


class FinStructure:
    """Finite structure: vertex set, m binary relations, n constants."""

    __slots__ = ("m", "vertices", "relations", "constants", "labels",
                 "_out", "_in", "_hash", "_membership")

    def __init__(
        self,
        m: int,
        vertices: Iterable[int],
        relations: Sequence[Iterable[Pair]],
        constants: Sequence[int] = (),
        labels: Mapping[int, str] | None = None,
    ):
        if m < 1:
            raise ValueError(f"relation count must be >= 1, got {m}")
        if len(relations) != m:
            raise ValueError(f"expected {m} relations, got {len(relations)}")
        verts = list(vertices)
        vset = frozenset(verts)
        if len(verts) != len(vset):
            raise ValueError("vertex ids must be unique")
        rels = []
        for i, rel in enumerate(relations):
            rel = frozenset((int(a), int(b)) for a, b in rel)
            for a, b in rel:
                if a not in vset or b not in vset:
                    raise ValueError(
                        f"relation {i} pair ({a},{b}) references unknown vertex")
            rels.append(rel)
        consts = tuple(int(c) for c in constants)
        for c in consts:
            if c not in vset:
                raise ValueError(f"constant {c} is not a vertex")
        self.m = m
        self.vertices = vset
        self.relations = tuple(rels)
        self.constants = consts
        self.labels = dict(labels) if labels else None
        self._out: tuple[dict[int, tuple[int, ...]], ...] | None = None
        self._in: tuple[dict[int, tuple[int, ...]], ...] | None = None
        self._hash: int | None = None
        self._membership: dict[str, MembershipReport] = {}

    @property
    def n(self) -> int:
        return len(self.constants)

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)

    def label_of(self, v: int) -> str:
        if self.labels and v in self.labels:
            return self.labels[v]
        return str(v)

    def _adjacency(self) -> None:
        outs, ins = [], []
        for rel in self.relations:
            o: dict[int, list[int]] = {v: [] for v in self.vertices}
            i: dict[int, list[int]] = {v: [] for v in self.vertices}
            for a, b in rel:
                o[a].append(b)
                i[b].append(a)
            outs.append({v: tuple(sorted(ws)) for v, ws in o.items()})
            ins.append({v: tuple(sorted(ws)) for v, ws in i.items()})
        self._out = tuple(outs)
        self._in = tuple(ins)

    def out_neighbors(self, i: int, v: int) -> tuple[int, ...]:
        if self._out is None:
            self._adjacency()
        return self._out[i][v]

    def in_neighbors(self, i: int, v: int) -> tuple[int, ...]:
        if self._out is None:
            self._adjacency()
        return self._in[i][v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinStructure):
            return NotImplemented
        return (self.m == other.m and self.vertices == other.vertices
                and self.relations == other.relations
                and self.constants == other.constants)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.m, self.vertices, self.relations,
                               self.constants))
        return self._hash

    def __repr__(self) -> str:
        return (f"FinStructure(m={self.m}, |V|={len(self.vertices)}, "
                f"edges={[len(r) for r in self.relations]}, "
                f"constants={list(self.constants)})")


class Partition:
    """Disjoint nonempty blocks covering a finite ground set.

    Blocks are kept in canonical order (sorted by least element), so block
    ids are stable across equal partitions.
    """

    __slots__ = ("blocks", "ground", "_index")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        blks = [frozenset(b) for b in blocks]
        for b in blks:
            if not b:
                raise ValueError("partition blocks must be nonempty")
        blks.sort(key=min)
        ground: set[int] = set()
        for b in blks:
            if ground & b:
                raise ValueError("partition blocks must be disjoint")
            ground |= b
        self.blocks: tuple[frozenset[int], ...] = tuple(blks)
        self.ground = frozenset(ground)
        self._index = {v: i for i, b in enumerate(blks) for v in b}

    def block_of(self, v: int) -> int:
        return self._index[v]

    def __len__(self) -> int:
        return len(self.blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"Partition({[sorted(b) for b in self.blocks]})"


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a family membership test, naming the first violation."""

    ok: bool
    family: str
    reason: str = ""
    vertex: int | None = None
    relation: int | None = None
    edge: Pair | None = None

    def __bool__(self) -> bool:
        return self.ok


def connected_components(s: FinStructure) -> Partition:
    """Partition into components of the symmetrized union graph."""
    adj: dict[int, set[int]] = {v: set() for v in s.vertices}
    for rel in s.relations:
        for a, b in rel:
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
    seen: set[int] = set()
    blocks = []
    for v in s.sorted_vertices():
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        blocks.append(comp)
    return Partition(blocks)


def is_surjective_relation(s: FinStructure, i: int) -> bool:
    """True iff every vertex has in-degree and out-degree at least 1."""
    if not 0 <= i < s.m:
        raise IndexError(f"relation index {i} out of range for m={s.m}")
    for v in s.vertices:
        if not s.out_neighbors(i, v) or not s.in_neighbors(i, v):
            return False
    return True


def outgoing_classification(s: FinStructure, v: int) -> set[tuple[int, str]]:
    """Relations (and converses) for which v is an outgoing point.

    v is outgoing for relation i when it has exactly one in-neighbor and at
    least two out-neighbors; for the converse the roles are swapped.
    """
    if v not in s.vertices:
        raise ValueError(f"unknown vertex {v}")
    tags: set[tuple[int, str]] = set()
    for i in range(s.m):
        indeg = len(s.in_neighbors(i, v))
        outdeg = len(s.out_neighbors(i, v))
        if indeg == 1 and outdeg >= 2:
            tags.add((i, FWD))
        if outdeg == 1 and indeg >= 2:
            tags.add((i, INV))
    return tags


def _check_f0(s: FinStructure, family: str) -> MembershipReport:
    if not s.vertices:
        return MembershipReport(False, family, "empty vertex set")
    for i in range(s.m):
        for v in s.sorted_vertices():
            if not s.out_neighbors(i, v):
                return MembershipReport(
                    False, family, "vertex has no outgoing edge",
                    vertex=v, relation=i)
            if not s.in_neighbors(i, v):
                return MembershipReport(
                    False, family, "vertex has no incoming edge",
                    vertex=v, relation=i)
    return MembershipReport(True, family)


def _check_f(s: FinStructure, family: str) -> MembershipReport:
    rep = _check_f0(s, family)
    if not rep:
        return rep
    tags_of = {}
    for v in s.sorted_vertices():
        tags = tags_of[v] = outgoing_classification(s, v)
        if len(tags) != 1:
            return MembershipReport(
                False, family,
                f"vertex outgoing for {len(tags)} relations/converses, "
                "expected exactly 1", vertex=v)
    for i in range(s.m):
        for a, b in sorted(s.relations[i]):
            if (i, FWD) not in tags_of[a] and (i, INV) not in tags_of[b]:
                return MembershipReport(
                    False, family,
                    "edge has neither an outgoing tail nor a converse-"
                    "outgoing head", relation=i, edge=(a, b))
    return MembershipReport(True, family)


def in_family(s: FinStructure, family: str) -> MembershipReport:
    """Membership test with a structured first-violation report.

    F0: all relations surjective.  F: F0 plus the two outgoing conditions.
    F0n: the constant-free reduct is in F0 and every constant carries a loop
    in every relation.  Fn: constants are distinct singleton loop components
    and the non-constant part is in F.  The report is kept on the structure.
    """
    rep = s._membership.get(family)
    if rep is None:
        rep = s._membership[family] = _membership(s, family)
    return rep


def _membership(s: FinStructure, family: str) -> MembershipReport:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family in (F0, F):
        if s.n != 0:
            raise ValueError(f"family {family} requires n=0, got n={s.n}")
        return _check_f0(s, family) if family == F0 else _check_f(s, family)

    if not s.vertices:
        return MembershipReport(False, family, "empty vertex set")
    if family == F0N:
        rep = _check_f0(s, family)
        if not rep:
            return rep
        for i in range(s.m):
            for j, c in enumerate(s.constants):
                if (c, c) not in s.relations[i]:
                    return MembershipReport(
                        False, family,
                        f"constant p{j + 1} lacks a loop", vertex=c,
                        relation=i)
        return MembershipReport(True, family)

    # Fn
    if len(set(s.constants)) != s.n:
        return MembershipReport(False, family, "constants are not distinct")
    cset = set(s.constants)
    for j, c in enumerate(s.constants):
        for i in range(s.m):
            if (c, c) not in s.relations[i]:
                return MembershipReport(
                    False, family, f"constant p{j + 1} lacks a loop",
                    vertex=c, relation=i)
            for b in s.out_neighbors(i, c):
                if b != c:
                    return MembershipReport(
                        False, family,
                        f"constant p{j + 1} is not a singleton component",
                        vertex=c, relation=i, edge=(c, b))
            for a in s.in_neighbors(i, c):
                if a != c:
                    return MembershipReport(
                        False, family,
                        f"constant p{j + 1} is not a singleton component",
                        vertex=c, relation=i, edge=(a, c))
    rest = s.vertices - cset
    if not rest:
        return MembershipReport(False, family, "no non-constant part")
    return _check_f(induced(s, rest, keep_constants=False), family)


def expand_constants(s: FinStructure, k: int) -> FinStructure:
    """Adjoin k fresh loop points designated as constants 1..k."""
    if s.n != 0:
        raise ValueError("expand_constants requires a structure without "
                         "constants")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return s
    start = max(s.vertices) + 1 if s.vertices else 0
    fresh = list(range(start, start + k))
    rels = [set(rel) for rel in s.relations]
    for rel in rels:
        rel.update((p, p) for p in fresh)
    labels = dict(s.labels) if s.labels else {}
    for j, p in enumerate(fresh, start=1):
        labels[p] = f"p{j}"
    return FinStructure(s.m, list(s.vertices) + fresh, rels,
                        constants=fresh, labels=labels)


def quotient(s: FinStructure, p: Partition):
    """Quotient structure on blocks plus the natural projection map.

    A block pair is related iff some member pair is.  Rejects partitions
    merging two distinct constants.
    """
    from .maps import StructMap

    if p.ground != s.vertices:
        raise ValueError("partition does not cover the vertex set")
    const_blocks = []
    for c in s.constants:
        b = p.block_of(c)
        if b in const_blocks:
            raise ValueError("two constants share a block")
        const_blocks.append(b)
    k = len(p)
    rels = []
    for rel in s.relations:
        rels.append({(p.block_of(a), p.block_of(b)) for a, b in rel})
    labels = {
        i: "{" + ",".join(sorted(s.label_of(v) for v in blk)) + "}"
        for i, blk in enumerate(p.blocks)
    }
    q = FinStructure(s.m, range(k), rels, constants=const_blocks,
                     labels=labels)
    proj = StructMap(s, q, {v: p.block_of(v) for v in s.vertices})
    return q, proj


def induced(s: FinStructure, keep: Iterable[int],
            keep_constants: bool = True) -> FinStructure:
    """Substructure induced on a vertex subset, preserving vertex ids."""
    kset = frozenset(keep)
    if not kset <= s.vertices:
        raise ValueError("subset contains unknown vertices")
    rels = [{(a, b) for a, b in rel if a in kset and b in kset}
            for rel in s.relations]
    consts: tuple[int, ...] = ()
    if keep_constants:
        missing = [c for c in s.constants if c not in kset]
        if missing:
            raise ValueError(f"subset drops constants {missing}")
        consts = s.constants
    labels = ({v: lab for v, lab in s.labels.items() if v in kset}
              if s.labels else None)
    return FinStructure(s.m, kset, rels, constants=consts, labels=labels)


def disjoint_union(structs: Sequence[FinStructure]):
    """Disjoint union with fresh dense ids; returns injections per part."""
    if not structs:
        raise ValueError("need at least one structure")
    m = structs[0].m
    if any(t.m != m for t in structs):
        raise ValueError("relation arity mismatch in disjoint union")
    offset = 0
    verts: list[int] = []
    rels: list[set[Pair]] = [set() for _ in range(m)]
    consts: list[int] = []
    labels: dict[int, str] = {}
    injections: list[dict[int, int]] = []
    for t in structs:
        inj = {v: offset + i for i, v in enumerate(t.sorted_vertices())}
        injections.append(inj)
        verts.extend(inj[v] for v in t.sorted_vertices())
        for i, rel in enumerate(t.relations):
            rels[i].update((inj[a], inj[b]) for a, b in rel)
        consts.extend(inj[c] for c in t.constants)
        if t.labels:
            for v, lab in t.labels.items():
                labels[inj[v]] = lab
        offset += len(t.vertices)
    return (FinStructure(m, verts, rels, constants=consts,
                         labels=labels or None), injections)


def surjective_core(s: FinStructure) -> frozenset[int]:
    """Largest vertex set whose induced substructure has all degrees >= 1.

    Iteratively deletes vertices with a missing in- or out-neighbor in some
    relation; the fixed point is the unique maximal such substructure (it
    may be empty).
    """
    alive = set(s.vertices)
    changed = True
    while changed and alive:
        changed = False
        for v in list(alive):
            for i in range(s.m):
                if (not any(w in alive for w in s.out_neighbors(i, v))
                        or not any(w in alive for w in s.in_neighbors(i, v))):
                    alive.discard(v)
                    changed = True
                    break
    return frozenset(alive)
