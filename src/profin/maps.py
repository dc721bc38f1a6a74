"""Structure maps: homomorphism and epimorphism checks, backtracking search,
fibre products, joint-projection and amalgamation witnesses, and covers
landing in the restricted families.

An epimorphism is a vertex-surjective homomorphism whose relation images are
exact: phi(s_i of the domain) equals s_i of the codomain, with constants
preserved.  Each public witness function checks its inputs once, hands
the construction to a private helper that returns an unverified candidate,
and verifies that candidate once before returning it.  A candidate that
misses F is replaced by its F cover, a construction of 4·Σ|R_i| vertices;
``size_cap`` is the largest cover allowed (None for no cap), and only an
explicit cap raises CapExhausted there.
"""

from __future__ import annotations

from typing import Mapping

from .errors import CapExhausted, VerificationError
from .structures import (F, F0N, FN, FinStructure, connected_components,
                         disjoint_union, expand_constants, in_family, induced,
                         surjective_core)

DEFAULT_BUDGET = 10_000_000


class StructMap:
    """Total vertex map between two finite structures."""

    __slots__ = ("domain", "codomain", "mapping")

    def __init__(self, domain: FinStructure, codomain: FinStructure,
                 mapping: Mapping[int, int]):
        mp = {int(v): int(w) for v, w in mapping.items()}
        if set(mp.keys()) != set(domain.vertices):
            raise ValueError("map is not total on the domain vertices")
        for v, w in mp.items():
            if w not in codomain.vertices:
                raise ValueError(f"image {w} of vertex {v} is not a "
                                 "codomain vertex")
        self.domain = domain
        self.codomain = codomain
        self.mapping = mp

    def __call__(self, v: int) -> int:
        return self.mapping[v]

    def as_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.mapping.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructMap):
            return NotImplemented
        return (self.domain == other.domain
                and self.codomain == other.codomain
                and self.mapping == other.mapping)

    def __repr__(self) -> str:
        return (f"StructMap(|dom|={len(self.domain.vertices)}, "
                f"|cod|={len(self.codomain.vertices)})")


def identity_map(s: FinStructure) -> StructMap:
    return StructMap(s, s, {v: v for v in s.vertices})


def compose(outer: StructMap, inner: StructMap) -> StructMap:
    """outer after inner."""
    if inner.codomain != outer.domain:
        raise ValueError("composition mismatch: inner codomain differs "
                         "from outer domain")
    return StructMap(inner.domain, outer.codomain,
                     {v: outer.mapping[w] for v, w in inner.mapping.items()})


def _check_arities(phi: StructMap) -> None:
    if phi.domain.m != phi.codomain.m:
        raise ValueError(f"arity mismatch: m={phi.domain.m} vs "
                         f"m={phi.codomain.m}")
    if phi.domain.n != phi.codomain.n:
        raise ValueError(f"arity mismatch: n={phi.domain.n} vs "
                         f"n={phi.codomain.n}")


def check_homomorphism(phi: StructMap) -> bool:
    """Relation pairs map into the codomain relation; constants preserved."""
    _check_arities(phi)
    mp = phi.mapping
    for i in range(phi.domain.m):
        cod = phi.codomain.relations[i]
        for a, b in phi.domain.relations[i]:
            if (mp[a], mp[b]) not in cod:
                return False
    for j in range(phi.domain.n):
        if mp[phi.domain.constants[j]] != phi.codomain.constants[j]:
            return False
    return True


def check_epimorphism(phi: StructMap) -> bool:
    """Vertex-surjective homomorphism with exact relation images."""
    _check_arities(phi)
    if not check_homomorphism(phi):
        return False
    if set(phi.mapping.values()) != set(phi.codomain.vertices):
        return False
    mp = phi.mapping
    for i in range(phi.domain.m):
        image = {(mp[a], mp[b]) for a, b in phi.domain.relations[i]}
        if image != phi.codomain.relations[i]:
            return False
    return True


def _forced_constants(a: FinStructure, b: FinStructure) -> dict[int, int] | None:
    """Constant assignments, or None when they conflict."""
    forced: dict[int, int] = {}
    for j in range(a.n):
        v, w = a.constants[j], b.constants[j]
        if forced.get(v, w) != w:
            return None
        forced[v] = w
    return forced


def _closing_pairs(a: FinStructure, b: FinStructure, v: int,
                   assignment: Mapping[int, int]):
    """The relation pairs that assigning ``v`` closes, and the images allowed.

    Returns (allowed, outs, ins, loops).  outs and ins hold (i, x) for each
    pair (v, u) and (u, v) of relation i whose other end u is already
    assigned to x, loops the i of each loop (v, v).  A candidate w closes
    the codomain pairs (w, x), (x, w) and (w, w); allowed is the set of
    codomain vertices for which all of them lie in the codomain relations,
    found from the codomain's adjacency, so its cost follows the degrees
    rather than the codomain's size.
    """
    outs, ins, loops = [], [], []
    for i in range(a.m):
        for u in a.out_neighbors(i, v):
            if u == v:
                loops.append(i)
            elif u in assignment:
                outs.append((i, assignment[u]))
        for u in a.in_neighbors(i, v):
            if u != v and u in assignment:
                ins.append((i, assignment[u]))
    allowed = b.vertices
    fits = [b.in_neighbors(i, x) for i, x in outs]
    fits += [b.out_neighbors(i, x) for i, x in ins]
    if fits:
        allowed = allowed.intersection(*fits)
    for i in loops:
        allowed = {w for w in allowed if (w, w) in b.relations[i]}
    return allowed, outs, ins, loops


class _Coverage:
    """What a partial map covers, kept on assign and undo.

    ``image_count`` counts the domain vertices sent to each codomain vertex
    and ``uncovered`` the codomain vertices not hit yet.  ``hits`` counts,
    per relation, how often each codomain pair is the image of a closed
    domain pair.  Per relation i, ``slack[i]`` is the number of domain
    pairs still open (an end unassigned) minus the codomain pairs not hit
    yet, and ``edge_slack[i]`` the same count over non-loop pairs only.
    A pair that closes onto an unhit codomain pair leaves ``slack`` as it
    is, and one that closes onto a hit pair lowers it.  A domain non-loop
    that closes onto an unhit codomain non-loop leaves ``edge_slack`` as it
    is, and one that closes onto a hit pair or a codomain loop lowers it;
    a domain loop, which only maps onto a loop, never changes it.  Each
    open pair covers at most one codomain pair when it closes, and a
    codomain non-loop is the image of a domain non-loop only, so the two
    counts are Hall's condition for the two pair types: no extension of a
    map with a negative slack of either kind is an epimorphism.
    """

    __slots__ = ("image_count", "uncovered", "hits", "slack", "edge_slack")

    def __init__(self, a: FinStructure, b: FinStructure):
        def edges(rel):
            return sum(x != y for x, y in rel)

        self.image_count = dict.fromkeys(b.vertices, 0)
        self.uncovered = len(b.vertices)
        self.hits = [dict.fromkeys(rel, 0) for rel in b.relations]
        self.slack = [len(a.relations[i]) - len(b.relations[i])
                      for i in range(a.m)]
        self.edge_slack = [edges(a.relations[i]) - edges(b.relations[i])
                           for i in range(a.m)]

    def add(self, w: int, pairs: list) -> bool:
        """Count image w and the closed pairs (i, codomain pair, whether
        the domain pair is a non-loop), unless a slack would go negative;
        then change nothing and return False."""
        hits, slack, edge_slack = self.hits, self.slack, self.edge_slack
        for i, pair, edge in pairs:
            count = hits[i][pair]
            hits[i][pair] = count + 1
            if count:
                slack[i] -= 1
            if edge and (count or pair[0] == pair[1]):
                edge_slack[i] -= 1
        if min(slack) < 0 or min(edge_slack) < 0:
            self._unhit(pairs)
            return False
        if not self.image_count[w]:
            self.uncovered -= 1
        self.image_count[w] += 1
        return True

    def remove(self, w: int, pairs: list) -> None:
        """Undo ``add(w, pairs)``."""
        self._unhit(pairs)
        self.image_count[w] -= 1
        if not self.image_count[w]:
            self.uncovered += 1

    def _unhit(self, pairs: list) -> None:
        hits, slack, edge_slack = self.hits, self.slack, self.edge_slack
        for i, pair, edge in pairs:
            count = hits[i][pair] - 1
            hits[i][pair] = count
            if count:
                slack[i] += 1
            if edge and (count or pair[0] == pair[1]):
                edge_slack[i] += 1


def _search_map(a: FinStructure, b: FinStructure, budget: int,
                surjective: bool) -> StructMap | None:
    """Backtracking vertex-map search, deterministic.

    Domain vertices are assigned in decreasing total degree (ties by id);
    candidate images in increasing id order.  A candidate must send every
    relation pair it closes (its other end already assigned, or a loop)
    into the codomain relation.  ``budget`` counts assignment attempts;
    exceeding it raises CapExhausted, whose ``stats`` hold the attempts
    made and the most vertices assigned at once.  A completed search
    returning None is a proof of nonexistence.

    When ``surjective`` is set, coverage counters (``_Coverage``) prune the
    search: a branch is cut when more codomain vertices are uncovered than
    domain vertices remain, or when some relation has more uncovered
    codomain pairs than open domain pairs, or more uncovered codomain
    non-loops than open domain non-loops (a loop maps only onto a loop),
    before the first node as well as after each assignment.  By Hall's
    argument for the two pair types a cut subtree holds no epimorphism,
    so the first witness in search order is the same as without the cuts;
    the full map is still checked by check_epimorphism.

    The search runs from an explicit stack, one level per domain vertex,
    so its depth is not bounded by the interpreter's recursion limit.
    """
    if a.m != b.m or a.n != b.n:
        raise ValueError("arity mismatch")
    if not a.vertices:
        if surjective and b.vertices:
            return None
        return StructMap(a, b, {})
    if not b.vertices:
        return None

    def total_degree(v: int) -> int:
        return sum(len(a.out_neighbors(i, v)) + len(a.in_neighbors(i, v))
                   for i in range(a.m))

    order = sorted(a.vertices, key=lambda v: (-total_degree(v), v))
    depth = len(order)
    forced = _forced_constants(a, b)
    if forced is None:
        return None
    if surjective:
        cover = _Coverage(a, b)
        if (cover.uncovered > depth or min(cover.slack) < 0
                or min(cover.edge_slack) < 0):
            return None
    candidates = sorted(b.vertices)
    assignment: dict[int, int] = {}
    # Per level: the pairs its vertex closes, the codomain pairs its current
    # image hits, and the index of the next candidate to try.
    closing: list = [None] * depth
    hit: list = [None] * depth
    resume = [0] * depth
    spent = deepest = 0
    level = j = 0
    while True:
        v = order[level]
        if j == 0:
            closing[level] = _closing_pairs(a, b, v, assignment)
        allowed, outs, ins, loops = closing[level]
        opts = (forced[v],) if v in forced else candidates
        # Only an uncovered image keeps enough vertices for the rest.
        tight = surjective and cover.uncovered >= depth - level
        placed = False
        while j < len(opts):
            w = opts[j]
            j += 1
            spent += 1
            if spent > budget:
                raise CapExhausted(
                    f"map search exceeded budget of {budget} expansions",
                    budget=budget,
                    stats={"nodes": spent, "deepest": deepest})
            if tight and cover.image_count[w] or w not in allowed:
                continue
            if surjective:
                pairs = [(i, (w, x), True) for i, x in outs]
                pairs += [(i, (x, w), True) for i, x in ins]
                pairs += [(i, (w, w), False) for i in loops]
                if not cover.add(w, pairs):
                    continue
                hit[level] = pairs
            assignment[v] = w
            placed = True
            break
        if placed:
            resume[level] = j
            level += 1
            if level > deepest:
                deepest = level
            if level < depth:
                j = 0
                continue
            phi = StructMap(a, b, assignment)
            if not surjective or check_epimorphism(phi):
                return phi
        # Backtrack: undo the assignment one level up and resume after it.
        level -= 1
        if level < 0:
            return None
        w = assignment.pop(order[level])
        if surjective:
            cover.remove(w, hit[level])
        j = resume[level]


def find_homomorphism(a: FinStructure, b: FinStructure,
                      budget: int = DEFAULT_BUDGET) -> StructMap | None:
    return _search_map(a, b, budget, surjective=False)


def find_epimorphism(a: FinStructure, b: FinStructure,
                     budget: int = DEFAULT_BUDGET) -> StructMap | None:
    """First epimorphism in canonical search order, or None if none exists."""
    return _search_map(a, b, budget, surjective=True)


def fibre_product(phi1: StructMap, phi2: StructMap):
    """Pullback of two maps with common codomain.

    Vertices are the pairs (x, y) with phi1(x) = phi2(y), relations are
    componentwise, constants are paired.  Returns (C, pi1, pi2).
    """
    if phi1.codomain != phi2.codomain:
        raise ValueError("codomain mismatch")
    a1, a2 = phi1.domain, phi2.domain
    pairs = [(x, y) for x in a1.sorted_vertices() for y in a2.sorted_vertices()
             if phi1.mapping[x] == phi2.mapping[y]]
    index = {pr: i for i, pr in enumerate(pairs)}
    by_image: dict[int, list[int]] = {}
    for y in a2.vertices:
        by_image.setdefault(phi2.mapping[y], []).append(y)
    rels = []
    for i in range(a1.m):
        rel2 = a2.relations[i]
        edges = set()
        for x, xp in a1.relations[i]:
            for y in by_image.get(phi1.mapping[x], ()):
                for yp in a2.out_neighbors(i, y):
                    if (phi2.mapping[yp] == phi1.mapping[xp]
                            and (y, yp) in rel2):
                        edges.add((index[(x, y)], index[(xp, yp)]))
        rels.append(edges)
    consts = [index[(a1.constants[j], a2.constants[j])] for j in range(a1.n)]
    labels = {i: f"({a1.label_of(x)},{a2.label_of(y)})"
              for (x, y), i in index.items()}
    c = FinStructure(a1.m, range(len(pairs)), rels, constants=consts,
                     labels=labels)
    pi1 = StructMap(c, a1, {index[pr]: pr[0] for pr in pairs})
    pi2 = StructMap(c, a2, {index[pr]: pr[1] for pr in pairs})
    return c, pi1, pi2


def _restrict_map(phi: StructMap, sub: FinStructure) -> StructMap:
    return StructMap(sub, phi.codomain,
                     {v: phi.mapping[v] for v in sub.vertices})


def _core_candidate(phi1: StructMap, phi2: StructMap):
    """Surjective core of the fibre product with restricted projections.

    Any amalgamation witness whose relations are everywhere surjective
    factors through this core, so the core deciding the question is exact
    for the surjective families.  Returns None when the core is empty.
    """
    c, pi1, pi2 = fibre_product(phi1, phi2)
    alive = surjective_core(c)
    if not alive:
        return None
    core = induced(c, alive)
    return core, _restrict_map(pi1, core), _restrict_map(pi2, core)


def _verify_witness(family: str, c: FinStructure, psi1: StructMap,
                    psi2: StructMap, phi1: StructMap | None = None,
                    phi2: StructMap | None = None) -> None:
    rep = in_family(c, family)
    if not rep:
        raise VerificationError(f"witness not in {family}: {rep.reason}")
    if not check_epimorphism(psi1) or not check_epimorphism(psi2):
        raise VerificationError("witness projection is not an epimorphism")
    if phi1 is not None and phi2 is not None:
        if compose(phi1, psi1) != compose(phi2, psi2):
            raise VerificationError("witness square does not commute")


def _require_family(s: FinStructure, family: str, role: str) -> None:
    rep = in_family(s, family)
    if not rep:
        raise ValueError(f"{role} is not in {family}: {rep.reason}")


def _strip_fn(phi: StructMap):
    """Remove constant preimages from an Fn-epimorphism.

    Returns the restricted F-level epimorphism plus the components of the
    domain that map onto constant points (each with the constant index it
    hits); those components must be re-covered separately.

    When phi is a checked Fn-epimorphism the restriction is an
    F-epimorphism between F members, so it needs no check of its own:
    - a constant point c of the codomain is a singleton loop component,
      so a pair touching a vertex over c maps to (c, c) and has both ends
      over c: the preimage of c is a union of components;
    - the F conditions (in and out neighbours in every relation, one
      outgoing tag per vertex, every pair covered by a tag) are per
      component, so the domain's non-constant part (in F) minus those
      components is in F, as is the codomain's non-constant part; the
      former is not empty, since phi covers the latter;
    - a pair over non-constant points has both ends in the restriction,
      so it stays vertex-surjective with exact relation images.
    """
    a, b = phi.domain, phi.codomain
    const_points = set(b.constants)
    pre = {v for v in a.vertices if phi.mapping[v] in const_points}
    a_rest = induced(a, a.vertices - pre, keep_constants=False)
    b_rest = induced(b, b.vertices - const_points, keep_constants=False)
    phi_rest = StructMap(a_rest, b_rest,
                         {v: phi.mapping[v] for v in a_rest.vertices})
    fixups = []
    extra = pre - set(a.constants)
    if extra:
        sub = induced(a, extra, keep_constants=False)
        for blk in connected_components(sub).blocks:
            comp = induced(sub, blk)
            j = b.constants.index(phi.mapping[min(blk)])
            fixups.append((comp, j))
    return phi_rest, fixups


def _reattach_fn(core: FinStructure, psi1: StructMap, psi2: StructMap,
                 fix1, fix2, a1: FinStructure, a2: FinStructure):
    """Assemble the Fn witness from the F-level one plus fixup copies.

    Each fixup component maps identically onto its own side and collapses
    to the matching constant point on the other side, keeping the square
    commuting over the constant fibres.
    """
    parts = [core] + [comp for comp, _ in fix1] + [comp for comp, _ in fix2]
    union, injs = disjoint_union(parts)
    n = a1.n
    full = expand_constants(union, n)
    map1 = {injs[0][v]: psi1.mapping[v] for v in core.vertices}
    map2 = {injs[0][v]: psi2.mapping[v] for v in core.vertices}
    k = 1
    for comp, j in fix1:
        for v in comp.vertices:
            map1[injs[k][v]] = v
            map2[injs[k][v]] = a2.constants[j]
        k += 1
    for comp, j in fix2:
        for v in comp.vertices:
            map1[injs[k][v]] = a1.constants[j]
            map2[injs[k][v]] = v
        k += 1
    fresh = full.constants
    for j in range(n):
        map1[fresh[j]] = a1.constants[j]
        map2[fresh[j]] = a2.constants[j]
    return full, StructMap(full, a1, map1), StructMap(full, a2, map2)


def _f_cover(s: FinStructure,
             size_cap: int | None) -> tuple[FinStructure, StructMap]:
    """An F member covering the F0 structure ``s``, with its epimorphism.

    ``s`` itself when it is in F.  Otherwise, for each relation i, each
    pair e = (a, b) of R_i (the t-th in sorted order) and k in {0, 1}:
    f(i,e,k) = 4t+2k over a and g(i,e,k) = 4t+2k+1 over b.  With c_v and
    p_v the smallest R_i-successor and -predecessor of v, the R_i pairs
    are f(i,e,k) -> g(i,e,j) for j in {0, 1}, g(i,e,k) -> g(i,(b,c_b),k)
    and f(i,(p_a,a),k) -> f(i,e,k); a vertex w of another relation's type
    over v has only w -> g(i,(v,c_v),k) and f(i,(p_v,v),k) -> w, with
    w's own k.
    - Degrees in R_i: f(i,.) has in-degree 1 (third rule) and out-degree
      >= 2 (first rule); g(i,.) has out-degree 1 (second rule) and
      in-degree >= 2 (first rule); any other vertex has 1 and 1.
    - Tags: so each vertex is outgoing for exactly one relation or
      converse, f(i,.) for R_i and g(i,.) for its converse.
    - Covered pairs: every R_i pair has an f(i,.) tail or a g(i,.) head.
    - Epimorphism: every pair maps onto (a,b), (b,c_b), (p_a,a), (v,c_v)
      or (p_v,v) of R_i; f(i,e,0) -> g(i,e,0) covers e, and every vertex
      of ``s`` is the tail of a pair.
    The 4·Σ|R_i| vertices are counted before anything is built; above
    ``size_cap`` (None for no cap) CapExhausted reports them as ``needed``.
    """
    if in_family(s, F):
        return s, identity_map(s)
    size = 4 * sum(len(rel) for rel in s.relations)
    if size_cap is not None and size > size_cap:
        raise CapExhausted(
            f"the F cover of a {len(s.vertices)}-vertex structure has "
            f"{size} vertices, above the size cap {size_cap}",
            budget=size_cap, stats={"needed": size})
    first = {(i, e): 4 * t for t, (i, e) in enumerate(
        (i, e) for i in range(s.m) for e in sorted(s.relations[i]))}

    def g_out(i: int, v: int, k: int) -> int:
        return first[i, (v, s.out_neighbors(i, v)[0])] + 2 * k + 1

    def f_in(i: int, v: int, k: int) -> int:
        return first[i, (s.in_neighbors(i, v)[0], v)] + 2 * k

    rels: list[set[tuple[int, int]]] = [set() for _ in range(s.m)]
    mapping = {}
    for (i, (a, b)), base in first.items():
        for k in (0, 1):
            f, g = base + 2 * k, base + 2 * k + 1
            mapping[f], mapping[g] = a, b
            rels[i].update(((f, base + 1), (f, base + 3),
                            (g, g_out(i, b, k)), (f_in(i, a, k), f)))
            for j in range(s.m):
                if j != i:
                    for w, v in ((f, a), (g, b)):
                        rels[j].update(((w, g_out(j, v, k)),
                                        (f_in(j, v, k), w)))
    cover = FinStructure(s.m, range(size), rels)
    return cover, StructMap(cover, s, mapping)


def pap_witness(phi1: StructMap, phi2: StructMap, family: str,
                size_cap: int | None = None, budget: int = DEFAULT_BUDGET):
    """Projective amalgamation witness (C, psi1, psi2) in the family.

    For the surjective families the core of the fibre product decides the
    question exactly: it is returned when its projections are epimorphisms
    and None is returned otherwise (no witness exists at all).  For F a
    core that misses the family is replaced by its F cover, a construction
    of 4·Σ|R_i| vertices; CapExhausted is raised only when that exceeds an
    explicit ``size_cap`` (None for no cap).  For Fn the constant fibres
    are stripped first and re-attached afterwards.  ``budget`` is unused.
    The inputs are checked once here and the witness once before return.
    """
    if phi1.codomain != phi2.codomain:
        raise ValueError("codomain mismatch")
    a1, a2, base = phi1.domain, phi2.domain, phi1.codomain
    for s, role in ((a1, "left domain"), (a2, "right domain"),
                    (base, "codomain")):
        _require_family(s, family, role)
    for phi, role in ((phi1, "left map"), (phi2, "right map")):
        if not check_epimorphism(phi):
            raise ValueError(f"{role} is not an epimorphism")
    out = _pap(phi1, phi2, family, size_cap)
    if out is not None:
        _verify_witness(family, *out, phi1, phi2)
    return out


def _pap(phi1: StructMap, phi2: StructMap, family: str,
         size_cap: int | None):
    """Unverified amalgamation candidate for epimorphisms between members
    of the family, or None when no witness exists."""
    if phi1 == phi2:
        a1 = phi1.domain
        return a1, identity_map(a1), identity_map(a1)
    if family == FN:
        phi1_rest, fix1 = _strip_fn(phi1)
        phi2_rest, fix2 = _strip_fn(phi2)
        inner = _pap(phi1_rest, phi2_rest, F, size_cap)
        if inner is None:
            return None
        return _reattach_fn(*inner, fix1, fix2, phi1.domain, phi2.domain)
    got = _core_candidate(phi1, phi2)
    if got is None or not (check_epimorphism(got[1])
                           and check_epimorphism(got[2])):
        return None
    core, psi1, psi2 = got
    if in_family(core, family):
        return got
    if family != F:
        return None
    cov, h = _f_cover(core, size_cap)
    return cov, compose(psi1, h), compose(psi2, h)


def jpp_witness(a1: FinStructure, a2: FinStructure, family: str,
                size_cap: int | None = None, budget: int = DEFAULT_BUDGET):
    """Joint projection witness (B, psi1, psi2): epimorphisms onto both.

    Surjective families take the full product (amalgamation over the
    one-point structure, which always works there).  For F the tactics
    are, in order: equal inputs, disjoint union glued by cross
    homomorphisms, the full product, and its F cover (a construction of
    4·Σ|R_i| vertices) when the product misses F.  CapExhausted comes only
    from an explicit ``size_cap`` (None for no cap) below that cover or
    from ``budget`` in the homomorphism searches.  For Fn the constant-free
    parts are joined in F and fresh constants re-attached.  The inputs
    are checked once here and the witness once before return.
    """
    _require_family(a1, family, "left structure")
    _require_family(a2, family, "right structure")
    if a1.m != a2.m or a1.n != a2.n:
        raise ValueError("arity mismatch")
    out = _jpp(a1, a2, family, size_cap, budget)
    _verify_witness(family, *out)
    return out


def _jpp(a1: FinStructure, a2: FinStructure, family: str,
         size_cap: int | None, budget: int):
    """Unverified joint projection candidate for members of the family.

    The non-constant part of an Fn member is in F.  Over the one-point
    structure the fibre product is the full product a1 x a2; for members
    of F0 (so of F) every relation is surjective and non-empty, so the
    product's relations are surjective and both projections are
    epimorphisms, and for F0n its constant points keep their loops.
    """
    if a1 == a2:
        return a1, identity_map(a1), identity_map(a1)

    if family == FN:
        n = a1.n
        s1 = induced(a1, a1.vertices - set(a1.constants),
                     keep_constants=False)
        s2 = induced(a2, a2.vertices - set(a2.constants),
                     keep_constants=False)
        core, psi1, psi2 = _jpp(s1, s2, F, size_cap, budget)
        full = expand_constants(core, n)
        map1 = dict(psi1.mapping)
        map2 = dict(psi2.mapping)
        for j in range(n):
            map1[full.constants[j]] = a1.constants[j]
            map2[full.constants[j]] = a2.constants[j]
        return full, StructMap(full, a1, map1), StructMap(full, a2, map2)

    if family == F:
        h21 = find_homomorphism(a2, a1, budget)
        h12 = find_homomorphism(a1, a2, budget)
        if h21 is not None and h12 is not None:
            union, (inj1, inj2) = disjoint_union([a1, a2])
            map1 = {inj1[v]: v for v in a1.vertices}
            map1.update({inj2[v]: h21.mapping[v] for v in a2.vertices})
            map2 = {inj2[v]: v for v in a2.vertices}
            map2.update({inj1[v]: h12.mapping[v] for v in a1.vertices})
            return (union, StructMap(union, a1, map1),
                    StructMap(union, a2, map2))

    point = FinStructure(a1.m, [0], [{(0, 0)}] * a1.m, constants=[0] * a1.n)
    prod = fibre_product(StructMap(a1, point, dict.fromkeys(a1.vertices, 0)),
                         StructMap(a2, point, dict.fromkeys(a2.vertices, 0)))
    if family != F or in_family(prod[0], F):
        return prod
    cov, h = _f_cover(prod[0], size_cap)
    return cov, compose(prod[1], h), compose(prod[2], h)


def coinitial_cover(s: FinStructure, target: str,
                    size_cap: int | None = None,
                    budget: int = DEFAULT_BUDGET):
    """Cover of a surjective structure by a member of the target family.

    Both targets are constructions: the constant-free reduct gets a cover
    and fresh constant points are re-attached over the old ones.  For F0n
    the reduct's cover is a disjoint spiral union; for Fn it is the F
    cover of 4·Σ|R_i| vertices (the reduct itself when it is in F), and
    CapExhausted is raised only when that exceeds an explicit ``size_cap``
    (None for no cap).  ``budget`` is unused.
    """
    from .groups import Labelling, preset_group
    from .spirals import surj_qp_cover

    if target not in (F0N, FN):
        raise ValueError("target must be F0n or Fn")
    _require_family(s, F0N, "structure")
    if target == FN and in_family(s, FN):
        return s, identity_map(s)

    reduct = induced(s, s.vertices, keep_constants=False)

    if target == F0N:
        triv = preset_group("Z1")
        lam = Labelling(reduct.vertices, triv, reduct.m,
                        {v: (0,) * reduct.m for v in reduct.vertices})
        wit = surj_qp_cover(reduct, lam, triv)
        cover, phi = wit.phi.domain, wit.phi
    else:
        cover, phi = _f_cover(reduct, size_cap)

    full = expand_constants(cover, s.n)
    mapping = dict(phi.mapping)
    for j in range(s.n):
        mapping[full.constants[j]] = s.constants[j]
    out_map = StructMap(full, s, mapping)
    rep = in_family(full, target)
    if not rep:
        raise VerificationError(f"cover not in {target}: {rep.reason}")
    if not check_epimorphism(out_map):
        raise VerificationError("cover map is not an epimorphism")
    return full, out_map
