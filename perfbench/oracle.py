"""Independent output checks, written without calling profin.

Structures are handled in a plain form: ``(vertices, relations,
constants)`` with a set of integer vertices, one set of pairs per relation,
and a list of constants; two structures are equal when their plain forms
are.  Each check returns ``None`` when the output is right and a one-line
reason otherwise.
"""

from __future__ import annotations

from itertools import product


def plain(d):
    """Plain form of a structure in the profin JSON layout.

    Vertices become their positions in the vertex list, which is how profin
    numbers them on parse; names only label positions.
    """
    pos = positions(d)
    return (set(range(len(pos))),
            [{(pos[a], pos[b]) for a, b in rel} for rel in d["relations"]],
            [pos[c] for c in d.get("constants", [])])


def positions(d) -> dict:
    return {name: i for i, name in enumerate(d["vertices"])}


def map_of(cert) -> dict:
    """A map certificate as positions of its domain and codomain."""
    dom, cod = positions(cert["domain"]), positions(cert["codomain"])
    return {dom[a]: cod[b] for a, b in cert["map"]}


def plain_obj(s):
    """Plain form of a profin structure object, read from its attributes."""
    return set(s.vertices), [set(r) for r in s.relations], list(s.constants)


def epi_problem(dom, cod, mapping) -> str | None:
    """Vertex-surjective homomorphism with exact relation images."""
    verts, rels, consts = dom
    cverts, crels, cconsts = cod
    if len(rels) != len(crels) or len(consts) != len(cconsts):
        return "arity mismatch"
    if set(mapping) != verts:
        return "map is not total on the domain"
    if not set(mapping.values()) <= cverts:
        return "map leaves the codomain"
    if set(mapping.values()) != cverts:
        return "map is not surjective on vertices"
    for i, rel in enumerate(rels):
        image = {(mapping[a], mapping[b]) for a, b in rel}
        if image != crels[i]:
            return f"relation {i} image is not exact"
    for c, cc in zip(consts, cconsts):
        if mapping[c] != cc:
            return "constant not preserved"
    return None


def _degrees_ok(verts, rel) -> bool:
    outs = {a for a, _ in rel}
    ins = {b for _, b in rel}
    return verts <= outs and verts <= ins


def _outgoing_tags(verts, rels):
    tags = {v: set() for v in verts}
    for i, rel in enumerate(rels):
        indeg = {v: 0 for v in verts}
        outdeg = {v: 0 for v in verts}
        for a, b in rel:
            outdeg[a] += 1
            indeg[b] += 1
        for v in verts:
            if indeg[v] == 1 and outdeg[v] >= 2:
                tags[v].add((i, "fwd"))
            if outdeg[v] == 1 and indeg[v] >= 2:
                tags[v].add((i, "inv"))
    return tags


def family_problem(s, family: str) -> str | None:
    """Membership in F0, F, F0n or Fn, from the definitions."""
    verts, rels, consts = s
    if not verts:
        return "empty structure"
    if family in ("F0", "F") and consts:
        return f"{family} has no constants"
    if family == "F0n":
        if any(not _degrees_ok(verts, rel) for rel in rels):
            return "a relation is not surjective"
        if any((c, c) not in rel for c in consts for rel in rels):
            return "a constant lacks a loop"
        return None
    if family == "Fn":
        cset = set(consts)
        if len(cset) != len(consts):
            return "constants are not distinct"
        for rel in rels:
            for a, b in rel:
                if (a in cset or b in cset) and a != b:
                    return "a constant is not a singleton component"
            if any((c, c) not in rel for c in consts):
                return "a constant lacks a loop"
        rest = verts - cset
        verts = rest
        rels = [{(a, b) for a, b in rel if a in rest} for rel in rels]
        if not verts:
            return "no non-constant part"
    if any(not _degrees_ok(verts, rel) for rel in rels):
        return "a relation is not surjective"
    if family in ("F", "Fn"):
        tags = _outgoing_tags(verts, rels)
        if any(len(t) != 1 for t in tags.values()):
            return "a vertex is not outgoing for exactly one relation"
        for i, rel in enumerate(rels):
            for a, b in rel:
                if (i, "fwd") not in tags[a] and (i, "inv") not in tags[b]:
                    return "an edge lacks an outgoing end"
    return None


def has_epimorphism(dom, cod) -> bool:
    """Brute force over every vertex map."""
    dverts = sorted(dom[0])
    cverts = sorted(cod[0])
    for images in product(cverts, repeat=len(dverts)):
        if len(set(images)) != len(cverts):
            continue
        if epi_problem(dom, cod, dict(zip(dverts, images))) is None:
            return True
    return False


def compose(outer: dict, inner: dict) -> dict:
    return {v: outer[w] for v, w in inner.items()}


def group_problem(table, order: int) -> str | None:
    """A valid group table of the given order with identity 0."""
    n = len(table)
    if n != order or any(len(row) != n for row in table):
        return "group table has the wrong order"
    elems = range(n)
    if any(table[0][x] != x or table[x][0] != x for x in elems):
        return "element 0 is not the identity"
    for x in elems:
        if sorted(table[x]) != list(elems):
            return "group table is not a Latin square"
    for x, y, z in product(elems, repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return "group table is not associative"
    return None


def qp_cover_problem(cert, spec, order: int) -> str | None:
    """A QP cover certificate answers the request in ``spec``."""
    phi = cert["phi"]
    dom, cod = plain(phi["domain"]), plain(phi["codomain"])
    if cod != plain(spec["structure"]):
        return "certificate codomain differs from the input"
    table = cert["lam"]["group"]["table"]
    problem = group_problem(table, order)
    if problem:
        return problem
    lam = {v: tuple(val) for v, val in cert["lam"]["values"]}
    want = positions(spec["structure"])
    if lam != {want[name]: tuple(val)
               for name, val in spec["labels"].items()}:
        return "certificate labelling differs from the input"
    mu = {v: val[0] for v, val in cert["mu"]["values"]}
    if set(mu) != dom[0]:
        return "mu does not label the cover"
    mapping = map_of(phi)
    problem = epi_problem(dom, cod, mapping) or family_problem(dom, "F0")
    if problem:
        return problem
    inverse = [row.index(0) for row in table]
    for i, rel in enumerate(dom[1]):
        for x, y in rel:
            if table[inverse[mu[x]]][mu[y]] != lam[mapping[y]][i]:
                return f"quotient property fails on relation {i}"
    # The certificate does not say which relation's part a cover vertex
    # came from, so only richness summed over the parts is checked here.
    if len({(mapping[v], mu[v]) for v in dom[0]}) != len(cod[0]) * order:
        return "label richness fails"
    return None


def witness_problem(cert, family: str, left, right, left_map=None,
                    right_map=None) -> str | None:
    """An amalgamation or joint-projection witness certificate."""
    wit = cert["witness"]
    c = plain(wit["structure"])
    psi1, psi2 = wit["psi1"], wit["psi2"]
    for psi, target in ((psi1, left), (psi2, right)):
        if plain(psi["domain"]) != c:
            return "witness map does not start at the witness structure"
        if plain(psi["codomain"]) != target:
            return "witness map does not end at its input"
        problem = epi_problem(c, target, map_of(psi))
        if problem:
            return problem
    problem = family_problem(c, family)
    if problem:
        return problem
    if left_map is not None and right_map is not None:
        if compose(left_map, map_of(psi1)) != compose(right_map,
                                                      map_of(psi2)):
            return "amalgamation square does not commute"
    return None


def subspace_count(p: int, k: int) -> int:
    """Subgroups of Z_p^k: the sum of the Gaussian binomials [k, d]_p."""
    total = 0
    for d in range(k + 1):
        num = den = 1
        for i in range(d):
            num *= p ** (k - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def congruence_problem(size: int, ops, partitions) -> str | None:
    """Every partition is distinct and compatible with every operation."""
    seen = set()
    for blocks in partitions:
        block_of = {}
        for b, blk in enumerate(blocks):
            for x in blk:
                block_of[x] = b
        if sorted(block_of) != list(range(size)):
            return "a congruence is not a partition of the universe"
        key = frozenset(frozenset(blk) for blk in blocks)
        if key in seen:
            return "a congruence is listed twice"
        seen.add(key)
        for arity, table in ops:
            for args in product(range(size), repeat=arity):
                for pos in range(arity):
                    for y in range(size):
                        if block_of[y] != block_of[args[pos]]:
                            continue
                        other = args[:pos] + (y,) + args[pos + 1:]
                        if block_of[_apply(size, table, args)] != \
                                block_of[_apply(size, table, other)]:
                            return "a partition is not a congruence"
    return None


def _apply(size: int, table, args) -> int:
    idx = 0
    for x in args:
        idx = idx * size + x
    return table[idx]


def malcev_problem(size: int, table) -> str | None:
    """m(x, x, y) = y = m(y, x, x) on the flattened ternary table."""
    for x in range(size):
        for y in range(size):
            if table[(x * size + x) * size + y] != y \
                    or table[(y * size + x) * size + x] != y:
                return "table is not a Mal'cev operation"
    return None
