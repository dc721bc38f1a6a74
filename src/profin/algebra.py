"""Finite algebras by operation tables: idempotents, Mal'cev term search,
congruences and simplicity, Boolean powers and filtered Boolean powers.

Operation tables are flattened row-major: the tuple index of f(a_1,..,a_k)
is ((a_1 * n + a_2) * n + ...) + a_k over universe size n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product as iproduct
from operator import add
from typing import Iterable, Sequence

from .errors import CapExhausted
from .groups import FinGroup, closed_perm_group, preset_group
from .structures import Partition


class FinAlgebra:
    """Finite algebra: universe {0..size-1} plus operation tables."""

    __slots__ = ("size", "ops", "name")

    def __init__(self, size: int,
                 ops: Sequence[tuple[int, Sequence[int]]],
                 name: str = ""):
        if size < 1:
            raise ValueError("universe must be nonempty")
        norm = []
        for j, (arity, table) in enumerate(ops):
            if arity < 0:
                raise ValueError(f"operation {j} has negative arity")
            tbl = tuple(map(int, table))
            if len(tbl) != size ** arity:
                raise ValueError(
                    f"operation {j}: table length {len(tbl)} is not "
                    f"{size}^{arity}")
            if min(tbl) < 0 or max(tbl) >= size:
                raise ValueError(f"operation {j}: value out of range")
            norm.append((arity, tbl))
        self.size = size
        self.ops = tuple(norm)
        self.name = name

    def apply(self, j: int, args: Sequence[int]) -> int:
        arity, table = self.ops[j]
        if len(args) != arity:
            raise ValueError(f"operation {j} expects {arity} arguments")
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return table[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinAlgebra):
            return NotImplemented
        return self.size == other.size and self.ops == other.ops

    def __repr__(self) -> str:
        sig = ",".join(str(a) for a, _ in self.ops)
        tag = f" {self.name}" if self.name else ""
        return f"FinAlgebra(size={self.size}, arities=[{sig}]{tag})"


@dataclass(frozen=True)
class BooleanPowerSpace:
    """Finite Stone space: atom count, marked points, pinned values."""

    points: int
    marked: tuple[int, ...] = ()
    pins: tuple[int, ...] = ()

    def __post_init__(self):
        if self.points < 1:
            raise ValueError("space must have at least one point")
        if len(self.marked) != len(self.pins):
            raise ValueError("marked points and pins must pair up")
        if len(set(self.marked)) != len(self.marked):
            raise ValueError("marked points must be distinct")
        for x in self.marked:
            if not 0 <= x < self.points:
                raise ValueError(f"marked point {x} out of range")

    def free_points(self) -> tuple[int, ...]:
        mk = set(self.marked)
        return tuple(x for x in range(self.points) if x not in mk)

    def validate_pins(self, a: FinAlgebra) -> None:
        for x, e in zip(self.marked, self.pins):
            if not 0 <= e < a.size:
                raise ValueError(f"pin {e} at point {x} is not an element")
            if not is_idempotent(a, e):
                raise ValueError(f"pin {e} at point {x} is not idempotent")


def is_idempotent(a: FinAlgebra, e: int) -> bool:
    """True iff {e} is a subalgebra: every operation fixes the diagonal."""
    if not 0 <= e < a.size:
        raise ValueError(f"element {e} out of range")
    return all(a.apply(j, (e,) * arity) == e
               for j, (arity, _) in enumerate(a.ops))


def pin_closure_violation(a: FinAlgebra, e: int):
    """Concrete closure failure of the e-pinned set, or None.

    Returns (operation index, argument tuple, result) where the arguments
    are the pinned values and the result escapes the pin.
    """
    for j, (arity, _) in enumerate(a.ops):
        got = a.apply(j, (e,) * arity)
        if got != e:
            return j, (e,) * arity, got
    return None


class BooleanPowerAlgebra(FinAlgebra):
    """Power algebra whose elements are functions from a finite point set."""

    __slots__ = ("functions", "space", "base")

    def __init__(self, base: FinAlgebra, space: BooleanPowerSpace,
                 functions: Sequence[tuple[int, ...]]):
        self.functions = tuple(functions)
        self.space = space
        self.base = base
        index = {f: i for i, f in enumerate(self.functions)}
        n, ops = base.size, []
        for arity, table in base.ops:
            # One row per argument prefix, in iproduct order: the mixed-radix
            # index into ``table`` of the prefix at each point.
            rows = [(0,) * space.points]
            for _ in range(arity):
                rows = [tuple(map(add, scaled, f))
                        for scaled in ([i * n for i in row] for row in rows)
                        for f in self.functions]
            ops.append((arity, [index[tuple(map(table.__getitem__, row))]
                                for row in rows]))
        super().__init__(len(self.functions), ops,
                         name=f"{base.name or 'A'}^{space.points}")

    def function_of(self, idx: int) -> tuple[int, ...]:
        return self.functions[idx]

    def index_of(self, func: Sequence[int]) -> int:
        return self.functions.index(tuple(func))


def boolean_power(a: FinAlgebra, points: int) -> BooleanPowerAlgebra:
    """All functions from a discrete point set into A, pointwise operations."""
    return filtered_boolean_power(a, BooleanPowerSpace(points))


def filtered_boolean_power(a: FinAlgebra,
                           space: BooleanPowerSpace) -> BooleanPowerAlgebra:
    """Subpower of functions pinned to idempotents at the marked points."""
    space.validate_pins(a)
    free = space.free_points()
    pin_at = dict(zip(space.marked, space.pins))
    funcs = []
    for combo in iproduct(range(a.size), repeat=len(free)):
        vals = [0] * space.points
        for x, v in zip(free, combo):
            vals[x] = v
        for x, e in pin_at.items():
            vals[x] = e
        funcs.append(tuple(vals))
    return BooleanPowerAlgebra(a, space, funcs)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _close(parent: list[int], translations, queue) -> tuple[int, ...]:
    """Least equivalence above parent holding the queued pairs and closed
    under the translations; labels are block minima, hence canonical."""
    while queue:
        x, y = queue.pop()
        rx, ry = _find(parent, x), _find(parent, y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
            queue.extend((t[x], t[y]) for t in translations)
    return tuple(_find(parent, x) for x in range(len(parent)))


def _translations(a: FinAlgebra) -> list[tuple[int, ...]]:
    """Distinct non-identity unary translations x -> f(c_1,..,x,..,c_k)."""
    n, found = a.size, set()
    for j, (arity, _) in enumerate(a.ops):
        for pos in range(arity):
            for ctx in iproduct(range(n), repeat=arity - 1):
                found.add(tuple(a.apply(j, ctx[:pos] + (x,) + ctx[pos:])
                                for x in range(n)))
    found.discard(tuple(range(n)))
    return list(found)


def _partition(labels: Sequence[int]) -> Partition:
    blocks: dict[int, set[int]] = {}
    for x, r in enumerate(labels):
        blocks.setdefault(r, set()).add(x)
    return Partition(blocks.values())


def congruence_closure(a: FinAlgebra,
                       pairs: Iterable[tuple[int, int]]) -> Partition:
    """Least congruence identifying the given pairs: by Mal'cev's lemma,
    the union-find closure of the pairs under the unary translations."""
    return _partition(_close(list(range(a.size)), _translations(a),
                             [(int(x), int(y)) for x, y in pairs]))


def congruence_lattice(a: FinAlgebra) -> tuple[Partition, ...]:
    """All congruences, ordered by block count and then by sorted blocks.

    Each principal congruence Cg(x, y) is closed once; since every
    congruence is a join of principal ones and the join in Con(A) is the
    partition join (Freese, Computing congruences efficiently, 2008), the
    rest come from joining found congruences with principal ones by
    union-find on their labels, applying no operation.
    """
    n, translations = a.size, _translations(a)
    principals: dict[tuple[int, ...], tuple[int, int]] = {}
    for x, y in combinations(range(n), 2):
        principals.setdefault(
            _close(list(range(n)), translations, [(x, y)]), (x, y))
    found = set(principals) | {tuple(range(n))}
    work = list(found)
    while work:
        theta = work.pop()
        for p, (x, y) in principals.items():
            if theta[x] != theta[y]:
                join = _close(list(theta), (), [(z, r) for z, r in
                                                enumerate(p) if z != r])
                if join not in found:
                    found.add(join)
                    work.append(join)
    return tuple(sorted(map(_partition, found),
                        key=lambda p: (len(p), sorted(map(sorted, p.blocks)))))


def is_simple(a: FinAlgebra) -> bool:
    """More than one element, and every Cg(x, y) with x != y is total;
    stops at the first that is not, without building the lattice."""
    if a.size < 2:
        raise ValueError("simplicity needs more than one element")
    n, translations = a.size, _translations(a)
    return all(_close(list(range(n)), translations, [(x, y)]) == (0,) * n
               for x, y in combinations(range(n), 2))


def malcev_term_exists(a: FinAlgebra,
                       cap: int = 20000) -> tuple[int, ...] | None:
    """Search the ternary term clone for a Mal'cev operation.

    The identities m(x, x, y) = y = m(y, x, x) read a ternary operation only
    on the 2n^2 triples (x, x, y) and (y, x, x) (Freese and Valeriote, On
    the complexity of some Maltsev conditions, 2009), so the breadth-first
    search generates the clone from the three projections restricted to
    those triples, reading the operation tables by index, and records each
    new restricted table's term as (operation, children).  The first
    restricted table that satisfies the identities has its term evaluated
    on the whole cube, and that flattened table is returned.  Restriction
    commutes with the operations, so the restricted clone is the image of
    the full one and None proves that no Mal'cev term exists.  Raises
    CapExhausted, with the count in ``stats["tables"]``, when a round
    starts with more than ``cap`` distinct restricted tables found.
    """
    n = a.size
    pairs = list(iproduct(range(n), repeat=2))
    coords = [(x, x, y) for x, y in pairs] + [(y, x, x) for x, y in pairs]
    target = tuple(y for _, y in pairs) * 2
    elems = [tuple(c[k] for c in coords) for k in range(3)]
    # Term of each restricted table past the projections: (op, children).
    terms: list[tuple[int, tuple[int, ...]]] = []
    cube = {k: tuple(t[k] for t in iproduct(range(n), repeat=3))
            for k in range(3)}

    def full(t: int) -> tuple[int, ...]:
        """The term of restricted table t evaluated on all n^3 triples."""
        if t not in cube:
            j, children = terms[t - 3]
            rows = [0] * n ** 3
            for c in map(full, children):
                rows = [i * n + v for i, v in zip(rows, c)]
            cube[t] = tuple(map(a.ops[j][1].__getitem__, rows))
        return cube[t]

    for k, t in enumerate(elems):
        if t == target:
            return full(k)
    seen = set(elems)
    start = 0
    while start < len(elems):
        if len(seen) > cap:
            raise CapExhausted(
                f"ternary clone exceeded {cap} elements", budget=cap,
                stats={"tables": len(seen)})
        end = len(elems)
        for j, (arity, table) in enumerate(a.ops):
            for combo in iproduct(range(end), repeat=arity):
                if arity and max(combo) < start:
                    continue
                rows = elems[combo[0]] if combo else (0,) * len(coords)
                for c in combo[1:]:
                    rows = [i * n + v for i, v in zip(rows, elems[c])]
                cand = tuple(map(table.__getitem__, rows))
                if cand not in seen:
                    seen.add(cand)
                    elems.append(cand)
                    terms.append((j, combo))
                    if cand == target:
                        return full(len(elems) - 1)
        start = end
    return None


def preserves_operations(a: FinAlgebra, perm: Sequence[int]) -> bool:
    """True iff the permutation commutes with every operation."""
    p = tuple(perm)
    for j, (arity, _) in enumerate(a.ops):
        for args in iproduct(range(a.size), repeat=arity):
            if p[a.apply(j, args)] != a.apply(j, tuple(p[x] for x in args)):
                return False
    return True


def _extend(n: int, ops, img: list[int], used: list[bool],
            elems: list[int], start: int) -> bool:
    """Extend the partial map ``img`` from ``elems`` to the subalgebra they
    generate, semi-naively: each round applies the operations only to
    argument tuples holding an element added in the previous round, the
    first round to those holding one of elems[start:].  Appends the new
    elements to ``elems``; False at the first clash, where an element
    would get two images or two elements one image."""
    while start < len(elems):
        end = len(elems)
        old, new, cur = elems[:start], elems[start:end], elems[:end]
        for arity, table in ops:
            for i in range(arity):
                pools = [old] * i + [new] + [cur] * (arity - i - 1)
                for args in iproduct(*pools):
                    x = y = 0
                    for u in args:
                        x, y = x * n + u, y * n + img[u]
                    r, s = table[x], table[y]
                    if img[r] < 0:
                        if used[s]:
                            return False
                        img[r], used[s] = s, True
                        elems.append(r)
                    elif img[r] != s:
                        return False
        start = end
    return True


def automorphisms(a: FinAlgebra, cap: int = 720) -> FinGroup:
    """Automorphism group, by extending generator images.

    A generating set is picked greedily, elements generating the largest
    subalgebras first.  An automorphism keeps the size of the subalgebra
    each element generates, so each generator is sent only to elements of
    its class, injectively; each such image tuple is extended by a
    semi-naive closure over the operation tables and dropped at the first
    clash, one generator at a time.  The automorphisms found are a closed
    set, so the Cayley table is built from them directly, in the order of
    ``perm_group_from_generators``.  ``cap`` bounds the number of candidate
    image tuples, and with it |Aut| and the |Aut|^2 table: CapExhausted,
    with the count in ``stats["candidates"]``, is raised before any search
    when there are more.
    """
    n = a.size
    ops = [(arity, table) for arity, table in a.ops if arity]
    consts = sorted({table[0] for arity, table in a.ops if not arity})

    def identity_on(xs: Sequence[int]) -> tuple[list[int], list[bool]]:
        img, used = [-1] * n, [False] * n
        for x in xs:
            img[x], used[x] = x, True
        return img, used

    def closure(xs: list[int]) -> list[int]:
        elems = list(xs)
        _extend(n, ops, *identity_on(xs), elems, 0)
        return elems

    base = closure(consts)
    inside = set(base)
    rest = [x for x in range(n) if x not in inside]
    spans = {x: len(closure(consts + [x])) for x in rest}
    gens: list[int] = []
    for x in sorted(rest, key=lambda x: (-spans[x], x)):
        if x not in inside:
            gens.append(x)
            inside.update(closure(base + gens))
    classes = [[y for y in rest if spans[y] == spans[g]] for g in gens]
    candidates = 1
    for i, g in enumerate(gens):
        candidates *= len(classes[i]) - sum(spans[h] == spans[g]
                                            for h in gens[:i])
    if candidates > cap:
        raise CapExhausted(
            f"{candidates} candidate generator images exceed cap {cap}",
            budget=cap, stats={"candidates": candidates})
    found = []

    def search(i: int, img: list[int], used: list[bool],
               elems: list[int]) -> None:
        if i == len(gens):
            found.append(tuple(img))
            return
        for y in classes[i]:
            if not used[y]:
                img2, used2, elems2 = img[:], used[:], elems + [gens[i]]
                img2[gens[i]], used2[y] = y, True
                if _extend(n, ops, img2, used2, elems2, len(elems)):
                    search(i + 1, img2, used2, elems2)

    search(0, *identity_on(base), base)
    return closed_perm_group(found, n)


def _group_algebra(g: FinGroup, name: str) -> FinAlgebra:
    n = g.order
    mul = [g.table[x][y] for x in range(n) for y in range(n)]
    inv = [g.inverse[x] for x in range(n)]
    return FinAlgebra(n, [(2, mul), (1, inv), (0, [0])], name=name)


def _gf4_mul(x: int, y: int) -> int:
    """GF(4) = F2[a]/(a^2 + a + 1), elements as bit vectors c0 + 2 c1."""
    r = (x if y & 1 else 0) ^ (x << 1 if y & 2 else 0)
    return r ^ 0b111 if r & 4 else r


def _rng_algebra(n: int, plus, times, name: str) -> FinAlgebra:
    """Ring without 1 in the signature (+, -, 0, *), so {0} is a pin."""
    sums = [plus(x, y) for x in range(n) for y in range(n)]
    neg = [sums[x * n:(x + 1) * n].index(0) for x in range(n)]
    products = [times(x, y) for x in range(n) for y in range(n)]
    return FinAlgebra(n, [(2, sums), (1, neg), (0, [0]), (2, products)],
                      name=name)


_PRESET_BUILDERS = {
    "F2": lambda: _rng_algebra(2, lambda x, y: (x + y) % 2,
                               lambda x, y: x * y % 2, "F2"),
    "F3": lambda: _rng_algebra(3, lambda x, y: (x + y) % 3,
                               lambda x, y: x * y % 3, "F3"),
    "F4": lambda: _rng_algebra(4, lambda x, y: x ^ y, _gf4_mul, "F4"),
    "Z2": lambda: _group_algebra(preset_group("Z2"), "Z2"),
    "Z3": lambda: _group_algebra(preset_group("Z3"), "Z3"),
    "Z4": lambda: _group_algebra(preset_group("Z4"), "Z4"),
    "S3-as-group": lambda: _group_algebra(preset_group("S3"), "S3-as-group"),
    "2elt-semilattice": lambda: FinAlgebra(
        2, [(2, [0, 0, 0, 1])], name="2elt-semilattice"),
}

ALGEBRA_PRESETS = tuple(sorted(_PRESET_BUILDERS))


def preset_algebra(name: str) -> FinAlgebra:
    try:
        return _PRESET_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown algebra preset {name!r}; "
                         f"known: {', '.join(ALGEBRA_PRESETS)}") from None
