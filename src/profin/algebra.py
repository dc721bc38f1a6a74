"""Finite algebras by operation tables: idempotents, Mal'cev term search,
congruences and simplicity, Boolean powers and filtered Boolean powers.

Operation tables are flattened row-major: the tuple index of f(a_1,..,a_k)
is ((a_1 * n + a_2) * n + ...) + a_k over universe size n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product as iproduct
from typing import Iterable, Sequence

from .errors import CapExhausted
from .groups import FinGroup, perm_group_from_generators, preset_group
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
            tbl = tuple(int(x) for x in table)
            if len(tbl) != size ** arity:
                raise ValueError(
                    f"operation {j}: table length {len(tbl)} is not "
                    f"{size}^{arity}")
            if any(not 0 <= x < size for x in tbl):
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
        ops = []
        for j, (arity, _) in enumerate(base.ops):
            table = []
            for args in iproduct(range(len(self.functions)), repeat=arity):
                val = tuple(
                    base.apply(j, tuple(self.functions[a][x] for a in args))
                    for x in range(space.points))
                table.append(index[val])
            ops.append((arity, table))
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


def _projection_tables(n: int) -> list[tuple[int, ...]]:
    cube = list(iproduct(range(n), repeat=3))
    return [tuple(t[k] for t in cube) for k in range(3)]


def _is_malcev_table(n: int, table: tuple[int, ...]) -> bool:
    for x in range(n):
        for y in range(n):
            if table[(x * n + x) * n + y] != y:
                return False
            if table[(y * n + x) * n + x] != y:
                return False
    return True


def malcev_term_exists(a: FinAlgebra,
                       cap: int = 20000) -> tuple[int, ...] | None:
    """Search the ternary term clone for a Mal'cev operation.

    The clone is generated from the three projections by pointwise
    application of the operations.  Returns a flattened ternary table, or
    None when the completed clone has no Mal'cev member; raises
    CapExhausted when the clone exceeds the cap before completion.
    """
    n = a.size
    elems = _projection_tables(n)
    seen = set(elems)
    for t in elems:
        if _is_malcev_table(n, t):
            return t
    frontier = set(elems)
    while frontier:
        if len(seen) > cap:
            raise CapExhausted(
                f"ternary clone exceeded {cap} elements", budget=cap)
        new: list[tuple[int, ...]] = []
        for j, (arity, _) in enumerate(a.ops):
            if arity == 0:
                cand = (a.apply(j, ()),) * (n ** 3)
                if cand not in seen:
                    seen.add(cand)
                    new.append(cand)
                    if _is_malcev_table(n, cand):
                        return cand
                continue
            pools = [elems] * arity
            for combo in iproduct(*pools):
                if not any(c in frontier for c in combo):
                    continue
                cand = tuple(a.apply(j, tuple(c[idx] for c in combo))
                             for idx in range(n ** 3))
                if cand not in seen:
                    seen.add(cand)
                    new.append(cand)
                    if _is_malcev_table(n, cand):
                        return cand
        elems = elems + new
        frontier = set(new)
    return None


def preserves_operations(a: FinAlgebra, perm: Sequence[int]) -> bool:
    """True iff the permutation commutes with every operation."""
    p = tuple(perm)
    for j, (arity, _) in enumerate(a.ops):
        for args in iproduct(range(a.size), repeat=arity):
            if p[a.apply(j, args)] != a.apply(j, tuple(p[x] for x in args)):
                return False
    return True


def automorphisms(a: FinAlgebra, cap: int = 8) -> FinGroup:
    """Automorphism group by brute force over universe permutations."""
    if a.size > cap:
        raise CapExhausted(
            f"universe size {a.size} exceeds brute-force cap {cap}",
            budget=cap)
    perms = [p for p in permutations(range(a.size))
             if preserves_operations(a, p)]
    return perm_group_from_generators(perms, degree=a.size)


def _group_algebra(g: FinGroup, name: str) -> FinAlgebra:
    n = g.order
    mul = [g.table[x][y] for x in range(n) for y in range(n)]
    inv = [g.inverse[x] for x in range(n)]
    return FinAlgebra(n, [(2, mul), (1, inv), (0, [0])], name=name)


_PRESET_BUILDERS = {
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
