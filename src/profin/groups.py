"""Finite groups as Cayley tables, and group-valued labellings.

Element 0 is always the identity.  Permutation-backed groups remember the
concrete permutations so automorphism computations can act with them.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Mapping, Sequence


class FinGroup:
    """Finite group given by a full multiplication table."""

    __slots__ = ("order", "table", "inverse", "names", "perms")

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        names: Sequence[str] | None = None,
        perms: Sequence[Sequence[int]] | None = None,
        validate: bool = True,
    ):
        n = len(table)
        if n == 0:
            raise ValueError("group must be nonempty")
        tbl = tuple(tuple(map(int, row)) for row in table)
        for row in tbl:
            if len(row) != n or min(row) < 0 or max(row) >= n:
                raise ValueError("malformed Cayley table")
        if validate:
            for x in range(n):
                if tbl[0][x] != x or tbl[x][0] != x:
                    raise ValueError("element 0 is not an identity")
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if tbl[tbl[a][b]][c] != tbl[a][tbl[b][c]]:
                            raise ValueError(
                                f"associativity fails at ({a},{b},{c})")
        inv = [-1] * n
        for a, row in enumerate(tbl):
            b = -1
            try:
                while inv[a] < 0:
                    b = row.index(0, b + 1)
                    if tbl[b][a] == 0:
                        inv[a] = b
            except ValueError:
                raise ValueError(f"element {a} has no inverse") from None
        self.order = n
        self.table = tbl
        self.inverse = tuple(inv)
        self.names = tuple(names) if names else tuple(str(i) for i in range(n))
        self.perms = (tuple(tuple(p) for p in perms) if perms is not None
                      else None)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def element_order(self, a: int) -> int:
        x, k = a, 1
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinGroup):
            return NotImplemented
        return self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"FinGroup(order={self.order})"


def exponent(t: FinGroup) -> int:
    """Least t >= 1 with g^t = 1 for all g (lcm of element orders)."""
    return lcm(*(t.element_order(a) for a in t.elements()))


def compose_perms(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Composition p after q: (p∘q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def invert_perm(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def perm_group_from_generators(gens: Iterable[Sequence[int]],
                               degree: int | None = None) -> FinGroup:
    """Closure of permutations under composition, as a Cayley table.

    Elements are ordered identity first, then lexicographically, so the
    result is deterministic.  The concrete permutations are kept in
    ``perms``.
    """
    gen_list = [tuple(int(x) for x in g) for g in gens]
    if degree is None:
        if not gen_list:
            raise ValueError("need a degree when there are no generators")
        degree = len(gen_list[0])
    ident = tuple(range(degree))
    for g in gen_list:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"{g} is not a permutation of {degree} points")
    closure = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gen_list:
                q = compose_perms(g, p)
                if q not in closure:
                    closure.add(q)
                    nxt.append(q)
        frontier = nxt
    return closed_perm_group(closure, degree)


def closed_perm_group(perms: Iterable[Sequence[int]],
                      degree: int) -> FinGroup:
    """Cayley table of a set of permutations already closed under
    composition (it is not checked), ordered identity first, then
    lexicographically, with the permutations kept in ``perms``."""
    ident = tuple(range(degree))
    elems = [ident] + sorted({tuple(p) for p in perms} - {ident})
    index = {p: i for i, p in enumerate(elems)}
    # Elements not yet reached become generators; each gets its right
    # multiplication as an index map, and every element is reached as
    # b = c o g, so row a of the table follows from a o b = (a o c) o g
    # with one lookup per entry instead of one composition.
    right: list[list[int]] = []
    steps: list[tuple[int, int, int]] = []
    seen = [True] + [False] * (len(elems) - 1)
    reached = [0]
    for e, g in enumerate(elems):
        if seen[e]:
            continue
        right.append([index[tuple(map(p.__getitem__, g))] for p in elems])
        work = [(c, len(right) - 1) for c in reached]
        while work:
            c, k = work.pop()
            b = right[k][c]
            if not seen[b]:
                seen[b] = True
                reached.append(b)
                steps.append((b, c, k))
                work.extend((b, j) for j in range(len(right)))
    table = []
    for a in range(len(elems)):
        row = [a] * len(elems)
        for b, c, k in steps:
            row[b] = right[k][row[c]]
        table.append(row)
    names = ["".join(map(str, p)) for p in elems]
    return FinGroup(table, names=names, perms=elems, validate=False)


def subgroup_closure(t: FinGroup, elems: Iterable[int]) -> frozenset[int]:
    """Subgroup generated by the given elements (indices)."""
    closure = {0} | set(elems)
    frontier = list(closure)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(closure):
                for c in (t.table[a][b], t.table[b][a], t.inverse[a]):
                    if c not in closure:
                        closure.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(closure)


def cyclic_group(k: int) -> FinGroup:
    if k < 1:
        raise ValueError("order must be >= 1")
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    return FinGroup(table, names=[str(i) for i in range(k)], validate=False)


_PRESET_BUILDERS = {
    "Z1": lambda: cyclic_group(1),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z4": lambda: cyclic_group(4),
    "S3": lambda: perm_group_from_generators([(1, 0, 2), (1, 2, 0)]),
    "A4": lambda: perm_group_from_generators([(1, 0, 3, 2), (1, 2, 0, 3)]),
}

GROUP_PRESETS = tuple(sorted(_PRESET_BUILDERS))


def preset_group(name: str) -> FinGroup:
    try:
        return _PRESET_BUILDERS[name]()
    except KeyError:
        raise ValueError(f"unknown group preset {name!r}; "
                         f"known: {', '.join(GROUP_PRESETS)}") from None


class Labelling:
    """Total map from a vertex carrier into T^width (width 1 or m)."""

    __slots__ = ("carrier", "group", "width", "values")

    def __init__(
        self,
        carrier: Iterable[int],
        group: FinGroup,
        width: int,
        values: Mapping[int, int | Sequence[int]],
    ):
        if width < 1:
            raise ValueError("width must be >= 1")
        car = frozenset(carrier)
        vals: dict[int, tuple[int, ...]] = {}
        for v in car:
            if v not in values:
                raise ValueError(f"labelling misses vertex {v}")
            raw = values[v]
            tup = (int(raw),) if isinstance(raw, int) else tuple(
                int(x) for x in raw)
            if len(tup) != width:
                raise ValueError(
                    f"value for vertex {v} has width {len(tup)}, "
                    f"expected {width}")
            for g in tup:
                if not 0 <= g < group.order:
                    raise ValueError(f"label {g} outside the group")
            vals[v] = tup
        self.carrier = car
        self.group = group
        self.width = width
        self.values = vals

    def value(self, v: int) -> tuple[int, ...]:
        return self.values[v]

    def component(self, v: int, i: int) -> int:
        return self.values[v][i]

    def shifted(self, g: int) -> "Labelling":
        """Left-multiply every value by g (width-1 labellings only)."""
        if self.width != 1:
            raise ValueError("shifted is defined for width-1 labellings")
        op = self.group.table
        return Labelling(self.carrier, self.group, 1,
                         {v: (op[g][val[0]],) for v, val in
                          self.values.items()})
