from itertools import permutations, product as iproduct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import profin as pf
from profin import (BooleanPowerSpace, CapExhausted, FinAlgebra, Partition,
                    preset_algebra)
from profin.algebra import ALGEBRA_PRESETS


def z2_ring() -> FinAlgebra:
    """Two-element ring: addition, negation, zero, multiplication."""
    return FinAlgebra(2, [(2, [0, 1, 1, 0]), (1, [0, 1]), (0, [0]),
                          (2, [0, 0, 0, 1])], name="Z2-ring")


def all_partitions(n: int):
    """Every partition of range(n), by restricted growth strings."""
    def rec(i, blocks):
        if i == n:
            yield [set(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()
    yield from rec(0, [])


def is_congruence(a: FinAlgebra, blocks) -> bool:
    """Every operation maps blockwise-related argument tuples into one
    block (the related tuples are enumerated directly)."""
    index = {x: k for k, blk in enumerate(blocks) for x in blk}
    for j, (arity, _) in enumerate(a.ops):
        for args1 in iproduct(range(a.size), repeat=arity):
            want = index[a.apply(j, args1)]
            for args2 in iproduct(*(blocks[index[x]] for x in args1)):
                if index[a.apply(j, args2)] != want:
                    return False
    return True


def brute_congruences(a: FinAlgebra) -> set[Partition]:
    return {Partition(blocks) for blocks in all_partitions(a.size)
            if is_congruence(a, blocks)}


def z2_power_cosets(k: int) -> set[Partition]:
    """Coset partitions of all subgroups of Z2^k: the congruences of the
    Boolean power, found without any congruence closure."""
    p = pf.boolean_power(preset_algebra("Z2"), k)

    def add(x, y):
        return p.index_of([(u + v) % 2 for u, v in
                           zip(p.function_of(x), p.function_of(y))])
    zero = p.index_of([0] * k)
    subgroups, work = {frozenset([zero])}, [frozenset([zero])]
    while work:
        h = work.pop()
        for g in range(p.size):
            bigger = h | {add(g, x) for x in h}
            if bigger not in subgroups:
                subgroups.add(bigger)
                work.append(bigger)
    return {Partition({frozenset(add(x, y) for y in h)
                       for x in range(p.size)}) for h in subgroups}


def brute_automorphisms(a: FinAlgebra) -> pf.FinGroup:
    """Every permutation of the universe that preserves the operations,
    closed under composition."""
    return pf.perm_group_from_generators(
        [p for p in permutations(range(a.size))
         if pf.preserves_operations(a, p)], degree=a.size)


def brute_malcev(a: FinAlgebra):
    """Breadth-first search of the ternary clone on the whole n^3 cube:
    the first Mal'cev member in discovery order, or None."""
    n = a.size
    cube = list(iproduct(range(n), repeat=3))

    def is_malcev(t):
        return all(t[(x * n + x) * n + y] == y == t[(y * n + x) * n + x]
                   for x in range(n) for y in range(n))
    elems = [tuple(c[k] for c in cube) for k in range(3)]
    for t in elems:
        if is_malcev(t):
            return t
    seen, frontier = set(elems), set(elems)
    while frontier:
        new = []
        for j, (arity, _) in enumerate(a.ops):
            for combo in iproduct(elems, repeat=arity):
                if arity and not any(c in frontier for c in combo):
                    continue
                cand = tuple(a.apply(j, tuple(c[i] for c in combo))
                             for i in range(n ** 3))
                if cand not in seen:
                    seen.add(cand)
                    new.append(cand)
                    if is_malcev(cand):
                        return cand
        elems, frontier = elems + new, set(new)
    return None


def build(base: str, points: int | None) -> FinAlgebra:
    a = preset_algebra(base)
    return pf.boolean_power(a, points) if points else a


# Algebras on 2-4 elements with one binary and one unary operation.
small_algebras = st.integers(2, 4).flatmap(lambda n: st.builds(
    lambda binary, unary: FinAlgebra(n, [(2, binary), (1, unary)]),
    st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))

# The same with a constant, so that the constants may generate more.
pointed_algebras = st.integers(1, 4).flatmap(lambda n: st.builds(
    lambda c, binary, unary: FinAlgebra(n, [(0, [c]), (2, binary),
                                            (1, unary)]),
    st.integers(0, n - 1),
    st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n),
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))

# Two-element algebras with up to three operations of arity 0-2: the whole
# ternary clone has at most 2^8 members, so the full-cube oracle is quick.
two_element_algebras = st.lists(st.integers(0, 2).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(
        st.integers(0, 1), min_size=2 ** k, max_size=2 ** k))),
    max_size=3).map(lambda ops: FinAlgebra(2, ops))

# Every preset, then the Boolean powers the benchmark runs: (base, points).
ALGEBRAS = ([(name, None) for name in ALGEBRA_PRESETS]
            + [("Z2", 2), ("Z2", 3), ("Z3", 2), ("Z2", 4)])


class TestIdempotents:
    def test_group_identity(self):
        assert pf.is_idempotent(preset_algebra("Z3"), 0)

    def test_ring_zero(self):
        assert pf.is_idempotent(z2_ring(), 0)
        assert not pf.is_idempotent(z2_ring(), 1)

    def test_non_identity_group_element(self):
        assert not pf.is_idempotent(preset_algebra("Z3"), 1)

    def test_semilattice_all_idempotent(self):
        sl = preset_algebra("2elt-semilattice")
        assert pf.is_idempotent(sl, 0) and pf.is_idempotent(sl, 1)

    def test_range_error(self):
        with pytest.raises(ValueError):
            pf.is_idempotent(preset_algebra("Z2"), 5)


class TestMalcev:
    def test_z3_finds_x_minus_y_plus_z(self):
        a = preset_algebra("Z3")
        table = pf.malcev_term_exists(a)
        assert table is not None
        expected = tuple((x - y + z) % 3
                         for x in range(3) for y in range(3)
                         for z in range(3))
        assert table == expected

    def test_found_tables_satisfy_identities(self):
        for name in ("Z2", "Z4", "S3-as-group"):
            a = preset_algebra(name)
            table = pf.malcev_term_exists(a, cap=200000)
            assert table is not None
            n = a.size
            for x in range(n):
                for y in range(n):
                    assert table[(x * n + x) * n + y] == y
                    assert table[(y * n + x) * n + x] == y

    def test_semilattice_has_none(self):
        a = preset_algebra("2elt-semilattice")
        assert pf.malcev_term_exists(a) is None and brute_malcev(a) is None

    def test_quasigroup_order3(self):
        # subtraction quasigroup: x - y mod 3 (a Latin square)
        a = FinAlgebra(3, [(2, [(x - y) % 3 for x in range(3)
                                for y in range(3)])])
        table = pf.malcev_term_exists(a, cap=100000)
        assert table is not None and table == brute_malcev(a)

    @pytest.mark.parametrize("base,points", ALGEBRAS)
    def test_against_full_cube_oracle(self, base, points):
        a = build(base, points)
        assert pf.malcev_term_exists(a, cap=200000) == brute_malcev(a)

    @settings(max_examples=200, deadline=None)
    @given(two_element_algebras)
    # f(x, x, x) is negation, reached only from the first round's tuple
    # (x, x, x) of a single projection
    @example(FinAlgebra(2, [(3, [1, 0, 1, 1, 0, 1, 0, 0])]))
    def test_random_against_full_cube_oracle(self, a):
        assert pf.malcev_term_exists(a) == brute_malcev(a)

    def test_cap_exhaustion(self):
        with pytest.raises(CapExhausted):
            pf.malcev_term_exists(preset_algebra("S3-as-group"), cap=10)

    def test_cap_counts_restricted_tables(self):
        with pytest.raises(CapExhausted) as exc:
            pf.malcev_term_exists(preset_algebra("S3-as-group"), cap=10)
        assert exc.value.stats["tables"] > 10


class TestCongruences:
    def test_z4_lattice(self):
        a = preset_algebra("Z4")
        lattice = pf.congruence_lattice(a)
        assert len(lattice) == 3
        assert Partition([{0, 2}, {1, 3}]) in lattice
        assert not pf.is_simple(a)

    def test_z3_simple(self):
        assert pf.is_simple(preset_algebra("Z3"))

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            pf.is_simple(FinAlgebra(1, [(2, [0])]))

    @pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3-as-group",
                                      "2elt-semilattice"])
    def test_against_brute_force_oracle(self, name):
        a = preset_algebra(name)
        assert set(pf.congruence_lattice(a)) == brute_congruences(a)

    def test_congruence_closure_of_pair(self):
        a = preset_algebra("Z4")
        theta = pf.congruence_closure(a, [(0, 2)])
        assert theta == Partition([{0, 2}, {1, 3}])

    @pytest.mark.parametrize("base,points", [("Z2", 3), ("Z3", 2)])
    def test_boolean_powers_against_brute_force_oracle(self, base, points):
        a = pf.boolean_power(preset_algebra(base), points)
        assert set(pf.congruence_lattice(a)) == brute_congruences(a)

    @pytest.mark.parametrize("k,count", [(4, 67), (5, 374)])
    def test_z2_powers_match_subgroup_cosets(self, k, count):
        lattice = pf.congruence_lattice(
            pf.boolean_power(preset_algebra("Z2"), k))
        assert len(lattice) == count
        assert set(lattice) == z2_power_cosets(k)
        assert list(lattice) == sorted(lattice, key=lambda p: (
            len(p), sorted(map(sorted, p.blocks))))

    @pytest.mark.parametrize("base,points", ALGEBRAS)
    def test_is_simple_agrees_with_lattice(self, base, points):
        a = build(base, points)
        assert pf.is_simple(a) == (len(pf.congruence_lattice(a)) == 2)

    @settings(max_examples=150, deadline=None)
    @given(small_algebras, st.data())
    def test_closure_is_least_congruence_containing_pair(self, a, data):
        x, y = (data.draw(st.integers(0, a.size - 1)) for _ in range(2))
        above = [Partition(blocks) for blocks in all_partitions(a.size)
                 if is_congruence(a, blocks)
                 and any(x in b and y in b for b in blocks)]
        least = Partition({frozenset(z for z in range(a.size)
                                     if all(p.block_of(z) == p.block_of(w)
                                            for p in above))
                           for w in range(a.size)})
        assert pf.congruence_closure(a, [(x, y)]) == least

    @settings(max_examples=150, deadline=None)
    @given(small_algebras)
    # {0}{1,2} is its only proper nontrivial congruence, while Cg(0, 1) and
    # Cg(0, 2) are total: every pair must be tried, not just those with 0
    @example(FinAlgebra(3, [(2, [0] * 9), (1, [1, 2, 2])]))
    def test_is_simple_against_brute_force_oracle(self, a):
        assert pf.is_simple(a) == (len(brute_congruences(a)) == 2)


class TestBooleanPower:
    def test_single_point_is_isomorphic(self):
        a = preset_algebra("Z3")
        p = pf.boolean_power(a, 1)
        assert p.size == 3
        for j, (arity, _) in enumerate(a.ops):
            for args in iproduct(range(3), repeat=arity):
                direct = a.apply(j, args)
                lifted = p.apply(j, tuple(p.index_of((x,)) for x in args))
                assert p.function_of(lifted) == (direct,)

    def test_sizes(self):
        assert pf.boolean_power(preset_algebra("Z2"), 3).size == 8

    def test_pointwise_exhaustive(self):
        a = preset_algebra("Z2")
        p = pf.boolean_power(a, 2)
        for i in range(p.size):
            for j in range(p.size):
                f, g = p.function_of(i), p.function_of(j)
                expect = tuple(a.apply(0, (f[x], g[x])) for x in range(2))
                assert p.function_of(p.apply(0, (i, j))) == expect

    def test_power_congruences_match_direct_product(self):
        a = preset_algebra("Z2")
        power = pf.boolean_power(a, 2)
        prod_ops = []
        for j, (arity, _) in enumerate(a.ops):
            table = []
            for args in iproduct(range(a.size ** 2), repeat=arity):
                pairs = [divmod(x, a.size) for x in args]
                left = a.apply(j, tuple(p[0] for p in pairs))
                right = a.apply(j, tuple(p[1] for p in pairs))
                table.append(left * a.size + right)
            prod_ops.append((arity, table))
        direct = FinAlgebra(a.size ** 2, prod_ops)
        assert len(pf.congruence_lattice(power)) == len(
            pf.congruence_lattice(direct))


class TestFilteredPower:
    def test_no_pins_equals_full_power(self):
        a = preset_algebra("Z2")
        full = pf.boolean_power(a, 2)
        filt = pf.filtered_boolean_power(a, BooleanPowerSpace(2))
        assert filt.size == full.size
        assert filt.ops == full.ops

    def test_pinned_size(self):
        a = preset_algebra("Z2")
        space = BooleanPowerSpace(3, marked=(0,), pins=(0,))
        assert pf.filtered_boolean_power(a, space).size == 4

    def test_pinned_functions_stay_pinned(self):
        a = preset_algebra("Z3")
        space = BooleanPowerSpace(2, marked=(1,), pins=(0,))
        filt = pf.filtered_boolean_power(a, space)
        for j, (arity, _) in enumerate(filt.ops):
            for args in iproduct(range(filt.size), repeat=arity):
                assert filt.function_of(filt.apply(j, args))[1] == 0

    def test_non_idempotent_pin_rejected_with_witness(self):
        a = preset_algebra("Z3")
        space = BooleanPowerSpace(2, marked=(0,), pins=(1,))
        with pytest.raises(ValueError):
            pf.filtered_boolean_power(a, space)
        viol = pf.pin_closure_violation(a, 1)
        assert viol is not None
        op, args, got = viol
        assert a.apply(op, args) == got and got != 1
        # the pinned set really escapes under that operation
        pinned = [f for f in iproduct(range(3), repeat=2) if f[0] == 1]
        arity = a.ops[op][0]
        escape = tuple(a.apply(op, tuple(f[x] for f in [pinned[0]] * arity))
                       for x in range(2))
        assert escape[0] != 1

    def test_closed_iff_idempotent(self):
        for name in ("Z3", "Z4", "2elt-semilattice"):
            a = preset_algebra(name)
            for e in range(a.size):
                viol = pf.pin_closure_violation(a, e)
                assert (viol is None) == pf.is_idempotent(a, e)


class TestAutomorphisms:
    def test_z3(self):
        assert pf.automorphisms(preset_algebra("Z3")).order == 2

    def test_no_structure_gives_symmetric_group(self):
        assert pf.automorphisms(FinAlgebra(3, [])).order == 6

    def test_z4(self):
        assert pf.automorphisms(preset_algebra("Z4")).order == 2

    def test_members_preserve_operations(self):
        a = preset_algebra("S3-as-group")
        aut = pf.automorphisms(a)
        assert aut.perms is not None
        for perm in aut.perms:
            assert pf.preserves_operations(a, perm)

    def test_cap(self):
        with pytest.raises(CapExhausted):
            pf.automorphisms(FinAlgebra(9, []), cap=8)

    def test_cap_counts_candidate_images(self):
        # 15 * 14 * 13 * 12 images of a 4-element basis of Z2^4
        with pytest.raises(CapExhausted) as exc:
            pf.automorphisms(pf.boolean_power(preset_algebra("Z2"), 4))
        assert exc.value.stats == {"candidates": 32760}

    @pytest.mark.parametrize("base,points", [
        (b, k) for b, k in ALGEBRAS if build(b, k).size <= 8])
    def test_against_all_permutations_oracle(self, base, points):
        a = build(base, points)
        got, want = pf.automorphisms(a), brute_automorphisms(a)
        assert (got.perms, got.table, got.names) == \
            (want.perms, want.table, want.names)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(small_algebras, pointed_algebras))
    def test_random_against_all_permutations_oracle(self, a):
        got, want = pf.automorphisms(a), brute_automorphisms(a)
        assert (got.perms, got.table, got.names) == \
            (want.perms, want.table, want.names)


class TestRingPresets:
    """Finite fields as rings without 1, so {0} is a pin: simple Mal'cev
    algebras with automorphisms, the hypothesis of the paper."""

    @pytest.mark.parametrize("name", ["F2", "F3", "F4"])
    def test_simple_with_malcev_term(self, name):
        a = preset_algebra(name)
        assert pf.is_simple(a)
        assert pf.malcev_term_exists(a) is not None
        assert pf.is_idempotent(a, 0)

    @pytest.mark.parametrize("k,order", [(1, 1), (2, 2), (3, 6)])
    def test_f2_power_permutes_coordinates(self, k, order):
        power = pf.boolean_power(preset_algebra("F2"), k)
        assert pf.automorphisms(power).order == order

    def test_f3_square(self):
        power = pf.boolean_power(preset_algebra("F3"), 2)
        assert pf.automorphisms(power).order == 2

    def test_f4_square_beyond_permutation_search(self):
        # Frobenius on each coordinate and the swap, on 16 elements
        power = pf.boolean_power(preset_algebra("F4"), 2)
        assert power.size == 16
        assert pf.automorphisms(power).order == 8

    def test_abelian_group_control(self):
        # without multiplication Z2^3 has all of GL(3, 2)
        power = pf.boolean_power(preset_algebra("Z2"), 3)
        assert pf.automorphisms(power).order == 168


class TestSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            BooleanPowerSpace(2, marked=(0, 0), pins=(0, 0))
        with pytest.raises(ValueError):
            BooleanPowerSpace(2, marked=(5,), pins=(0,))
        with pytest.raises(ValueError):
            BooleanPowerSpace(2, marked=(0,), pins=())

    def test_free_points(self):
        space = BooleanPowerSpace(4, marked=(1,), pins=(0,))
        assert space.free_points() == (0, 2, 3)
