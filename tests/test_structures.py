import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import profin as pf
from profin import F, F0, F0N, FN, FinStructure, Partition

from conftest import (loop_structure, random_f0, random_partition,
                      two_cycle, xy_member)


class TestFinStructure:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FinStructure(1, [0], [{(0, 1)}])
        with pytest.raises(ValueError):
            FinStructure(1, [0], [{(0, 0)}], constants=[5])
        with pytest.raises(ValueError):
            FinStructure(0, [0], [])
        with pytest.raises(ValueError):
            FinStructure(2, [0], [{(0, 0)}])

    def test_equality_ignores_labels(self):
        a = FinStructure(1, [0, 1], [{(0, 1)}], labels={0: "u"})
        b = FinStructure(1, [0, 1], [{(0, 1)}])
        assert a == b


class TestConnectedComponents:
    def test_edgeless_two_singletons(self):
        s = FinStructure(1, [0, 1], [set()])
        assert pf.connected_components(s).blocks == (
            frozenset({0}), frozenset({1}))

    def test_constant_block_is_singleton(self, rng):
        for _ in range(10):
            s = pf.expand_constants(random_f0(rng), 1)
            p = pf.connected_components(s)
            assert p.blocks[p.block_of(s.constants[0])] == frozenset(
                {s.constants[0]})

    def test_spiral_single_block(self):
        s = pf.make_spiral(2, 1, 2).structure
        p = pf.connected_components(s)
        assert len(p) == 1 and len(p.blocks[0]) == 3

    def test_loops_do_not_connect(self):
        s = FinStructure(1, [0, 1], [{(0, 0), (1, 1)}])
        assert len(pf.connected_components(s)) == 2


class TestSurjectiveRelation:
    def test_loop(self):
        assert pf.is_surjective_relation(loop_structure(), 0)

    def test_path_fails(self):
        s = FinStructure(1, [0, 1], [{(0, 1)}])
        assert not pf.is_surjective_relation(s, 0)

    @pytest.mark.parametrize("p,q,r", [(2, 1, 2), (3, 2, 4), (5, 1, 2)])
    def test_spirals_by_degree_oracle(self, p, q, r):
        s = pf.make_spiral(p, q, r).structure
        rel = s.relations[0]
        oracle = all(
            any(x == a for x, _ in rel) and any(y == a for _, y in rel)
            for a in s.vertices)
        assert oracle
        assert pf.is_surjective_relation(s, 0) == oracle

    def test_index_error(self):
        with pytest.raises(IndexError):
            pf.is_surjective_relation(loop_structure(), 1)


class TestOutgoing:
    def test_isolated_loop_empty(self):
        assert pf.outgoing_classification(loop_structure(), 0) == set()

    def test_spiral_junction_empty(self):
        sp = pf.make_spiral(2, 1, 2)
        assert pf.outgoing_classification(sp.structure, sp.a(2)) == set()

    def test_xy_tags(self):
        s = xy_member()
        assert pf.outgoing_classification(s, 0) == {(0, "fwd")}
        assert pf.outgoing_classification(s, 1) == {(0, "inv")}

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            pf.outgoing_classification(loop_structure(), 9)


class TestFamilies:
    def test_two_cycle(self):
        assert pf.in_family(two_cycle(), F0).ok
        rep = pf.in_family(two_cycle(), F)
        assert not rep.ok and "outgoing" in rep.reason

    def test_xy_in_f(self):
        assert pf.in_family(xy_member(), F).ok

    def test_expand_lands_in_fn(self):
        assert pf.in_family(pf.expand_constants(xy_member(), 2), FN).ok

    def test_requires_n0(self):
        s = pf.expand_constants(xy_member(), 1)
        with pytest.raises(ValueError):
            pf.in_family(s, F0)

    def test_f0n_constant_loop_required(self):
        s = FinStructure(1, [0, 1], [{(0, 1), (1, 0)}], constants=[0])
        rep = pf.in_family(s, F0N)
        assert not rep.ok and "loop" in rep.reason

    def test_f0n_allows_nonsingleton_constants(self):
        rel = {(0, 0), (0, 1), (1, 1), (1, 0)}
        s = FinStructure(1, [0, 1], [rel], constants=[0])
        assert pf.in_family(s, F0N).ok
        assert not pf.in_family(s, FN).ok

    def test_f_implies_f0(self, rng):
        for _ in range(50):
            s = random_f0(rng, max_size=5)
            if pf.in_family(s, F).ok:
                assert pf.in_family(s, F0).ok

    def test_component_locality(self, rng):
        for _ in range(30):
            parts = [random_f0(rng, max_size=4) for _ in range(
                rng.randint(2, 3))]
            m = parts[0].m
            parts = [p for p in parts if p.m == m]
            union, _ = pf.disjoint_union(parts)
            for fam in (F0, F):
                whole = pf.in_family(union, fam).ok
                each = all(pf.in_family(p, fam).ok for p in parts)
                assert whole == each

    def test_first_violation_named(self):
        s = FinStructure(1, [0, 1], [{(0, 1), (1, 1)}])
        rep = pf.in_family(s, F0)
        assert rep.vertex == 0 and rep.relation == 0


def reference_check_f0(s: FinStructure, family: str):
    if not s.vertices:
        return (False, family, "empty vertex set", None, None, None)
    for i in range(s.m):
        for v in s.sorted_vertices():
            if not s.out_neighbors(i, v):
                return (False, family, "vertex has no outgoing edge", v, i,
                        None)
            if not s.in_neighbors(i, v):
                return (False, family, "vertex has no incoming edge", v, i,
                        None)
    return (True, family, "", None, None, None)


def reference_check_f(s: FinStructure, family: str):
    """The F test that classifies both ends of every edge afresh."""
    rep = reference_check_f0(s, family)
    if not rep[0]:
        return rep
    for v in s.sorted_vertices():
        tags = pf.outgoing_classification(s, v)
        if len(tags) != 1:
            return (False, family, f"vertex outgoing for {len(tags)} "
                    "relations/converses, expected exactly 1", v, None, None)
    for i in range(s.m):
        for a, b in sorted(s.relations[i]):
            a_out = (i, "fwd") in pf.outgoing_classification(s, a)
            b_out = (i, "inv") in pf.outgoing_classification(s, b)
            if not (a_out or b_out):
                return (False, family, "edge has neither an outgoing tail "
                        "nor a converse-outgoing head", None, i, (a, b))
    return (True, family, "", None, None, None)


def reference_in_family(s: FinStructure, family: str):
    """Membership as (ok, family, reason, vertex, relation, edge), computed
    afresh on every call."""
    if family in (F0, F):
        if s.n:
            raise ValueError("F0 and F need n=0")
        check = reference_check_f0 if family == F0 else reference_check_f
        return check(s, family)
    if not s.vertices:
        return (False, family, "empty vertex set", None, None, None)
    if family == F0N:
        rep = reference_check_f0(s, family)
        if not rep[0]:
            return rep
        for i in range(s.m):
            for j, c in enumerate(s.constants):
                if (c, c) not in s.relations[i]:
                    return (False, family, f"constant p{j + 1} lacks a loop",
                            c, i, None)
        return (True, family, "", None, None, None)
    if len(set(s.constants)) != s.n:
        return (False, family, "constants are not distinct", None, None,
                None)
    for j, c in enumerate(s.constants):
        lone = f"constant p{j + 1} is not a singleton component"
        for i in range(s.m):
            if (c, c) not in s.relations[i]:
                return (False, family, f"constant p{j + 1} lacks a loop", c,
                        i, None)
            for b in s.out_neighbors(i, c):
                if b != c:
                    return (False, family, lone, c, i, (c, b))
            for a in s.in_neighbors(i, c):
                if a != c:
                    return (False, family, lone, c, i, (a, c))
    rest = s.vertices - set(s.constants)
    if not rest:
        return (False, family, "no non-constant part", None, None, None)
    return reference_check_f(pf.induced(s, rest, keep_constants=False),
                             family)


def random_member_candidate(rng: random.Random) -> FinStructure:
    """m = 1-2 relations on 1-8 vertices, with or without constants; one
    relation style in four is built to land in F often."""
    m, n = rng.randint(1, 2), rng.randint(1, 8)
    rels = []
    for _ in range(m):
        style = rng.randrange(4)
        if style == 0:
            # loops plus tail-to-head edges: in F once every vertex meets
            # an edge, unless a stray edge spoils it
            heads = set(rng.sample(range(n), rng.randint(0, n)))
            tails = [v for v in range(n) if v not in heads]
            rel = {(v, v) for v in range(n)}
            if tails and heads:
                rel |= {(rng.choice(tails), h) for h in heads}
                rel |= {(t, rng.choice(sorted(heads))) for t in tails}
            if rng.random() < 0.3:
                rel.add((rng.randrange(n), rng.randrange(n)))
        elif style == 1:
            rel = {(v, v) for v in range(n)} | {
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, n))}
        elif style == 2:
            perm = rng.sample(range(n), n)
            rel = {(v, perm[v]) for v in range(n)} | {
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 2))}
        else:
            rel = {(rng.randrange(n), rng.randrange(n))
                   for _ in range(rng.randint(0, 2 * n))}
        rels.append(rel)
    s = FinStructure(m, range(n), rels)
    how = rng.randrange(3)
    if how == 1:
        return pf.expand_constants(s, rng.randint(1, 2))
    if how == 2:
        return FinStructure(m, range(n), rels, constants=[
            rng.randrange(n) for _ in range(rng.randint(1, 2))])
    return s


class TestMembershipOracle:
    @staticmethod
    def fields(rep):
        return (rep.ok, rep.family, rep.reason, rep.vertex, rep.relation,
                rep.edge)

    def test_in_family_matches_reference(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(300):
            s = random_member_candidate(rng)
            fresh = FinStructure(s.m, s.vertices, s.relations, s.constants)
            for fam in (F0, F, F0N, FN):
                if fam in (F0, F) and s.n:
                    # raises every time: nothing is kept for it
                    for _ in range(2):
                        with pytest.raises(ValueError):
                            pf.in_family(s, fam)
                    with pytest.raises(ValueError):
                        reference_in_family(s, fam)
                    continue
                want = reference_in_family(s, fam)
                assert self.fields(pf.in_family(s, fam)) == want
                assert self.fields(pf.in_family(s, fam)) == want
                assert self.fields(pf.in_family(fresh, fam)) == want
                seen.add((fam, want[0]))
                seen.add(want[2])
        # the sample reaches members and non-members of every family, and
        # the per-edge condition of F
        assert {(fam, ok) for fam in (F0, F, F0N, FN)
                for ok in (True, False)} <= seen
        assert ("edge has neither an outgoing tail nor a converse-outgoing "
                "head") in seen


class TestExpandConstants:
    def test_zero_is_identity(self):
        s = xy_member()
        assert pf.expand_constants(s, 0) is s

    def test_adds_loop_singletons(self):
        s = pf.expand_constants(two_cycle(), 3)
        assert len(s.vertices) == 5 and s.n == 3
        comp = pf.connected_components(s)
        for c in s.constants:
            assert comp.blocks[comp.block_of(c)] == frozenset({c})
            for rel in s.relations:
                assert (c, c) in rel

    def test_rejects_existing_constants(self):
        s = pf.expand_constants(xy_member(), 1)
        with pytest.raises(ValueError):
            pf.expand_constants(s, 1)

    def test_singleton_constant_count(self, rng):
        for _ in range(10):
            k = rng.randint(0, 3)
            s = pf.expand_constants(random_f0(rng), k)
            comp = pf.connected_components(s)
            singles = sum(
                1 for c in s.constants
                if comp.blocks[comp.block_of(c)] == frozenset({c}))
            assert singles == k


class TestQuotient:
    def test_discrete_is_isomorphism(self, rng):
        for _ in range(10):
            s = random_f0(rng)
            p = Partition([{v} for v in s.vertices])
            q, proj = pf.quotient(s, p)
            assert pf.check_epimorphism(proj)
            assert len(q.vertices) == len(s.vertices)
            assert len(set(proj.mapping.values())) == len(s.vertices)

    def test_single_block_gives_loops(self):
        s = two_cycle()
        q, proj = pf.quotient(s, Partition([{0, 1}]))
        assert q.relations[0] == frozenset({(0, 0)})
        assert pf.check_epimorphism(proj)

    def test_spiral_example(self):
        sp = pf.make_spiral(2, 1, 2)
        p = Partition([{sp.a(1)}, {sp.a(2), sp.c(2)}])
        q, _ = pf.quotient(sp.structure, p)
        assert q.relations[0] == frozenset({(0, 1), (1, 1), (1, 0)})

    def test_constants_cannot_merge(self):
        s = pf.expand_constants(two_cycle(), 2)
        c1, c2 = s.constants
        with pytest.raises(ValueError):
            pf.quotient(s, Partition([{0, 1}, {c1, c2}]))

    def test_quotient_preserves_f0(self, rng):
        for _ in range(30):
            s = random_f0(rng, max_size=5)
            q, _ = pf.quotient(s, random_partition(rng, s))
            assert pf.in_family(q, F0).ok


def block_quotient(h, p, marked=()):
    """Block structure of bijections h_i of the partitioned set: the
    quotient of their point structure, marked points as constants."""
    xs = FinStructure(len(h), p.ground,
                      [{(x, f[x]) for x in p.ground} for f in h],
                      constants=marked)
    return pf.quotient(xs, p)[0]


class TestRestrictMap:
    def test_identity_gives_diagonal(self):
        p = Partition([{0, 1}, {2}])
        f = {v: v for v in range(3)}
        assert block_quotient([f], p).relations[0] == frozenset(
            {(0, 0), (1, 1)})

    def test_four_cycle_two_blocks(self):
        f = {1: 2, 2: 3, 3: 4, 4: 1}
        p = Partition([{1, 2}, {3, 4}])
        assert block_quotient([f], p).relations[0] == frozenset(
            {(0, 0), (0, 1), (1, 1), (1, 0)})

    def test_single_block_loop(self, rng):
        verts = list(range(5))
        rng.shuffle(verts)
        f = dict(zip(range(5), verts))
        p = Partition([set(range(5))])
        assert block_quotient([f], p).relations[0] == frozenset({(0, 0)})

    @given(st.permutations(list(range(6))), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_always_surjective_block_relation(self, perm, k):
        f = dict(enumerate(perm))
        blocks = [list(range(6))[i::k] for i in range(k)]
        p = Partition([b for b in blocks if b])
        rel = block_quotient([f], p).relations[0]
        assert {a for a, _ in rel} == set(range(len(p)))
        assert {b for _, b in rel} == set(range(len(p)))

    def test_fixed_points_give_fixed_block_loops(self, rng):
        # bijections fixing marked points restrict into the admissible set
        for _ in range(20):
            free = list(range(1, 6))
            rng.shuffle(free)
            f = {0: 0, **dict(zip(range(1, 6), free))}
            p = Partition([{0, 1}, {2, 3}, {4, 5}])
            q = block_quotient([f], p, marked=[0])
            assert q.constants == (0,)
            assert pf.in_family(q, F0N).ok


class TestBasicOpen:
    def test_identity_diagonal(self):
        p = Partition([{0}, {1}])
        diag = frozenset({(0, 0), (1, 1)})
        h = [{0: 0, 1: 1}, {0: 0, 1: 1}]
        assert block_quotient(h, p).relations == (diag, diag)

    def test_off_diagonal_rejected(self):
        p = Partition([{0}, {1}])
        assert block_quotient([{0: 0, 1: 1}], p).relations != (
            frozenset({(0, 0), (1, 1), (0, 1)}),)

    def test_round_trip(self):
        f = {1: 2, 2: 3, 3: 4, 4: 1}
        p = Partition([{1, 2}, {3, 4}])
        q = block_quotient([f], p)
        again = FinStructure(1, range(len(p)), q.relations)
        assert block_quotient([f], p) == again


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Partition([{0, 1}, {1, 2}])
        with pytest.raises(ValueError):
            Partition([set()])

    def test_canonical_block_order(self):
        p = Partition([{5, 3}, {0, 9}])
        assert p.blocks == (frozenset({0, 9}), frozenset({3, 5}))


class TestSurjectiveCore:
    def test_full_on_f0(self, rng):
        for _ in range(10):
            s = random_f0(rng)
            assert pf.surjective_core(s) == s.vertices

    def test_prunes_dead_tail(self):
        s = FinStructure(1, [0, 1], [{(0, 0), (0, 1)}])
        assert pf.surjective_core(s) == frozenset({0})

    def test_empty_when_relation_empty(self):
        s = FinStructure(2, [0], [{(0, 0)}, set()])
        assert pf.surjective_core(s) == frozenset()
