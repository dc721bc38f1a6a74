import random
from itertools import product as iproduct

import pytest

import profin as pf
from profin import (CapExhausted, F, F0, F0N, FN, FinStructure, Partition,
                    StructMap, maps)

from conftest import (cycle_structure, loop_structure, loopless_member,
                      random_f0, random_partition, two_cycle, xy_member)


def brute_force_epi_exists(a: FinStructure, b: FinStructure) -> bool:
    """Independent oracle: enumerate all |B|^|A| vertex maps."""
    dom = a.sorted_vertices()
    for images in iproduct(b.sorted_vertices(), repeat=len(dom)):
        phi = StructMap(a, b, dict(zip(dom, images)))
        if pf.check_epimorphism(phi):
            return True
    return False


def reference_search(a: FinStructure, b: FinStructure, budget: int,
                     surjective: bool):
    """Oracle: the plain recursive backtracker, as the solver was before it
    counted coverage.  Same vertex order, candidate order and budget, with
    the vertex-count prune only.  Returns (map or None, attempts made)."""
    def total_degree(v):
        return sum(len(a.out_neighbors(i, v)) + len(a.in_neighbors(i, v))
                   for i in range(a.m))

    if not a.vertices:
        found = None if surjective and b.vertices else StructMap(a, b, {})
        return found, 0
    if not b.vertices:
        return None, 0
    order = sorted(a.vertices, key=lambda v: (-total_degree(v), v))
    forced = {}
    for j in range(a.n):
        v, w = a.constants[j], b.constants[j]
        if forced.get(v, w) != w:
            return None, 0
        forced[v] = w
    candidates = sorted(b.vertices)
    assignment = {}
    image_count = {w: 0 for w in b.vertices}
    spent = 0

    def consistent(v, w):
        for i in range(a.m):
            cod = b.relations[i]
            for u in a.out_neighbors(i, v):
                if u in assignment and (w, assignment[u]) not in cod:
                    return False
                if u == v and (w, w) not in cod:
                    return False
            for u in a.in_neighbors(i, v):
                if u in assignment and (assignment[u], w) not in cod:
                    return False
        return True

    def extend(k):
        nonlocal spent
        if k == len(order):
            phi = StructMap(a, b, dict(assignment))
            if surjective:
                return phi if pf.check_epimorphism(phi) else None
            return phi
        v = order[k]
        opts = [forced[v]] if v in forced else candidates
        remaining = len(order) - k
        for w in opts:
            spent += 1
            if spent > budget:
                raise CapExhausted("reference budget", budget=budget)
            if surjective:
                uncovered = sum(1 for x in image_count.values() if x == 0)
                if image_count[w] > 0 and uncovered >= remaining:
                    continue
            if not consistent(v, w):
                continue
            assignment[v] = w
            image_count[w] += 1
            found = extend(k + 1)
            if found is not None:
                return found
            del assignment[v]
            image_count[w] -= 1
        return None

    found = extend(0)
    return found, spent


def xy_copies(k: int) -> FinStructure:
    rel = set()
    for c in range(k):
        rel |= {(2 * c, 2 * c), (2 * c, 2 * c + 1), (2 * c + 1, 2 * c + 1)}
    return FinStructure(1, range(2 * k), [rel])


def looped_cycle(j: int) -> FinStructure:
    return FinStructure(1, range(j), [{(i, i) for i in range(j)}
                                      | {(i, (i + 1) % j) for i in range(j)}])


class TestChecks:
    def test_identity(self):
        phi = pf.identity_map(xy_member())
        assert pf.check_homomorphism(phi)
        assert pf.check_epimorphism(phi)

    def test_collapse_two_cycle_to_loop(self):
        phi = StructMap(two_cycle(), loop_structure(), {0: 0, 1: 0})
        assert pf.check_homomorphism(phi)
        assert pf.check_epimorphism(phi)

    def test_edge_to_non_edge(self):
        dom = FinStructure(1, [0, 1], [{(0, 1)}])
        cod = FinStructure(1, [0, 1], [{(1, 0)}])
        phi = StructMap(dom, cod, {0: 0, 1: 1})
        assert not pf.check_homomorphism(phi)

    def test_spiral_cover_is_epimorphism(self):
        phi = pf.spiral_cover_map(2, 2, 1, 2)
        assert pf.check_epimorphism(phi)

    def test_inclusion_not_epi(self):
        big = FinStructure(1, [0, 1], [{(0, 0), (1, 1)}])
        phi = StructMap(loop_structure(), big, {0: 0})
        assert pf.check_homomorphism(phi)
        assert not pf.check_epimorphism(phi)

    def test_constants_must_match(self):
        dom = pf.expand_constants(loop_structure(), 1)
        cod = pf.expand_constants(loop_structure(), 1)
        good = StructMap(dom, cod, {0: 0, dom.constants[0]: cod.constants[0]})
        assert pf.check_homomorphism(good)
        bad = StructMap(dom, cod, {0: cod.constants[0], dom.constants[0]: 0})
        assert not pf.check_homomorphism(bad)

    def test_arity_mismatch_raises(self):
        phi = StructMap(loop_structure(1), loop_structure(2), {0: 0})
        with pytest.raises(ValueError):
            pf.check_homomorphism(phi)

    def test_epi_implies_hom_and_composes(self, rng):
        for _ in range(20):
            s = random_f0(rng, max_size=5)
            q1, proj1 = pf.quotient(s, random_partition(rng, s))
            q2, proj2 = pf.quotient(q1, random_partition(rng, q1))
            assert pf.check_epimorphism(proj1)
            assert pf.check_homomorphism(proj1)
            comp = pf.compose(proj2, proj1)
            assert pf.check_epimorphism(comp)


class TestFindEpimorphism:
    def test_identity_found(self):
        s = xy_member()
        phi = pf.find_epimorphism(s, s)
        assert phi is not None and pf.check_epimorphism(phi)

    def test_spiral_cover_found(self):
        a = pf.make_spiral(4, 1, 4).structure
        b = pf.make_spiral(2, 1, 2).structure
        phi = pf.find_epimorphism(a, b)
        assert phi is not None and pf.check_epimorphism(phi)

    def test_three_cycle_onto_two_cycle_impossible(self):
        a, b = cycle_structure(3), cycle_structure(2)
        assert pf.find_epimorphism(a, b) is None
        assert not brute_force_epi_exists(a, b)

    def test_budget_exhaustion_is_distinct(self):
        a = pf.make_spiral(4, 3, 4).structure
        b = pf.make_spiral(2, 3, 2).structure
        with pytest.raises(CapExhausted):
            pf.find_epimorphism(a, b, budget=3)

    def test_oracle_equivalence(self, rng):
        for _ in range(25):
            a = random_f0(rng, max_size=4, m=1)
            b = random_f0(rng, max_size=3, m=1)
            got = pf.find_epimorphism(a, b)
            assert (got is not None) == brute_force_epi_exists(a, b)
            if got is not None:
                assert pf.check_epimorphism(got)

    def test_deterministic(self, rng):
        a = random_f0(rng, max_size=5, m=2)
        b, _ = pf.quotient(a, random_partition(rng, a))
        first = pf.find_epimorphism(a, b)
        second = pf.find_epimorphism(a, b)
        assert first == second


class TestSearchAgainstReference:
    @staticmethod
    def pairs(count: int):
        """Seeded F0 pairs, domains of 2-6 vertices, codomains of 1-4: every
        other codomain is a quotient of its domain, so that about half the
        pairs have an epimorphism; every fifth pair gets a constant."""
        rng = random.Random(20250921)
        for k in range(count):
            m = rng.randint(1, 2)
            a = random_f0(rng, max_size=6, m=m)
            if k % 2:
                verts = a.sorted_vertices()
                rng.shuffle(verts)
                blocks = rng.randint(1, min(4, len(verts)))
                b, _ = pf.quotient(a, Partition(
                    [verts[i::blocks] for i in range(blocks)]))
            else:
                b = random_f0(rng, max_size=4, m=m)
            if k % 5 == 4:
                a, b = pf.expand_constants(a, 1), pf.expand_constants(b, 1)
            yield a, b

    @pytest.mark.parametrize("surjective", [True, False])
    def test_same_answer_as_recursive_reference(self, surjective):
        search = pf.find_epimorphism if surjective else pf.find_homomorphism
        found = 0
        for a, b in self.pairs(400):
            want, spent = reference_search(a, b, 10**7, surjective)
            got = search(a, b, budget=max(spent, 1))
            assert got == want
            found += got is not None
        assert 100 <= found <= 350

    def test_homomorphism_budget_is_unchanged(self):
        # without surjectivity nothing is pruned: the same attempts are made
        for a, b in self.pairs(60):
            _, spent = reference_search(a, b, 10**7, False)
            if spent == 0:
                continue
            with pytest.raises(CapExhausted) as info:
                pf.find_homomorphism(a, b, budget=spent - 1)
            assert info.value.stats["nodes"] == spent

    def test_cap_exhausted_reports_nodes_and_depth(self):
        a = pf.make_spiral(4, 3, 4).structure
        b = pf.make_spiral(2, 3, 2).structure
        with pytest.raises(CapExhausted) as info:
            pf.find_epimorphism(a, b, budget=50)
        stats = info.value.stats
        assert stats["nodes"] == 51
        assert 1 <= stats["deepest"] <= len(a.vertices)


def loop_rich(rng: random.Random, m: int, shape: int | None = None,
              cycle: int | None = None) -> FinStructure:
    """Seeded structure with many loops, by ``shape`` (random if None):
    0, a union of 1-3 copies of xy; 1, a looped cycle of 1-5 vertices (or
    of ``cycle``); each further relation a relabelled copy of the first;
    2, a random F0 structure with random loops added."""
    if shape is None:
        shape = rng.randrange(3)
    if shape == 2:
        s = random_f0(rng, max_size=5, m=m)
        return FinStructure(m, s.vertices, [
            rel | {(v, v) for v in s.vertices if rng.random() < 0.4}
            for rel in s.relations])
    base = xy_copies(rng.randint(1, 3)) if shape == 0 else \
        looped_cycle(cycle or rng.randint(1, 5))
    verts = base.sorted_vertices()
    rels = [base.relations[0]]
    for _ in range(m - 1):
        perm = verts[:]
        rng.shuffle(perm)
        rels.append({(perm[x], perm[y]) for x, y in base.relations[0]})
    return FinStructure(m, verts, rels)


class TestLoopRichAgainstReference:
    """The typed slack cuts only where a domain non-loop must cover a
    codomain non-loop, which the random F0 pairs above rarely need."""

    @staticmethod
    def pairs(count: int):
        """Seeded loop-rich pairs, m = 1-2: every other codomain is a
        quotient of its domain; every fourth pair maps xy copies or a
        looped cycle onto a looped cycle within one of the domain's
        first-relation non-loop count, the count that decides there;
        every third pair gets one constant."""
        rng = random.Random(20261020)
        for k in range(count):
            m = rng.randint(1, 2)
            a = loop_rich(rng, m, shape=rng.randrange(2) if k % 4 == 2
                          else None)
            if k % 2:
                b, _ = pf.quotient(a, random_partition(rng, a))
            elif k % 4:
                edges = sum(x != y for x, y in a.relations[0])
                b = loop_rich(rng, m, shape=1,
                              cycle=max(1, edges + rng.randint(-1, 1)))
            else:
                b = loop_rich(rng, m)
            if k % 3 == 2:
                a, b = pf.expand_constants(a, 1), pf.expand_constants(b, 1)
            yield a, b

    def test_same_answer_and_no_more_nodes_than_reference(self):
        found = brute = 0
        for a, b in self.pairs(400):
            want, spent = reference_search(a, b, 10**7, True)
            got = pf.find_epimorphism(a, b, budget=max(spent, 1))
            assert got == want
            if got is not None:
                found += 1
                assert pf.check_epimorphism(got)
            if len(a.vertices) <= 5:
                brute += 1
                assert (got is not None) == brute_force_epi_exists(a, b)
        assert 200 <= found <= 350 and brute >= 250

    def test_slack_rules(self):
        # 9 domain pairs, 3 of them non-loops, onto the 4 pairs, 2 of them
        # non-loops, of the looped C_2
        cover = maps._Coverage(xy_copies(3), looped_cycle(2))
        assert (cover.slack, cover.edge_slack) == ([5], [1])
        steps = [
            (1, [(0, (0, 1), True)], [5], [1]),   # non-loop, unhit non-loop
            (0, [(0, (0, 0), False)], [5], [1]),  # loop, unhit loop
            (0, [(0, (0, 0), False)], [4], [1]),  # loop, hit loop
            (1, [(0, (1, 1), True)], [4], [0]),   # non-loop, unhit loop
        ]
        for w, pairs, slack, edge_slack in steps:
            assert cover.add(w, pairs)
            assert (cover.slack, cover.edge_slack) == (slack, edge_slack)
        # a non-loop onto a hit non-loop would leave edge_slack at -1
        assert not cover.add(1, [(0, (0, 1), True)])
        assert (cover.slack, cover.edge_slack) == ([4], [0])
        for w, pairs, _, _ in reversed(steps):
            cover.remove(w, pairs)
        assert (cover.slack, cover.edge_slack) == ([5], [1])
        assert cover.uncovered == 2 and not any(cover.hits[0].values())


class TestSearchNodeCounts:
    def test_xy_copies_onto_looped_c7_decided_within_budget(self):
        c7 = looped_cycle(7)
        assert pf.find_epimorphism(xy_copies(6), c7, budget=1_000_000) is None
        phi = pf.find_epimorphism(xy_copies(7), c7, budget=1_000_000)
        assert phi is not None and pf.check_epimorphism(phi)

    def test_xy_copies_onto_longer_cycle_refuted_at_the_root(self):
        # k non-loop pairs cannot cover the k + 1 non-loops of C_{k+1}
        for k in range(1, 21):
            assert pf.find_epimorphism(xy_copies(k), looped_cycle(k + 1),
                                       budget=0) is None

    def test_xy_copies_onto_equal_cycle_found_within_5000_nodes(self):
        for k in range(1, 21):
            phi = pf.find_epimorphism(xy_copies(k), looped_cycle(k),
                                      budget=5_000)
            assert phi is not None and pf.check_epimorphism(phi)

    def test_long_path_domain_needs_no_recursion(self):
        n = 2000
        path = FinStructure(1, range(n), [{(i, i + 1) for i in range(n - 1)}])
        phi = pf.find_homomorphism(path, xy_member())
        assert phi is not None and pf.check_homomorphism(phi)


class TestFibreProduct:
    def test_pullback_along_identity(self):
        s = xy_member()
        phi = pf.identity_map(s)
        c, p1, p2 = pf.fibre_product(phi, phi)
        assert len(c.vertices) == len(s.vertices)
        assert pf.check_epimorphism(p1) and pf.check_epimorphism(p2)

    def test_two_cycles_over_loop(self):
        phi = StructMap(two_cycle(), loop_structure(), {0: 0, 1: 0})
        c, p1, p2 = pf.fibre_product(phi, phi)
        assert len(c.vertices) == 4
        comps = pf.connected_components(c)
        assert sorted(len(b) for b in comps.blocks) == [2, 2]
        for blk in comps.blocks:
            sub = pf.induced(c, blk)
            assert len(sub.relations[0]) == 2

    def test_square_commutes(self, rng):
        for _ in range(10):
            b = random_f0(rng, max_size=4)
            d1 = random_f0(rng, max_size=3, m=b.m)
            d2 = random_f0(rng, max_size=3, m=b.m)
            a1, q1, _ = pf.fibre_product(
                StructMap(b, _terminal(b.m), _collapse(b)),
                StructMap(d1, _terminal(b.m), _collapse(d1)))
            del a1, q1
            phi1 = _product_projection(b, d1)
            phi2 = _product_projection(b, d2)
            c, p1, p2 = pf.fibre_product(phi1, phi2)
            assert pf.compose(phi1, p1) == pf.compose(phi2, p2)

    def test_codomain_mismatch(self):
        phi1 = pf.identity_map(loop_structure())
        phi2 = pf.identity_map(two_cycle())
        with pytest.raises(ValueError):
            pf.fibre_product(phi1, phi2)

    def test_projections_epi_for_epi_inputs(self, rng):
        # epimorphisms of surjective structures pull back to epimorphisms
        for _ in range(15):
            a1 = random_f0(rng, max_size=5)
            a2 = random_f0(rng, max_size=5, m=a1.m)
            b, phi1 = pf.quotient(a1, random_partition(rng, a1))
            epi2 = pf.find_epimorphism(a2, b)
            if epi2 is None:
                continue
            _, p1, p2 = pf.fibre_product(phi1, epi2)
            assert pf.check_epimorphism(p1)
            assert pf.check_epimorphism(p2)


def _terminal(m: int) -> FinStructure:
    return FinStructure(m, [0], [{(0, 0)} for _ in range(m)])


def _collapse(s: FinStructure) -> dict[int, int]:
    return {v: 0 for v in s.vertices}


def _product_projection(b: FinStructure, d: FinStructure) -> StructMap:
    """Projection from the full product b x d onto b (an epimorphism)."""
    to1 = StructMap(b, _terminal(b.m), _collapse(b))
    to2 = StructMap(d, _terminal(d.m), _collapse(d))
    c, p1, _ = pf.fibre_product(to1, to2)
    return p1


class TestPap:
    def test_equal_maps_identity_witness(self):
        s = xy_member()
        q, proj = pf.quotient(s, Partition([{0, 1}]))
        got = pf.pap_witness(proj, proj, F0)
        assert got is not None
        c, psi1, psi2 = got
        assert c == s and psi1 == psi2 == pf.identity_map(s)

    def test_two_covers_of_loop(self):
        phi1 = StructMap(two_cycle(), loop_structure(), {0: 0, 1: 0})
        c3 = cycle_structure(3)
        phi2 = StructMap(c3, loop_structure(), _collapse(c3))
        got = pf.pap_witness(phi1, phi2, F0)
        assert got is not None
        c, psi1, psi2 = got
        assert pf.in_family(c, F0).ok
        assert pf.check_epimorphism(psi1) and pf.check_epimorphism(psi2)
        assert pf.compose(phi1, psi1) == pf.compose(phi2, psi2)

    def test_random_f0_instances(self, rng):
        for _ in range(15):
            b = random_f0(rng, max_size=4)
            d1 = random_f0(rng, max_size=3, m=b.m)
            d2 = random_f0(rng, max_size=3, m=b.m)
            got = pf.pap_witness(_product_projection(b, d1),
                                 _product_projection(b, d2), F0)
            assert got is not None

    def test_f_family_fold_covers(self):
        xy = xy_member()
        double, injs2 = pf.disjoint_union([xy, xy])
        triple, injs3 = pf.disjoint_union([xy, xy, xy])
        fold2 = {inj[v]: v for inj in injs2 for v in xy.vertices}
        fold3 = {inj[v]: v for inj in injs3 for v in xy.vertices}
        phi1 = StructMap(double, xy, fold2)
        phi2 = StructMap(triple, xy, fold3)
        got = pf.pap_witness(phi1, phi2, F)
        assert got is not None
        c, psi1, psi2 = got
        assert pf.in_family(c, F).ok
        assert pf.compose(phi1, psi1) == pf.compose(phi2, psi2)

    def test_fn_constant_stripping_round_trip(self):
        xy = xy_member()
        seed = pf.expand_constants(xy, 1)
        double, _ = pf.disjoint_union([xy, xy])
        cover = pf.expand_constants(double, 1)
        fold = {v: v % 2 for v in double.vertices}
        fold[cover.constants[0]] = seed.constants[0]
        phi2 = StructMap(cover, seed, fold)
        phi1 = pf.identity_map(seed)
        got = pf.pap_witness(phi1, phi2, FN)
        assert got is not None
        c, psi1, psi2 = got
        assert pf.in_family(c, FN).ok
        comp = pf.connected_components(c)
        for cst in c.constants:
            assert comp.blocks[comp.block_of(cst)] == frozenset({cst})
        assert pf.compose(phi1, psi1) == pf.compose(phi2, psi2)

    def test_structural_precondition_failure(self):
        bad = FinStructure(1, [0, 1], [{(0, 1)}])
        phi = pf.identity_map(bad)
        with pytest.raises(ValueError):
            pf.pap_witness(phi, phi, F0)

    def brute_pap_exists(self, phi1, phi2, max_size):
        """Oracle over all witnesses up to max_size: vertices are labelled
        by compatible pairs, and for F0 the maximal allowed edge set is
        optimal, so label assignments suffice."""
        a1, a2 = phi1.domain, phi2.domain
        pairs = [(x, y) for x in sorted(a1.vertices)
                 for y in sorted(a2.vertices)
                 if phi1.mapping[x] == phi2.mapping[y]]
        for k in range(1, max_size + 1):
            for combo in iproduct(pairs, repeat=k):
                edges = set()
                for i in range(k):
                    for j in range(k):
                        (x, y), (xp, yp) = combo[i], combo[j]
                        if (x, xp) in a1.relations[0] \
                                and (y, yp) in a2.relations[0]:
                            edges.add((i, j))
                cand = FinStructure(1, range(k), [edges])
                if not pf.in_family(cand, F0):
                    continue
                psi1 = StructMap(cand, a1,
                                 {i: combo[i][0] for i in range(k)})
                psi2 = StructMap(cand, a2,
                                 {i: combo[i][1] for i in range(k)})
                if pf.check_epimorphism(psi1) and pf.check_epimorphism(psi2):
                    return True
        return False

    def test_none_verdict_agrees_with_brute_force(self, rng):
        # core failure must mean genuine nonexistence, not a missed witness
        checked = 0
        for _ in range(800):
            c1 = random_f0(rng, max_size=4, m=1)
            b, phi1 = pf.quotient(c1, random_partition(rng, c1))
            c2 = random_f0(rng, max_size=4, m=1)
            phi2 = pf.find_epimorphism(c2, b, budget=200000)
            if phi2 is None:
                continue
            got = pf.pap_witness(phi1, phi2, F0)
            if got is None:
                assert not self.brute_pap_exists(phi1, phi2, max_size=3)
                checked += 1
                if checked >= 2:
                    break
        assert checked >= 1


class TestJpp:
    def test_equal_inputs(self):
        s = xy_member()
        b, psi1, psi2 = pf.jpp_witness(s, s, F)
        assert b == s and psi1 == psi2

    def test_two_loops(self):
        a1 = loop_structure()
        a2 = FinStructure(1, [0, 1], [{(0, 0), (1, 1), (0, 1), (1, 0)}])
        b, psi1, psi2 = pf.jpp_witness(a1, a2, F0)
        assert pf.check_epimorphism(psi1) and pf.check_epimorphism(psi2)

    def test_f_disjoint_union_tactic(self):
        xy = xy_member()
        double, _ = pf.disjoint_union([xy, xy])
        b, psi1, psi2 = pf.jpp_witness(xy, double, F)
        assert pf.in_family(b, F).ok
        assert pf.check_epimorphism(psi1) and pf.check_epimorphism(psi2)

    def test_fn_constants_map_identically(self):
        a1 = pf.expand_constants(xy_member(), 2)
        double, _ = pf.disjoint_union([xy_member(), xy_member()])
        a2 = pf.expand_constants(double, 2)
        b, psi1, psi2 = pf.jpp_witness(a1, a2, FN)
        assert pf.in_family(b, FN).ok
        for j in range(2):
            assert psi1.mapping[b.constants[j]] == a1.constants[j]
            assert psi2.mapping[b.constants[j]] == a2.constants[j]

    def test_f_product_tactic_is_last(self):
        # no homomorphism sends xy's loops into this loopless member, so
        # only the full product is left; it is not in F, so its F cover
        # (4 vertices per product pair, 3 x 6 pairs) is the witness
        loopless = loopless_member()
        assert pf.in_family(loopless, F).ok
        assert pf.find_homomorphism(xy_member(), loopless) is None
        point = loop_structure()
        prod, _, _ = pf.fibre_product(
            StructMap(xy_member(), point, _collapse(xy_member())),
            StructMap(loopless, point, _collapse(loopless)))
        assert not pf.in_family(prod, F)
        b, psi1, psi2 = pf.jpp_witness(xy_member(), loopless, F)
        assert len(b.vertices) == 72 and pf.in_family(b, F).ok
        assert pf.check_epimorphism(psi1) and pf.check_epimorphism(psi2)
        with pytest.raises(CapExhausted) as info:
            pf.jpp_witness(xy_member(), loopless, F, size_cap=32)
        assert info.value.stats == {"needed": 72}

    def test_random_f0_jpp_always_succeeds(self, rng):
        for _ in range(15):
            m = rng.randint(1, 3)
            a1 = random_f0(rng, max_size=4, m=m)
            a2 = random_f0(rng, max_size=4, m=m)
            b, psi1, psi2 = pf.jpp_witness(a1, a2, F0)
            assert pf.in_family(b, F0).ok


class TestCoinitialCover:
    def test_identity_for_fn_members(self):
        s = pf.expand_constants(xy_member(), 1)
        cover, phi = pf.coinitial_cover(s, FN)
        assert cover == s and phi == pf.identity_map(s)

    def test_two_cycle_is_its_own_f0n_cover(self):
        cover, phi = pf.coinitial_cover(two_cycle(), F0N)
        assert pf.in_family(cover, F0N).ok
        assert pf.check_epimorphism(phi)
        assert len(cover.vertices) == 2

    def test_constant_maps_to_marked_point(self):
        s = FinStructure(1, [0, 1], [{(0, 0), (1, 1)}], constants=[1])
        cover, phi = pf.coinitial_cover(s, F0N)
        assert phi.mapping[cover.constants[0]] == 1
        assert pf.in_family(cover, F0N).ok

    def test_fn_target_by_search(self):
        cover, phi = pf.coinitial_cover(two_cycle(), FN)
        assert pf.in_family(cover, FN).ok
        assert pf.check_epimorphism(phi)

    def test_fn_cap_exhaustion_reported(self):
        c5 = cycle_structure(5)
        with pytest.raises(CapExhausted) as info:
            pf.coinitial_cover(c5, FN, size_cap=4)
        assert info.value.stats == {"needed": 20}

    def test_f0n_never_fails(self, rng):
        for _ in range(10):
            s = pf.expand_constants(random_f0(rng, max_size=4),
                                    rng.randint(0, 2))
            cover, phi = pf.coinitial_cover(s, F0N)
            assert pf.in_family(cover, F0N).ok
            assert pf.check_epimorphism(phi)


def enumerate_f_members(m: int, size: int):
    """All F structures on ``size`` vertices (feasible only at toy sizes)."""
    verts = list(range(size))
    pair_list = [(a, b) for a in verts for b in verts]
    for masks in iproduct(range(1 << len(pair_list)), repeat=m):
        rels = [{pair_list[k] for k in range(len(pair_list)) if mask >> k & 1}
                for mask in masks]
        cand = FinStructure(m, verts, rels)
        if pf.in_family(cand, F):
            yield cand


def all_epimorphisms(members: list[FinStructure]) -> list[StructMap]:
    """Every epimorphism between the members, by trying all vertex maps."""
    out = []
    for a in members:
        for b in members:
            va, vb = a.sorted_vertices(), b.sorted_vertices()
            for img in iproduct(vb, repeat=len(va)):
                phi = StructMap(a, b, dict(zip(va, img)))
                if pf.check_epimorphism(phi):
                    out.append(phi)
    return out


def random_f0n(rng: random.Random) -> FinStructure:
    """Random F0n structure: 1-2 constants on looped random vertices."""
    s = random_f0(rng, max_size=12, m=rng.randint(1, 2))
    consts = rng.sample(s.sorted_vertices(), rng.randint(1, 2))
    rels = [set(rel) | {(c, c) for c in consts} for rel in s.relations]
    return FinStructure(s.m, s.vertices, rels, constants=consts)


def f_cover_size(s: FinStructure) -> int:
    return 4 * sum(map(len, s.relations))


class TestFCoverOracle:
    """The F cover construction against an exhaustive enumeration of small
    F members: every span, pair and random structure gets a witness."""

    members = [s for size in (1, 2, 3) for s in enumerate_f_members(1, size)]
    epis = all_epimorphisms(members)

    def test_enumeration_counts_and_holds_the_small_members(self):
        assert len(self.members) == 14 and len(self.epis) == 124
        for s in f_members(1):
            assert s in self.members

    def test_pap_answers_every_span(self):
        spans = 0
        for phi1 in self.epis:
            for phi2 in self.epis:
                if phi1.codomain != phi2.codomain:
                    continue
                got = pf.pap_witness(phi1, phi2, F)
                assert got is not None
                c, psi1, psi2 = got
                assert pf.in_family(c, F).ok
                assert pf.check_epimorphism(psi1)
                assert pf.check_epimorphism(psi2)
                assert pf.compose(phi1, psi1) == pf.compose(phi2, psi2)
                core = maps._core_candidate(phi1, phi2)[0]
                if phi1 != phi2 and not pf.in_family(core, F):
                    assert len(c.vertices) == f_cover_size(core)
                spans += 1
        assert spans == 1784

    def test_jpp_answers_every_pair(self):
        for a1 in self.members:
            for a2 in self.members:
                b, psi1, psi2 = pf.jpp_witness(a1, a2, F)
                assert pf.in_family(b, F).ok
                assert pf.check_epimorphism(psi1)
                assert pf.check_epimorphism(psi2)

    def test_coinitial_fn_covers_random_structures(self):
        rng = random.Random(22)
        for _ in range(200):
            s = random_f0n(rng)
            cover, phi = pf.coinitial_cover(s, FN)
            assert pf.in_family(cover, FN).ok
            assert pf.check_epimorphism(phi)
            if pf.in_family(s, FN):
                assert cover == s
                continue
            reduct = pf.induced(s, s.vertices, keep_constants=False)
            size = (len(reduct.vertices) if pf.in_family(reduct, F)
                    else f_cover_size(reduct))
            assert len(cover.vertices) == size + s.n


def f_members(m: int) -> list[FinStructure]:
    """Small members of F with m relations."""
    if m == 1:
        return [xy_member(),
                FinStructure(1, range(3),
                             [{(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)}]),
                FinStructure(1, range(3),
                             [{(0, 0), (1, 0), (1, 1), (1, 2), (2, 2)}])]
    # one vertex outgoing per relation and one converse-outgoing per
    # relation; the other two vertices have a single in and out neighbour
    a, b, c, d = range(4)
    return [FinStructure(2, range(4), [
        {(a, a), (a, b), (a, c), (a, d), (c, b), (d, b), (b, b)},
        {(c, c), (c, d), (c, a), (c, b), (a, d), (b, d), (d, d)}])]


def random_fold(rng: random.Random, m: int, n: int) -> StructMap:
    """Fn epimorphism from copies of F members, each sent identically onto
    a base component or collapsed onto a constant point."""
    members = f_members(m)
    parts = [rng.choice(members) for _ in range(rng.randint(1, 2))]
    # (piece, target): a part index, or -1 - j for constant j
    pieces = [(part, i) for i, part in enumerate(parts)]
    for _ in range(rng.randint(0, 2)):
        target = rng.randrange(-n, len(parts))
        piece = parts[target] if target >= 0 else rng.choice(members)
        pieces.append((piece, target))
    rng.shuffle(pieces)
    dom_f, dom_injs = pf.disjoint_union([piece for piece, _ in pieces])
    base_f, base_injs = pf.disjoint_union(parts)
    dom = pf.expand_constants(dom_f, n)
    base = pf.expand_constants(base_f, n)
    mapping = {}
    for (piece, target), inj in zip(pieces, dom_injs):
        for v, w in inj.items():
            mapping[w] = (base_injs[target][v] if target >= 0
                          else base.constants[-1 - target])
    for j in range(n):
        mapping[dom.constants[j]] = base.constants[j]
    return StructMap(dom, base, mapping)


def random_fn_quotient(rng: random.Random, m: int,
                       n: int) -> StructMap | None:
    """Quotient map of an Fn member that collapses random components onto
    constant points and merges random vertex pairs; None when the quotient
    leaves Fn."""
    s_f, injs = pf.disjoint_union([rng.choice(f_members(m))
                                   for _ in range(rng.randint(1, 3))])
    s = pf.expand_constants(s_f, n)
    blocks = [{c} for c in s.constants]
    rest = []
    for inj in injs:
        if rng.random() < 0.3:
            rng.choice(blocks).update(inj.values())
        else:
            rest.extend(inj.values())
    rest = [{v} for v in rest]
    for _ in range(rng.randint(0, 2)):
        if len(rest) > 1:
            i, j = sorted(rng.sample(range(len(rest)), 2))
            rest[i] |= rest.pop(j)
    q, proj = pf.quotient(s, Partition(blocks + rest))
    return proj if pf.in_family(q, FN) else None


class TestStripFnOracle:
    def test_restriction_of_fn_epimorphism_is_f_epimorphism(self, rng):
        # the Fn amalgamation runs the F search on these restrictions
        # without checking them again
        folds = quotients = 0
        while folds + quotients < 200:
            m, n = rng.randint(1, 2), rng.randint(1, 2)
            if (folds + quotients) % 2:
                phi = random_fn_quotient(rng, m, n)
                if phi is None:
                    continue
                quotients += 1
            else:
                phi = random_fold(rng, m, n)
                folds += 1
            a, b = phi.domain, phi.codomain
            assert pf.in_family(a, FN) and pf.in_family(b, FN)
            assert pf.check_epimorphism(phi)
            phi_rest, fixups = maps._strip_fn(phi)
            assert pf.in_family(phi_rest.domain, F).ok
            assert pf.in_family(phi_rest.codomain, F).ok
            assert pf.check_epimorphism(phi_rest)
            for comp, j in fixups:
                assert pf.in_family(comp, F).ok
                assert {phi.mapping[v] for v in comp.vertices} == \
                    {b.constants[j]}
        assert quotients >= 50


def doubled_seed() -> FinStructure:
    """Two xy copies (vertices 0-1 and 2-3) plus one constant (4)."""
    double, _ = pf.disjoint_union([xy_member(), xy_member()])
    return pf.expand_constants(double, 1)


def fold_square() -> tuple[StructMap, StructMap]:
    seed = pf.expand_constants(xy_member(), 1)
    cover = doubled_seed()
    fold = {v: v % 2 for v in range(4)}
    fold[cover.constants[0]] = seed.constants[0]
    return pf.identity_map(seed), StructMap(cover, seed, fold)


def squash(psi: StructMap) -> StructMap:
    """psi with every non-constant image moved to one looped vertex: still
    a homomorphism, no longer onto."""
    cod = psi.codomain
    x = min(cod.vertices - set(cod.constants))
    return StructMap(psi.domain, cod,
                     {v: w if w in cod.constants else x
                      for v, w in psi.mapping.items()})


class TestWitnessTrustBoundary:
    """The search helpers' candidates are trusted by nothing but the one
    verification each public witness function runs before returning."""

    def test_pap_fn_rejects_a_square_that_does_not_commute(self,
                                                           monkeypatch):
        b = doubled_seed()
        swap = {0: 2, 1: 3, 2: 0, 3: 1, 4: 4}
        phi1, phi2 = pf.identity_map(b), StructMap(b, b, swap)
        real = maps._core_candidate

        def tampered(p1, p2):
            # compose the right projection with the copy swap: still an
            # epimorphism, but phi2 undoes the swap the square needs
            core, psi1, psi2 = real(p1, p2)
            return core, psi1, StructMap(
                core, psi2.codomain,
                {v: swap[w] for v, w in psi2.mapping.items()})

        monkeypatch.setattr(maps, "_core_candidate", tampered)
        with pytest.raises(pf.VerificationError, match="does not commute"):
            pf.pap_witness(phi1, phi2, FN)

    def test_pap_fn_rejects_a_projection_that_is_not_onto(self,
                                                          monkeypatch):
        phi1, phi2 = fold_square()
        real = maps._reattach_fn

        def tampered(*args):
            full, psi1, psi2 = real(*args)
            return full, psi1, squash(psi2)

        monkeypatch.setattr(maps, "_reattach_fn", tampered)
        with pytest.raises(pf.VerificationError,
                           match="not an epimorphism"):
            pf.pap_witness(phi1, phi2, FN)

    def test_jpp_fn_rejects_a_projection_that_is_not_onto(self,
                                                          monkeypatch):
        a1, a2 = pf.expand_constants(xy_member(), 1), doubled_seed()
        real = maps._jpp

        def tampered(s1, s2, family, *args):
            got = real(s1, s2, family, *args)
            if family != F:
                return got
            core, psi1, psi2 = got
            return core, squash(psi1), psi2

        monkeypatch.setattr(maps, "_jpp", tampered)
        with pytest.raises(pf.VerificationError,
                           match="not an epimorphism"):
            pf.jpp_witness(a1, a2, FN)

    def test_input_checks_fire_unchanged(self):
        seed, cover = fold_square()[0].domain, doubled_seed()
        inclusion = StructMap(seed, cover, {0: 0, 1: 1, 2: 4})
        with pytest.raises(ValueError,
                           match="^left map is not an epimorphism$"):
            pf.pap_witness(inclusion, pf.identity_map(cover), FN)
        bad = FinStructure(1, [0, 1], [{(0, 1), (1, 0), (1, 1)}],
                           constants=[1])
        with pytest.raises(ValueError, match="^left domain is not in Fn: "):
            pf.pap_witness(pf.identity_map(bad), pf.identity_map(bad), FN)
        with pytest.raises(ValueError,
                           match="^right structure is not in Fn: "):
            pf.jpp_witness(seed, bad, FN)
