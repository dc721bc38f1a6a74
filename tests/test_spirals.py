import random

import pytest

import profin as pf
from profin import CapExhausted, FinStructure, Labelling
from profin.spirals import (_SPIRAL_CAP, QPWitness, mu_values_in_subgroup,
                            richness_scan)

from conftest import loop_structure, random_f0, two_cycle


def z2():
    return pf.preset_group("Z2")


def worked_labelling(sp):
    """The hand-checked labelling: a1 -> 1, a2 -> 0, c2 -> 1 over Z2."""
    return Labelling(sp.structure.vertices, z2(), 1,
                     {sp.a(1): 1, sp.a(2): 0, sp.c(2): 1})


class TestSpiralShape:
    def test_s212(self):
        sp = pf.make_spiral(2, 1, 2)
        assert len(sp.structure.vertices) == 3
        assert len(sp.structure.relations[0]) == 4

    def test_s222(self):
        assert len(pf.make_spiral(2, 2, 2).structure.vertices) == 4

    @pytest.mark.parametrize("p,q,r", [(2, 1, 2), (3, 1, 2), (4, 3, 5)])
    def test_vertex_count_formula(self, p, q, r):
        assert len(pf.make_spiral(p, q, r).structure.vertices) == p + q + r - 2

    def test_s312_in_f0(self):
        assert pf.in_family(pf.make_spiral(3, 1, 2).structure, pf.F0).ok

    def test_identifications(self):
        sp = pf.make_spiral(3, 2, 4)
        assert sp.b(1) == sp.a(3)
        assert sp.c(1) == sp.b(2)

    def test_parameter_validation(self):
        for bad in [(1, 1, 2), (2, 0, 2), (2, 1, 1)]:
            with pytest.raises(ValueError):
                pf.make_spiral(*bad)

    def test_cap_refused_before_building(self):
        p = 10 ** 12
        with pytest.raises(CapExhausted) as info:
            pf.make_spiral(p, 1, 2)
        assert info.value.stats == {"needed": p + 1}
        assert info.value.budget == _SPIRAL_CAP

    def test_cap_bounds_the_winding_cover(self):
        t = _SPIRAL_CAP
        with pytest.raises(CapExhausted) as info:
            pf.spiral_cover_map(t, 2, 1, 2)
        assert info.value.stats == {"needed": 4 * t - 1}

    def test_wrap_edges_present(self):
        sp = pf.make_spiral(3, 2, 4)
        rel = sp.structure.relations[0]
        assert (sp.a(3), sp.a(1)) in rel
        assert (sp.c(4), sp.c(1)) in rel


class TestCoverMap:
    def test_t1_identity(self):
        phi = pf.spiral_cover_map(1, 3, 2, 4)
        assert all(v == w for v, w in phi.mapping.items())

    def test_winding_values(self):
        phi = pf.spiral_cover_map(2, 2, 1, 2)
        big, small = pf.make_spiral(4, 1, 4), pf.make_spiral(2, 1, 2)
        assert phi.mapping[big.a(3)] == small.a(1)
        assert phi.mapping[big.a(4)] == small.a(2)
        assert phi.mapping[big.c(3)] == small.c(1)
        assert phi.mapping[big.c(4)] == small.c(2)

    def test_always_epimorphism_sweep(self):
        for p in range(2, 7):
            for q in range(1, 7):
                for r in range(2, 7):
                    for t in range(1, 7):
                        assert pf.check_epimorphism(
                            pf.spiral_cover_map(t, p, q, r))


class TestSpiralQP:
    def test_trivial_group(self):
        sp = pf.make_spiral(2, 1, 2)
        triv = pf.preset_group("Z1")
        lam = Labelling(sp.structure.vertices, triv, 1,
                        {v: 0 for v in sp.structure.vertices})
        w = pf.spiral_qp_labelling(sp, lam, 0, triv, 0, 0)
        assert pf.verify_qp(w).ok
        assert all(v == (0,) for v in w.mu.values.values())

    def test_worked_example_frozen(self):
        sp = pf.make_spiral(2, 1, 2)
        cover = pf.make_spiral(4, 1, 4)
        w = pf.spiral_qp_labelling(sp, worked_labelling(sp), 0, z2(),
                                   cover.a(1), 0)
        assert [w.mu.component(cover.a(i), 0) for i in (1, 2, 3, 4)] == \
            [0, 0, 1, 1]
        assert [w.mu.component(cover.c(i), 0) for i in (2, 3, 4)] == \
            [0, 0, 1]
        assert pf.verify_qp(w).ok
        t = z2()
        mu = w.mu
        assert t.op(t.inv(mu.component(cover.a(4), 0)),
                    mu.component(cover.a(1), 0)) == 1
        assert t.op(t.inv(mu.component(cover.c(4), 0)),
                    mu.component(cover.c(1), 0)) == 0

    def test_shifted_seed(self):
        sp = pf.make_spiral(2, 1, 2)
        cover = pf.make_spiral(4, 1, 4)
        base = pf.spiral_qp_labelling(sp, worked_labelling(sp), 0, z2(),
                                      cover.a(1), 0)
        shifted = pf.spiral_qp_labelling(sp, worked_labelling(sp), 0, z2(),
                                         cover.a(1), 1)
        assert pf.verify_qp(shifted).ok
        for v in cover.structure.vertices:
            assert shifted.mu.component(v, 0) == z2().op(
                1, base.mu.component(v, 0))

    def test_seed_respected_anywhere(self, rng):
        t = pf.preset_group("S3")
        for _ in range(12):
            p, q, r = rng.randint(2, 6), rng.randint(1, 6), rng.randint(2, 6)
            sp = pf.make_spiral(p, q, r)
            lam = Labelling(sp.structure.vertices, t, 1,
                            {v: rng.randrange(6)
                             for v in sp.structure.vertices})
            cover = pf.make_spiral(6 * p, q, 6 * r)
            x0 = rng.choice(cover.structure.sorted_vertices())
            alpha = rng.randrange(6)
            w = pf.spiral_qp_labelling(sp, lam, 0, t, x0, alpha)
            assert w.mu.component(x0, 0) == alpha
            assert pf.verify_qp(w).ok

    def test_mu_in_label_subgroup_for_identity_seed(self):
        sp = pf.make_spiral(2, 1, 2)
        z4 = pf.preset_group("Z4")
        lam = Labelling(sp.structure.vertices, z4, 1,
                        {sp.a(1): 2, sp.a(2): 0, sp.c(2): 2})
        cover = pf.make_spiral(8, 1, 8)
        w = pf.spiral_qp_labelling(sp, lam, 0, z4, cover.a(1), 0)
        assert mu_values_in_subgroup(w)
        assert all(v[0] in (0, 2) for v in w.mu.values.values())


class TestVerifyQP:
    def test_empty_relations_vacuous(self):
        dom = FinStructure(1, [0], [set()])
        cod = FinStructure(1, [0], [set()])
        t = z2()
        w = QPWitness(pf.StructMap(dom, cod, {0: 0}),
                      Labelling([0], t, 1, {0: 0}),
                      Labelling([0], t, 1, {0: 1}))
        assert pf.verify_qp(w).ok

    def test_perturbation_names_edge(self):
        sp = pf.make_spiral(2, 1, 2)
        cover = pf.make_spiral(4, 1, 4)
        w = pf.spiral_qp_labelling(sp, worked_labelling(sp), 0, z2(),
                                   cover.a(1), 0)
        vals = {v: w.mu.values[v] for v in w.mu.carrier}
        vals[cover.a(2)] = (1 - vals[cover.a(2)][0],)
        bad = QPWitness(w.phi, w.lam,
                        Labelling(w.mu.carrier, z2(), 1, vals))
        rep = pf.verify_qp(bad)
        assert not rep.ok
        assert rep.edge is not None and cover.a(2) in rep.edge

    def test_width_mismatch_raises(self):
        sp = pf.make_spiral(2, 1, 2).structure
        t = z2()
        w = QPWitness(pf.identity_map(sp),
                      Labelling(sp.vertices, t, 2,
                                {v: (0, 0) for v in sp.vertices}),
                      Labelling(sp.vertices, t, 1,
                                {v: 0 for v in sp.vertices}))
        with pytest.raises(ValueError):
            pf.verify_qp(w)


class TestSurjQPCover:
    def test_loop_trivial_group(self):
        triv = pf.preset_group("Z1")
        s = loop_structure()
        lam = Labelling(s.vertices, triv, 1, {0: 0})
        w = pf.surj_qp_cover(s, lam, triv)
        assert len(w.phi.domain.vertices) == 1
        assert pf.verify_qp(w).ok

    def test_s212_z2_full_checks(self):
        s = pf.make_spiral(2, 1, 2).structure
        t = z2()
        lam = Labelling(s.vertices, t, 1, {v: v % 2 for v in s.vertices})
        w = pf.surj_qp_cover(s, lam, t)
        assert pf.verify_qp(w).ok
        assert pf.check_epimorphism(w.phi)
        assert pf.in_family(w.phi.domain, pf.F0).ok
        assert richness_scan(w)

    def test_lam_over_another_group_rejected(self):
        s = two_cycle()
        lam = Labelling(s.vertices, z2(), 1, {0: 1, 1: 0})
        with pytest.raises(ValueError, match="t_group"):
            pf.surj_qp_cover(s, lam, pf.preset_group("Z3"))

    def test_m2_loop_augmentation(self):
        t = z2()
        s = FinStructure(2, [0], [{(0, 0)}, {(0, 0)}])
        lam = Labelling(s.vertices, t, 2, {0: (1, 1)})
        w = pf.surj_qp_cover(s, lam, t)
        b = w.phi.domain
        assert pf.in_family(b, pf.F0).ok
        assert pf.verify_qp(w).ok
        assert pf.check_epimorphism(w.phi)

    def test_left_shift_invariance(self, rng):
        s = two_cycle()
        t = pf.preset_group("S3")
        lam = Labelling(s.vertices, t, 1,
                        {v: rng.randrange(6) for v in s.vertices})
        w = pf.surj_qp_cover(s, lam, t)
        for g in range(t.order):
            shifted = QPWitness(w.phi, w.lam, w.mu.shifted(g))
            assert pf.verify_qp(shifted).ok

    def test_rejects_non_f0(self):
        s = FinStructure(1, [0, 1], [{(0, 1)}])
        t = z2()
        lam = Labelling(s.vertices, t, 1, {0: 0, 1: 0})
        with pytest.raises(ValueError):
            pf.surj_qp_cover(s, lam, t)

    def test_mu_in_extended_subgroup(self, rng):
        s = two_cycle()
        z4 = pf.preset_group("Z4")
        lam = Labelling(s.vertices, z4, 1, {0: 2, 1: 0})
        w = pf.surj_qp_cover(s, lam, z4)
        assert mu_values_in_subgroup(w, extra=tuple(range(4)))


class TestDerivedCoverOracle:
    """surj_qp_cover against the derived graph read off the group table,
    on seeded random F0 structures with m <= 2."""

    GROUPS = ("Z2", "Z3", "S3", "Z4", "A4")

    def cases(self):
        rng = random.Random(38)
        for k in range(100):
            t = pf.preset_group(self.GROUPS[k % len(self.GROUPS)])
            a = random_f0(rng, max_size=5, m=rng.randint(1, 2))
            lam = Labelling(a.vertices, t, a.m,
                            {v: tuple(rng.randrange(t.order)
                                      for _ in range(a.m))
                             for v in a.vertices})
            yield a, lam, t

    def test_checks_sizes_and_lifts(self):
        for a, lam, t in self.cases():
            w = pf.surj_qp_cover(a, lam, t)
            cover, phi, mu = w.phi.domain, w.phi.mapping, w.mu
            assert pf.verify_qp(w).ok
            assert pf.check_epimorphism(w.phi)
            assert pf.in_family(cover, pf.F0).ok
            assert richness_scan(w)
            assert len(cover.vertices) == len(a.vertices) * t.order
            lift = {(phi[v], mu.component(v, 0)): v for v in cover.vertices}
            assert len(lift) == len(cover.vertices)
            for i in range(a.m):
                assert len(cover.relations[i]) == \
                    t.order * len(a.relations[i])
                for x, y in a.relations[i]:
                    for g in range(t.order):
                        h = t.table[g][lam.component(y, i)]
                        assert (lift[(x, g)], lift[(y, h)]) in \
                            cover.relations[i]

    def test_richness_fails_without_one_pair(self):
        for a, lam, t in self.cases():
            w = pf.surj_qp_cover(a, lam, t)
            cover = w.phi.domain
            gone = min(cover.vertices)
            keep = cover.vertices - {gone}
            sub = FinStructure(cover.m, keep,
                               [{(x, y) for x, y in rel
                                 if gone not in (x, y)}
                                for rel in cover.relations])
            cut = QPWitness(
                pf.StructMap(sub, a, {v: w.phi.mapping[v] for v in keep}),
                w.lam,
                Labelling(keep, t, 1, {v: w.mu.values[v] for v in keep}))
            assert not richness_scan(cut)
