from collections import Counter

import pytest

import profin as pf
from profin import FinStructure, StructMap, maps, structures, tower

from conftest import loopless_member, two_cycle, xy_member


def seed_fn(n: int = 1) -> FinStructure:
    return pf.expand_constants(xy_member(), n)


def doubled_target(n: int = 1) -> FinStructure:
    double, _ = pf.disjoint_union([xy_member(), xy_member()])
    return pf.expand_constants(double, n)


def fold_map(cover: FinStructure, base: FinStructure) -> StructMap:
    """Fold a doubled F-part onto the base, constants to constants."""
    k = len(base.vertices) - base.n
    mapping = {}
    for v in sorted(cover.vertices - set(cover.constants)):
        mapping[v] = v % k
    for j, c in enumerate(cover.constants):
        mapping[c] = base.constants[j]
    return StructMap(cover, base, mapping)


def assert_composites_are_epimorphisms(t) -> None:
    """Oracle for the composition argument that lets the tower check only
    its bonds: every composite of consecutive bonds is an epimorphism."""
    for hi in range(len(t.stages)):
        for lo in range(hi):
            assert pf.check_epimorphism(t.bond_composite(lo, hi)), (lo, hi)


class TestConstruction:
    def test_seed_must_be_in_fn(self):
        with pytest.raises(ValueError):
            pf.Tower.new(two_cycle())

    def test_valid_seed(self):
        t = pf.Tower.new(seed_fn())
        assert len(t.stages) == 1

    def test_expanded_seed_for_n1(self):
        t = pf.Tower.new(pf.expand_constants(xy_member(), 1))
        assert t.top.n == 1


class TestUniversality:
    def test_current_top_trivial(self):
        t = pf.Tower.new(seed_fn())
        assert t.discharge_universality(t.top)
        assert len(t.stages) == 2
        t.verify_integrity()

    def test_doubling_target(self):
        t = pf.Tower.new(seed_fn())
        assert t.discharge_universality(doubled_target())
        assert len(t.stages) == 2
        t.verify_integrity()

    def test_constants_preserved(self):
        t = pf.Tower.new(seed_fn())
        t.discharge_universality(doubled_target())
        bond = t.bonds[0]
        new, old = t.stages[1], t.stages[0]
        for j in range(old.n):
            assert bond.mapping[new.constants[j]] == old.constants[j]

    def test_target_must_be_in_family(self):
        t = pf.Tower.new(seed_fn())
        with pytest.raises(ValueError):
            t.discharge_universality(two_cycle())


class TestExtension:
    def test_identity_phi2_reduces_to_bond(self):
        t = pf.Tower.new(seed_fn())
        phi1 = pf.identity_map(t.top)
        rho = t.discharge_extension(phi2=pf.identity_map(t.top), phi1=phi1)
        assert rho is not None
        assert len(t.stages) == 2
        t.verify_integrity()

    def test_doubled_cover(self):
        t = pf.Tower.new(seed_fn())
        cover = doubled_target()
        phi2 = fold_map(cover, t.top)
        assert pf.check_epimorphism(phi2)
        phi1 = pf.identity_map(t.top)
        rho = t.discharge_extension(phi2=phi2, phi1=phi1)
        assert rho is not None
        beta = t.bonds[-1]
        assert pf.compose(phi2, rho) == pf.compose(phi1, beta)
        t.verify_integrity()

    def test_constant_components_stay_singleton(self):
        t = pf.Tower.new(seed_fn())
        cover = doubled_target()
        t.discharge_extension(phi2=fold_map(cover, t.top),
                              phi1=pf.identity_map(t.top))
        comp = pf.connected_components(t.top)
        for c in t.top.constants:
            assert comp.blocks[comp.block_of(c)] == frozenset({c})

    def test_phi1_domain_checked(self):
        t = pf.Tower.new(seed_fn())
        other = doubled_target()
        with pytest.raises(ValueError):
            t.discharge_extension(phi2=pf.identity_map(other),
                                  phi1=pf.identity_map(other))


class TestDeepSearch:
    def test_universality_on_a_top_above_a_thousand_vertices(self):
        # the map search used to recurse once per domain vertex and hit
        # Python's recursion limit on tops of this size
        t = pf.Tower.new(seed_fn(), stage_guard=1 << 16)
        phi2 = fold_map(doubled_target(), t.stages[0])
        for _ in range(10):
            assert t.discharge_extension(
                phi2=phi2, phi1=t.bond_composite(0)) is not None
        assert len(t.top.vertices) > 1000
        assert t.discharge_universality(doubled_target())
        assert t.discharged == 11


class TestCheckCounts:
    def count_checks(self, monkeypatch) -> Counter:
        counts: Counter = Counter()

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, wrapper)

        counted(structures, "_check_f")
        counted(maps, "check_epimorphism")
        counted(maps, "_verify_witness")
        monkeypatch.setattr(tower, "check_epimorphism",
                            maps.check_epimorphism)
        return counts

    def test_each_fold_extension_checks_once_per_claim(self, monkeypatch):
        # an extension checks its two input maps, the core's projections
        # (they decide existence) and the witness's, so six epimorphism
        # checks; the new stage is checked in F as the core and once in Fn
        t = pf.Tower.new(seed_fn(), stage_guard=1 << 16)
        phi2 = fold_map(doubled_target(), t.stages[0])
        counts = self.count_checks(monkeypatch)
        # the first extension also checks phi2's domain
        assert t.discharge_extension(phi2=phi2,
                                     phi1=t.bond_composite(0)) is not None
        counts.clear()
        for _ in range(9):
            assert t.discharge_extension(
                phi2=phi2, phi1=t.bond_composite(0)) is not None
        assert counts["_check_f"] <= 2 * 9
        assert counts["check_epimorphism"] <= 6 * 9
        assert counts["_verify_witness"] == 9
        counts.clear()
        assert t.discharge_universality(doubled_target())
        assert counts["_verify_witness"] == 1
        t.verify_integrity()


class TestThreads:
    def grown_tower(self):
        t = pf.Tower.new(seed_fn())
        t.discharge_universality(t.top)
        t.discharge_universality(doubled_target())
        return t

    def test_depth_zero_is_stage0(self):
        t = self.grown_tower()
        assert len(t.threads(0)) == len(t.stages[0].vertices)

    def test_thread_count_non_decreasing(self):
        t = self.grown_tower()
        counts = [len(t.threads(d)) for d in range(len(t.stages))]
        assert counts == sorted(counts)

    def test_constant_threads_equal_n(self):
        t = self.grown_tower()
        for d in range(len(t.stages)):
            assert t.constant_thread_count(d) == t.stages[0].n

    def test_depth_bound(self):
        t = self.grown_tower()
        with pytest.raises(ValueError):
            t.threads(len(t.stages))

    def test_threads_are_bond_compatible(self):
        t = self.grown_tower()
        for seq in t.threads(len(t.stages) - 1):
            for j in range(len(seq) - 1):
                assert t.bonds[j].mapping[seq[j + 1]] == seq[j]


class TestSchedulerAndGuard:
    def test_stage_guard_queues_task(self):
        t = pf.Tower.new(seed_fn(), stage_guard=4)
        ok = t.discharge_universality(doubled_target())
        assert not ok
        status = t.status()
        assert status.pending == 1 and status.partial

    def test_retry_after_growth(self):
        t = pf.Tower.new(seed_fn(), stage_guard=4)
        t.discharge_universality(doubled_target())
        assert t.pending
        t.stage_guard = 64
        done = t.retry_pending()
        assert done == 1 and not t.pending
        t.verify_integrity()

    def test_retry_doubles_cap(self):
        t = pf.Tower.new(seed_fn(), stage_guard=4)
        t.discharge_universality(doubled_target(), cap=7)
        cap_before = t.pending[0].cap
        t.retry_pending()
        if t.pending:
            assert t.pending[0].cap == cap_before * 2

    def test_retry_with_doubled_cap_discharges(self):
        # the jpp witness of xy and the loopless member is the F cover of
        # their product, 72 vertices: above the first cap of 3 * 5 * 4,
        # within the doubled one
        t = pf.Tower.new(seed_fn(), stage_guard=100)
        target = pf.expand_constants(loopless_member(), 1)
        assert not t.discharge_universality(target)
        assert t.pending[0].cap == 60
        assert t.retry_pending() == 1 and not t.pending
        assert t.status().sizes == [3, 73]
        t.verify_integrity()

    def test_status_reports_partial_honestly(self):
        t = pf.Tower.new(seed_fn(), stage_guard=3)
        t.discharge_universality(doubled_target())
        assert t.status().partial
        assert t.status().as_dict()["stages"] == 1


class TestScriptedRun:
    def test_six_task_run(self):
        t = pf.Tower.new(seed_fn())
        assert t.discharge_universality(t.top)
        assert t.discharge_universality(doubled_target())
        triple, _ = pf.disjoint_union([xy_member()] * 3)
        assert t.discharge_universality(pf.expand_constants(triple, 1))

        phi1 = pf.identity_map(t.top)
        assert t.discharge_extension(phi2=pf.identity_map(t.top),
                                     phi1=phi1) is not None
        base = t.stages[0]
        cover = doubled_target()
        phi2 = fold_map(cover, base)
        phi1 = t.bond_composite(0)
        assert t.discharge_extension(phi2=phi2, phi1=phi1) is not None
        phi1 = t.bond_composite(0)
        assert t.discharge_extension(phi2=phi2, phi1=phi1) is not None

        t.verify_integrity()
        assert_composites_are_epimorphisms(t)
        assert t.discharged == 6
        for d in range(len(t.stages)):
            assert t.constant_thread_count(d) == 1


class TestIntegrityCatchesTampering:
    def grown_tower(self):
        t = pf.Tower.new(seed_fn())
        assert t.discharge_universality(doubled_target())
        assert t.discharge_extension(phi2=fold_map(doubled_target(),
                                                   t.stages[0]),
                                     phi1=t.bond_composite(0)) is not None
        t.verify_integrity()
        return t

    def test_bond_changed_at_one_vertex(self):
        t = self.grown_tower()
        bond = t.bonds[1]
        # a non-constant vertex sent onto a constant, which sits in a
        # singleton component, breaks the edges at that vertex
        v = min(bond.domain.vertices - set(bond.domain.constants))
        mapping = dict(bond.mapping)
        mapping[v] = bond.codomain.constants[0]
        tampered = StructMap(bond.domain, bond.codomain, mapping)
        assert not pf.check_epimorphism(tampered)
        t.bonds[1] = tampered
        with pytest.raises(pf.VerificationError):
            t.verify_integrity()

    def test_stage_that_leaves_fn(self):
        t = self.grown_tower()
        old = t.stages[1]
        c = old.constants[0]
        fresh = FinStructure(old.m, old.vertices,
                             [rel - {(c, c)} for rel in old.relations],
                             constants=old.constants)
        assert not pf.in_family(fresh, pf.FN)
        t.stages[1] = fresh
        with pytest.raises(pf.VerificationError):
            t.verify_integrity()

    def test_stage_the_bonds_do_not_connect(self):
        t = self.grown_tower()
        other = doubled_target(2)
        assert pf.in_family(other, pf.FN)
        t.stages[1] = other
        with pytest.raises(pf.VerificationError):
            t.verify_integrity()
