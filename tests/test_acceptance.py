"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to see them)."""

import random
import time
from functools import reduce
from itertools import permutations, product as iproduct

import profin as pf
from profin import Labelling, StructMap
from profin.autgroup import conjugate, natural_action, regular_action
from profin.spirals import _cover_pair, richness_scan

from conftest import random_f0, two_cycle, xy_member

SWEEP_GROUPS = ("Z2", "Z3", "Z4", "S3")
_sweep_cache: dict = {}


def _report(num: int, label: str, ok: bool, extra: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{tag}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}"


def _spiral_sweep():
    """Shared sweep for criteria 1 and 2: 250 random labellings per
    configuration over p,r in 2..5, q in 1..4, four groups."""
    if _sweep_cache:
        return _sweep_cache
    rng = random.Random(20240812)
    groups = {name: pf.preset_group(name) for name in SWEEP_GROUPS}
    qp_ok = True
    telescope_ok = True
    runs = 0
    t0 = time.time()
    for p in range(2, 6):
        for q in range(1, 5):
            for r in range(2, 6):
                for T in groups.values():
                    sp = pf.make_spiral(p, q, r)
                    t = pf.exponent(T)
                    _, cover, _ = _cover_pair(t, p, q, r)
                    cov_verts = cover.structure.sorted_vertices()
                    dom = cover.structure
                    wrap_a = (cover.a(t * p), cover.a(1))
                    wrap_c = (cover.c(t * r), cover.c(1))
                    for _ in range(250):
                        lam = Labelling(
                            sp.structure.vertices, T, 1,
                            {v: rng.randrange(T.order)
                             for v in sp.structure.vertices})
                        x0 = rng.choice(cov_verts)
                        alpha = rng.randrange(T.order)
                        w = pf.spiral_qp_labelling(sp, lam, 0, T, x0, alpha)
                        runs += 1
                        if w.mu.component(x0, 0) != alpha:
                            qp_ok = False
                        if not (wrap_a in dom.relations[0]
                                and wrap_c in dom.relations[0]):
                            qp_ok = False
                        if not pf.verify_qp(w).ok:
                            qp_ok = False
                        # independent telescoping identities
                        full = reduce(
                            T.op, [lam.component(sp.a(i), 0)
                                   for i in range(1, p + 1)])
                        power = 0
                        for _ in range(t):
                            power = T.op(power, full)
                        if power != 0:
                            telescope_ok = False
                        lhs = T.op(T.inv(w.mu.component(cover.a(t * p), 0)),
                                   w.mu.component(cover.a(1), 0))
                        if lhs != lam.component(sp.a(1), 0):
                            telescope_ok = False
    _sweep_cache.update(qp_ok=qp_ok, telescope_ok=telescope_ok,
                        runs=runs, elapsed=time.time() - t0)
    return _sweep_cache


def test_criterion_1_spiral_qp_suite():
    res = _spiral_sweep()
    ok = res["qp_ok"] and res["elapsed"] < 30.0
    _report(1, "spiral QP suite", ok,
            f"{res['runs']} labellings in {res['elapsed']:.1f}s")


def test_criterion_2_lagrange_telescoping():
    res = _spiral_sweep()
    _report(2, "Lagrange telescoping", res["telescope_ok"],
            f"{res['runs']} checks")


def test_criterion_3_surjective_qp_cover():
    rng = random.Random(20240813)
    groups = [pf.preset_group("Z2"), pf.preset_group("S3")]
    ok = True
    t0 = time.time()
    for k in range(200):
        a = random_f0(rng, max_size=6)
        t_group = groups[k % 2]
        lam = Labelling(a.vertices, t_group, a.m,
                        {v: tuple(rng.randrange(t_group.order)
                                  for _ in range(a.m))
                         for v in a.vertices})
        w = pf.surj_qp_cover(a, lam, t_group)
        if not (pf.verify_qp(w).ok
                and pf.check_epimorphism(w.phi)
                and pf.in_family(w.phi.domain, pf.F0).ok
                and richness_scan(w)):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report(3, "surjective QP cover", ok, f"200 covers in {elapsed:.1f}s")


def test_criterion_4_epimorphism_solver_oracle():
    rng = random.Random(20240814)
    agree = True
    for _ in range(100):
        a = random_f0(rng, max_size=5, m=1)
        b = random_f0(rng, max_size=4, m=1)
        fast = pf.find_epimorphism(a, b) is not None
        slow = False
        dom = a.sorted_vertices()
        for images in iproduct(b.sorted_vertices(), repeat=len(dom)):
            phi = StructMap(a, b, dict(zip(dom, images)))
            if pf.check_epimorphism(phi):
                slow = True
                break
        if fast != slow:
            agree = False
    _report(4, "epimorphism solver oracle equivalence", agree,
            "100 instances")


def test_criterion_5_family_predicates():
    ok = pf.in_family(xy_member(), pf.F).ok
    ok = ok and pf.in_family(two_cycle(), pf.F0).ok
    ok = ok and not pf.in_family(two_cycle(), pf.F).ok

    stock = [xy_member(), pf.disjoint_union([xy_member(), xy_member()])[0],
             pf.disjoint_union([xy_member()] * 3)[0]]
    for member in stock:
        for k in (1, 2, 3):
            ok = ok and pf.in_family(pf.expand_constants(member, k),
                                     pf.FN).ok

    rng = random.Random(20240815)
    for _ in range(100):
        m = rng.randint(1, 2)
        parts = [random_f0(rng, max_size=4, m=m)
                 for _ in range(rng.randint(2, 3))]
        union, _ = pf.disjoint_union(parts)
        for fam in (pf.F0, pf.F):
            whole = pf.in_family(union, fam).ok
            each = all(pf.in_family(p, fam).ok for p in parts)
            if whole != each:
                ok = False
    _report(5, "family predicates", ok,
            "examples + 100 component-locality unions")


def _transconj_instances():
    """At least 50 instances spanning Z2, Z3, S3 and carriers of size 2, 3.

    Shapes keep |X| <= 8 wherever the group exponent allows; the S3
    instances need |X| = 12 (a faithful action needs 3 points and the
    winding length is exponent * p), checked exhaustively all the same.
    """
    rng = random.Random(20240816)
    z2, z3, s3 = (pf.preset_group(n) for n in ("Z2", "Z3", "S3"))
    flip2 = ((0, 1), (1, 0))
    flip3 = ((0, 1, 2), (1, 0, 2))
    rot3 = regular_action(z3)
    act_s3 = natural_action(s3)
    configs = []
    for p, q, r, ell in [(2, 1, 2, 1), (2, 1, 2, 2), (2, 2, 2, 1),
                         (2, 1, 4, 1), (3, 1, 3, 1), (4, 1, 4, 1),
                         (2, 3, 2, 1)]:
        configs.append((z2, flip2, 2, p, q, r, ell))
    for p, q, r, ell in [(2, 1, 2, 1), (2, 1, 2, 2), (2, 2, 2, 1)]:
        configs.append((z2, flip3, 3, p, q, r, ell))
    for p, q, r, ell in [(2, 1, 2, 1), (2, 2, 2, 1)]:
        configs.append((z3, rot3, 3, p, q, r, ell))
    configs.append((s3, act_s3, 3, 2, 1, 2, 1))
    out = []
    for group, action, a_size, p, q, r, ell in configs:
        sp = pf.make_spiral(p, q, r)
        path = sp.path_vertices()
        for _ in range(4):
            base = [rng.randrange(group.order) for _ in range(p)]
            values = {v: base[idx % p] for idx, v in enumerate(path)}
            lam = Labelling(sp.structure.vertices, group, 1, values)
            alpha = rng.randrange(group.order)
            out.append(pf.cycle_cover_instance(p, q, r, group, action,
                                               a_size, lam, ell=ell,
                                               alpha=alpha))
    return out


def test_criterion_6_translate_to_conjugate():
    t0 = time.time()
    instances = _transconj_instances()
    assert len(instances) >= 50
    ok = True
    for inst in instances:
        c = pf.qp_conjugator(inst)
        for i in range(inst.m):
            hb = pf.Hbar(inst.space, inst.a_size, inst.h[i])
            lhs = pf.ProductAut([inst.kernel[i], hb])
            if not pf.elements_equal(lhs, conjugate(hb, c), inst.space,
                                     inst.a_size):
                ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60.0
    _report(6, "translate-to-conjugate", ok,
            f"{len(instances)} instances in {elapsed:.1f}s")


def test_criterion_7_semidirect_identities():
    rng = random.Random(20240817)
    ok = True
    t0 = time.time()
    for k in range(500):
        points = rng.randint(2, 4)
        a_size = rng.randint(2, 3)
        if k % 5 == 0 and points > 2:
            marked, pins = (points - 1,), (rng.randrange(a_size),)
        else:
            marked, pins = (), ()
        space = pf.BooleanPowerSpace(points, marked, pins)
        free = list(space.free_points())

        def rand_perm(n):
            p = list(range(n))
            rng.shuffle(p)
            return tuple(p)

        img = free[:]
        rng.shuffle(img)
        h = list(range(points))
        for x, y in zip(free, img):
            h[x] = y
        h = tuple(h)
        values = {x: rand_perm(a_size) for x in free}
        hb = pf.Hbar(space, a_size, h)
        moved = {h[x]: v for x, v in values.items()}
        if hb * pf.Khat(space, a_size, values) * hb.inverse() != \
                pf.Khat(space, a_size, moved):
            ok = False
        # embedding laws
        from profin.groups import compose_perms
        h2 = list(range(points))
        img2 = free[:]
        rng.shuffle(img2)
        for x, y in zip(free, img2):
            h2[x] = y
        h2 = tuple(h2)
        lhs = pf.ProductAut([pf.Hbar(space, a_size, h),
                             pf.Hbar(space, a_size, h2)])
        rhs = pf.Hbar(space, a_size, compose_perms(h, h2))
        if not pf.elements_equal(lhs, rhs, space, a_size):
            ok = False
        values2 = {x: rand_perm(a_size) for x in free}
        lhs = pf.ProductAut([pf.Khat(space, a_size, values),
                             pf.Khat(space, a_size, values2)])
        rhs = pf.Khat(space, a_size,
                      {x: compose_perms(values[x], values2[x])
                       for x in free})
        if not pf.elements_equal(lhs, rhs, space, a_size):
            ok = False
        # pin preservation
        if marked:
            table = pf.function_space(space, a_size)
            out = pf.Khat(space, a_size, values).act(
                pf.Hbar(space, a_size, h).act(table))
            if {row[marked[0]] for row in out} != {pins[0]}:
                ok = False
    # K-H intersection probe at small sizes
    space = pf.BooleanPowerSpace(3)
    table = pf.function_space(space, 2)
    for h in permutations(range(3)):
        for bits in range(8):
            values = {x: ((1, 0) if bits >> x & 1 else (0, 1))
                      for x in range(3)}
            same = (pf.Hbar(space, 2, h).act(table)
                    == pf.Khat(space, 2, values).act(table))
            if same and (h != (0, 1, 2) or bits != 0):
                ok = False
    elapsed = time.time() - t0
    _report(7, "semidirect identities", ok,
            f"500 instances in {elapsed:.1f}s")


def test_criterion_8_filtered_power_closure():
    ok = True
    for name in ("Z3", "Z4", "2elt-semilattice"):
        a = pf.preset_algebra(name)
        for e in range(a.size):
            if pf.is_idempotent(a, e):
                space = pf.BooleanPowerSpace(2, marked=(0,), pins=(e,))
                power = pf.filtered_boolean_power(a, space)
                if power.size != a.size ** 1:
                    ok = False
                if pf.pin_closure_violation(a, e) is not None:
                    ok = False
            else:
                viol = pf.pin_closure_violation(a, e)
                if viol is None:
                    ok = False
                else:
                    op, args, got = viol
                    if a.apply(op, args) != got or got == e:
                        ok = False
                try:
                    pf.filtered_boolean_power(
                        a, pf.BooleanPowerSpace(2, marked=(0,), pins=(e,)))
                    ok = False
                except ValueError:
                    pass
    _report(8, "filtered power closure", ok,
            "Z3, Z4, 2elt-semilattice, all pins")


def test_criterion_9_tower_integrity():
    t0 = time.time()
    xy = xy_member()
    seed = pf.expand_constants(xy, 1)
    double, _ = pf.disjoint_union([xy, xy])
    triple, _ = pf.disjoint_union([xy] * 3)
    target2 = pf.expand_constants(double, 1)
    target3 = pf.expand_constants(triple, 1)

    tower = pf.Tower.new(seed)
    ok = tower.discharge_universality(seed)
    ok = ok and tower.discharge_universality(target2)
    ok = ok and tower.discharge_universality(target3)

    fold = {v: v % 2 for v in double.vertices}
    fold[target2.constants[0]] = seed.constants[0]
    phi2 = StructMap(target2, seed, fold)
    for _ in range(3):
        phi1 = tower.bond_composite(0)
        ok = ok and tower.discharge_extension(phi2=phi2,
                                              phi1=phi1) is not None

    try:
        tower.verify_integrity()
    except pf.VerificationError:
        ok = False
    for stage in tower.stages:
        if not pf.in_family(stage, pf.FN).ok:
            ok = False
    for hi in range(len(tower.stages)):
        for lo in range(hi):
            if not pf.check_epimorphism(tower.bond_composite(lo, hi)):
                ok = False
    for depth in range(len(tower.stages)):
        if tower.constant_thread_count(depth) != 1:
            ok = False
    elapsed = time.time() - t0
    ok = ok and tower.discharged == 6 and elapsed < 120.0
    _report(9, "tower integrity", ok,
            f"6 tasks, {len(tower.stages)} stages in {elapsed:.1f}s")


def test_criterion_10_simplicity_and_malcev():
    z3 = pf.preset_algebra("Z3")
    z4 = pf.preset_algebra("Z4")
    sl = pf.preset_algebra("2elt-semilattice")
    ok = pf.is_simple(z3)
    ok = ok and not pf.is_simple(z4)
    ok = ok and pf.Partition([{0, 2}, {1, 3}]) in pf.congruence_lattice(z4)
    table = pf.malcev_term_exists(z3)
    expected = tuple((x - y + z) % 3 for x in range(3) for y in range(3)
                     for z in range(3))
    ok = ok and table == expected
    ok = ok and pf.malcev_term_exists(sl) is None
    _report(10, "simplicity and Mal'cev oracles", ok)
