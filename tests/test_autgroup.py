import os
import random
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

import profin as pf
from profin import (BooleanPowerSpace, CapExhausted, Labelling, ProductAut,
                    VerificationError)
from profin.algebra import ALGEBRA_PRESETS, is_idempotent
from profin.autgroup import (block_quotient, conjugate,
                             conjugator_values_in_stabiliser,
                             function_space, natural_action,
                             preserves_filtered_operations)
from profin.groups import compose_perms, invert_perm
from profin.spirals import QPWitness, mu_values_in_subgroup


def space(points, marked=(), pins=()):
    return BooleanPowerSpace(points, marked, pins)


def rand_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def rand_fixing_perm(rng, sp):
    free = list(sp.free_points())
    img = free[:]
    rng.shuffle(img)
    p = list(range(sp.points))
    for x, y in zip(free, img):
        p[x] = y
    return tuple(p)


def rand_kernel(rng, sp, a_size):
    return {x: rand_perm(rng, a_size) for x in sp.free_points()}


def inverse_factors(sp, a_size, factors):
    """Factor list of the inverse, each primitive inverted directly."""
    out = []
    for f in reversed(factors):
        if f.perm != tuple(range(sp.points)):
            out.append(pf.Hbar(sp, a_size, invert_perm(f.perm)))
        else:
            out.append(pf.Khat(sp, a_size, {x: invert_perm(p)
                                            for x, p in f.values.items()}))
    return out


def evaluate(factors, sp, a_size):
    """Oracle: apply the primitive factors one at a time, rightmost first,
    to every function of D."""
    table = function_space(sp, a_size)
    for f in reversed(factors):
        table = f.act(table)
    return table


def evaluated_equal(fs1, fs2, sp, a_size):
    """Oracle: the two factor lists agree on every function of D."""
    return evaluate(fs1, sp, a_size) == evaluate(fs2, sp, a_size)


def rand_space(rng):
    """1-5 points, |A| = 1-3; unpinned, some points pinned, or all."""
    points, a_size = rng.randint(1, 5), rng.randint(1, 3)
    roll = rng.random()
    if roll < 0.5:
        marked = ()
    elif roll < 0.85 and points > 1:
        marked = tuple(sorted(rng.sample(range(points),
                                         rng.randint(1, points - 1))))
    else:
        marked = tuple(range(points))
    pins = tuple(rng.randrange(a_size) for _ in marked)
    return space(points, marked, pins), a_size


def rand_element(rng, sp, a_size, depth=2):
    """Random product of shuffles, kernels, inverses, conjugates and
    nested products, built with the operations under test, together with
    its list of primitive factors (shuffles and kernels)."""
    elems, factors = [], []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random() if depth else rng.random() * 0.6
        if roll < 0.3:
            f = pf.Hbar(sp, a_size, rand_fixing_perm(rng, sp))
            fs = [f]
        elif roll < 0.6:
            f = pf.Khat(sp, a_size, rand_kernel(rng, sp, a_size))
            fs = [f]
        elif roll < 0.75:
            g, gs = rand_element(rng, sp, a_size, depth - 1)
            f, fs = g.inverse(), inverse_factors(sp, a_size, gs)
        elif roll < 0.9:
            g, gs = rand_element(rng, sp, a_size, depth - 1)
            c, cs = rand_element(rng, sp, a_size, depth - 1)
            f = conjugate(g, c)
            fs = inverse_factors(sp, a_size, cs) + gs + cs
        else:
            f, fs = rand_element(rng, sp, a_size, depth - 1)
        elems.append(f)
        factors.extend(fs)
    return ProductAut(elems), factors


def same_element(rng, g, gs, sp, a_size):
    """Another expression of g, with its factors: cancelling pairs, double
    conjugation, double inverse or regrouping."""
    h, hs = rand_element(rng, sp, a_size, 1)
    hinv = inverse_factors(sp, a_size, hs)
    roll = rng.randrange(5)
    if roll == 0:
        return ProductAut([g, h, h.inverse()]), gs + hs + hinv
    if roll == 1:
        return ProductAut([h.inverse(), h, g]), hinv + hs + gs
    if roll == 2:
        return (conjugate(conjugate(g, h), h.inverse()),
                hs + hinv + gs + hs + hinv)
    if roll == 3:
        return g.inverse().inverse(), gs
    cut = rng.randint(1, len(gs))
    return ProductAut([ProductAut(gs[:cut])] + gs[cut:]), gs


def one_kernel_value_off(sp, a_size, x):
    """Kernel that swaps two elements of A at point x only."""
    ident = tuple(range(a_size))
    swap = (1, 0) + ident[2:]
    return pf.Khat(sp, a_size, {y: swap if y == x else ident
                                for y in sp.free_points()})


def one_transposition(sp, x, y):
    p = list(range(sp.points))
    p[x], p[y] = y, x
    return tuple(p)


def preserves_by_evaluation(factors, a, sp):
    """Oracle: the product of the factors permutes D and commutes with
    every operation of the power on every tuple of arguments from D."""
    table = function_space(sp, a.size)
    image = evaluate(factors, sp, a.size)
    rows = {row: k for k, row in enumerate(table)}
    perm = [rows[row] for row in image]
    if sorted(perm) != list(range(len(table))):
        return False
    for j, (arity, _) in enumerate(a.ops):
        for args in product(range(len(table)), repeat=arity):
            fx = tuple(a.apply(j, tuple(table[k][x] for k in args))
                       for x in range(sp.points))
            gx = tuple(a.apply(j, tuple(image[k][x] for k in args))
                       for x in range(sp.points))
            if perm[rows[fx]] != rows[gx]:
                return False
    return True


class TestFunctionSpace:
    def test_counts_and_pins(self):
        sp = space(3, marked=(1,), pins=(2,))
        table = function_space(sp, 3)
        assert len(table) == 9 and {len(row) for row in table} == {3}
        assert {row[1] for row in table} == {2}
        assert len(set(table)) == 9
        assert list(table) == sorted(table)

    def test_cap_instead_of_allocation(self):
        with pytest.raises(CapExhausted) as exc:
            function_space(space(24), 3)
        assert exc.value.stats == {"rows": 3 ** 24}

    def test_import_does_not_load_numpy(self):
        # the package is stdlib-only: importing it loads no top-level
        # module outside the standard library but profin itself (modules
        # the interpreter loaded at start-up are not counted)
        src = str(Path(pf.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "before = set(sys.modules)\n"
             "import profin\n"
             "top = {n.partition('.')[0] for n in set(sys.modules) - before}\n"
             "print(sorted(top - set(sys.stdlib_module_names) - {'profin'}))"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True,
            text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestNormalFormAgainstEvaluation:
    def test_elements_equal_on_random_pairs(self):
        rng = random.Random(4401)
        equal = unequal = 0
        for _ in range(600):
            sp, a_size = rand_space(rng)
            g, gs = rand_element(rng, sp, a_size)
            other, others = (same_element(rng, g, gs, sp, a_size)
                             if rng.random() < 0.6
                             else rand_element(rng, sp, a_size))
            want = evaluated_equal(gs, others, sp, a_size)
            assert pf.elements_equal(g, other, sp, a_size) == want
            equal += want
            unequal += not want
        assert equal > 300 and unequal > 100

    def test_element_acts_as_its_factors(self):
        rng = random.Random(4407)
        for _ in range(300):
            sp, a_size = rand_space(rng)
            g, gs = rand_element(rng, sp, a_size)
            if rng.random() < 0.5:
                g, gs = same_element(rng, g, gs, sp, a_size)
            want = evaluate(gs, sp, a_size)
            table = function_space(sp, a_size)
            assert g.act(table) == want
            assert ProductAut(gs).act(table) == want

    def test_single_function_spaces_are_all_equal(self):
        rng = random.Random(4402)
        for sp, a_size in [(space(3), 1), (space(2, (0, 1), (1, 0)), 2),
                           (space(4, (1,), (0,)), 1)]:
            for _ in range(10):
                g, gs = rand_element(rng, sp, a_size)
                h, hs = rand_element(rng, sp, a_size)
                assert evaluated_equal(gs, hs, sp, a_size)
                assert pf.elements_equal(g, h, sp, a_size)

    def test_one_kernel_value_apart(self):
        rng = random.Random(4403)
        for _ in range(200):
            sp, a_size = rand_space(rng)
            free = sp.free_points()
            if a_size < 2 or not free:
                continue
            g, gs = rand_element(rng, sp, a_size)
            k = one_kernel_value_off(sp, a_size, rng.choice(free))
            for off, offs in ((ProductAut([g, k]), gs + [k]),
                              (ProductAut([k, g]), [k] + gs)):
                assert not evaluated_equal(gs, offs, sp, a_size)
                assert not pf.elements_equal(g, off, sp, a_size)

    def test_one_shuffle_transposition_apart(self):
        rng = random.Random(4404)
        for _ in range(200):
            sp, a_size = rand_space(rng)
            free = sp.free_points()
            if a_size < 2 or len(free) < 2:
                continue
            g, gs = rand_element(rng, sp, a_size)
            t = pf.Hbar(sp, a_size, one_transposition(sp, *rng.sample(
                free, 2)))
            for off, offs in ((ProductAut([g, t]), gs + [t]),
                              (ProductAut([t, g]), [t] + gs)):
                assert not evaluated_equal(gs, offs, sp, a_size)
                assert not pf.elements_equal(g, off, sp, a_size)

    def test_decompose_matches_evaluation(self):
        rng = random.Random(4405)
        for _ in range(300):
            sp, a_size = rand_space(rng)
            g, gs = rand_element(rng, sp, a_size)
            k_part = pf.Khat(sp, a_size, g.values)
            d_part = pf.Hbar(sp, a_size, g.perm)
            assert evaluated_equal(gs, [d_part, k_part], sp, a_size)

    @pytest.mark.parametrize("preset", ALGEBRA_PRESETS)
    def test_preserves_filtered_operations(self, preset):
        rng = random.Random(4406)
        a = pf.preset_algebra(preset)
        autos = pf.automorphisms(a).perms
        idem = [e for e in range(a.size) if is_idempotent(a, e)]
        free = 1 if a.size > 4 else 2
        found = set()
        for _ in range(40):
            if rng.random() < 0.5:
                sp = space(free + 1, (free,), (rng.choice(idem),))
            else:
                sp = space(free)
            factors = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.4:
                    factors.append(pf.Hbar(sp, a.size,
                                           rand_fixing_perm(rng, sp)))
                else:
                    factors.append(pf.Khat(sp, a.size, {
                        x: (rng.choice(autos) if rng.random() < 0.7
                            else rand_perm(rng, a.size))
                        for x in sp.free_points()}))
            g = ProductAut(factors)
            if rng.random() < 0.3:
                g = g.inverse()
                factors = inverse_factors(sp, a.size, factors)
            want = preserves_by_evaluation(factors, a, sp)
            assert preserves_filtered_operations(g, a, sp) == want
            found.add(want)
        assert found == {True, False}


class TestHbar:
    def test_identity(self):
        sp = space(3)
        table = function_space(sp, 2)
        h = pf.Hbar(sp, 2, (0, 1, 2))
        assert h.act(table) == table

    def test_swap_is_coordinate_swap(self):
        sp = space(2)
        table = function_space(sp, 3)
        h = pf.Hbar(sp, 3, (1, 0))
        swapped = h.act(table)
        assert [row[0] for row in swapped] == [row[1] for row in table]
        assert [row[1] for row in swapped] == [row[0] for row in table]

    def test_marked_point_must_stay(self):
        sp = space(2, marked=(0,), pins=(0,))
        with pytest.raises(ValueError):
            pf.Hbar(sp, 2, (1, 0))

    def test_group_embedding(self, rng):
        sp = space(3)
        for _ in range(20):
            p1, p2 = rand_perm(rng, 3), rand_perm(rng, 3)
            lhs = ProductAut([pf.Hbar(sp, 2, p1), pf.Hbar(sp, 2, p2)])
            rhs = pf.Hbar(sp, 2, compose_perms(p1, p2))
            assert pf.elements_equal(lhs, rhs, sp, 2)


class TestKhat:
    def test_identity(self):
        sp = space(3)
        table = function_space(sp, 2)
        k = pf.Khat(sp, 2, {x: (0, 1) for x in sp.free_points()})
        assert k.act(table) == table

    def test_single_point_acts_as_sigma(self):
        sp = space(1)
        k = pf.Khat(sp, 3, {0: (1, 2, 0)})
        table = function_space(sp, 3)
        out = k.act(table)
        assert [row[0] for row in out] == [1, 2, 0]

    def test_pins_untouched(self, rng):
        sp = space(3, marked=(2,), pins=(1,))
        for _ in range(10):
            k = pf.Khat(sp, 2, rand_kernel(rng, sp, 2))
            out = k.act(function_space(sp, 2))
            assert {row[2] for row in out} == {1}

    def test_non_permutation_rejected(self):
        sp = space(1)
        with pytest.raises(ValueError):
            pf.Khat(sp, 2, {0: (0, 0)})

    def test_algebra_mode_requires_automorphisms(self):
        sp = space(1)
        a = pf.preset_algebra("Z3")
        pf.Khat(sp, a, {0: (0, 2, 1)})
        with pytest.raises(ValueError):
            pf.Khat(sp, a, {0: (1, 0, 2)})

    def test_algebra_mode_preserves_filtered_power(self):
        a = pf.preset_algebra("Z3")
        sp = space(2, marked=(0,), pins=(0,))
        k = pf.Khat(sp, a, {1: (0, 2, 1)})
        assert preserves_filtered_operations(k, a, sp)

    def test_group_embedding_pointwise(self, rng):
        sp = space(2)
        for _ in range(20):
            k1 = rand_kernel(rng, sp, 3)
            k2 = rand_kernel(rng, sp, 3)
            lhs = ProductAut([pf.Khat(sp, 3, k1), pf.Khat(sp, 3, k2)])
            rhs = pf.Khat(sp, 3, {x: compose_perms(k1[x], k2[x])
                                  for x in k1})
            assert pf.elements_equal(lhs, rhs, sp, 3)


def conjugated_kernel_moves(sp, a_size, values, h_perm):
    """hbar khat hbar^-1 is the kernel whose values are moved by h."""
    h = pf.Hbar(sp, a_size, h_perm)
    moved = {h_perm[x]: v for x, v in values.items()}
    return h * pf.Khat(sp, a_size, values) * h.inverse() == \
        pf.Khat(sp, a_size, moved)


class TestConjugationIdentity:
    def test_trivial_h(self, rng):
        sp = space(3)
        values = rand_kernel(rng, sp, 2)
        assert conjugated_kernel_moves(sp, 2, values, (0, 1, 2))

    def test_random_instances(self, rng):
        sp = space(3)
        for _ in range(50):
            assert conjugated_kernel_moves(
                sp, 2, rand_kernel(rng, sp, 2), rand_perm(rng, 3))

    def test_with_marked_points(self, rng):
        sp = space(4, marked=(3,), pins=(0,))
        for _ in range(20):
            assert conjugated_kernel_moves(
                sp, 2, rand_kernel(rng, sp, 2), rand_fixing_perm(rng, sp))

    def test_kh_intersection_trivial(self):
        sp = space(3)
        ident = (0, 1, 2)
        table = function_space(sp, 2)
        flip = (1, 0)
        ident2 = (0, 1)
        for h_perm in permutations(range(3)):
            h = pf.Hbar(sp, 2, h_perm)
            for bits in range(8):
                values = {x: (flip if bits >> x & 1 else ident2)
                          for x in range(3)}
                k = pf.Khat(sp, 2, values)
                if h.act(table) == k.act(table):
                    assert h_perm == ident
                    assert all(v == ident2 for v in values.values())


class TestDecompose:
    def test_pure_shuffle(self, rng):
        sp = space(3)
        h = pf.Hbar(sp, 2, rand_perm(rng, 3))
        g = ProductAut([h])
        assert g.perm == h.perm
        assert all(v == (0, 1) for v in g.values.values())

    def test_normal_form_matches_evaluation(self, rng):
        sp = space(3)
        for _ in range(20):
            factors = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    factors.append(pf.Hbar(sp, 2, rand_perm(rng, 3)))
                else:
                    factors.append(pf.Khat(sp, 2, rand_kernel(rng, sp, 2)))
            g = ProductAut(factors)
            k_part = pf.Khat(sp, 2, g.values)
            d_part = pf.Hbar(sp, 2, g.perm)
            assert evaluated_equal(factors, [d_part, k_part], sp, 2)

    def test_conjugate_shuffle_k_part_formula(self, rng):
        # h^(dc) = c^-1 (h^d c (h^d)^-1) h^d: the k-part of the conjugate
        sp = space(3)
        for _ in range(10):
            h = pf.Hbar(sp, 2, rand_perm(rng, 3))
            d = pf.Hbar(sp, 2, rand_perm(rng, 3))
            c = pf.Khat(sp, 2, rand_kernel(rng, sp, 2))
            g = ProductAut([d, c])
            conj = conjugate(h, g)
            u = compose_perms(compose_perms(invert_perm(d.perm), h.perm),
                              d.perm)
            assert conj.perm == u
            hd = pf.Hbar(sp, 2, u)
            formula = ProductAut([hd.inverse(), c.inverse(), hd, c])
            assert pf.elements_equal(pf.Khat(sp, 2, conj.values), formula,
                                     sp, 2)


def z2_flip():
    return pf.preset_group("Z2"), ((0, 1), (1, 0))


def worked_lam(group):
    sp = pf.make_spiral(2, 1, 2)
    g = 1 if group.order > 1 else 0
    return Labelling(sp.structure.vertices, group, 1,
                     {sp.a(1): g, sp.a(2): 0, sp.c(2): g})


class TestCycleCoverInstance:
    def test_trivial_group_gives_identity_kernel(self):
        triv = pf.preset_group("Z1")
        inst = pf.cycle_cover_instance(2, 1, 2, triv, ((0, 1),), 2,
                                       worked_lam(triv))
        assert all(v == (0, 1) for v in inst.kernel[0].values.values())

    def test_z2_shape(self):
        group, action = z2_flip()
        inst = pf.cycle_cover_instance(2, 1, 2, group, action, 2,
                                       worked_lam(group))
        assert inst.space.points == 4
        assert inst.h[0] == (1, 2, 3, 0)
        cover = pf.make_spiral(4, 1, 4)
        assert inst.psi[0] == cover.a(1)
        assert inst.psi[3] == cover.a(4)

    def test_ell_multiplier_winds_twice(self):
        group, action = z2_flip()
        inst = pf.cycle_cover_instance(2, 1, 2, group, action, 2,
                                       worked_lam(group), ell=2)
        assert inst.space.points == 8
        inst.verify()

    def test_non_faithful_rejected(self):
        z2 = pf.preset_group("Z2")
        with pytest.raises(ValueError):
            pf.cycle_cover_instance(2, 1, 2, z2, ((0, 1), (0, 1)), 2,
                                    worked_lam(z2))

    def test_fibre_constancy_required(self):
        z2 = pf.preset_group("Z2")
        sp = pf.make_spiral(2, 1, 2)
        bad = Labelling(sp.structure.vertices, z2, 1,
                        {sp.a(1): 1, sp.a(2): 0, sp.c(2): 0})
        with pytest.raises(ValueError):
            pf.cycle_cover_instance(2, 1, 2, z2, ((0, 1), (1, 0)), 2, bad)

    def test_p_must_divide_r(self):
        z3 = pf.preset_group("Z3")
        sp = pf.make_spiral(3, 1, 2)
        lam = Labelling(sp.structure.vertices, z3, 1,
                        {v: 0 for v in sp.structure.vertices})
        with pytest.raises(ValueError):
            pf.cycle_cover_instance(3, 1, 2, z3, natural_action(z3), 3, lam)

    def test_mu_stays_in_label_subgroup(self):
        group, action = z2_flip()
        inst = pf.cycle_cover_instance(2, 1, 2, group, action, 2,
                                       worked_lam(group))
        assert mu_values_in_subgroup(QPWitness(inst.phi2, inst.lam, inst.mu))


class TestQpConjugator:
    def test_identity_labels_give_identity_conjugator(self):
        group, action = z2_flip()
        sp = pf.make_spiral(2, 1, 2)
        lam = Labelling(sp.structure.vertices, group, 1,
                        {v: 0 for v in sp.structure.vertices})
        inst = pf.cycle_cover_instance(2, 1, 2, group, action, 2, lam)
        c = pf.qp_conjugator(inst)
        assert all(v == (0, 1) for v in c.values.values())

    def test_worked_z2_instance(self):
        group, action = z2_flip()
        inst = pf.cycle_cover_instance(2, 1, 2, group, action, 2,
                                       worked_lam(group))
        c = pf.qp_conjugator(inst)
        hb = pf.Hbar(inst.space, 2, inst.h[0])
        lhs = ProductAut([inst.kernel[0], hb])
        assert pf.elements_equal(lhs, conjugate(hb, c), inst.space, 2)

    def test_s3_instance(self):
        s3 = pf.preset_group("S3")
        inst = pf.cycle_cover_instance(2, 1, 2, s3, natural_action(s3), 3,
                                       worked_lam(s3), alpha=2)
        pf.qp_conjugator(inst)

    def test_s3_ell2_beyond_any_table(self):
        # 24 free points over |A| = 3: 3^24 functions, more than any table
        s3 = pf.preset_group("S3")
        inst = pf.cycle_cover_instance(2, 1, 2, s3, natural_action(s3), 3,
                                       worked_lam(s3), ell=2)
        assert len(inst.space.free_points()) == 24
        c = pf.qp_conjugator(inst)
        hb = pf.Hbar(inst.space, 3, inst.h[0])
        lhs = ProductAut([inst.kernel[0], hb])
        assert pf.elements_equal(lhs, conjugate(hb, c), inst.space, 3)
        off = ProductAut([c, one_kernel_value_off(inst.space, 3, 0)])
        assert not pf.elements_equal(lhs, conjugate(hb, off), inst.space, 3)
        with pytest.raises(CapExhausted):
            function_space(inst.space, 3)

    def test_identity_is_direction_sensitive(self):
        # with an order-3 kernel both the product order and the conjugation
        # direction matter, so the identity check is not vacuous
        from profin.autgroup import regular_action
        z3 = pf.preset_group("Z3")
        inst = pf.cycle_cover_instance(2, 1, 2, z3, regular_action(z3), 3,
                                       worked_lam(z3))
        c = pf.qp_conjugator(inst)
        hb = pf.Hbar(inst.space, 3, inst.h[0])
        lhs = ProductAut([inst.kernel[0], hb])
        assert pf.elements_equal(lhs, conjugate(hb, c), inst.space, 3)
        assert not pf.elements_equal(
            lhs, ProductAut([c, hb, c.inverse()]), inst.space, 3)
        assert not pf.elements_equal(
            lhs, ProductAut([hb, inst.kernel[0]]), inst.space, 3)

    def test_tampered_mu_is_named(self):
        group, action = z2_flip()
        inst = pf.cycle_cover_instance(2, 1, 2, group, action, 2,
                                       worked_lam(group))
        cover = pf.make_spiral(4, 1, 4)
        vals = dict(inst.mu.values)
        vals[cover.a(2)] = (1 - vals[cover.a(2)][0],)
        inst.mu = Labelling(inst.mu.carrier, group, 1, vals)
        with pytest.raises(VerificationError, match="quotient property"):
            pf.qp_conjugator(inst)

    def test_tampered_psi_is_named(self):
        group, action = z2_flip()
        inst = pf.cycle_cover_instance(2, 1, 2, group, action, 2,
                                       worked_lam(group))
        cover = pf.make_spiral(4, 1, 4)
        inst.psi = dict(inst.psi)
        inst.psi[1] = cover.a(4)
        with pytest.raises(VerificationError):
            pf.qp_conjugator(inst)

    def test_pinned_union_with_stabiliser(self):
        group, action = z2_flip()
        far = pf.cycle_cover_instance(2, 1, 2, group, action, 2,
                                      worked_lam(group))
        sp = pf.make_spiral(2, 1, 2)
        lam_id = Labelling(sp.structure.vertices, group, 1,
                           {v: 0 for v in sp.structure.vertices})
        near = pf.cycle_cover_instance(2, 1, 2, group, action, 2, lam_id)
        inst, near_pts = pf.pinned_union_instance(far, near, pin=0)
        c = pf.qp_conjugator(inst)
        assert conjugator_values_in_stabiliser(c, near_pts, 0)
        assert inst.space.marked == (8,)

    @pytest.mark.parametrize("tamper,why", [
        ("psi-edge", "psi is not a homomorphism"),
        ("psi-rotated", "phi2 o psi differs from the projection"),
        ("psi-partial", "psi: map is not total"),
        ("partition", "phi2 is not a map from the cover to the block")])
    def test_tampered_instance_names_the_check(self, tamper, why):
        group, action = z2_flip()
        inst = pf.cycle_cover_instance(2, 1, 2, group, action, 2,
                                       worked_lam(group))
        cover = pf.make_spiral(4, 1, 4)
        if tamper == "psi-edge":  # phi2 o psi unchanged, edge 0 -> 1 lost
            inst.psi = {**inst.psi, 1: cover.a(4)}
        elif tamper == "psi-rotated":  # a homomorphism, one block off
            inst.psi = {k: cover.a((k + 1) % 4 + 1) for k in range(4)}
        elif tamper == "psi-partial":
            inst.psi = {k: v for k, v in inst.psi.items() if k}
        else:
            inst.partition = pf.Partition([{0, 1}, {2, 3}])
        with pytest.raises(VerificationError, match=why):
            inst.verify()

    def test_pin_outside_a_rejected(self):
        group, action = z2_flip()
        sp = pf.make_spiral(2, 1, 2)
        lam_id = Labelling(sp.structure.vertices, group, 1,
                           {v: 0 for v in sp.structure.vertices})
        near = pf.cycle_cover_instance(2, 1, 2, group, action, 2, lam_id)
        inst, _ = pf.pinned_union_instance(near, near, pin=0)
        inst.space = space(inst.space.points, inst.space.marked, (5,))
        with pytest.raises(VerificationError, match="pin 5"):
            inst.verify()

    def test_pinned_union_rejects_non_stabilising_near(self):
        group, action = z2_flip()
        far = pf.cycle_cover_instance(2, 1, 2, group, action, 2,
                                      worked_lam(group))
        with pytest.raises(ValueError):
            pf.pinned_union_instance(far, far, pin=0)


class TestBlockQuotient:
    def test_is_the_cover_codomain(self):
        group, action = z2_flip()
        inst = pf.cycle_cover_instance(2, 1, 2, group, action, 2,
                                       worked_lam(group))
        blk, proj = block_quotient(inst.space, inst.h, inst.partition)
        assert blk == inst.phi2.codomain
        assert proj.mapping == {x: x % 2 for x in range(4)}

    @pytest.mark.parametrize("sp,h,why", [
        (space(4), [(1, 2, 0)], r"h\[0\]: not a permutation"),
        (space(4), [(1, 1, 2, 0)], r"h\[0\]: not a permutation"),
        (space(4), [(0, 1, 2, 3), (1, 2, 3)], r"h\[1\]: not a permutation"),
        (space(4, (3,), (0,)), [(1, 2, 3, 0)],
         r"h\[0\]: marked point 3 is moved")])
    def test_shuffle_checked_before_it_is_read(self, sp, h, why):
        part = pf.Partition([{0, 2}, {1, 3}])
        with pytest.raises(ValueError, match=why):
            block_quotient(sp, h, part)


class TestInstanceJson:
    def test_round_trip_and_verify(self):
        from profin import jsonio
        group, action = z2_flip()
        inst = pf.cycle_cover_instance(2, 1, 2, group, action, 2,
                                       worked_lam(group))
        blob = jsonio.instance_to_json(inst)
        again = jsonio.instance_from_json(blob)
        pf.qp_conjugator(again)
        assert jsonio.instance_to_json(again) == blob
