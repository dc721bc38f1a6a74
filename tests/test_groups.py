import math
from functools import reduce

import pytest

import profin as pf
from profin import FinGroup, Labelling
from profin.groups import GROUP_PRESETS, compose_perms


def brute_element_order(t: FinGroup, g: int) -> int:
    seen, x, k = set(), g, 1
    while x != 0:
        assert x not in seen
        seen.add(x)
        x = t.op(x, g)
        k += 1
    return k


class TestExponent:
    def test_trivial(self):
        assert pf.exponent(pf.preset_group("Z1")) == 1

    def test_z2(self):
        assert pf.exponent(pf.preset_group("Z2")) == 2

    def test_s3_by_lcm_oracle(self):
        s3 = pf.preset_group("S3")
        orders = {brute_element_order(s3, g) for g in s3.elements()}
        assert orders == {1, 2, 3}
        assert pf.exponent(s3) == math.lcm(*orders) == 6

    @pytest.mark.parametrize("name", GROUP_PRESETS)
    def test_exponent_kills_everything_and_divides_order(self, name):
        t = pf.preset_group(name)
        e = pf.exponent(t)
        assert t.order % e == 0 or math.factorial(t.order) % e == 0
        for g in t.elements():
            x = 0
            for _ in range(e):
                x = t.op(x, g)
            assert x == 0


class TestProductAlong:
    def test_identities(self):
        z2 = pf.preset_group("Z2")
        assert reduce(z2.op, [0, 0, 0]) == 0

    def test_inverse_pair(self):
        s3 = pf.preset_group("S3")
        for g in s3.elements():
            assert reduce(s3.op, [g, s3.inv(g)]) == 0

    def test_z3_example(self):
        z3 = pf.preset_group("Z3")
        assert reduce(z3.op, [1, 2, 1]) == 1


class TestPermClosure:
    def test_no_generators_trivial(self):
        t = pf.perm_group_from_generators([], degree=4)
        assert t.order == 1

    def test_three_cycle_gives_z3(self):
        t = pf.perm_group_from_generators([(1, 2, 0)])
        assert t.order == 3
        assert pf.exponent(t) == 3

    def test_s3_from_generators(self):
        t = pf.perm_group_from_generators([(1, 0, 2), (1, 2, 0)])
        assert t.order == 6
        assert t.perms is not None and len(set(t.perms)) == 6

    def test_closure_satisfies_axioms(self):
        t = pf.perm_group_from_generators([(1, 0, 3, 2), (1, 2, 0, 3)])
        FinGroup(t.table, validate=True)

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            pf.perm_group_from_generators([(1, 0), (0, 2, 1)])

    @pytest.mark.parametrize("gens", [
        [(1, 0, 2), (1, 2, 0)],
        [(1, 0, 3, 2), (1, 2, 0, 3)],
        [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)],
        [(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)],
    ])
    def test_table_against_composition_oracle(self, gens):
        t = pf.perm_group_from_generators(gens)
        index = {p: i for i, p in enumerate(t.perms)}
        assert t.table == tuple(
            tuple(index[compose_perms(a, b)] for b in t.perms)
            for a in t.perms)


class TestValidation:
    def test_inverse_is_first_two_sided_one(self):
        # row 2 has a 0 at column 0, but 0 * 2 is not 0
        t = FinGroup([[0, 1, 2], [1, 0, 2], [0, 1, 0]], validate=False)
        assert t.inverse == (0, 1, 2)

    def test_missing_inverse(self):
        with pytest.raises(ValueError, match="no inverse"):
            FinGroup([[0, 1, 2], [1, 2, 0], [2, 1, 1]], validate=False)

    def test_bad_identity(self):
        with pytest.raises(ValueError):
            FinGroup([[1, 0], [0, 1]])

    def test_non_associative(self):
        # a Latin square with identity that is not a group
        table = [[0, 1, 2, 3, 4],
                 [1, 4, 3, 2, 0],
                 [2, 3, 0, 4, 1],
                 [3, 0, 4, 1, 2],
                 [4, 2, 1, 0, 3]]
        with pytest.raises(ValueError):
            FinGroup(table)


class TestTelescoping:
    """Wrap identity: the full-cycle product collapses by the exponent."""

    @pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "S3"])
    def test_lagrange_collapse(self, name, rng):
        t = pf.preset_group(name)
        e = pf.exponent(t)
        for _ in range(50):
            p = rng.randint(2, 5)
            seq = [rng.randrange(t.order) for _ in range(p)]
            full = reduce(t.op, seq)
            power = 0
            for _ in range(e):
                power = t.op(power, full)
            assert power == 0
            tail = seq[1:] if len(seq) > 1 else []
            acc = reduce(t.op, tail) if tail else 0
            for _ in range(e - 1):
                acc = t.op(acc, full)
            assert acc == t.inv(seq[0])


class TestSubgroupClosure:
    def test_transposition_generates_order_two(self):
        s3 = pf.preset_group("S3")
        swap = next(g for g in s3.elements()
                    if g and s3.op(g, g) == 0)
        assert len(pf.subgroup_closure(s3, [swap])) == 2

    def test_identity_only(self):
        assert pf.subgroup_closure(pf.preset_group("Z4"), []) == {0}


class TestLabelling:
    def test_totality_enforced(self):
        z2 = pf.preset_group("Z2")
        with pytest.raises(ValueError):
            Labelling([0, 1], z2, 1, {0: 1})

    def test_width_enforced(self):
        z2 = pf.preset_group("Z2")
        with pytest.raises(ValueError):
            Labelling([0], z2, 2, {0: (1,)})

    def test_range_enforced(self):
        z2 = pf.preset_group("Z2")
        with pytest.raises(ValueError):
            Labelling([0], z2, 1, {0: 5})

    def test_shift(self):
        z3 = pf.preset_group("Z3")
        lab = Labelling([0, 1], z3, 1, {0: 1, 1: 2})
        shifted = lab.shifted(2)
        assert shifted.values[0] == (0,) and shifted.values[1] == (1,)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", GROUP_PRESETS)
    def test_presets(self, name):
        from profin import jsonio
        t = pf.preset_group(name)
        again = jsonio.group_from_json(jsonio.group_to_json(t))
        assert again == t
