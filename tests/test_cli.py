import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import profin as pf
from profin import jsonio
from profin.cli import run

from conftest import two_cycle, xy_member


@pytest.fixture
def capout(capsys):
    def go(argv):
        rc = run(argv)
        return rc, capsys.readouterr().out
    return go


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def structure_file(tmp_path, name, s):
    return write_json(tmp_path, name, jsonio.structure_to_json(s))


class TestCheck:
    def test_two_cycle_rejected_from_f(self, tmp_path, capout):
        p = structure_file(tmp_path, "c2.json", two_cycle())
        rc, out = capout(["check", "--family", "F", "--in", p])
        assert rc == 1
        report = json.loads(out)
        assert report["member"] is False
        assert "outgoing" in report["reason"]

    def test_xy_accepted(self, tmp_path, capout):
        p = structure_file(tmp_path, "xy.json", xy_member())
        rc, out = capout(["check", "--family", "F", "--in", p])
        assert rc == 0 and json.loads(out)["member"] is True

    def test_malformed_json_position(self, tmp_path, capout):
        p = tmp_path / "bad.json"
        p.write_text('{"m": 1,\n "vertices": [}')
        rc, out = capout(["check", "--family", "F", "--in", str(p)])
        assert rc == 2
        err = json.loads(out)
        assert err["error"] == "malformed JSON"
        assert err["line"] == 2 and "column" in err

    def test_missing_file(self, tmp_path, capout):
        rc, out = capout(["check", "--family", "F", "--in",
                          str(tmp_path / "nope.json")])
        assert rc == 2


class TestSpiral:
    def test_make_dot_three_vertices(self, capout):
        rc, out = capout(["spiral", "make", "-p", "2", "-q", "1",
                          "-r", "2", "--dot"])
        assert rc == 0
        assert out.count("->") == 4
        assert '"a1"' in out and '"a2"' in out and '"c2"' in out

    def test_make_json_round_trip(self, capout):
        rc, out = capout(["spiral", "make", "-p", "3", "-q", "2", "-r", "2"])
        assert rc == 0
        blob = json.loads(out)
        again = jsonio.structure_to_json(jsonio.structure_from_json(blob))
        assert again == blob

    def test_cover_certificate(self, capout):
        rc, out = capout(["spiral", "cover", "-t", "2", "-p", "2",
                          "-q", "1", "-r", "2"])
        assert rc == 0
        cert = json.loads(out)
        assert cert["checked"] is True
        phi = jsonio.map_from_json(cert)
        assert pf.check_epimorphism(phi)

    def test_cover_over_the_spiral_cap_exits_three(self, capout):
        rc, out = capout(["spiral", "cover", "-t", "1000000", "-p", "2",
                          "-q", "1", "-r", "2"])
        assert rc == 3
        payload = json.loads(out)
        assert payload["cap_exhausted"] is True
        assert payload["stats"] == {"needed": 3_999_999}


class TestEpi:
    def test_found_and_verifiable(self, tmp_path, capout):
        a = structure_file(tmp_path, "a.json",
                           pf.make_spiral(4, 1, 4).structure)
        b = structure_file(tmp_path, "b.json",
                           pf.make_spiral(2, 1, 2).structure)
        rc, out = capout(["epi", "--dom", a, "--cod", b])
        assert rc == 0
        payload = json.loads(out)
        cert = write_json(tmp_path, "cert.json", payload["witness"])
        rc2, out2 = capout(["verify", "--in", cert])
        assert rc2 == 0 and json.loads(out2)["ok"] is True

    def test_nonexistent_gives_exit_one(self, tmp_path, capout):
        c3 = pf.FinStructure(1, range(3),
                             [{(i, (i + 1) % 3) for i in range(3)}])
        a = structure_file(tmp_path, "a.json", c3)
        b = structure_file(tmp_path, "b.json", two_cycle())
        rc, out = capout(["epi", "--dom", a, "--cod", b])
        assert rc == 1 and json.loads(out)["exists"] is False

    def test_budget_gives_exit_three(self, tmp_path, capout):
        a = structure_file(tmp_path, "a.json",
                           pf.make_spiral(4, 3, 4).structure)
        b = structure_file(tmp_path, "b.json",
                           pf.make_spiral(2, 3, 2).structure)
        rc, out = capout(["epi", "--dom", a, "--cod", b, "--cap", "3"])
        assert rc == 3 and json.loads(out)["cap_exhausted"] is True

    def test_budget_payload_reports_search_stats(self, tmp_path, capout):
        a = structure_file(tmp_path, "a.json",
                           pf.make_spiral(4, 3, 4).structure)
        b = structure_file(tmp_path, "b.json",
                           pf.make_spiral(2, 3, 2).structure)
        rc, out = capout(["epi", "--dom", a, "--cod", b, "--cap", "3"])
        stats = json.loads(out)["stats"]
        assert rc == 3 and stats["nodes"] == 4
        assert 0 <= stats["deepest"] <= 3


class TestAmalgamate:
    def test_jpp_structures(self, tmp_path, capout):
        a = structure_file(tmp_path, "a.json", xy_member())
        double, _ = pf.disjoint_union([xy_member(), xy_member()])
        b = structure_file(tmp_path, "b.json", double)
        rc, out = capout(["amalgamate", "--jpp", "--family", "F",
                          "--left", a, "--right", b])
        assert rc == 0
        payload = json.loads(out)
        assert payload["exists"] is True
        cert = write_json(tmp_path, "w.json", payload)
        rc2, out2 = capout(["verify", "--in", cert])
        assert rc2 == 0 and json.loads(out2)["ok"] is True

    def test_pap_maps(self, tmp_path, capout):
        loop = pf.FinStructure(1, [0], [{(0, 0)}])
        phi1 = pf.StructMap(two_cycle(), loop, {0: 0, 1: 0})
        c3 = pf.FinStructure(1, range(3),
                             [{(i, (i + 1) % 3) for i in range(3)}])
        phi2 = pf.StructMap(c3, loop, {v: 0 for v in c3.vertices})
        left = write_json(tmp_path, "l.json", jsonio.map_to_json(phi1))
        right = write_json(tmp_path, "r.json", jsonio.map_to_json(phi2))
        rc, out = capout(["amalgamate", "--family", "F0",
                          "--left", left, "--right", right])
        assert rc == 0
        payload = json.loads(out)
        cert = write_json(tmp_path, "w.json", payload)
        rc2, out2 = capout(["verify", "--in", cert])
        assert rc2 == 0 and json.loads(out2)["ok"] is True
        # phi1 and phi2 swapped: the witness square no longer composes
        payload["phi1"], payload["phi2"] = payload["phi2"], payload["phi1"]
        forged = write_json(tmp_path, "forged.json", payload)
        rc3, out3 = capout(["verify", "--in", forged])
        verdict = json.loads(out3)
        assert rc3 == 1 and verdict["ok"] is False and verdict["detail"]

    @pytest.mark.parametrize("family", [None, 5, "F1"])
    def test_pap_certificate_needs_a_known_family(self, tmp_path, capout,
                                                 family):
        # the family is part of the claim: without a known one, nothing
        # says which family the witness must be checked against
        loop = pf.FinStructure(1, [0], [{(0, 0)}])
        phi = pf.StructMap(two_cycle(), loop, {0: 0, 1: 0})
        side = write_json(tmp_path, "l.json", jsonio.map_to_json(phi))
        rc, out = capout(["amalgamate", "--family", "F0",
                          "--left", side, "--right", side])
        payload = json.loads(out)
        assert rc == 0 and payload["family"] == "F0"
        if family is None:
            del payload["family"]
        else:
            payload["family"] = family
        rc2, out2 = capout(["verify", "--in",
                            write_json(tmp_path, "w.json", payload)])
        assert rc2 == 2 and "family" in json.loads(out2)["error"]

    @pytest.mark.parametrize("family", ["F", "F0"])
    def test_family_that_misses_the_constants_is_false(self, tmp_path,
                                                       capout, family):
        # a well-formed Fn jpp certificate claimed for a family without
        # constants proves nothing: verified false, not a usage error
        side = structure_file(tmp_path, "a.json",
                              pf.expand_constants(xy_member(), 1))
        rc, out = capout(["amalgamate", "--jpp", "--family", "Fn",
                          "--left", side, "--right", side])
        payload = json.loads(out)
        assert rc == 0 and payload["exists"] is True
        payload["family"] = family
        rc2, out2 = capout(["verify", "--in",
                            write_json(tmp_path, "w.json", payload)])
        verdict = json.loads(out2)
        assert rc2 == 1 and verdict["ok"] is False
        assert verdict["detail"] == f"family {family} requires n=0, got n=1"

    def test_f_pap_whose_core_misses_f(self, tmp_path, capout):
        # two 3-vertex members onto xy whose fibre product has a 5-vertex
        # core with 11 pairs that is not in F: the witness is the core's
        # 44-vertex F cover, and a lower cap reports what it needs
        xy = xy_member()
        a1 = pf.FinStructure(1, range(3), [{(0, 0), (0, 1), (0, 2), (1, 1),
                                            (2, 2)}])
        a2 = pf.FinStructure(1, range(3), [{(0, 0), (1, 0), (1, 1), (1, 2),
                                            (2, 2)}])
        left = write_json(tmp_path, "l.json", jsonio.map_to_json(
            pf.StructMap(a1, xy, {0: 0, 1: 0, 2: 1})))
        right = write_json(tmp_path, "r.json", jsonio.map_to_json(
            pf.StructMap(a2, xy, {0: 1, 1: 0, 2: 0})))
        argv = ["amalgamate", "--family", "F", "--left", left,
                "--right", right]
        rc, out = capout(argv)
        payload = json.loads(out)
        assert rc == 0
        assert len(payload["witness"]["structure"]["vertices"]) == 44
        rc2, out2 = capout(["verify", "--in",
                            write_json(tmp_path, "w.json", payload)])
        assert rc2 == 0 and json.loads(out2)["ok"] is True
        rc3, out3 = capout(argv + ["--cap", "20"])
        verdict = json.loads(out3)
        assert rc3 == 3 and verdict["cap_exhausted"] is True
        assert verdict["stats"] == {"needed": 44}


class TestQp:
    def test_label_subcommand(self, tmp_path, capout):
        labels = write_json(tmp_path, "lam.json",
                            {"a1": 1, "a2": 0, "c2": 1})
        rc, out = capout(["qp", "label", "--group", "Z2", "-p", "2",
                          "-q", "1", "-r", "2", "--labels", labels,
                          "--x0", "a1", "--alpha", "0"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["checked"] is True
        cert = write_json(tmp_path, "qp.json", payload)
        rc2, out2 = capout(["verify", "--in", cert])
        assert rc2 == 0 and json.loads(out2)["ok"] is True

    def test_cover_with_seeded_labels(self, tmp_path, capout):
        p = structure_file(tmp_path, "s.json",
                           pf.make_spiral(2, 1, 2).structure)
        rc, out = capout(["qp", "cover", "--group", "Z2", "--in", p,
                          "--seed", "5"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["checked"] is True and payload["cover_in_F0"] is True


class TestAlgebraPower:
    def test_algebra_report(self, capout):
        rc, out = capout(["algebra", "--preset", "Z4", "--simple",
                          "--malcev", "--idempotents", "--automorphisms"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["simple"] is False
        assert [[0, 2], [1, 3]] in payload["congruences"]
        assert payload["idempotents"] == [0]
        assert payload["malcev"] is not None
        assert payload["automorphism_order"] == 2

    def test_ring_preset_automorphisms(self, capout):
        rc, out = capout(["algebra", "--preset", "F4", "--automorphisms"])
        assert rc == 0 and json.loads(out)["automorphism_order"] == 2

    def test_automorphism_cap(self, tmp_path, capout):
        z2_4 = pf.boolean_power(pf.preset_algebra("Z2"), 4)
        p = write_json(tmp_path, "z2_4.json", jsonio.algebra_to_json(z2_4))
        rc, out = capout(["algebra", "--in", p, "--automorphisms"])
        assert rc == 3
        payload = json.loads(out)
        assert payload["cap_exhausted"] is True
        assert payload["stats"] == {"candidates": 32760}

    def test_power_closed(self, capout):
        rc, out = capout(["power", "--preset", "Z3", "--points", "3",
                          "--marked", "0", "--pins", "0"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["closed"] is True and payload["size"] == 9

    def test_power_size_without_building_it(self, capout):
        # 4^12 functions: the size is counted, not built
        start = time.perf_counter()
        rc, out = capout(["power", "--preset", "F4", "--points", "12"])
        assert rc == 0 and time.perf_counter() - start < 1.0
        assert '"size":16777216' in out

    def test_power_violation(self, capout):
        rc, out = capout(["power", "--preset", "Z3", "--points", "2",
                          "--marked", "0", "--pins", "1"])
        assert rc == 1
        payload = json.loads(out)
        assert payload["closed"] is False and "violation" in payload


class TestTransconj:
    def test_demo_transcript(self, capout):
        rc, out = capout(["transconj", "demo", "--preset", "z2-spiral",
                          "--seed", "7"])
        assert rc == 0
        payload = json.loads(out)
        assert payload["transcript"][-1] == \
            "identity decided by semidirect normal form"

    def test_demo_certificate_verifies(self, tmp_path, capout):
        rc, out = capout(["transconj", "demo", "--preset", "z2-pinned",
                          "--seed", "3"])
        assert rc == 0
        cert = write_json(tmp_path, "tc.json", json.loads(out))
        rc2, out2 = capout(["verify", "--in", cert])
        assert rc2 == 0 and json.loads(out2)["ok"] is True

    def test_demo_dot_carries_mu(self, capout):
        rc, out = capout(["transconj", "demo", "--preset", "z2-spiral",
                          "--seed", "1", "--dot"])
        assert rc == 0
        assert "digraph" in out and "|" in out

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_z3_demo_verifies(self, tmp_path, capout, seed):
        # Z3 carries no permutation realization; it acts on its own elements
        rc, out = capout(["transconj", "demo", "--preset", "z3-spiral",
                          "--seed", str(seed)])
        assert rc == 0
        cert = write_json(tmp_path, "tc.json", json.loads(out))
        rc2, out2 = capout(["verify", "--in", cert])
        assert rc2 == 0 and json.loads(out2)["ok"] is True


class TestTower:
    def tasks_payload(self):
        xy = xy_member()
        seed = pf.expand_constants(xy, 1)
        double, _ = pf.disjoint_union([xy, xy])
        target = pf.expand_constants(double, 1)
        fold = {v: v % 2 for v in double.vertices}
        fold[target.constants[0]] = seed.constants[0]
        phi2 = pf.StructMap(target, seed, fold)
        return {
            "seed": jsonio.structure_to_json(seed),
            "tasks": [
                {"kind": "universality",
                 "target": jsonio.structure_to_json(target)},
                {"kind": "extension", "base_stage": 0,
                 "phi2": jsonio.map_to_json(phi2)},
            ],
        }

    def test_grow(self, tmp_path, capout):
        tasks = write_json(tmp_path, "tasks.json", self.tasks_payload())
        rc, out = capout(["tower", "grow", "--tasks", tasks])
        assert rc == 0
        payload = json.loads(out)
        assert payload["status"]["stages"] == 3
        assert payload["status"]["pending"] == 0
        assert all(o["done"] for o in payload["outcomes"])

    def test_determinism_byte_identical(self, tmp_path, capout):
        tasks = write_json(tmp_path, "tasks.json", self.tasks_payload())
        rc1, out1 = capout(["tower", "grow", "--tasks", tasks])
        rc2, out2 = capout(["tower", "grow", "--tasks", tasks])
        assert rc1 == rc2 == 0 and out1 == out2

    def test_stage_limit_skips_tasks(self, tmp_path, capout):
        tasks = write_json(tmp_path, "tasks.json", self.tasks_payload())
        rc, out = capout(["tower", "grow", "--tasks", tasks,
                          "--stages", "1"])
        payload = json.loads(out.splitlines()[0])
        assert payload["status"]["stages"] == 1
        assert all(o["done"] is False for o in payload["outcomes"])

    def test_dot_dump_per_stage(self, tmp_path, capout):
        tasks = write_json(tmp_path, "tasks.json", self.tasks_payload())
        rc, out = capout(["tower", "grow", "--tasks", tasks, "--dot"])
        assert rc == 0
        assert out.count("digraph G {") == 3
        assert "peripheries=2" in out


class TestVerifyRejectsTampering:
    def test_tampered_map_certificate(self, tmp_path, capout):
        phi = pf.spiral_cover_map(2, 2, 1, 2)
        cert = jsonio.map_to_json(phi)
        cert["map"][0][1] = cert["map"][1][1]  # corrupt one image
        path = write_json(tmp_path, "bad.json", cert)
        rc, out = capout(["verify", "--in", path])
        assert rc == 1 and json.loads(out)["ok"] is False

    def test_tampered_qp_certificate(self, tmp_path, capout):
        sp = pf.make_spiral(2, 1, 2)
        z2 = pf.preset_group("Z2")
        lam = pf.Labelling(sp.structure.vertices, z2, 1,
                           {sp.a(1): 1, sp.a(2): 0, sp.c(2): 1})
        w = pf.spiral_qp_labelling(sp, lam, 0, z2, 0, 0)
        from profin.cli import _qp_witness_json
        cert = _qp_witness_json(w)
        cert["mu"]["values"][1][1][0] ^= 1  # flip one mu value
        path = write_json(tmp_path, "badqp.json", cert)
        rc, out = capout(["verify", "--in", path])
        assert rc == 1 and json.loads(out)["ok"] is False

    @pytest.mark.parametrize("psi1_double,structure_double",
                             [(False, False), (True, False), (False, True)])
    def test_forged_jpp_with_unshared_domain(self, tmp_path, capout,
                                             psi1_double, structure_double):
        # identities on xy and on xy+xy are epimorphisms, but they do not
        # leave one structure, so they prove no joint projection
        double, _ = pf.disjoint_union([xy_member(), xy_member()])
        ident = {s: jsonio.map_to_json(pf.StructMap(
            s, s, {v: v for v in s.vertices})) for s in (xy_member(), double)}
        cert = {"kind": "jpp", "family": "F", "exists": True, "witness": {
            "structure": jsonio.structure_to_json(
                double if structure_double else xy_member()),
            "psi1": ident[double if psi1_double else xy_member()],
            "psi2": ident[double]}}
        path = write_json(tmp_path, "forged.json", cert)
        rc, out = capout(["verify", "--in", path])
        assert rc == 1 and json.loads(out)["ok"] is False

    @pytest.mark.parametrize("cert", [
        {"kind": "epi", "exists": False}, [{"kind": "epi"}],
        {"kind": "jpp", "witness": {"structure": {}, "psi1": 3, "psi2": 3}}])
    def test_malformed_certificate_is_usage_error(self, tmp_path, capout,
                                                  cert):
        path = write_json(tmp_path, "bad.json", cert)
        rc, out = capout(["verify", "--in", path])
        assert rc == 2 and "error" in json.loads(out)


    @pytest.mark.parametrize("tamper", ["not-a-permutation", "misses-point",
                                        "wrong-kernel-element"])
    def test_tampered_transconj_conjugator(self, tmp_path, capout, tamper):
        rc, out = capout(["transconj", "demo", "--preset", "z2-spiral",
                          "--seed", "7"])
        assert rc == 0
        cert = json.loads(out)
        conj = cert["conjugator"]
        if tamper == "not-a-permutation":
            cert["conjugator"] = [[x, [0, 0]] for x, _ in conj]
        elif tamper == "misses-point":
            cert["conjugator"] = conj[1:]
        else:
            # a valid kernel element: one value swapped at point 0
            cert["conjugator"] = [[x, p[::-1] if x == 0 else p]
                                  for x, p in conj]
        path = write_json(tmp_path, "tc.json", cert)
        rc, out = capout(["verify", "--in", path])
        assert rc == 1 and json.loads(out)["ok"] is False


@pytest.mark.parametrize("argv", [
    ["epi", "--dom", "{bad}", "--cod", "{good}"],
    ["check", "--family", "F", "--in", "{bad}"],
    ["amalgamate", "--family", "F0", "--left", "{bad}", "--right", "{bad}"],
    ["qp", "label", "--group", "Z2", "--labels", "{bad}"],
    ["algebra", "--in", "{bad}", "--simple"],
    ["tower", "grow", "--tasks", "{bad}"],
])
def test_top_level_list_is_usage_error(tmp_path, capout, argv):
    files = {"{bad}": write_json(tmp_path, "list.json", [1, 2]),
             "{good}": structure_file(tmp_path, "xy.json", xy_member())}
    rc, out = capout([files.get(a, a) for a in argv])
    assert rc == 2 and "error" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["qp", "cover", "--group", "Z2"],
    ["qp", "label", "--group", "Z2", "-p", "2", "-q", "1", "-r", "2"],
    ["algebra", "--simple"],
    ["power", "--points", "2"],
    ["qp", "cover", "--group", "Z2", "--in", "{s}", "--labels", "{lam}"],
    ["qp", "label", "--group", "Z2", "--labels", "{spiral_lam}",
     "--x0", "q1"],
])
def test_missing_or_unknown_input_is_usage_error(tmp_path, capout, argv):
    files = {"{s}": structure_file(tmp_path, "s.json", two_cycle()),
             "{lam}": write_json(tmp_path, "lam.json", {"0": 1, "zz": 0}),
             "{spiral_lam}": write_json(tmp_path, "sl.json",
                                        {"a1": 1, "a2": 0, "c2": 1})}
    rc, out = capout([files.get(a, a) for a in argv])
    assert rc == 2 and "error" in json.loads(out)


def _mutate(inst, how):
    """Change one field of a serialized transconj instance in place."""
    if how == "short-h-row":
        inst["h"][0].pop()
    elif how == "points":
        inst["points"] += 1
    elif how == "partition":
        inst["partition"].pop()
    elif how == "psi":
        x, v = inst["psi"][0]
        inst["psi"][0] = [x, next(w for w in inst["q"]["vertices"]
                                  if w != v)]
    elif how == "phi2":
        blocks = len(inst["partition"])
        inst["phi2_map"][0][1] = (inst["phi2_map"][0][1] + 1) % blocks
    elif how == "mu":
        order = inst["group"]["order"]
        inst["mu"][0][1] = (inst["mu"][0][1] + 1) % order
    elif how == "kernel":
        inst["kernel"][0][0][1].reverse()
    elif how == "action":
        inst["action"].reverse()
    elif how == "a-size":
        inst["a_size"] += 1
    else:
        inst["pins"] = inst["pins"][:-1] + [inst["a_size"] + 3]


@pytest.mark.parametrize("how", [
    "short-h-row", "points", "partition", "psi", "phi2", "mu", "kernel",
    "action", "a-size", "pin"])
@pytest.mark.parametrize("preset", ["z2-pinned", "s3-spiral", "z3-spiral"])
def test_one_field_mutation_is_rejected(tmp_path, capout, preset, how):
    rc, out = capout(["transconj", "demo", "--preset", preset,
                      "--seed", "7"])
    assert rc == 0
    cert = json.loads(out)
    _mutate(cert["instance"], how)
    path = write_json(tmp_path, "tc.json", cert)
    rc, out = capout(["verify", "--in", path])
    assert rc in (1, 2) and isinstance(json.loads(out), dict)


@pytest.mark.parametrize("doc", [
    {"seed": 3}, {"seed": "{xy}", "tasks": [{"target": "{xy}"}]},
    {"seed": "{xy}", "tasks": [5]},
    *({"seed": "{xy}", "tasks": [{"kind": "universality", "target": "{xy}",
                                  "cap": cap}]}
      for cap in ("x", [1], 2.5, True, 0, -3, None)),
    *({"seed": "{xy}", "tasks": [{"kind": "extension", "base_stage": base,
                                  "phi2": "{id}"}]}
      for base in (0.0, 1.5, False, -1, "0"))])
def test_tower_tasks_of_wrong_shape_are_usage_errors(tmp_path, capout, doc):
    seed = pf.expand_constants(xy_member(), 1)
    xy = jsonio.structure_to_json(seed)
    ident = jsonio.map_to_json(pf.identity_map(seed))
    text = json.dumps(doc).replace('"{xy}"', json.dumps(xy)).replace(
        '"{id}"', json.dumps(ident))
    path = tmp_path / "tasks.json"
    path.write_text(text)
    rc, out = capout(["tower", "grow", "--tasks", str(path)])
    assert rc == 2 and "malformed" in json.loads(out)["error"]


class TestDeterminism:
    def test_qp_cover_seeded_identical(self, tmp_path, capout):
        p = structure_file(tmp_path, "s.json", two_cycle())
        argv = ["qp", "cover", "--group", "S3", "--in", p, "--seed", "9"]
        rc1, out1 = capout(argv)
        rc2, out2 = capout(argv)
        assert rc1 == rc2 == 0 and out1 == out2

    def test_different_seed_differs(self, tmp_path, capout):
        p = structure_file(tmp_path, "s.json", two_cycle())
        _, out1 = capout(["qp", "cover", "--group", "S3", "--in", p,
                          "--seed", "1"])
        _, out2 = capout(["qp", "cover", "--group", "S3", "--in", p,
                          "--seed", "2"])
        assert out1 != out2


class TestEntryPoint:
    def test_module_subprocess(self):
        # the child imports the same profin as this process, also when the
        # tests found it through pytest's pythonpath setting
        src = str(Path(pf.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "profin.cli", "spiral", "make",
             "-p", "2", "-q", "1", "-r", "2"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        blob = json.loads(proc.stdout)
        assert len(blob["vertices"]) == 3

    def test_unknown_command_usage_error(self, capout):
        rc, _ = capout(["frobnicate"])
        assert rc == 2

    def test_flag_the_subcommand_does_not_read_is_usage_error(
            self, tmp_path, capout):
        # --seed belongs to qp and transconj, --cap to epi and amalgamate
        p = structure_file(tmp_path, "s.json", xy_member())
        argv = ["check", "--family", "F0", "--in", p]
        assert capout(argv)[0] == 0
        for extra in (["--seed", "9"], ["--cap", "1"]):
            rc, out = capout(argv + extra)
            assert rc == 2 and out == ""
