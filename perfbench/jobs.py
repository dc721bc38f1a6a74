"""One function per job kind, and the independent check of its output.

A job takes its input JSON to a checked answer: it parses the input, calls
profin as a user would, and serializes the certificate.  Every call into a
profin module goes through ``tr.call(<layer>.<what>, ...)`` so a traced run
records a span there; ``groups`` gets no span, since it only builds inputs.

``check(spec, out)`` runs after the job, outside its timed region, and uses
``oracle`` rather than profin wherever the answer can be recomputed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from profin import cli, jsonio
from profin.algebra import (BooleanPowerSpace, automorphisms, boolean_power,
                            congruence_lattice, filtered_boolean_power,
                            is_simple, malcev_term_exists, preset_algebra)
from profin.autgroup import (Hbar, ProductAut, conjugate, cycle_cover_instance,
                             elements_equal, natural_action, qp_conjugator,
                             regular_action)
from profin.errors import CapExhausted
from profin.groups import Labelling, preset_group
from profin.maps import (check_epimorphism, coinitial_cover, find_epimorphism,
                         jpp_witness, pap_witness)
from profin.spirals import (make_spiral, richness_scan, surj_qp_cover,
                            verify_qp)
from profin.structures import F0, in_family
from profin.tower import Tower

import inputs
import oracle


class Context:
    """Working directory for certificates, and the towers of one round."""

    def __init__(self, workdir: str):
        self.cert_path = os.path.join(workdir, "cert.json")
        self.towers: dict[int, Tower] = {}


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.run(argv)
    return rc, buf.getvalue()


def _verify(tr, ctx: Context, text: str):
    with open(ctx.cert_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    rc, out = tr.call("cli.verify", run_cli, ["verify", "--in",
                                              ctx.cert_path])
    if rc != 0:
        tr.count("cli.verify_rejects")
    return rc, out


def _dump(tr, obj) -> str:
    text = tr.call("jsonio.dump", jsonio.dumps, obj)
    tr.count("jsonio.bytes", len(text))
    return text


def _parse(tr, d):
    return tr.call("jsonio.parse", jsonio.structure_from_json, d)


# ---- cover -----------------------------------------------------------------

def cover(spec, ctx, tr):
    s = _parse(tr, spec["structure"])
    group = preset_group(spec["group"])
    ids = {s.label_of(v): v for v in s.vertices}
    lam = Labelling(s.vertices, group, s.m,
                    {ids[name]: tuple(val)
                     for name, val in spec["labels"].items()})
    w = tr.call("spirals.cover", surj_qp_cover, s, lam, group)
    library_ok = [
        tr.call("spirals.verify_qp", verify_qp, w).ok,
        tr.call("maps.check_epi", check_epimorphism, w.phi),
        tr.call("structures.in_family", in_family, w.phi.domain, F0).ok,
        tr.call("spirals.richness", richness_scan, w),
    ]
    cert = tr.call("jsonio.dump", lambda: {
        "kind": "qp", "phi": jsonio.map_to_json(w.phi),
        "lam": jsonio.labelling_to_json(w.lam),
        "mu": jsonio.labelling_to_json(w.mu), "checked": all(library_ok)})
    text = _dump(tr, cert)
    tr.count("spirals.cover_vertices", len(w.phi.domain.vertices))
    tr.count("spirals.input_edges", sum(len(r) for r in s.relations))
    return {"library_ok": library_ok, "verify": _verify(tr, ctx, text),
            "cert": text}


def _verify_ok(out) -> str | None:
    rc, text = out["verify"]
    if rc != 0:
        return f"profin verify exited {rc}: {text.strip()[:200]}"
    if json.loads(text).get("ok") is not True:
        return "profin verify did not report ok:true"
    return None


def check_cover(spec, out, memo):
    if not all(out["library_ok"]):
        return f"in-library checks failed: {out['library_ok']}"
    order = inputs.GROUP_ORDER[spec["group"]]
    return _verify_ok(out) or oracle.qp_cover_problem(
        json.loads(out["cert"]), spec, order)


# ---- search ----------------------------------------------------------------

def epi_search(spec, ctx, tr):
    dom, cod = _parse(tr, spec["dom"]), _parse(tr, spec["cod"])
    try:
        phi = tr.call("maps.search", find_epimorphism, dom, cod,
                      spec["budget"])
    except CapExhausted:
        tr.count("maps.search_cap")
        raise
    tr.count("maps.search_decided")
    payload = {"kind": "epi", "exists": phi is not None}
    if phi is not None:
        payload["witness"] = tr.call("jsonio.dump", jsonio.map_to_json, phi)
    return {"cert": _dump(tr, payload)}


def check_epi_search(spec, out, memo):
    cert = json.loads(out["cert"])
    dom, cod = oracle.plain(spec["dom"]), oracle.plain(spec["cod"])
    if "expect" in spec:
        expect = spec["expect"]
    else:
        key = json.dumps([spec["dom"], spec["cod"]], sort_keys=True)
        if key not in memo:
            memo[key] = oracle.has_epimorphism(dom, cod)
        expect = memo[key]
    if cert["exists"] != expect:
        return f"answered exists={cert['exists']}, expected {expect}"
    if expect:
        wit = cert["witness"]
        if (oracle.plain(wit["domain"]), oracle.plain(wit["codomain"])) \
                != (dom, cod):
            return "witness does not connect the inputs"
        return oracle.epi_problem(dom, cod, oracle.map_of(wit))
    return None


def _witness_cert(tr, kind, family, got):
    payload = {"kind": kind, "family": family, "exists": got is not None}
    if got is not None:
        c, psi1, psi2 = got
        tr.count("maps.witness_vertices", len(c.vertices))
        payload["witness"] = tr.call("jsonio.dump", lambda: {
            "structure": jsonio.structure_to_json(c),
            "psi1": jsonio.map_to_json(psi1),
            "psi2": jsonio.map_to_json(psi2)})
    return _dump(tr, payload)


def jpp(spec, ctx, tr):
    a1, a2 = _parse(tr, spec["left"]), _parse(tr, spec["right"])
    got = tr.call("maps.amalgamate", jpp_witness, a1, a2, spec["family"],
                  budget=spec["budget"])
    return {"cert": _witness_cert(tr, "jpp", spec["family"], got)}


def _map_json(dom, cod, pairs):
    return {"domain": dom, "codomain": cod, "map": pairs}


def pap(spec, ctx, tr):
    phi1 = tr.call("jsonio.parse", jsonio.map_from_json, _map_json(
        spec["left"], spec["base"], spec["left_map"]))
    phi2 = tr.call("jsonio.parse", jsonio.map_from_json, _map_json(
        spec["right"], spec["base"], spec["right_map"]))
    got = tr.call("maps.amalgamate", pap_witness, phi1, phi2, spec["family"],
                  budget=spec["budget"])
    return {"cert": _witness_cert(tr, "pap", spec["family"], got)}


def check_witness(spec, out, memo):
    cert = json.loads(out["cert"])
    if not cert["exists"]:
        return "no witness returned, but one exists by construction"
    maps = (None, None)
    if spec["kind"] == "pap":
        maps = tuple(oracle.map_of({"domain": spec[side],
                                    "codomain": spec["base"],
                                    "map": spec[side + "_map"]})
                     for side in ("left", "right"))
    return oracle.witness_problem(cert, spec["family"],
                                  oracle.plain(spec["left"]),
                                  oracle.plain(spec["right"]), *maps)


def coinitial(spec, ctx, tr):
    s = _parse(tr, spec["structure"])
    cov, phi = tr.call("maps.amalgamate", coinitial_cover, s, spec["target"],
                       budget=spec["budget"])
    tr.count("maps.witness_vertices", len(cov.vertices))
    cert = tr.call("jsonio.dump", jsonio.map_to_json, phi)
    cert["claim"] = "epimorphism"
    return {"cert": _dump(tr, cert)}


def check_coinitial(spec, out, memo):
    cert = json.loads(out["cert"])
    cov, target = oracle.plain(cert["domain"]), oracle.plain(spec["structure"])
    if oracle.plain(cert["codomain"]) != target:
        return "cover map does not end at the input"
    return (oracle.family_problem(cov, spec["target"])
            or oracle.epi_problem(cov, target, oracle.map_of(cert)))


# ---- tower -----------------------------------------------------------------

RETRY_ROUNDS = 3


def _retry(tw: Tower, tr) -> None:
    rounds = 0
    while tw.pending and rounds < RETRY_ROUNDS:
        tr.call("tower.retry", tw.retry_pending)
        rounds += 1


def tower_task(spec, ctx, tr):
    if spec["first"]:
        seed = _parse(tr, spec["seed"])
        ctx.towers[spec["tower"]] = tr.call("tower.new", Tower.new, seed,
                                            stage_guard=spec["guard"])
    tw = ctx.towers[spec["tower"]]
    before = (len(tw.stages), tw.discharged)
    out = {"tower": tw, "before": before}
    if spec["kind"] == "integrity":
        tr.call("tower.verify_integrity", tw.verify_integrity)
        tr.count("tower.top_vertices", len(tw.top.vertices))
        return out
    if spec["kind"] == "extension":
        phi2 = tr.call("jsonio.parse", jsonio.map_from_json, spec["phi2"])
        phi1 = tr.call("tower.bond", tw.bond_composite, 0)
        out["square"] = (phi1, phi2)
        out["rho"] = tr.call("tower.discharge", tw.discharge_extension,
                             phi2=phi2, phi1=phi1)
    else:
        target = _parse(tr, spec["target"])
        out["done"] = tr.call("tower.discharge", tw.discharge_universality,
                              target)
    tr.count("tower.queued", len(tw.pending))
    _retry(tw, tr)
    tr.count("tower.discharged", tw.discharged - before[1])
    out["top"] = len(tw.top.vertices)
    return out


def check_tower(spec, out, memo):
    tw = out["tower"]
    n_stages, discharged = out["before"]
    if spec["kind"] == "integrity":
        return None if not tw.pending else "tasks left pending"
    if len(tw.stages) != n_stages + 1 or tw.discharged != discharged + 1:
        return "task did not add exactly one stage"
    stage, prev, bond = tw.stages[-1], tw.stages[-2], tw.bonds[-1]
    problem = (oracle.family_problem(oracle.plain_obj(stage), "Fn")
               or oracle.epi_problem(oracle.plain_obj(stage),
                                     oracle.plain_obj(prev), bond.mapping))
    if problem:
        return problem
    if spec["kind"] == "extension":
        rho = out["rho"]
        if rho is None:
            return "extension task was not discharged"
        phi1, phi2 = out["square"]
        lifted = {v: phi1.mapping[w] for v, w in bond.mapping.items()}
        if oracle.compose(phi2.mapping, rho.mapping) != lifted:
            return "extension square does not commute"
        return oracle.epi_problem(oracle.plain_obj(stage),
                                  oracle.plain_obj(phi2.domain), rho.mapping)
    return None if out["done"] else "universality task was not discharged"


def tower_probe(spec, ctx, tr):
    """Grow a tower past 1000 vertices, then discharge a universality task."""
    tw = Tower.new(jsonio.structure_from_json(spec["seed"]),
                   stage_guard=spec["guard"])
    phi2 = jsonio.map_from_json(spec["phi2"])
    for _ in range(spec["extensions"]):
        tw.discharge_extension(phi2=phi2, phi1=tw.bond_composite(0))
    target = jsonio.structure_from_json(spec["target"])
    before = (len(tw.stages), tw.discharged)
    done = tw.discharge_universality(target)
    return {"tower": tw, "before": before, "done": done}


def check_tower_probe(spec, out, memo):
    return check_tower({"kind": "universality"}, out, memo)


# ---- powers ----------------------------------------------------------------

def _algebra(tr, alg):
    a = preset_algebra(alg["preset"])
    if "points" in alg:
        a = tr.call("algebra.power", boolean_power, a, alg["points"])
    return a


def congruence(spec, ctx, tr):
    a = _algebra(tr, spec["algebra"])
    lattice = tr.call("algebra.congruence", congruence_lattice, a)
    tr.count("algebra.congruences", len(lattice))
    simple = (tr.call("algebra.congruence", is_simple, a) if spec["simple"]
              else None)
    return {"algebra": a, "simple": simple,
            "lattice": [[sorted(b) for b in p.blocks] for p in lattice]}


def _expected_congruences(alg) -> int:
    if "points" in alg:
        p = {"Z2": 2, "Z3": 3}[alg["preset"]]
        return oracle.subspace_count(p, alg["points"])
    # Normal subgroups of the group presets; the 2-element semilattice is
    # simple.
    return {"Z2": 2, "Z3": 2, "Z4": 3, "S3-as-group": 3,
            "2elt-semilattice": 2}[alg["preset"]]


def check_congruence(spec, out, memo):
    a, lattice = out["algebra"], out["lattice"]
    want = _expected_congruences(spec["algebra"])
    if len(lattice) != want:
        return f"{len(lattice)} congruences, expected {want}"
    if out["simple"] is not None and out["simple"] != (want == 2):
        return f"is_simple answered {out['simple']}"
    key = ("congruence", spec["algebra"]["preset"],
           spec["algebra"].get("points"), json.dumps(lattice))
    if key not in memo:
        memo[key] = oracle.congruence_problem(a.size, a.ops, lattice)
    return memo[key]


def malcev(spec, ctx, tr):
    a = _algebra(tr, spec["algebra"])
    return {"algebra": a,
            "table": tr.call("algebra.malcev", malcev_term_exists, a)}


def check_malcev(spec, out, memo):
    table = out["table"]
    if spec["algebra"]["preset"] == "2elt-semilattice":
        return None if table is None else "semilattice has a Mal'cev term"
    if table is None:
        return "no Mal'cev term found for a group"
    return oracle.malcev_problem(out["algebra"].size, table)


def automorphism_group(spec, ctx, tr):
    a = _algebra(tr, spec["algebra"])
    return {"order": tr.call("algebra.automorphisms", automorphisms, a).order}


def _expected_automorphisms(alg) -> int:
    if "points" in alg:  # Z2^k: the general linear group GL(k, 2)
        k, order = alg["points"], 1
        for i in range(k):
            order *= 2 ** k - 2 ** i
        return order
    return {"Z2": 1, "Z3": 2, "Z4": 2, "S3-as-group": 6,
            "2elt-semilattice": 1}[alg["preset"]]


def check_automorphisms(spec, out, memo):
    want = _expected_automorphisms(spec["algebra"])
    return None if out["order"] == want else \
        f"automorphism group of order {out['order']}, expected {want}"


def filtered(spec, ctx, tr):
    a = preset_algebra(spec["preset"])
    space = BooleanPowerSpace(spec["points"], tuple(spec["marked"]),
                              tuple(spec["pins"]))
    tr.call("algebra.power", space.validate_pins, a)
    power = tr.call("algebra.power", filtered_boolean_power, a, space)
    return {"base": a.size, "size": power.size}


def check_filtered(spec, out, memo):
    want = out["base"] ** (spec["points"] - len(spec["marked"]))
    return None if out["size"] == want else \
        f"filtered power has {out['size']} elements, expected {want}"


def transconj(spec, ctx, tr):
    group = preset_group(spec["group"])
    if spec["action"] == "flip":
        action = ((0, 1), (1, 0))
    elif spec["action"] == "regular":
        action = tr.call("autgroup.instance", regular_action, group)
    else:
        action = tr.call("autgroup.instance", natural_action, group)
    p, base = spec["p"], spec["base"]
    sp = tr.call("spirals.make", make_spiral, p, spec["q"], spec["r"])
    path = sp.path_vertices()
    lam = Labelling(sp.structure.vertices, group, 1,
                    {v: base[i % p] for i, v in enumerate(path)})
    inst = tr.call("autgroup.instance", cycle_cover_instance, p, spec["q"],
                   spec["r"], group, action, spec["a_size"], lam,
                   ell=spec["ell"], alpha=spec["alpha"])
    rows = inst.a_size ** len(inst.space.free_points())
    c = tr.call("autgroup.conjugator", qp_conjugator, inst)
    identity = []
    for i in range(inst.m):
        hb = Hbar(inst.space, inst.a_size, inst.h[i])
        identity.append(tr.call(
            "autgroup.identity", elements_equal,
            ProductAut([inst.kernel[i], hb]), conjugate(hb, c), inst.space,
            inst.a_size))
    cert = tr.call("jsonio.dump", jsonio.instance_to_json, inst)
    text = _dump(tr, {"kind": "transconj", "instance": cert})
    out = {"identity": identity, "verify": _verify(tr, ctx, text)}
    # Exhaustive comparisons: qp_conjugator, the identity check and verify
    # each evaluate every function of D once per relation.
    tr.count("autgroup.rows", 3 * inst.m * rows)
    return out


def check_transconj(spec, out, memo):
    if not all(out["identity"]):
        return "translate/conjugate identity fails"
    return _verify_ok(out)


def demo(spec, ctx, tr):
    rc, text = tr.call("cli.transconj", run_cli, [
        "transconj", "demo", "--preset", spec["preset"], "--seed",
        str(spec["seed"])])
    out = {"rc": rc, "text": text}
    if rc == 0:
        out["verify"] = _verify(tr, ctx, text)
    return out


def check_demo(spec, out, memo):
    if out["rc"] != 0:
        return f"transconj demo exited {out['rc']}: {out['text'].strip()}"
    return _verify_ok(out)


KINDS = {
    "cover": (cover, check_cover),
    "family": (epi_search, check_epi_search),
    "pair": (epi_search, check_epi_search),
    "jpp": (jpp, check_witness),
    "pap": (pap, check_witness),
    "coinitial": (coinitial, check_coinitial),
    "extension": (tower_task, check_tower),
    "universality": (tower_task, check_tower),
    "integrity": (tower_task, check_tower),
    "tower_probe": (tower_probe, check_tower_probe),
    "congruence": (congruence, check_congruence),
    "malcev": (malcev, check_malcev),
    "automorphisms": (automorphism_group, check_automorphisms),
    "filtered": (filtered, check_filtered),
    "transconj": (transconj, check_transconj),
    "demo": (demo, check_demo),
}
