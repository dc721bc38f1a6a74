"""Command-line surface: every operation with JSON/DOT output.

Exit codes: 0 success with machine-readable JSON on stdout, 1 verified
false, 2 usage error (including malformed JSON, with position info), 3
search cap exhausted.  Identical argv and seed give byte-identical stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Any

from . import jsonio
from .algebra import (BooleanPowerSpace, automorphisms, congruence_lattice,
                      is_idempotent, malcev_term_exists,
                      pin_closure_violation)
from .autgroup import (Khat, PowerAut, conjugator_values_in_stabiliser,
                       cycle_cover_instance, natural_action,
                       pinned_union_instance, qp_conjugator, regular_action,
                       verify_conjugator)
from .errors import CapExhausted, VerificationError
from .groups import Labelling, exponent, preset_group
from .maps import (check_epimorphism, check_homomorphism, compose,
                   find_epimorphism, jpp_witness, pap_witness)
from .spirals import (QPWitness, Spiral, spiral_cover_map,
                      spiral_qp_labelling, surj_qp_cover, verify_qp)
from .structures import FAMILIES, in_family
from .tower import Tower

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class _UsageError(Exception):
    def __init__(self, payload: dict[str, Any]):
        super().__init__(payload.get("error", "usage error"))
        self.payload = payload


def _load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise _UsageError({"error": f"no such file: {path}"}) from None
    except json.JSONDecodeError as exc:
        raise _UsageError({"error": "malformed JSON", "file": path,
                           "line": exc.lineno, "column": exc.colno,
                           "pos": exc.pos}) from None


# What a JSON document of the wrong shape raises in the parsers.
_MALFORMED = (KeyError, TypeError, AttributeError)


def _malformed(what: str, exc: Exception) -> _UsageError:
    why = f"no {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
    return _UsageError({"error": f"malformed {what}: {why}"})


def _parse(parse, path: str) -> Any:
    """Load a JSON file and parse it; a document of the wrong shape is a
    usage error, not a traceback."""
    doc = _load(path)
    try:
        return parse(doc)
    except _MALFORMED as exc:
        raise _malformed(f"input {path}", exc) from None


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _emit_json(obj: Any, out: str | None) -> None:
    _emit(jsonio.dumps(obj), out)


def _membership_report(rep) -> dict[str, Any]:
    d: dict[str, Any] = {"kind": "membership", "family": rep.family,
                         "member": rep.ok}
    if not rep.ok:
        d["reason"] = rep.reason
        if rep.vertex is not None:
            d["vertex"] = rep.vertex
        if rep.relation is not None:
            d["relation"] = rep.relation
        if rep.edge is not None:
            d["edge"] = list(rep.edge)
    return d


def _cmd_check(args) -> int:
    s = _parse(jsonio.structure_from_json, args.infile)
    rep = in_family(s, args.family)
    out = _membership_report(rep)
    out["structure"] = jsonio.structure_to_json(s)
    _emit_json(out, args.out)
    return EXIT_OK if rep.ok else EXIT_FALSE


def _cmd_epi(args) -> int:
    dom = _parse(jsonio.structure_from_json, args.dom)
    cod = _parse(jsonio.structure_from_json, args.cod)
    phi = find_epimorphism(dom, cod, budget=args.cap)
    if phi is None:
        _emit_json({"kind": "epi", "exists": False}, args.out)
        return EXIT_FALSE
    cert = jsonio.map_to_json(phi)
    cert["claim"] = "epimorphism"
    _emit_json({"kind": "epi", "exists": True, "witness": cert}, args.out)
    return EXIT_OK


def _witness_json(c, psi1, psi2) -> dict[str, Any]:
    return {"structure": jsonio.structure_to_json(c),
            "psi1": jsonio.map_to_json(psi1),
            "psi2": jsonio.map_to_json(psi2)}


def _cmd_amalgamate(args) -> int:
    if args.jpp:
        a1 = _parse(jsonio.structure_from_json, args.left)
        a2 = _parse(jsonio.structure_from_json, args.right)
        got = jpp_witness(a1, a2, args.family, size_cap=args.cap)
        payload: dict[str, Any] = {"kind": "jpp", "family": args.family}
    else:
        phi1 = _parse(jsonio.map_from_json, args.left)
        phi2 = _parse(jsonio.map_from_json, args.right)
        got = pap_witness(phi1, phi2, args.family, size_cap=args.cap)
        payload = {"kind": "pap", "family": args.family,
                   "phi1": jsonio.map_to_json(phi1),
                   "phi2": jsonio.map_to_json(phi2)}
    if got is None:
        payload["exists"] = False
        _emit_json(payload, args.out)
        return EXIT_FALSE
    payload["exists"] = True
    payload["witness"] = _witness_json(*got)
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_spiral(args) -> int:
    if args.action == "make":
        sp = Spiral(args.p, args.q, args.r)
        if args.dot:
            _emit(jsonio.structure_to_dot(sp.structure), args.out)
        else:
            _emit_json(jsonio.structure_to_json(sp.structure), args.out)
        return EXIT_OK
    phi = spiral_cover_map(args.t, args.p, args.q, args.r)
    cert = jsonio.map_to_json(phi, checked=check_epimorphism(phi))
    cert["claim"] = "epimorphism"
    _emit_json(cert, args.out)
    return EXIT_OK


def _parse_label_values(raw: Any, width: int) -> dict[str, tuple[int, ...]]:
    out = {}
    for name, val in raw.items():
        tup = (int(val),) if isinstance(val, int) else tuple(
            int(x) for x in val)
        if len(tup) != width:
            raise _UsageError({"error": f"label for {name} has width "
                               f"{len(tup)}, expected {width}"})
        out[str(name)] = tup
    return out


def _qp_witness_json(w: QPWitness) -> dict[str, Any]:
    return {"kind": "qp",
            "phi": jsonio.map_to_json(w.phi),
            "lam": jsonio.labelling_to_json(w.lam),
            "mu": jsonio.labelling_to_json(w.mu),
            "checked": bool(verify_qp(w))}


def _cmd_qp(args) -> int:
    group = preset_group(args.group)
    if args.action == "label":
        sp = Spiral(args.p, args.q, args.r)
        raw = _parse(lambda d: _parse_label_values(d, args.width),
                     args.labels)
        try:
            values = {sp.vertex_by_name(name): tup
                      for name, tup in raw.items()}
        except (KeyError, ValueError):
            raise _UsageError({"error": "labels must use spiral vertex "
                               "names"}) from None
        lam = Labelling(sp.structure.vertices, group, args.width, values)
        t = exponent(group)
        big = Spiral(t * args.p, args.q, t * args.r)
        x0 = big.vertex_by_name(args.x0)
        w = spiral_qp_labelling(sp, lam, args.component - 1, group, x0,
                                args.alpha)
        _emit_json(_qp_witness_json(w), args.out)
        return EXIT_OK
    s = _parse(jsonio.structure_from_json, args.infile)
    if args.labels:
        raw = _parse(lambda d: _parse_label_values(d, s.m), args.labels)
        idx = {s.label_of(v): v for v in s.vertices}
        lam = Labelling(s.vertices, group, s.m,
                        {idx[name]: tup for name, tup in raw.items()})
    else:
        rng = random.Random(args.seed)
        lam = Labelling(s.vertices, group, s.m,
                        {v: tuple(rng.randrange(group.order)
                                  for _ in range(s.m))
                         for v in s.sorted_vertices()})
    w = surj_qp_cover(s, lam, group)
    out = _qp_witness_json(w)
    out["cover_in_F0"] = bool(in_family(w.phi.domain, "F0"))
    _emit_json(out, args.out)
    return EXIT_OK


def _cmd_algebra(args) -> int:
    a = (_parse(jsonio.algebra_from_json, args.infile) if args.infile
         else jsonio.algebra_from_json(args.preset))
    out: dict[str, Any] = {"kind": "algebra",
                           "algebra": jsonio.algebra_to_json(a)}
    if args.idempotents:
        out["idempotents"] = [e for e in range(a.size)
                              if is_idempotent(a, e)]
    if args.simple:
        lattice = congruence_lattice(a)
        out["congruences"] = [[sorted(b) for b in p.blocks]
                              for p in lattice]
        out["simple"] = len(lattice) == 2
    if args.malcev:
        table = malcev_term_exists(a)
        out["malcev"] = list(table) if table is not None else None
    if args.automorphisms:
        aut = automorphisms(a)
        out["automorphism_order"] = aut.order
    _emit_json(out, args.out)
    return EXIT_OK


def _cmd_power(args) -> int:
    a = (_parse(jsonio.algebra_from_json, args.infile) if args.infile
         else jsonio.algebra_from_json(args.preset))
    marked = tuple(args.marked or ())
    pins = tuple(args.pins or ())
    try:
        space = BooleanPowerSpace(args.points, marked, pins)
        space.validate_pins(a)
    except ValueError as exc:
        payload: dict[str, Any] = {"kind": "power", "closed": False,
                                   "error": str(exc)}
        for e in pins:
            viol = pin_closure_violation(a, e)
            if viol is not None:
                payload["violation"] = {"op": viol[0], "args": list(viol[1]),
                                        "result": viol[2]}
                break
        _emit_json(payload, args.out)
        return EXIT_FALSE
    # Each free point takes any element and each marked point its pin.
    size = a.size ** len(space.free_points())
    _emit_json({"kind": "power", "closed": True, "size": size,
                "points": args.points, "marked": list(marked),
                "pins": list(pins)}, args.out)
    return EXIT_OK


def _transconj_preset(name: str, seed: int):
    rng = random.Random(seed)
    if name in ("z2-spiral", "z3-spiral", "s3-spiral"):
        gname = {"z2-spiral": "Z2", "z3-spiral": "Z3",
                 "s3-spiral": "S3"}[name]
        group = preset_group(gname)
        if gname == "Z2":
            action, a_size = ((0, 1), (1, 0)), 2
        elif gname == "Z3":
            action, a_size = regular_action(group), 3
        else:
            action, a_size = natural_action(group), 3
        sp = Spiral(2, 1, 2)
        g = rng.randrange(group.order)
        lam = Labelling(sp.structure.vertices, group, 1,
                        {sp.a(1): g, sp.a(2): 0, sp.c(2): g})
        alpha = rng.randrange(group.order)
        return cycle_cover_instance(2, 1, 2, group, action, a_size, lam,
                                    alpha=alpha), None
    if name == "z2-pinned":
        group = preset_group("Z2")
        action, a_size = ((0, 1), (1, 0)), 2
        sp = Spiral(2, 1, 2)
        g = rng.randrange(group.order)
        lam_far = Labelling(sp.structure.vertices, group, 1,
                            {sp.a(1): g, sp.a(2): 0, sp.c(2): g})
        lam_near = Labelling(sp.structure.vertices, group, 1,
                             {v: 0 for v in sp.structure.vertices})
        far = cycle_cover_instance(2, 1, 2, group, action, a_size, lam_far)
        near = cycle_cover_instance(2, 1, 2, group, action, a_size,
                                    lam_near)
        inst, near_pts = pinned_union_instance(far, near, pin=0)
        return inst, near_pts
    raise _UsageError({"error": f"unknown transconj preset {name!r}"})


def _cmd_transconj(args) -> int:
    inst, near_pts = _transconj_preset(args.preset, args.seed)
    c = qp_conjugator(inst)
    transcript = ["instance invariants verified"]
    for i in range(inst.m):
        transcript.append(
            f"relation {i + 1}: translate equals conjugate")
    if near_pts is not None:
        pin = inst.space.pins[0]
        ok = conjugator_values_in_stabiliser(c, near_pts, pin)
        transcript.append(f"near-block conjugator values stabilise pin: "
                          f"{ok}")
    transcript.append("identity decided by semidirect normal form")
    payload = {"kind": "transconj", "preset": args.preset,
               "seed": args.seed,
               "instance": jsonio.instance_to_json(inst),
               "conjugator": [[x, list(p)]
                              for x, p in sorted(c.values.items())],
               "transcript": transcript}
    _emit_json(payload, args.out)
    if args.dot:
        notes = {v: inst.group.names[inst.mu.values[v][0]]
                 for v in inst.q.vertices}
        sys.stdout.write(jsonio.structure_to_dot(inst.q, notes))
    return EXIT_OK


def _task_int(task: Any, key: str, least: int, default: Any) -> Any:
    """A task's integer ``key`` (never a bool), at least ``least``."""
    val = task.get(key, default)
    if key in task and (type(val) is not int or val < least):
        raise TypeError(f"task {key} must be an integer >= {least}, "
                        f"got {val!r}")
    return val


def _tower_tasks(doc: Any) -> tuple[Any, list[tuple[str, Any, int, Any]]]:
    """The seed structure of a tasks document and its tasks as (kind,
    target or phi2, base stage, cap)."""
    seed = jsonio.structure_from_json(doc["seed"])
    tasks = []
    for task in doc.get("tasks", []):
        kind = task["kind"]
        cap = _task_int(task, "cap", 1, None)
        if kind == "universality":
            tasks.append((kind, jsonio.structure_from_json(task["target"]),
                          0, cap))
        elif kind == "extension":
            tasks.append((kind, jsonio.map_from_json(task["phi2"]),
                          _task_int(task, "base_stage", 0, 0), cap))
        else:
            raise _UsageError({"error": f"unknown task kind {kind!r}"})
    return seed, tasks


def _cmd_tower(args) -> int:
    seed, tasks = _parse(_tower_tasks, args.tasks)
    tw = Tower.new(seed, stage_guard=args.guard)
    outcomes = []
    for kind, target, base, cap in tasks:
        if args.stages and len(tw.stages) >= args.stages:
            outcomes.append({"task": kind, "done": False,
                             "reason": "stage limit reached"})
            continue
        if kind == "universality":
            ok = tw.discharge_universality(target, cap=cap)
            outcomes.append({"task": kind, "done": ok})
        else:
            phi1 = tw.bond_composite(base)
            if target.codomain != tw.stages[base]:
                raise _UsageError({"error": "phi2 codomain is not the "
                                   f"declared stage {base}"})
            rho = tw.discharge_extension(phi2=target, phi1=phi1, cap=cap)
            outcomes.append({"task": kind, "done": rho is not None})
    rounds = 0
    while tw.pending and rounds < args.retries:
        tw.retry_pending()
        rounds += 1
    tw.verify_integrity()
    payload = {"kind": "tower", "status": tw.status().as_dict(),
               "outcomes": outcomes,
               "stages": [jsonio.structure_to_json(s) for s in tw.stages],
               "bonds": [jsonio.map_to_json(b) for b in tw.bonds]}
    _emit_json(payload, args.out)
    if args.dot:
        for stage in tw.stages:
            sys.stdout.write(jsonio.structure_to_dot(stage))
    return EXIT_OK if not tw.pending else EXIT_CAP


def _verify_map(cert: dict[str, Any]) -> bool:
    phi = jsonio.map_from_json(cert)
    claim = cert.get("claim", "epimorphism")
    if claim == "homomorphism":
        return check_homomorphism(phi)
    return check_epimorphism(phi)


def _conjugator(inst, pairs: Any) -> PowerAut:
    """A certificate's conjugator as a kernel element of the instance; one
    that is not a permutation at every free point fails verification."""
    values = {int(x): tuple(int(v) for v in p) for x, p in pairs}
    try:
        return Khat(inst.space, inst.a_size, values)
    except ValueError as exc:
        raise VerificationError(
            f"conjugator is not a kernel element: {exc}") from None


def _check_certificate(kind: Any, cert: dict[str, Any]) -> tuple[bool, str]:
    ok = False
    detail = ""
    if kind in ("map", "epi"):
        ok = _verify_map(cert.get("witness", cert))
    elif kind == "membership":
        s = jsonio.structure_from_json(cert["structure"])
        ok = bool(in_family(s, cert["family"])) == bool(
            cert.get("member", True))
    elif kind == "qp":
        phi = jsonio.map_from_json(cert["phi"])
        lam = jsonio.labelling_from_json(cert["lam"])
        mu = jsonio.labelling_from_json(cert["mu"], group=lam.group)
        rep = verify_qp(QPWitness(phi, lam, mu))
        ok = bool(rep) and check_epimorphism(phi)
        detail = rep.reason if not rep else ""
    elif kind in ("pap", "jpp"):
        wit = cert["witness"]
        psi1 = jsonio.map_from_json(wit["psi1"])
        psi2 = jsonio.map_from_json(wit["psi2"])
        # both epimorphisms must leave the one witness structure
        ok = (psi1.domain == psi2.domain
              == jsonio.structure_from_json(wit["structure"])
              and check_epimorphism(psi1) and check_epimorphism(psi2))
        family = cert["family"]
        if family not in FAMILIES:
            raise TypeError(f"family must be one of {', '.join(FAMILIES)}, "
                            f"got {family!r}")
        if ok:
            try:
                ok = bool(in_family(psi1.domain, family))
            except ValueError as exc:  # the family does not fit n
                ok, detail = False, str(exc)
        if ok and kind == "pap":
            phi1 = jsonio.map_from_json(cert["phi1"])
            phi2 = jsonio.map_from_json(cert["phi2"])
            if (psi1.codomain, psi2.codomain) != (phi1.domain, phi2.domain):
                ok, detail = False, "the square does not compose"
            else:
                ok = compose(phi1, psi1) == compose(phi2, psi2)
    elif kind == "transconj":
        inst = jsonio.instance_from_json(cert.get("instance", cert))
        try:
            if "conjugator" in cert:
                inst.verify()
                verify_conjugator(inst, _conjugator(inst, cert["conjugator"]))
            else:
                qp_conjugator(inst)
            ok = True
        except VerificationError as exc:
            ok, detail = False, str(exc)
    else:
        raise _UsageError({"error": f"unknown certificate kind {kind!r}"})
    return ok, detail


def _cmd_verify(args) -> int:
    cert = _load(args.infile)
    if not isinstance(cert, dict):
        raise _UsageError({"error": "a certificate must be a JSON object"})
    kind = cert.get("kind")
    try:
        ok, detail = _check_certificate(kind, cert)
    except _MALFORMED as exc:
        raise _malformed(f"{kind} certificate", exc) from None
    payload = {"kind": "verify", "certificate": kind, "ok": ok}
    if detail:
        payload["detail"] = detail
    _emit_json(payload, args.out)
    return EXIT_OK if ok else EXIT_FALSE


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first ``run`` and kept."""
    ap = argparse.ArgumentParser(prog="profin")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("epi")
    p.add_argument("--dom", required=True)
    p.add_argument("--cod", required=True)
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_epi)

    p = sub.add_parser("amalgamate")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--jpp", action="store_true")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_amalgamate)

    p = sub.add_parser("spiral")
    p.add_argument("action", choices=["make", "cover"])
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-t", type=int, default=1)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_spiral)

    p = sub.add_parser("qp")
    p.add_argument("action", choices=["label", "cover"])
    p.add_argument("--group", required=True)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("-p", type=int, default=2)
    p.add_argument("-q", type=int, default=1)
    p.add_argument("-r", type=int, default=2)
    p.add_argument("--component", type=int, default=1)
    p.add_argument("--width", type=int, default=1)
    p.add_argument("--x0", default="a1")
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_qp)

    p = sub.add_parser("algebra")
    p.add_argument("--preset", default=None)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--malcev", action="store_true")
    p.add_argument("--idempotents", action="store_true")
    p.add_argument("--automorphisms", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("power")
    p.add_argument("--preset", default=None)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--marked", type=int, nargs="*", default=None)
    p.add_argument("--pins", type=int, nargs="*", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("transconj")
    p.add_argument("action", choices=["demo"])
    p.add_argument("--preset", default="z2-spiral")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_transconj)

    p = sub.add_parser("tower")
    p.add_argument("action", choices=["grow"])
    p.add_argument("--tasks", required=True)
    p.add_argument("--stages", type=int, default=0)
    p.add_argument("--guard", type=int, default=64)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser("verify")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    return ap


def run(argv: list[str]) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _UsageError as exc:
        sys.stdout.write(jsonio.dumps(exc.payload))
        return EXIT_USAGE
    except CapExhausted as exc:
        sys.stdout.write(jsonio.dumps({"error": str(exc),
                                       "cap_exhausted": True,
                                       "stats": exc.stats}))
        return EXIT_CAP
    except VerificationError as exc:
        sys.stdout.write(jsonio.dumps({"error": str(exc),
                                       "verified": False}))
        return EXIT_FALSE
    except ValueError as exc:
        sys.stdout.write(jsonio.dumps({"error": str(exc)}))
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
