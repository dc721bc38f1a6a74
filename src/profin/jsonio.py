"""JSON and DOT serialization.

Structures serialize with vertex names: ids are positions in the vertex
list on parse, so emitting canonically (ids sorted) makes emit/parse/emit
byte-stable.  All emitters sort their output for meaningful diffs.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .algebra import BooleanPowerSpace, FinAlgebra, preset_algebra
from .autgroup import Khat, TransconjInstance, block_quotient
from .groups import FinGroup, Labelling, preset_group
from .maps import StructMap
from .structures import FinStructure, Partition

DOT_PALETTE = ("black", "red", "blue", "darkgreen", "orange", "purple")


def _names(s: FinStructure) -> dict[int, str]:
    order = s.sorted_vertices()
    names = {v: s.label_of(v) for v in order}
    if len(set(names.values())) != len(order):
        names = {v: str(v) for v in order}
    return names


def structure_to_json(s: FinStructure) -> dict[str, Any]:
    names = _names(s)
    order = s.sorted_vertices()
    return {
        "m": s.m,
        "n": s.n,
        "vertices": [names[v] for v in order],
        "relations": [sorted([names[a], names[b]] for a, b in rel)
                      for rel in s.relations],
        "constants": [names[c] for c in s.constants],
    }


def structure_from_json(d: Mapping[str, Any]) -> FinStructure:
    names = [str(x) for x in d["vertices"]]
    if len(set(names)) != len(names):
        raise ValueError("duplicate vertex names")
    idx = {name: i for i, name in enumerate(names)}
    try:
        rels = [{(idx[str(a)], idx[str(b)]) for a, b in rel}
                for rel in d["relations"]]
        consts = [idx[str(c)] for c in d.get("constants", [])]
    except KeyError as exc:
        raise ValueError(f"unknown vertex name {exc.args[0]!r}") from None
    m = int(d["m"])
    labels = {i: name for i, name in enumerate(names)}
    s = FinStructure(m, range(len(names)), rels, constants=consts,
                     labels=labels)
    if "n" in d and int(d["n"]) != s.n:
        raise ValueError(f"declared n={d['n']} but {s.n} constants listed")
    return s


def map_to_json(phi: StructMap, checked: bool = True) -> dict[str, Any]:
    dn, cn = _names(phi.domain), _names(phi.codomain)
    return {
        "kind": "map",
        "domain": structure_to_json(phi.domain),
        "codomain": structure_to_json(phi.codomain),
        "map": [[dn[v], cn[w]] for v, w in phi.as_pairs()],
        "checked": checked,
    }


def map_from_json(d: Mapping[str, Any]) -> StructMap:
    dom = structure_from_json(d["domain"])
    cod = structure_from_json(d["codomain"])
    didx = {dom.label_of(v): v for v in dom.vertices}
    cidx = {cod.label_of(v): v for v in cod.vertices}
    mapping = {didx[str(v)]: cidx[str(w)] for v, w in d["map"]}
    return StructMap(dom, cod, mapping)


def group_to_json(t: FinGroup) -> dict[str, Any]:
    return {"order": t.order, "table": [list(row) for row in t.table]}


def group_from_json(d: Mapping[str, Any] | str) -> FinGroup:
    if isinstance(d, str):
        return preset_group(d)
    if "preset" in d:
        return preset_group(str(d["preset"]))
    return FinGroup(d["table"])


def labelling_to_json(lab: Labelling) -> dict[str, Any]:
    return {
        "width": lab.width,
        "group": group_to_json(lab.group),
        "values": [[v, list(lab.values[v])] for v in sorted(lab.carrier)],
    }


def labelling_from_json(d: Mapping[str, Any],
                        group: FinGroup | None = None) -> Labelling:
    t = group if group is not None else group_from_json(d["group"])
    values = {int(v): tuple(val) for v, val in d["values"]}
    return Labelling(values.keys(), t, int(d["width"]), values)


def algebra_to_json(a: FinAlgebra) -> dict[str, Any]:
    return {"size": a.size,
            "ops": [{"arity": arity, "table": list(table)}
                    for arity, table in a.ops]}


def algebra_from_json(d: Mapping[str, Any] | str) -> FinAlgebra:
    if isinstance(d, str):
        return preset_algebra(d)
    if "preset" in d:
        return preset_algebra(str(d["preset"]))
    return FinAlgebra(int(d["size"]),
                      [(int(op["arity"]), op["table"]) for op in d["ops"]])


def structure_to_dot(s: FinStructure, node_notes: Mapping[int, str]
                     | None = None) -> str:
    """Stable DOT rendering: one color per relation, double circles for
    constants, optional per-node annotations."""
    names = _names(s)
    consts = set(s.constants)
    lines = ["digraph G {", "  node [shape=circle];"]
    for v in s.sorted_vertices():
        opts = []
        if node_notes and v in node_notes:
            opts.append(f'label="{names[v]}|{node_notes[v]}"')
        if v in consts:
            opts.append("peripheries=2")
        opt = " [" + ", ".join(opts) + "]" if opts else ""
        lines.append(f'  "{names[v]}"{opt};')
    for i, rel in enumerate(s.relations):
        color = DOT_PALETTE[i % len(DOT_PALETTE)]
        for a, b in sorted(rel):
            lines.append(f'  "{names[a]}" -> "{names[b]}" '
                         f'[color={color}, label="s{i + 1}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def instance_to_json(inst: TransconjInstance) -> dict[str, Any]:
    """Full translate-to-conjugate instance, re-verifiable on load."""
    qn = _names(inst.q)
    return {
        "kind": "transconj",
        "points": inst.space.points,
        "marked": list(inst.space.marked),
        "pins": list(inst.space.pins),
        "a_size": inst.a_size,
        "group": group_to_json(inst.group),
        "action": [list(p) for p in inst.action],
        "h": [list(p) for p in inst.h],
        "partition": [sorted(b) for b in inst.partition.blocks],
        "q": structure_to_json(inst.q),
        "phi2_map": [[qn[v], inst.phi2.mapping[v]]
                     for v in inst.q.sorted_vertices()],
        "lam": labelling_to_json(inst.lam),
        "mu": [[qn[v], inst.mu.values[v][0]]
               for v in inst.q.sorted_vertices()],
        "psi": [[x, qn[inst.psi[x]]] for x in range(inst.space.points)],
        "kernel": [[[x, list(p)] for x, p in sorted(k.values.items())]
                   for k in inst.kernel],
    }


def instance_from_json(d: Mapping[str, Any]) -> TransconjInstance:
    space = BooleanPowerSpace(int(d["points"]),
                              tuple(int(x) for x in d["marked"]),
                              tuple(int(e) for e in d["pins"]))
    group = group_from_json(d["group"])
    action = tuple(tuple(int(v) for v in p) for p in d["action"])
    h = tuple(tuple(int(v) for v in p) for p in d["h"])
    part = Partition([set(map(int, b)) for b in d["partition"]])
    q = structure_from_json(d["q"])
    qidx = {q.label_of(v): v for v in q.vertices}
    blk, _ = block_quotient(space, h, part)
    phi2 = StructMap(q, blk, {qidx[str(v)]: int(b) for v, b in d["phi2_map"]})
    lam = labelling_from_json(d["lam"], group=group)
    mu = Labelling(q.vertices, group, 1,
                   {qidx[str(v)]: (int(g),) for v, g in d["mu"]})
    psi = {int(x): qidx[str(v)] for x, v in d["psi"]}
    kernel = tuple(
        Khat(space, int(d["a_size"]),
             {int(x): tuple(map(int, p)) for x, p in kv})
        for kv in d["kernel"])
    return TransconjInstance(
        space=space, a_size=int(d["a_size"]), group=group, action=action,
        h=h, partition=part, q=q, phi2=phi2, lam=lam, mu=mu, psi=psi,
        kernel=kernel)


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
