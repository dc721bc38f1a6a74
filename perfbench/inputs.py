"""Seeded input generator for the four workloads (standard library only).

``generate(workload, seed, seconds)`` returns plain JSON-shaped data:
structures in the ``profin`` JSON layout (vertex names, relations as name
pairs, constants), label values keyed by vertex name, and small scalar
parameters.  The same seed always gives the same inputs; profin sees nothing
else.

Inputs come in rounds.  Every round of a workload holds the same mix of job
shapes with fresh random content, so every run measures the same mix.  That
keeps the spread between seeds small.  The number of rounds follows from the
workload and ``--seconds`` alone, never from how fast the program runs, so
two commits compared at the same ``--seconds`` run the same jobs.
"""

from __future__ import annotations

import math
import random

SEARCH_BUDGET = 1_000_000
TOWER_STAGE_GUARD = 1 << 16
# Busy seconds of one round at the commit that added the benchmark, on a
# 2-vCPU Intel Xeon VM.  A run does ``seconds / ROUND_SECONDS`` rounds, and
# at least enough for MIN_JOBS jobs; these are constants, not measured per
# run.
ROUND_SECONDS = {"cover": 2.1, "search": 5.0, "tower": 3.1, "powers": 15.0}
# Enough jobs that at least ten lie beyond the 90th percentile.
MIN_JOBS = 100

# Cover slots (vertices, relations, group, cycle length, extra edges).  Each
# relation is a random permutation whose cycles have the given length, plus
# that many random extra edges (at most 8% of all pairs).  Fixing the cycle
# type and the edge count keeps the cover size of a slot within a few
# percent, so seeds give comparable runs; the largest slot is bounded so a
# job stays under a second.  Slots come in equal pairs where the median and
# the 90th percentile of a run fall, so those land inside a size class.
COVER_SLOTS = (
    (4, 1, "Z2", 2, 1), (4, 1, "Z2", 2, 1),
    (6, 1, "Z3", 3, 2), (6, 2, "Z2", 2, 3),
    (8, 2, "Z3", 2, 4), (8, 2, "Z3", 2, 4),
    (12, 2, "Z4", 3, 6), (16, 1, "S3", 4, 8),
    (12, 2, "A4", 3, 6), (12, 2, "A4", 3, 6),
)
GROUP_ORDER = {"Z2": 2, "Z3": 3, "Z4": 4, "S3": 6, "A4": 12}

# Search: k disjoint copies of xy onto the looped cycle C_j; an epimorphism
# exists iff k >= j.  j = 7 exhausts the node budget at the seed commit and
# runs as a known-defect probe instead.  A round holds the family in
# canonical vertex order, xy^3 onto C_4 again in eight seeded vertex orders,
# six witness jobs and 78 random pairs: 100 jobs.  The random pairs are the
# bulk, so the median falls inside their sub-millisecond cluster.  The tenth
# of a round beyond the 90th percentile is the five heaviest jobs, xy^4 onto
# C_4 and four of the nine xy^3 onto C_4 jobs, so the 90th percentile falls
# in the middle of that cluster rather than on one job.
FAMILY_J = (3, 4, 5, 6)
REORDERED = (3, 4, 8)  # (k, j, orderings)
SEARCH_PAIRS_PER_ROUND = 78
# Tower layouts: (extension tasks, ((slot, xy copies), ...)).  A tower grows
# from xy plus one constant; an extension task folds xy+xy onto xy over
# stage 0 and doubles the top, and a universality task before extension
# ``slot`` covers that many copies of xy plus one constant and adds a few
# vertices.  Job cost grows with the top, so a round's latencies form a
# ladder.  All universality tasks sit before the seventh extension, on tops
# of about 130 vertices, far below the size at which the solver's recursion
# fails (that failure runs as a separate known-defect probe).  With the
# sixth extension of each tower they make a band of nine jobs of near equal
# cost in the middle of the ladder, so a round's median falls inside that
# band rather than between two rungs.  Fixed layouts keep the stage sizes,
# and so the latencies, the same for every seed.
TOWER_LAYOUTS = (
    (9, ((6, 2),)),
    (10, ((6, 1), (6, 3))),
    (11, ((6, 3), (6, 1), (6, 2))),
)
# Powers: Boolean powers (base preset, points).  Their congruences are the
# subgroups of Z_p^k, which the check counts independently.
ALGEBRA_PRESETS = ("Z2", "Z3", "Z4", "S3-as-group", "2elt-semilattice")
BOOLEAN_POWERS = (("Z2", 2), ("Z2", 3), ("Z3", 2), ("Z2", 4))
ALGEBRA_SIZE = {"Z2": 2, "Z3": 3, "Z4": 4, "S3-as-group": 6,
                "2elt-semilattice": 2}
# automorphisms() brute-forces universe permutations up to this size.
AUTOMORPHISM_CAP = 8
# Translate-to-conjugate shapes: group, action, carrier size, (p, q, r, ell).
# Sized so that exhaustive evaluation (qp_conjugator, the identity check,
# verify and the demos) and the congruence lattices each take well over a
# third of the busy time: 42% and 54% in a traced run at the commit that
# added the benchmark.  Otherwise the lattices hide autgroup changes.
TRANSCONJ_SHAPES = (
    ("Z2", "flip", 2, (2, 1, 2, 1)),
    ("Z2", "flip", 2, (2, 1, 2, 2)),
    ("Z2", "flip", 2, (4, 1, 4, 1)),
    ("Z2", "flip", 2, (3, 1, 3, 2)),
    ("Z2", "flip", 2, (4, 1, 4, 2)),
    ("Z2", "flip", 2, (2, 1, 2, 5)),
    ("Z3", "regular", 3, (2, 1, 2, 1)),
    ("Z3", "regular", 3, (2, 1, 2, 2)),
    ("Z3", "regular", 3, (4, 1, 4, 1)),
    ("S3", "natural", 3, (2, 1, 2, 1)),
    ("S3", "natural", 3, (2, 2, 2, 1)),
)
DEMO_PRESETS = ("z2-spiral", "s3-spiral", "z2-pinned")
# Filtered Boolean powers (preset, points): one marked point pinned to the
# identity 0, so the power has |A|^(points - 1) elements.
FILTERED_POWERS = (("Z2", 3), ("Z2", 4), ("Z3", 3), ("Z3", 4), ("Z4", 3),
                   ("Z4", 4), ("S3-as-group", 3), ("2elt-semilattice", 4))

WORKLOADS = ("cover", "search", "tower", "powers")


def structure(m: int, n: int, rels, constants=(), prefix: str = "v"):
    """JSON structure on vertices ``prefix0..prefix{n-1}``."""
    names = [f"{prefix}{i}" for i in range(n)]
    return {"m": m, "n": len(constants), "vertices": names,
            "relations": [sorted([names[a], names[b]] for a, b in rel)
                          for rel in rels],
            "constants": [names[c] for c in constants]}


def random_f0_rels(rng: random.Random, n: int, m: int, extra: float):
    """Per relation a random permutation plus each other pair w.p. ``extra``."""
    rels = []
    for _ in range(m):
        perm = list(range(n))
        rng.shuffle(perm)
        rel = {(v, perm[v]) for v in range(n)}
        for a in range(n):
            for b in range(n):
                if rng.random() < extra:
                    rel.add((a, b))
        rels.append(rel)
    return rels


def xy_copies(k: int, constants: int = 0):
    """k disjoint copies of xy (loop at x, edge x->y, loop at y), plus
    ``constants`` isolated loop points listed as constants."""
    rel = set()
    for c in range(k):
        x, y = 2 * c, 2 * c + 1
        rel |= {(x, x), (x, y), (y, y)}
    n = 2 * k
    consts = list(range(n, n + constants))
    rel |= {(p, p) for p in consts}
    return structure(1, n + constants, [rel], consts)


def looped_cycle(j: int, constants: int = 0):
    rel = {(i, i) for i in range(j)} | {(i, (i + 1) % j) for i in range(j)}
    consts = list(range(j, j + constants))
    rel |= {(p, p) for p in consts}
    return structure(1, j + constants, [rel], consts, prefix="c")


def reordered(rng: random.Random, st):
    """The same structure with its vertices listed in a random order, which
    renumbers them and so changes the solver's search order."""
    names = list(st["vertices"])
    rng.shuffle(names)
    return dict(st, vertices=names)


def blow_up(rng: random.Random, base_rels, n: int, m: int):
    """Structure over ``base`` with 1-2 copies per vertex and every copy pair
    over a base edge joined, with the projection as a name map.  The
    projection is an epimorphism by construction."""
    copies = []
    for v in range(n):
        copies.extend((v, c) for c in range(rng.randint(1, 2)))
    index = {cv: i for i, cv in enumerate(copies)}
    rels = []
    for i in range(m):
        rels.append({(index[(a, ca)], index[(b, cb)])
                     for a, b in base_rels[i]
                     for (x, ca) in copies if x == a
                     for (y, cb) in copies if y == b})
    return (structure(m, len(copies), rels, prefix="u"),
            [[f"u{index[cv]}", f"v{cv[0]}"] for cv in copies])


def cycle_type_rels(rng: random.Random, n: int, m: int, cycle: int,
                    extra: int):
    """Per relation a random permutation with cycles of length ``cycle``
    (the last one shorter if needed) plus ``extra`` random other pairs."""
    rels = []
    for _ in range(m):
        order = list(range(n))
        rng.shuffle(order)
        rel = set()
        for start in range(0, n, cycle):
            block = order[start:start + cycle]
            rel |= {(block[i], block[(i + 1) % len(block)])
                    for i in range(len(block))}
        while len(rel) < n + extra:
            rel.add((rng.randrange(n), rng.randrange(n)))
        rels.append(rel)
    return rels


def _cover_round(rng: random.Random, r: int):
    jobs = []
    for s, (n, m, group, cycle, extra) in enumerate(COVER_SLOTS):
        st = structure(m, n, cycle_type_rels(rng, n, m, cycle, extra))
        order = GROUP_ORDER[group]
        labels = {name: [rng.randrange(order) for _ in range(m)]
                  for name in st["vertices"]}
        jobs.append({"id": f"cover/r{r}/s{s}-{group}-n{n}-m{m}",
                     "kind": "cover", "structure": st, "group": group,
                     "labels": labels})
    rng.shuffle(jobs)
    return jobs


def _search_round(rng: random.Random, r: int):
    jobs = []
    for j in FAMILY_J:
        for k in (j - 1, j):
            jobs.append({"id": f"search/r{r}/xy{k}-C{j}", "kind": "family",
                         "dom": xy_copies(k), "cod": looped_cycle(j),
                         "expect": k >= j, "budget": SEARCH_BUDGET})
    k, j, orderings = REORDERED
    for i in range(orderings):
        jobs.append({"id": f"search/r{r}/xy{k}-C{j}-order{i}",
                     "kind": "family", "dom": reordered(rng, xy_copies(k)),
                     "cod": reordered(rng, looped_cycle(j)),
                     "expect": k >= j, "budget": SEARCH_BUDGET})
    for s in range(SEARCH_PAIRS_PER_ROUND):
        m = rng.randint(1, 2)
        na, nb = rng.randint(3, 5), rng.randint(2, 4)
        dom = structure(m, na, random_f0_rels(rng, na, m, rng.choice(
            (0.0, 0.15, 0.3))), prefix="a")
        cod = structure(m, nb, random_f0_rels(rng, nb, m, rng.choice(
            (0.0, 0.15, 0.3))), prefix="b")
        jobs.append({"id": f"search/r{r}/pair{s}", "kind": "pair",
                     "dom": dom, "cod": cod, "budget": SEARCH_BUDGET})
    # Joint projection of two random F0 structures.
    n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
    jobs.append({"id": f"search/r{r}/jpp-F0", "kind": "jpp", "family": "F0",
                 "left": structure(1, n1, random_f0_rels(rng, n1, 1, 0.2)),
                 "right": structure(1, n2, random_f0_rels(rng, n2, 1, 0.2),
                                    prefix="w"),
                 "budget": SEARCH_BUDGET})
    # Joint projection of two unions of xy copies (in F).
    k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
    jobs.append({"id": f"search/r{r}/jpp-F", "kind": "jpp", "family": "F",
                 "left": xy_copies(k1), "right": xy_copies(k2),
                 "budget": SEARCH_BUDGET})
    # Amalgamation of two blow-ups of one random F0 base.
    n, m = rng.randint(2, 4), rng.randint(1, 2)
    base_rels = random_f0_rels(rng, n, m, 0.2)
    base = structure(m, n, base_rels)
    left, lmap = blow_up(rng, base_rels, n, m)
    right, rmap = blow_up(rng, base_rels, n, m)
    jobs.append({"id": f"search/r{r}/pap-F0", "kind": "pap", "family": "F0",
                 "base": base, "left": left, "left_map": lmap,
                 "right": right, "right_map": rmap,
                 "budget": SEARCH_BUDGET})
    # Amalgamation in Fn: two folds of xy copies onto xy, one constant.
    left, right = fold_map(rng.randint(2, 3)), fold_map(rng.randint(2, 3))
    jobs.append({"id": f"search/r{r}/pap-Fn", "kind": "pap", "family": "Fn",
                 "base": left["codomain"], "left": left["domain"],
                 "left_map": left["map"], "right": right["domain"],
                 "right_map": right["map"], "budget": SEARCH_BUDGET})
    # Covers of surjective structures with one constant.
    n = rng.randint(2, 5)
    rels = random_f0_rels(rng, n, 1, 0.2)
    rels[0] |= {(n, n)}
    jobs.append({"id": f"search/r{r}/coinitial-F0n", "kind": "coinitial",
                 "target": "F0n", "structure": structure(1, n + 1, rels, [n]),
                 "budget": SEARCH_BUDGET})
    jobs.append({"id": f"search/r{r}/coinitial-Fn", "kind": "coinitial",
                 "target": "Fn",
                 "structure": looped_cycle(2, constants=1),
                 "budget": SEARCH_BUDGET})
    rng.shuffle(jobs)
    return jobs


def fold_map(copies: int):
    """Map of ``copies`` xy copies plus a constant onto xy plus a constant,
    sending every copy onto the one xy (an Fn epimorphism)."""
    dom, cod = xy_copies(copies, constants=1), xy_copies(1, constants=1)
    pairs = [[name, cod["vertices"][i % 2]]
             for i, name in enumerate(dom["vertices"][:-1])]
    pairs.append([dom["vertices"][-1], cod["vertices"][-1]])
    return {"kind": "map", "domain": dom, "codomain": cod, "map": pairs}


def _tower_round(rng: random.Random, r: int):
    """Three towers, one per layout of ``TOWER_LAYOUTS``, their tasks
    interleaved in seeded order.

    Each tower grows from xy plus one constant, and its tasks run in the
    layout's order.  The seed picks which tower id gets which layout and
    how the three task streams interleave; the layouts themselves are
    fixed, so every round of every seed builds the same stage sizes.
    """
    layouts = list(TOWER_LAYOUTS)
    rng.shuffle(layouts)
    streams = []
    for t, (extensions, universality) in enumerate(layouts):
        tasks = []
        for e in range(extensions + 1):
            tasks.extend({"kind": "universality",
                          "target": xy_copies(copies, constants=1)}
                         for slot, copies in universality if slot == e)
            if e < extensions:
                tasks.append({"kind": "extension", "phi2": fold_map(2)})
        tasks.append({"kind": "integrity"})
        for i, task in enumerate(tasks):
            task.update(id=f"tower/r{r}/t{t}/{i}-{task['kind']}", tower=t,
                        first=i == 0)
        tasks[0].update(seed=xy_copies(1, constants=1),
                        guard=TOWER_STAGE_GUARD)
        streams.append(tasks)
    # Each next job comes from a stream picked with odds by its remaining
    # length, so every interleaving of the three streams is equally likely.
    jobs = []
    while any(streams):
        pick = rng.randrange(sum(map(len, streams)))
        for stream in streams:
            if pick < len(stream):
                jobs.append(stream.pop(0))
                break
            pick -= len(stream)
    return jobs


def _powers_round(rng: random.Random, r: int):
    jobs = []
    algebras = [{"preset": p} for p in ALGEBRA_PRESETS] + [
        {"preset": base, "points": pts} for base, pts in BOOLEAN_POWERS]
    for alg in algebras:
        name = alg["preset"] + (f"^{alg['points']}" if "points" in alg
                                else "")
        # The Z2^4 lattice alone takes seconds; is_simple would build it a
        # second time, so that one job skips it.
        jobs.append({"id": f"powers/r{r}/congruence-{name}",
                     "kind": "congruence", "algebra": alg,
                     "simple": name != "Z2^4"})
        jobs.append({"id": f"powers/r{r}/malcev-{name}", "kind": "malcev",
                     "algebra": alg})
        if ALGEBRA_SIZE[alg["preset"]] ** alg.get("points", 1) \
                <= AUTOMORPHISM_CAP:
            jobs.append({"id": f"powers/r{r}/automorphisms-{name}",
                         "kind": "automorphisms", "algebra": alg})
    for s, (group, action, a_size, (p, q, rr, ell)) in enumerate(
            TRANSCONJ_SHAPES):
        order = GROUP_ORDER[group]
        jobs.append({"id": f"powers/r{r}/transconj{s}-{group}-p{p}-l{ell}",
                     "kind": "transconj", "group": group, "action": action,
                     "a_size": a_size, "p": p, "q": q, "r": rr, "ell": ell,
                     "base": [rng.randrange(order) for _ in range(p)],
                     "alpha": rng.randrange(order)})
    for preset, points in FILTERED_POWERS:
        jobs.append({"id": f"powers/r{r}/filtered-{preset}-{points}",
                     "kind": "filtered", "preset": preset, "points": points,
                     "marked": [points - 1], "pins": [0]})
    for preset in DEMO_PRESETS + DEMO_PRESETS:
        jobs.append({"id": f"powers/r{r}/demo-{preset}", "kind": "demo",
                     "preset": preset, "seed": rng.randrange(1 << 16)})
    rng.shuffle(jobs)
    return jobs


_ROUND_MAKERS = {"cover": _cover_round, "search": _search_round,
                 "tower": _tower_round, "powers": _powers_round}

# Known defects at the seed commit.  Each runs once per run, outside the
# timed loop, and is reported by id with the reason it failed.
PROBES = {
    "cover": [],
    "search": [
        {"id": "probe/search/xy6-C7", "kind": "family",
         "dom": xy_copies(6), "cod": looped_cycle(7), "expect": False,
         "budget": SEARCH_BUDGET,
         "defect": "node budget exhausted before the search decides"},
        {"id": "probe/search/xy7-C7", "kind": "family",
         "dom": xy_copies(7), "cod": looped_cycle(7), "expect": True,
         "budget": SEARCH_BUDGET,
         "defect": "node budget exhausted before the search decides"},
    ],
    "tower": [
        {"id": "probe/tower/universality-above-1000", "kind": "tower_probe",
         "extensions": 10, "seed": xy_copies(1, constants=1),
         "phi2": fold_map(2), "target": xy_copies(2, constants=1),
         "guard": TOWER_STAGE_GUARD,
         "defect": "map search recurses once per domain vertex"},
    ],
    "powers": [
        {"id": "probe/powers/demo-z3-spiral", "kind": "demo",
         "preset": "z3-spiral", "seed": 7,
         "defect": "Z3 preset has no permutation realization"},
    ],
}


def round_count(workload: str, seconds: float, jobs_per_round: int) -> int:
    """Rounds in a run of ``seconds``: the nominal pace, at least MIN_JOBS."""
    return max(1, round(seconds / ROUND_SECONDS[workload]),
               math.ceil(MIN_JOBS / jobs_per_round))


def generate(workload: str, seed: int, seconds: float) -> dict:
    """All inputs of one run: its rounds of jobs and the probes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    make = _ROUND_MAKERS[workload]
    rounds = [make(rng, 0)]
    for r in range(1, round_count(workload, seconds, len(rounds[0]))):
        rounds.append(make(rng, r))
    return {"rounds": rounds, "probes": PROBES[workload]}
