"""Shared structure builders and seeded generators."""

from __future__ import annotations

import random

import pytest

from profin import FinStructure, Partition


def xy_member() -> FinStructure:
    """The 2-element family member: loop at x, edge x->y, loop at y."""
    return FinStructure(1, [0, 1], [{(0, 0), (0, 1), (1, 1)}],
                        labels={0: "x", 1: "y"})


def loopless_member() -> FinStructure:
    """A member of F without loops: no homomorphism sends xy into it."""
    return FinStructure(1, range(4), [{(0, 3), (1, 2), (1, 3), (2, 0),
                                       (2, 1), (3, 0)}])


def two_cycle() -> FinStructure:
    return FinStructure(1, [0, 1], [{(0, 1), (1, 0)}])


def loop_structure(m: int = 1) -> FinStructure:
    return FinStructure(m, [0], [{(0, 0)} for _ in range(m)])


def cycle_structure(k: int) -> FinStructure:
    return FinStructure(1, range(k), [{(i, (i + 1) % k) for i in range(k)}])


def random_f0(rng: random.Random, max_size: int = 6,
              m: int | None = None) -> FinStructure:
    """Random surjective structure: per relation a permutation plus noise."""
    n = rng.randint(2, max_size)
    if m is None:
        m = rng.randint(1, 3)
    density = rng.choice([0.0, 0.15, 0.3])
    rels = []
    for _ in range(m):
        perm = list(range(n))
        rng.shuffle(perm)
        rel = {(v, perm[v]) for v in range(n)}
        for a in range(n):
            for b in range(n):
                if rng.random() < density:
                    rel.add((a, b))
        rels.append(rel)
    return FinStructure(m, range(n), rels)


def random_partition(rng: random.Random, s: FinStructure) -> Partition:
    verts = s.sorted_vertices()
    rng.shuffle(verts)
    k = rng.randint(1, len(verts))
    blocks = [verts[i::k] for i in range(k)]
    return Partition([b for b in blocks if b])


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
