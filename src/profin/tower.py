"""Chains of family members under epimorphic bonds, grown task by task.

A tower holds stages (all in the constant-expanded family) and bonds from
each stage onto the previous one.  Universality tasks splice in a joint
projection witness; extension tasks splice in an amalgamation witness.
Tasks whose witness exceeds its size cap, or whose homomorphism search runs
out of budget, are queued and retried after the tower grows, with the cap
doubled once per retry.  A stage size guard
stops growth honestly rather than truncating.

Bonds are checked one by one, never their composites: an epimorphism is
vertex-surjective, maps each relation exactly onto the codomain's and keeps
the constants, and all three pass to composites (g(f(A)) = g(B) = C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .errors import CapExhausted, VerificationError
from .maps import (StructMap, check_epimorphism, compose, identity_map,
                   jpp_witness, pap_witness)
from .structures import FN, FinStructure, in_family

DEFAULT_STAGE_GUARD = 64


@dataclass
class TowerStatus:
    stages: int
    sizes: list[int]
    discharged: int
    pending: int
    partial: bool

    def as_dict(self) -> dict[str, Any]:
        return {"stages": self.stages, "sizes": self.sizes,
                "discharged": self.discharged, "pending": self.pending,
                "partial": self.partial}


@dataclass
class _Task:
    kind: str
    cap: int
    target: FinStructure | None = None
    phi2: StructMap | None = None
    phi1: StructMap | None = None
    stage_at_queue: int = 0


@dataclass
class Tower:
    stages: list[FinStructure]
    bonds: list[StructMap] = field(default_factory=list)
    pending: list[_Task] = field(default_factory=list)
    discharged: int = 0
    stage_guard: int = DEFAULT_STAGE_GUARD
    partial: bool = False

    @classmethod
    def new(cls, seed: FinStructure,
            stage_guard: int = DEFAULT_STAGE_GUARD) -> "Tower":
        rep = in_family(seed, FN)
        if not rep:
            raise ValueError(f"seed is not in Fn: {rep.reason}")
        return cls(stages=[seed], stage_guard=stage_guard)

    @property
    def top(self) -> FinStructure:
        return self.stages[-1]

    def bond_composite(self, lo: int, hi: int | None = None) -> StructMap:
        """Map from stage hi down onto stage lo (hi defaults to the top)."""
        if hi is None:
            hi = len(self.stages) - 1
        if not 0 <= lo <= hi < len(self.stages):
            raise ValueError("stage indices out of range")
        out = identity_map(self.stages[hi])
        for j in range(hi - 1, lo - 1, -1):
            out = compose(self.bonds[j], out)
        return out

    def _append(self, stage: FinStructure, bond: StructMap) -> None:
        """Check the new stage and where its bond runs, then add both.

        The bond is not checked as an epimorphism again: the witness
        function that built it has just verified it, and verify_integrity
        checks it independently.  The composites onto lower stages go
        unchecked too: vertex surjectivity, exact relation images and kept
        constants all survive composition.  A stage above the guard raises
        CapExhausted, so its task is queued.
        """
        if len(stage.vertices) > self.stage_guard:
            self.partial = True
            raise CapExhausted(f"witness stage of {len(stage.vertices)} "
                               "vertices exceeds the stage guard")
        rep = in_family(stage, FN)
        if not rep:
            raise VerificationError(f"new stage leaves Fn: {rep.reason}")
        if bond.domain != stage or bond.codomain != self.top:
            raise VerificationError("bond does not connect the new stage "
                                    "to the top")
        self.stages.append(stage)
        self.bonds.append(bond)
        self.discharged += 1

    def verify_integrity(self) -> None:
        """Every stage in Fn, every bond an epimorphism from its stage onto
        the one below.  Composites need no check: vertex surjectivity,
        exact relation images and kept constants all survive composition.
        """
        for stage in self.stages:
            rep = in_family(stage, FN)
            if not rep:
                raise VerificationError(f"stage leaves Fn: {rep.reason}")
        for j, bond in enumerate(self.bonds):
            if (bond.domain != self.stages[j + 1]
                    or bond.codomain != self.stages[j]
                    or not check_epimorphism(bond)):
                raise VerificationError(f"bond {j} is not an epimorphism "
                                        f"of stage {j + 1} onto stage {j}")

    def discharge_universality(self, target: FinStructure,
                               cap: int | None = None) -> bool:
        """Append a stage covering both the top and the target.

        Returns False (and queues the task) when the witness exceeds the
        cap or the stage guard, or a search runs out of budget.
        """
        rep = in_family(target, FN)
        if not rep:
            raise ValueError(f"target is not in Fn: {rep.reason}")
        if cap is None:
            cap = len(self.top.vertices) * len(target.vertices) * 4
        try:
            stage, onto_top, _onto_target = jpp_witness(self.top, target, FN,
                                                         size_cap=cap)
            self._append(stage, onto_top)
        except CapExhausted:
            self.pending.append(_Task("universality", cap, target=target,
                                      stage_at_queue=len(self.stages) - 1))
            return False
        return True

    def discharge_extension(self, phi2: StructMap, phi1: StructMap,
                            cap: int | None = None) -> StructMap | None:
        """Append a stage C with bond beta and rho: C -> B, phi2 rho = phi1 beta.

        Returns rho on success, None when the task was queued.  A proven
        nonexistent witness raises, since the task can never discharge.
        The witness search has already verified that the square commutes.
        """
        if phi1.domain != self.top:
            raise ValueError("phi1 must start at the tower top")
        if phi1.codomain != phi2.codomain:
            raise ValueError("phi1 and phi2 must share their codomain")
        if cap is None:
            cap = len(self.top.vertices) * len(phi2.domain.vertices) * 4
        try:
            got = pap_witness(phi1, phi2, FN, size_cap=cap)
            if got is None:
                raise VerificationError(
                    "no amalgamation witness exists for the extension task")
            stage, beta, rho = got
            self._append(stage, beta)
        except CapExhausted:
            self.pending.append(_Task("extension", cap, phi2=phi2, phi1=phi1,
                                      stage_at_queue=len(self.stages) - 1))
            return None
        return rho

    def retry_pending(self) -> int:
        """One round-robin pass over queued tasks, cap doubled per retry."""
        tasks, self.pending = self.pending, []
        done = 0
        for task in tasks:
            task.cap *= 2
            if task.kind == "universality":
                assert task.target is not None
                if self.discharge_universality(task.target, cap=task.cap):
                    done += 1
            else:
                assert task.phi1 is not None and task.phi2 is not None
                lift = self.bond_composite(task.stage_at_queue)
                phi1 = compose(task.phi1, lift)
                if self.discharge_extension(phi2=task.phi2, phi1=phi1,
                                            cap=task.cap) is not None:
                    done += 1
        return done

    def status(self) -> TowerStatus:
        return TowerStatus(
            stages=len(self.stages),
            sizes=[len(s.vertices) for s in self.stages],
            discharged=self.discharged,
            pending=len(self.pending),
            partial=self.partial or bool(self.pending))

    def threads(self, depth: int) -> list[tuple[int, ...]]:
        """All bond-compatible vertex sequences of the given depth."""
        if not 0 <= depth <= len(self.stages) - 1:
            raise ValueError("depth exceeds the stage count")
        seqs: list[tuple[int, ...]] = [(v,)
                                       for v in self.stages[0].sorted_vertices()]
        for j in range(depth):
            preimages: dict[int, list[int]] = {}
            for v, w in self.bonds[j].mapping.items():
                preimages.setdefault(w, []).append(v)
            seqs = [seq + (v,) for seq in seqs
                    for v in sorted(preimages.get(seq[-1], []))]
        return seqs

    def constant_thread_count(self, depth: int) -> int:
        """Threads sitting over constants for their whole length."""
        consts = [set(stage.constants) for stage in self.stages]
        return sum(1 for seq in self.threads(depth)
                   if all(v in consts[j] for j, v in enumerate(seq)))

