"""Arithmetic of the benchmark: percentiles, failure shares, per-layer sums.

Kept free of profin and of timing so the tests can check it on fixed data.
"""

from __future__ import annotations

import math
import statistics

from spans import self_times


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it.

    The value is the ceil(q * n)-th smallest sample; ``inf`` samples (failed
    jobs) sort last, so a failure counts as missing every latency limit.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def fail_share(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no jobs attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


def end_to_end(latencies, failed: list[bool],
               rounds: list[int]) -> dict[str, tuple]:
    """Job-loop metrics as ``name -> (value, unit, note)``.

    ``latencies`` are job times in seconds and ``rounds`` the round each job
    ran in.  A failed job's time counts as busy time, but its latency is
    taken as infinite.  Every round runs the same mix of jobs, so each
    timing is taken per round and the run reports its median over rounds:
    a slow spell of a shared machine then moves it less.  Pooled over the
    run, the spell's jobs would crowd the tail and move the 90th percentile
    most of all.  Throughput is jobs completed over busy time per round.
    """
    n = len(latencies)
    by_round: dict[int, list[tuple[float, bool]]] = {}
    for t, bad, r in zip(latencies, failed, rounds):
        by_round.setdefault(r, []).append((t, bad))
    per_round = list(by_round.values())
    out = {}
    for name, q in (("job_s.p50", 0.5), ("job_s.p90", 0.9)):
        ranked = [percentile([math.inf if bad else t for t, bad in jobs], q)
                  for jobs in per_round]
        beyond = sum(b for _, b in ranked)
        out[name] = (statistics.median(v for v, _ in ranked), "s",
                     f"median of {len(ranked)} rounds, n={n}, "
                     f"{beyond} beyond their round's value")
    rates = [sum(not bad for _, bad in jobs) / sum(t for t, _ in jobs)
             for jobs in per_round]
    n_failed = sum(failed)
    out["jobs_per_s"] = (statistics.median(rates), "1/s",
                         f"median of {len(rates)} rounds, "
                         f"{n - n_failed} jobs in {sum(latencies):.3f} s busy")
    out["ok_share"] = (1.0 - fail_share(n_failed, n), "ratio",
                       f"{n_failed} of {n} failed")
    return out


# Per-layer metrics: (kind, unit, source).  "self" sums the self time of the
# named spans, "calls" counts them, "count" sums a count taken at the call
# site; all three are divided by the number of traced jobs.
PER_LAYER = {
    "spirals.cover_s": ("self", "s/job", "spirals.cover"),
    "spirals.verify_qp_s": ("self", "s/job", "spirals.verify_qp"),
    "spirals.richness_s": ("self", "s/job", "spirals.richness"),
    "spirals.cover_vertices": ("count", "vertices/job",
                               "spirals.cover_vertices"),
    "structures.in_family_s": ("self", "s/job", "structures.in_family"),
    "structures.in_family_calls": ("calls", "calls/job",
                                   "structures.in_family"),
    "maps.search_s": ("self", "s/job", "maps.search"),
    "maps.search_calls": ("calls", "calls/job", "maps.search"),
    "maps.search_cap": ("count", "count/job", "maps.search_cap"),
    "maps.amalgamate_s": ("self", "s/job", "maps.amalgamate"),
    "maps.amalgamate_calls": ("calls", "calls/job", "maps.amalgamate"),
    "maps.witness_vertices": ("count", "vertices/job",
                              "maps.witness_vertices"),
    "maps.check_epi_s": ("self", "s/job", "maps.check_epi"),
    "maps.check_epi_calls": ("calls", "calls/job", "maps.check_epi"),
    "tower.discharge_s": ("self", "s/job", "tower.discharge"),
    "tower.discharged": ("count", "count/job", "tower.discharged"),
    "tower.queued": ("count", "count/job", "tower.queued"),
    "tower.retry_s": ("self", "s/job", "tower.retry"),
    "tower.verify_integrity_s": ("self", "s/job", "tower.verify_integrity"),
    "algebra.congruence_s": ("self", "s/job", "algebra.congruence"),
    "algebra.congruences": ("count", "count/job", "algebra.congruences"),
    "algebra.malcev_s": ("self", "s/job", "algebra.malcev"),
    "algebra.automorphisms_s": ("self", "s/job", "algebra.automorphisms"),
    "algebra.power_s": ("self", "s/job", "algebra.power"),
    "autgroup.instance_s": ("self", "s/job", "autgroup.instance"),
    "autgroup.conjugator_s": ("self", "s/job", "autgroup.conjugator"),
    "autgroup.identity_s": ("self", "s/job", "autgroup.identity"),
    "autgroup.rows": ("count", "rows/job", "autgroup.rows"),
    "jsonio.parse_s": ("self", "s/job", "jsonio.parse"),
    "jsonio.dump_s": ("self", "s/job", "jsonio.dump"),
    "jsonio.bytes": ("count", "B/job", "jsonio.bytes"),
    "cli.verify_s": ("self", "s/job", "cli.verify"),
    "cli.verify_calls": ("calls", "calls/job", "cli.verify"),
    "cli.verify_rejects": ("count", "count/job", "cli.verify_rejects"),
    "cli.transconj_s": ("self", "s/job", "cli.transconj"),
}


def busy_shares(spans) -> dict[str, float]:
    """Each span name's self time as a share of the job spans' total time,
    largest first; ``job`` is the benchmark's own code inside the jobs."""
    busy = sum(end - start for name, start, end, *_ in spans
               if name == "job")
    if busy <= 0:
        raise ValueError("no busy time in the spans")
    selfs = self_times(spans)
    return {name: selfs[name] / busy
            for name in sorted(selfs, key=selfs.get, reverse=True)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans, counts, jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run over ``jobs`` jobs.

    Besides the per-job sums of ``PER_LAYER`` it reports three ratios:
    cover vertices per input edge, the share of searches that decided
    (0 when none ran), and the mean top-stage size per checked tower.
    """
    if jobs < 1:
        raise ValueError("no traced jobs")
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
    out = {}
    for metric, (kind, unit, source) in PER_LAYER.items():
        total = {"self": selfs, "calls": calls, "count": counts}[kind].get(
            source, 0)
        out[metric] = (total / jobs, unit)
    out["spirals.vertices_per_edge"] = (_ratio(
        counts.get("spirals.cover_vertices", 0),
        counts.get("spirals.input_edges", 0)), "ratio")
    out["maps.search_decided_ratio"] = (_ratio(
        counts.get("maps.search_decided", 0), calls.get("maps.search", 0)),
        "ratio")
    out["tower.top_vertices"] = (_ratio(
        counts.get("tower.top_vertices", 0),
        calls.get("tower.verify_integrity", 0)), "vertices")
    return out
