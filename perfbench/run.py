"""profin benchmark: one closed-loop client, one process per workload run.

    python3 perfbench/run.py --workload cover --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

A job takes one request from its input JSON to a certificate that the
benchmark then checks outside the job's timed region; the next job starts
only when the previous one has returned.  Jobs run in whole rounds; the
number of rounds is fixed by the workload and ``--seconds`` (about that much
busy time at the pace of the commit that added the benchmark, and at least
100 jobs), so it does not depend on how fast a run goes.  ``--trace 0``
prints the end-to-end metrics.  ``--trace 1`` runs every round twice, once
untraced and once traced, alternating which goes first; it checks that both
passes give the same outputs and prints the per-layer metrics, the tracing
overhead and each span's share of the traced busy time.  Known defects of
the program run once per run as probes, outside the timed loop, and are
listed by id.  The last line of standard output is the JSON result; profin
is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import NamedTuple

import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 5


def setup(workload: str, seed: int, seconds: float):
    """Import profin from this checkout and generate the run's inputs."""
    start = perf_counter()
    sys.path.insert(0, SRC)
    profin = importlib.import_module("profin")
    data = inputs.generate(workload, seed, seconds)
    elapsed = perf_counter() - start
    if not os.path.abspath(profin.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"profin was imported from {profin.__file__}, "
                         f"not from {SRC}")
    return data, elapsed


def setup_sample(workload: str, seed: int, seconds: float) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-sample",
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"set-up sample failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Record(NamedTuple):
    job: str
    latency: float
    problem: str | None
    digest: str
    round: int


def fingerprint(out) -> str:
    """Digest of a job's plain-data outputs (certificates, answers)."""
    if not isinstance(out, dict):
        return ""
    plain = {k: v for k, v in out.items()
             if isinstance(v, (str, int, float, bool, list, tuple))
             or v is None}
    return hashlib.sha1(json.dumps(plain, sort_keys=True,
                                   default=str).encode()).hexdigest()


def run_job(spec, ctx, tr, memo):
    """Run one job; returns (latency, problem or None, output digest)."""
    import jobs  # imports profin, which setup() has put on the path
    fn, check = jobs.KINDS[spec["kind"]]
    tr.begin_job(spec["id"])
    start = perf_counter()
    try:
        out = fn(spec, ctx, tr)
        problem = None
    except Exception as exc:  # a failing job is counted, not fatal
        out, problem = None, f"raised {type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    tr.end_job()
    if problem is None:
        try:
            problem = check(spec, out, memo)
        except Exception as exc:  # malformed output fails its check
            problem = f"check raised {type(exc).__name__}: {exc}"
    return latency, problem, fingerprint(out)


def run_round(specs, r: int, tr, workdir: str, memo) -> list[Record]:
    import jobs
    ctx = jobs.Context(workdir)
    out = []
    for spec in specs:
        latency, problem, digest = run_job(spec, ctx, tr, memo)
        out.append(Record(spec["id"], latency, problem, digest, r))
    return out


def run_loop(rounds, tracers, workdir: str, memo) -> list[list[Record]]:
    """Every round, run once per tracer, alternating which goes first.

    Returns the records of each tracer's passes.
    """
    out: list[list[Record]] = [[] for _ in tracers]
    for r, specs in enumerate(rounds):
        order = list(range(len(tracers)))
        if r % 2:
            order.reverse()
        for i in order:
            out[i] += run_round(specs, r, tracers[i], workdir, memo)
    return out


def run_probes(probes, workdir: str, memo):
    """Known-defect probes, untimed: (id, defect, problem or None)."""
    import jobs
    from spans import NullTracer
    out = []
    for spec in probes:
        _, problem, _ = run_job(spec, jobs.Context(workdir), NullTracer(),
                                memo)
        out.append((spec["id"], spec["defect"], problem))
    return out


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=inputs.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "profin", "__init__.py")):
        print(f"error: no profin sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    data, first = setup(args.workload, args.seed, args.seconds)
    if args.setup_sample:
        print(json.dumps({"setup_s": first}))
        return 0
    samples = [first] + [setup_sample(args.workload, args.seed, args.seconds)
                         for _ in range(SETUP_SAMPLES - 1)]

    from spans import NullTracer, Tracer
    import metrics

    memo: dict = {}
    # Keep the generated inputs out of the collector's way, so the program's
    # own allocations decide its collection cost.
    gc.collect()
    gc.freeze()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        if args.trace:
            tracer = Tracer()
            plain, traced = run_loop(data["rounds"], [NullTracer(), tracer],
                                     work, memo)
            records = plain + traced
        else:
            records, = run_loop(data["rounds"], [NullTracer()], work, memo)
        # Read before the probes, so the peak covers only the timed jobs.
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = run_probes(data["probes"], work, memo)

    failed = [rec for rec in records if rec.problem]
    correct = not failed
    w = args.workload
    for rec in failed:
        print(f"{w} FAILED {rec.job}: {rec.problem}")
    for job, defect, problem in probes:
        state = f"open: {problem}" if problem else "fixed, answer checked"
        print(f"{w} known defect {job} ({defect}): {state}")
    open_defects = sum(1 for *_, problem in probes if problem)

    result = {}
    if args.trace:
        mismatched = [a.job for a, b in zip(plain, traced)
                      if a.digest != b.digest]
        for job in mismatched:
            print(f"{w} traced output differs from untraced: {job}")
        correct = correct and not mismatched
        overhead = (sum(r.latency for r in traced)
                    / sum(r.latency for r in plain) - 1.0)
        layer = metrics.per_layer(tracer.spans, tracer.counts, len(traced))
        layer["trace.overhead"] = (overhead, "ratio")
        layer["defects.open"] = (float(open_defects), "count")
        print(f"{w} traced run: {len(traced)} jobs, each also run untraced "
              f"in the same round; tracing overhead {overhead:+.2%}")
        for name, (value, unit) in layer.items():
            print(f"{w} {name} = {_fmt(value)} {unit}")
            result[name] = {"value": value, "unit": unit}
        shares = metrics.busy_shares(tracer.spans)
        print(f"{w} share of traced busy time by span (self time): "
              + ", ".join(f"{name} {share:.1%}"
                          for name, share in shares.items()))
        _write_spans(w, args.seed, tracer.spans)
    else:
        e2e = metrics.end_to_end([r.latency for r in records],
                                 [r.problem is not None for r in records],
                                 [r.round for r in records])
        e2e["peak_rss_mb"] = (peak_mb, "MB",
                              "ru_maxrss when the timed jobs end")
        e2e["setup_s"] = (statistics.median(samples), "s",
                          f"median of {len(samples)} set-ups")
        for name, (value, unit, note) in e2e.items():
            print(f"{w} {name} = {_fmt(value)} {unit} ({note})")
            result[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failed), "metrics": result}))
    return 0


def _write_spans(workload: str, seed: int, spans) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, job in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "job": job}) + "\n")


def run_all(args) -> int:
    """Every workload in its own process; prints one table, checks all."""
    ok = True
    rows = []
    for w in inputs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
            check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            print(f"{w}: run failed: {proc.stderr.strip()}")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        rows.append((w, res))
    print("\nworkload  correct  attempted  failed")
    for w, res in rows:
        print(f"{w:9} {str(res['correct']):8} {res['attempted']:9} "
              f"{res['failed']:6}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
