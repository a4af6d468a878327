"""Benchmark for polygraph: three closed-loop workloads over the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Workloads are ``decide``, ``structure`` and ``word-problem`` (see
workloads.py).  One process, one client, no threads: each job starts after
the previous one has been checked.  The program is imported from ``src/`` of
the checkout this file sits in, and receives only generated presentation and
word text.

A run: time the set-up several times (importing polygraph, plus completing
the fixed systems for word-problem) and keep the median; warm up by running
pass 0 untimed; then run whole cycles of passes, timed, until ``--seconds``
of job time have passed and at least 100 jobs are done.  Pass 0 runs twice,
so the run checks that its verdicts and counts repeat exactly.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans recorded around each
call into the program; comparing its ``trace.jobs_per_s`` with the
``jobs_per_s`` of an untraced run of the same seed gives the tracing
overhead, which the run also estimates from the measured cost of one span.
Per-job records, spans and the exact counts go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads as W
from calibrate import reference_unit
from tracing import Tracer, span_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MODULES = ("words", "model", "presentations", "tietze", "rewriting", "oracle", "homology", "cayley", "cli")
MIN_JOBS = 100  # so that at least ten samples lie beyond the 90th percentile
REF_NOMINAL_S = 0.003  # the reference unit's time that defines nominal speed (see calibrate.py)
HARD_STOP_S = 140.0  # wall-clock limit on the timed loop, whatever happens

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "decided_ratio": "ratio",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
COUNT_NAMES = (
    "rewriting.complete.rules_out",
    "rewriting.complete.gaveup.max_rules",
    "rewriting.complete.gaveup.max_lhs_len",
    "rewriting.complete.gaveup.max_steps",
    "rewriting.enumerate_normal_forms.elements",
    "rewriting.normalize.letters_in",
    "rewriting.word_equal.letters_in",
    "oracle.table_from_normal_forms.cells",
    "cayley.build_complex.cells",
    "cayley.homology.matrix_entries",
    "cayley.export.bytes_out",
    "cli.main.exit.0",
    "cli.main.exit.1",
    "cli.main.exit.2",
    "cli.main.exit.3",
)
RATIOS = {  # name: (numerator count, denominator count)
    "rewriting.complete.converged_ratio": ("rewriting.complete.converged", "rewriting.complete.calls"),
    "oracle.bfs_equal.equal_ratio": ("oracle.bfs_equal.equal", "oracle.bfs_equal.calls"),
    "tietze.synthesize_witness.found_ratio": (
        "tietze.synthesize_witness.found", "tietze.synthesize_witness.calls",
    ),
}


def import_program() -> SimpleNamespace:
    """Import every polygraph module afresh and return them by short name."""
    for name in [m for m in sys.modules if m == "polygraph" or m.startswith("polygraph.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"polygraph.{name}") for name in MODULES}
    )


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("polygraph/*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_job(wl, template, job_seed: str, pass_no: int, P, tracer: Tracer):
    """Make a job, time its calls into the program, then check the results."""
    job = wl.make(template, job_seed, pass_no)
    tracer.job = job_seed
    start = perf_counter()
    try:
        result = tracer.call("job", wl.execute, job, P, tracer)
        raised = None
    except Exception as exc:  # any escape from the program is a failed job
        result, raised = None, exc
    seconds = perf_counter() - start
    if raised is None:
        try:
            outcome = wl.check(job, result, P)
        except Exception as exc:  # malformed output that the checks cannot read
            outcome = W.Outcome({}, False, Counter(), [f"check raised {type(exc).__name__}: {exc}"])
    else:
        cause = traceback.format_exception_only(type(raised), raised)[-1].strip()
        outcome = W.Outcome({"raised": type(raised).__name__}, False, Counter(), [f"raised {cause[:200]}"])
    return job, seconds, outcome


def fingerprint(outcome: W.Outcome) -> str:
    return json.dumps(
        {"verdict": outcome.verdict, "counts": outcome.counts, "errors": outcome.errors},
        sort_keys=True, default=str,
    )


def pass_order(seed: int, workload: str, pass_no: int, deck) -> list[int]:
    """Indices of the templates due in this pass, in an order shuffled from the seed."""
    order = [i for i, template in enumerate(deck) if pass_no % template.period == 0]
    random.Random(f"{seed}/{workload}/order/{pass_no}").shuffle(order)
    return order


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("decide", "structure", "word-problem"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polygraph" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'polygraph'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = OUT / "work"
    work.mkdir(exist_ok=True)
    wl = {
        "decide": lambda: W.Decide(work),
        "structure": W.Structure,
        "word-problem": W.WordProblem,
    }[args.workload]()
    tracer = Tracer()
    wall_start = perf_counter()

    # Set-up, several times; the modules of the last import are the ones measured.
    setup_raw, setup_scaled = [], []
    for rep in range(wl.setup_reps):
        tracer.enabled = bool(args.trace) and rep == wl.setup_reps - 1
        tracer.job = "setup"
        before = reference_unit()
        start = perf_counter()
        P = import_program()
        setup_counts = wl.setup(P, tracer)
        seconds = perf_counter() - start
        after = reference_unit()
        setup_scale = REF_NOMINAL_S / ((before + after) / 2)
        setup_raw.append(seconds)
        setup_scaled.append(seconds * setup_scale)
    tracer.enabled = False
    if not Path(P.cli.__file__).resolve().is_relative_to(SRC):
        print(f"imported polygraph from {P.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # A cycle is the number of passes after which every template is back at
    # its first size and truth; runs end on whole cycles, so their mix of
    # work is the same however many passes the machine's speed allows.
    deck = wl.deck
    cycle = math.lcm(*(t.period for t in deck), *(len(t.sizes) for t in deck))
    smallest_pass = sum(template.period == 1 for template in deck)
    min_passes = cycle * math.ceil(max(2, math.ceil(MIN_JOBS / smallest_pass)) / cycle)

    def job_seed(pass_no: int, index: int) -> str:
        return f"{args.seed}/{wl.name}/{pass_no}/{index}"

    # Warm-up: pass 0, untimed.  Its fingerprints are compared with the
    # timed run of pass 0 below.
    warm = {}
    for index in pass_order(args.seed, wl.name, 0, deck):
        _, _, outcome = run_job(wl, deck[index], job_seed(0, index), 0, P, tracer)
        warm[index] = fingerprint(outcome)

    # Timed passes.  One reference unit runs between consecutive jobs:
    # refs[i] just before job i, refs[i + 1] just after it.
    records = []
    refs = [reference_unit()]
    elapsed = 0.0
    pass_no = 0
    truncated = False
    while (pass_no < min_passes or elapsed < args.seconds or pass_no % cycle) and not truncated:
        for index in pass_order(args.seed, wl.name, pass_no, deck):
            tracer.enabled = bool(args.trace)
            job, seconds, outcome = run_job(wl, deck[index], job_seed(pass_no, index), pass_no, P, tracer)
            tracer.enabled = False
            refs.append(reference_unit())
            elapsed += seconds
            records.append({
                "workload": wl.name, "pass": pass_no, "index": index, "job_seed": job.seed,
                "family": job.family, "param": job.param, "mode": job.template.mode,
                "baseline_row": job.group.row if wl.name != "word-problem" else "long-word-normalize",
                "seconds": seconds, "verdict": outcome.verdict, "decided": outcome.decided,
                "errors": outcome.errors, "counts": dict(outcome.counts),
                "fingerprint": fingerprint(outcome) if pass_no == 0 else None,
            })
            if perf_counter() - wall_start > HARD_STOP_S:
                truncated = True
                break
        pass_no += 1
    # The machine's speed at each job: the median of the four reference
    # runs around it.  Job times are then expressed at nominal speed.
    for i, r in enumerate(records):
        r["ref_s"] = statistics.median(refs[max(0, i - 1) : i + 3])
        r["scaled_s"] = r["seconds"] * REF_NOMINAL_S / r["ref_s"]

    # Exact repetition: pass 0 warm vs timed, and this run vs the last run
    # of the same seed and code.
    repeat_errors = [
        f"job {r['job_seed']} ({r['family']} {r['param']}): verdict or counts changed on a second run"
        for r in records
        if r["pass"] == 0 and warm.get(r["index"]) != r["fingerprint"]
    ]
    window = [r for r in records if r["pass"] < min_passes]
    window_counts = Counter(setup_counts)
    for r in window:
        window_counts.update(r["counts"])
    decided_ratio = sum(r["decided"] for r in window) / len(window)
    exact = {"counts": dict(sorted(window_counts.items())), "decided_ratio": decided_ratio,
             "jobs": len(window), "complete": not truncated}
    repeat_file = OUT / f"repeat-{wl.name}-seed{args.seed}.json"
    digest = code_digest()
    if repeat_file.is_file():
        before = json.loads(repeat_file.read_text())
        if before["code"] == digest and before["exact"] != exact and before["exact"]["complete"] and not truncated:
            repeat_errors.append(f"counts differ from the previous run of seed {args.seed}")
    repeat_file.write_text(json.dumps({"code": digest, "exact": exact}, sort_keys=True) + "\n")

    failed = [r for r in records if r["errors"]]

    def timing(key: str, setup: list[float]) -> dict[str, float]:
        times = [r[key] for r in records]
        return {
            "jobs_per_s": len(times) / sum(times),
            "job_p50_ms": statistics.median(times) * 1000,
            "job_p90_ms": percentile(times, 90) * 1000,
            "setup_s": statistics.median(setup),
        }

    raw = timing("seconds", setup_raw)
    metrics_e2e = timing("scaled_s", setup_scaled)
    metrics_e2e.update({
        "decided_ratio": decided_ratio,
        "ok_ratio": 1 - len(failed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })

    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{tag}.jobs.jsonl", "w", encoding="utf-8") as handle:
        for r in records:
            handle.write(json.dumps({k: v for k, v in r.items() if k != "fingerprint"}, sort_keys=True) + "\n")

    # Human-readable report.
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  passes {pass_no}"
          f"  jobs {len(records)} ({len(deck)} templates; counts over the first {len(window)})"
          + ("  TRUNCATED at the wall-clock limit" if truncated else ""))
    for name, value in metrics_e2e.items():
        unscaled = f"   (unscaled {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:14s} {value:12.4f} {END_TO_END_UNITS[name]}{unscaled}")
    n = len(records)
    print(f"  job_p90_ms is over {n} samples, {n - math.ceil(0.9 * n)} beyond it;"
          f" reference unit median {statistics.median(refs) * 1000:.3f} ms (nominal {REF_NOMINAL_S * 1000:g})")
    print(f"  error_ratio    {len(failed) / len(records):12.4f} ({len(failed)} of {len(records)} jobs)")
    by_cause = defaultdict(list)
    for r in failed:
        for cause in r["errors"]:
            by_cause[(r["family"], cause)].append(r["job_seed"])
    for (family, cause), seeds in sorted(by_cause.items()):
        print(f"    {family}: {cause} -- {len(seeds)} jobs, e.g. {seeds[0]}")
    for message in repeat_errors:
        print(f"  REPEAT: {message}")
    print("  median ms at nominal speed by family and size [baseline row]:")
    cells = defaultdict(list)
    for r in records:
        cells[(r["family"], r["param"], r["mode"], r["baseline_row"])].append(r["scaled_s"])
    for (family, param, mode, row), secs in sorted(cells.items()):
        print(f"    {family:18s} {param:>6s} {mode:13s} n={len(secs):3d} {statistics.median(secs) * 1000:10.2f} ms  [{row}]")

    if args.trace:
        tracer.write(OUT / f"{tag}.spans.jsonl")
        scale = {r["job_seed"]: REF_NOMINAL_S / r["ref_s"] for r in records}
        scale["setup"] = setup_scale
        spans = tracer.summary(scale)
        metrics = {}
        for name in W.SPANS + ("job",):
            row = spans.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            metrics[f"{name}.calls"] = (row["calls"], "count")
            metrics[f"{name}.busy_s"] = (row["busy_s"], "s")
        metrics["job.self_s"] = (spans.get("job", {}).get("self_s", 0.0), "s")
        for name in COUNT_NAMES:
            metrics[name] = (window_counts.get(name, 0), "count")
        for name, (num, den) in RATIOS.items():
            total = window_counts.get(den, 0)
            metrics[name] = (window_counts.get(num, 0) / total if total else 0.0, "ratio")
        metrics["count_window.jobs"] = (len(window), "count")
        cost = span_cost()
        busy = spans.get("job", {}).get("busy_s", 0.0)
        metrics["trace.jobs_per_s"] = (metrics_e2e["jobs_per_s"], "jobs/s")
        metrics["trace.span_cost_us"] = (cost * 1e6, "us")
        metrics["trace.overhead_ratio"] = (len(tracer.spans) * cost / busy if busy else 0.0, "ratio")
        print(f"  tracing: {metrics_e2e['jobs_per_s']:.4f} jobs/s with spans on (compare jobs_per_s of the"
              f" --trace 0 run); {len(tracer.spans)} spans at {cost * 1e6:.3f} us each"
              f" = {metrics['trace.overhead_ratio'][0]:.6f} of job time")
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics_e2e.items()}

    result = {
        "correct": not failed and not repeat_errors,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
