"""One campaign workload in a fresh interpreter.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/campaign_child.py --workload W --seed N --out F \\
        [--setup-only] [--seconds S] [--runs R] [--campaigns K] \\
        [--trace SPANS]

Set-up is everything from interpreter start to the first timed call:
imports, assembling the program (``repro.apps.fig10_program``) and one
small warm-up campaign on the workload's strategy.  ``--setup-only``
stops there; otherwise the child calls ``run_campaign`` +
``render_report`` once per sub-campaign seed, in whole passes, until
``--seconds`` have passed.  A repeated sub-campaign must render the same
bytes as its first call, and after the timed calls one untimed campaign
on the workload's ``check`` strategy must render the first
sub-campaign's bytes.  The result is written to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from spans import Tracer, layer_shares, self_times, write_spans
from workloads import WARMUP_RUNS, WORKLOADS, check_golden, reference_seconds


def _rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument("--campaigns", type=int, default=None,
                        help="call only the first K sub-campaigns")
    parser.add_argument("--trace", metavar="SPANS",
                        help="trace the calls; write their spans to SPANS")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    from repro.apps import fig10_program
    from repro.faults.campaign import render_report, run_campaign
    from repro.obs.progress import ProgressTracker

    runs = args.runs or workload["runs"]
    # The run's input: a fixed set of sub-campaigns drawn from the seed.
    # Their count is sized to fill the timed window, so the cost of a
    # run averages over many fault plans instead of one campaign's.
    seeds = [args.seed * 1000 + j
             for j in range(args.campaigns or workload["campaigns"])]
    base = dict(workload["campaign"], program="fig10")
    strategy = workload["strategy"]
    jobs = strategy.get("jobs", 1)
    if jobs == 1:
        # One CPU for the calls and the reference loop paired with them.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    fig10_program()
    run_campaign(runs=min(WARMUP_RUNS, runs), seed=seeds[0], **base,
                 **strategy)
    ready = time.perf_counter()  # the launcher's clock: see run._spawn
    out = {"ready": ready}
    if args.setup_only:
        _write(args.out, out)
        return 0

    if tracer is not None:
        tracer.reset()
    walls, refs, busy, retries, toxic = [], [], 0.0, 0, 0
    errors: list[str] = []
    digests: list[str] = []
    first = None
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        for j, seed in enumerate(seeds):
            op = len(walls)
            tracker = ProgressTracker(total=runs, what="runs")
            if tracer is not None:
                tracer.ident = f"op{op}"
                # Batch lanes share every span, so only per-run
                # strategies get a run id from FaultPlan.from_seed.
                tracer.campaign_seed = None if "batch" in strategy else seed
            refs.append(reference_seconds())
            t0 = time.perf_counter()
            report = run_campaign(runs=runs, seed=seed, tracker=tracker,
                                  **base, **strategy)
            if tracer is not None:
                tracer.ident = f"op{op}"
            text = render_report(report)
            walls.append(time.perf_counter() - t0)
            busy += sum(w["busy_seconds"] for w in tracker.workers.values())
            retries += tracker.supervisor.get("retries", 0)
            toxic += report["summary"]["toxic"]
            digest = hashlib.sha256(text.encode()).hexdigest()
            if len(digests) == j:
                digests.append(digest)
                first = first or text
                problem = check_golden(report)
                if problem:
                    errors.append(f"seed {seed}: {problem}")
            elif digests[j] != digest:
                errors.append(f"call {op}: seed {seed} report differs from "
                              f"its first call's")
    out.update(
        walls=walls,
        refs=refs,
        runs=runs,
        attempted=runs * len(walls),
        failed=toxic,
        rss_mb=_rss_mb(),
        digest=hashlib.sha256("".join(digests).encode()).hexdigest(),
    )

    if tracer is not None:
        tracer.harvest_live_stores()
        tracer.uninstall()
        out["layers"] = _layer_values(tracer, walls, busy, jobs, retries,
                                      toxic)
        write_spans(args.trace, tracer.spans, workload=args.workload,
                    seed=args.seed)

    if workload["check"] is not None:
        check = run_campaign(runs=runs, seed=seeds[0], **base,
                             **workload["check"])
        if render_report(check) != first:
            errors.append(f"seed {seeds[0]} report differs from the "
                          f"{workload['check'] or 'serial'} strategy's")
    out["errors"] = errors
    _write(args.out, out)
    return 0


def _layer_values(tracer: Tracer, walls, busy, jobs, retries, toxic) -> dict:
    """Per-call layer metrics from the recorded spans and heartbeats."""
    ops = len(walls)
    wall = sum(walls)
    selfs, calls = self_times(tracer.spans)
    gates = tracer.gate_hits + tracer.gate_misses
    shares = layer_shares(selfs, wall)
    return {
        "selfs": {k: v / ops for k, v in selfs.items()},
        "calls": {k: v / ops for k, v in calls.items()},
        "shares": shares,
        "chunkstore.memo_hit_ratio": tracer.gate_hits / gates if gates else 0.0,
        "fanout.worker_busy_s": busy / ops,
        "fanout.utilization": busy / (wall * jobs) if wall else 0.0,
        "fanout.retries": retries / ops,
        "fanout.quarantined": toxic / ops,
    }


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
