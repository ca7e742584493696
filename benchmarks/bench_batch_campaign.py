#!/usr/bin/env python
"""Regenerate ``BENCH_batch.json``: batched campaign throughput.

Times the acceptance workload for ``tangled faults --batch N`` -- a
256-run fig10 fault campaign -- and a plain 256-machine workload, four
ways:

- ``campaign_serial``: the serial campaign driver, which runs each run
  on the predecoded fast loop in segments between its fault events --
  the fastest per-machine campaign drive;
- ``campaign_batch256``: the same campaign packed into one 256-lane
  :class:`repro.cpu.batch.BatchFunctionalSimulator`;
- ``fastpath_single``: 256 plain fastpath ``run()`` loops with no
  fault machinery at all -- the best the per-machine engine can do;
- ``batch_plain256``: the 256-lane batch engine on the same plain
  workload, for an apples-to-apples machines*steps/sec comparison.

The campaign reports are asserted byte-identical before any number is
written.  Each time is the median of ``REPEATS`` interleaved rounds.
Rates are aggregate machines*steps per second; ``speedups`` records
batch-vs-serial for both the campaign and the plain workload, each
against the fast per-machine loop.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_batch_campaign.py
"""

from __future__ import annotations

import json
import statistics
import time

from repro.apps import fig10_program
from repro.cpu import BatchFunctionalSimulator, FunctionalSimulator
from repro.faults.campaign import render_report, run_campaign

RUNS = 256  # acceptance workload: 256 machines
REPEATS = 9  # each figure is the median of this many timings
WORKLOAD = dict(program="fig10", runs=RUNS, seed=7)


def _rate(steps: int, seconds: float) -> dict:
    return {
        "seconds": round(seconds, 4),
        "machine_steps": steps,
        "machine_steps_per_second": round(steps / seconds, 1),
    }


def _campaign_serial() -> dict:
    return run_campaign(**WORKLOAD)


def _campaign_batch() -> dict:
    return run_campaign(**WORKLOAD, batch=RUNS)


def _fastpath_single() -> int:
    program = fig10_program()
    steps = 0
    for _ in range(RUNS):
        sim = FunctionalSimulator(ways=8)
        sim.use_fastpath = True
        sim.load(program)
        sim.run(max_steps=100_000)
        steps += sim.machine.instret
    return steps


def _batch_plain() -> int:
    batch = BatchFunctionalSimulator(RUNS, ways=8)
    batch.load(fig10_program())
    batch.run(max_steps=100_000)
    assert batch.machines.halted.all()
    return int(batch.machines.instret.sum())


def _median_times(*works) -> list:
    """``[(result, median seconds), ...]`` per ``work``, timed in
    ``REPEATS`` interleaved rounds so host speed drift hits all alike."""
    times = [[] for _ in works]
    results = [None] * len(works)
    for _ in range(REPEATS):
        for i, work in enumerate(works):
            t0 = time.perf_counter()
            results[i] = work()
            times[i].append(time.perf_counter() - t0)
    return [(result, statistics.median(spent))
            for result, spent in zip(results, times)]


def main() -> None:
    ((serial_report, serial_s), (batch_report, batch_s),
     (fastpath_steps, fastpath_s), (plain_steps, plain_s)) = _median_times(
        _campaign_serial, _campaign_batch, _fastpath_single, _batch_plain)
    assert render_report(serial_report) == render_report(batch_report), \
        "batch campaign report diverged from serial"
    # Nominal aggregate campaign work: every run retires the golden step
    # count unless a fault ends it early; identical accounting on both.
    campaign_steps = serial_report["golden"]["steps"] * RUNS
    serial = _rate(campaign_steps, serial_s)
    batch = _rate(campaign_steps, batch_s)
    fastpath = _rate(fastpath_steps, fastpath_s)
    batch_plain = _rate(plain_steps, plain_s)

    doc = {
        "workload": {
            "program": "fig10",
            "runs": RUNS,
            "seed": 7,
            "faults_per_run": 1,
            "golden_steps": serial_report["golden"]["steps"],
        },
        "campaign_serial": serial,
        "campaign_batch256": batch,
        "fastpath_single": fastpath,
        "batch_plain256": batch_plain,
        "speedups": {
            "campaign_batch_vs_serial": round(
                batch["machine_steps_per_second"]
                / serial["machine_steps_per_second"], 2),
            "campaign_batch_vs_fastpath_single": round(
                batch["machine_steps_per_second"]
                / fastpath["machine_steps_per_second"], 2),
            "plain_batch_vs_fastpath_single": round(
                batch_plain["machine_steps_per_second"]
                / fastpath["machine_steps_per_second"], 2),
        },
    }
    with open("BENCH_batch.json", "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(doc["speedups"], indent=2))


if __name__ == "__main__":
    main()
