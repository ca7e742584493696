"""Workloads and output checks shared by ``run.py`` and ``campaign_child.py``.

``fig10-cli`` launches the ``tangled fig10`` command, the paper demo as
users run it.  Every other workload is one fan-out strategy of the
same seeded fig10 soft-error campaign, so each reports the same metrics
and each optimisation has a workload that uses its mechanism and one
that bypasses it.  ``check`` names the strategy whose report must be
byte-identical to the workload's own (run once, untimed, after the
timed window); the pipelined campaign classifies runs on another
simulator, so it is held to its own repeats and the golden anchors.
"""

from __future__ import annotations

import ast
import os
import time

import numpy as np

#: Faulted runs per campaign call.  The same count and seeds feed every
#: strategy of a substrate, so their reports can be compared byte for byte.
#: ``campaigns`` is how many sub-campaign seeds one pass calls: about ten
#: seconds of work on a 2-vCPU VM, so a run of ``run_seconds`` is one pass.
DENSE_RUNS = 512
RE24_RUNS = 256
#: Runs in the warm-up campaign that ends every set-up.
WARMUP_RUNS = 32
#: The fan-out width of the ``jobs`` strategy: one worker per core.
JOBS = len(os.sched_getaffinity(0))

_DENSE = {"ways": 8, "qat_backend": "dense"}
_RE24 = {"ways": 24, "qat_backend": "re"}

WORKLOADS: dict[str, dict] = {
    "fig10-cli": {"kind": "cli"},
    "campaign-dense-serial": {
        "kind": "campaign", "campaign": dict(_DENSE, sim="functional"),
        "strategy": {}, "runs": DENSE_RUNS, "campaigns": 16,
        "check": {"batch": 256},
    },
    "campaign-dense-pipelined": {
        "kind": "campaign", "campaign": dict(_DENSE, sim="pipelined"),
        "strategy": {}, "runs": DENSE_RUNS, "campaigns": 9, "check": None,
    },
    "campaign-dense-jobs": {
        "kind": "campaign", "campaign": dict(_DENSE, sim="functional"),
        "strategy": {"jobs": JOBS}, "runs": DENSE_RUNS, "campaigns": 18,
        "check": {"batch": 256},
    },
    "campaign-dense-batch": {
        "kind": "campaign", "campaign": dict(_DENSE, sim="functional"),
        "strategy": {"batch": 256}, "runs": DENSE_RUNS, "campaigns": 90,
        "check": {},
    },
    "campaign-re24-serial": {
        "kind": "campaign", "campaign": dict(_RE24, sim="functional"),
        "strategy": {}, "runs": RE24_RUNS, "campaigns": 11,
        "check": {"batch": 256},
    },
    "campaign-re24-batch": {
        "kind": "campaign", "campaign": dict(_RE24, sim="functional"),
        "strategy": {"batch": 256}, "runs": RE24_RUNS, "campaigns": 13,
        "check": {},
    },
}

#: Iterations of the host-speed reference loop (10-15 ms).
REF_ITERATIONS = 24_000


def reference_seconds() -> float:
    """Wall time of a fixed stand-in for a simulator's inner loop.

    Table dispatch over small Python lists plus small NumPy bitwise ops,
    the mix the simulators spend their time on, but calling nothing in
    the program.  Timed just before each operation, it is the yardstick
    that cancels the host's speed drift.
    """
    t0 = time.perf_counter()
    regs = [0] * 16
    mem = list(range(256))
    table = {k: (k * 7) & 15 for k in range(64)}
    rows = np.zeros((8, 4), dtype=np.uint64)
    width = 0
    for i in range(REF_ITERATIONS):
        op = table[i & 63]
        regs[(op + 1) & 15] = (regs[op] + mem[i & 255]) & 0xFFFF
        if i & 7 == 0:
            rows[i & 7] ^= rows[(i + 1) & 7] | np.uint64(i)
        width += len(str(op))
    return time.perf_counter() - t0


#: The paper anchors for Figure 10 on the 4-stage forwarding pipeline.
FIG10_FACTORS = "$0 = 5   $1 = 3"
FIG10_STATS = {"retired": 92, "cycles": 167, "cpi": 1.8152}


def check_fig10_output(returncode: int, stdout: str, stderr: str) -> str | None:
    """Why a ``tangled fig10`` launch failed, or None when it is right."""
    if returncode != 0:
        return f"exit status {returncode}: {stderr.strip()[-200:]}"
    if stderr.strip():
        return f"unexpected stderr: {stderr.strip()[-200:]}"
    lines = stdout.splitlines()
    if len(lines) != 3:
        return f"expected 3 output lines, got {len(lines)}"
    if lines[1].strip() != FIG10_FACTORS:
        return f"factor line {lines[1].strip()!r} != {FIG10_FACTORS!r}"
    try:
        stats = ast.literal_eval(lines[2].strip())
    except (ValueError, SyntaxError):
        return f"unparsable stats line {lines[2].strip()!r}"
    if not isinstance(stats, dict):
        return f"stats line is not a dict: {lines[2].strip()!r}"
    for key, want in FIG10_STATS.items():
        if stats.get(key) != want:
            return f"stats {key}={stats.get(key)!r}, paper {want}"
    return None


def check_golden(report: dict) -> str | None:
    """Why a campaign report's fault-free run misses the anchors, or None."""
    golden = report.get("golden", {})
    if (golden.get("r0"), golden.get("r1")) != (5, 3):
        return f"golden factors {golden.get('r0')}, {golden.get('r1')} != 5, 3"
    return None
