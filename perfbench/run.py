"""The repository benchmark: ``tangled fig10`` launches and fault campaigns.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in :mod:`workloads` and declared, with every
metric, in ``BENCHMARK.json``.  Each run drives the program in fresh
interpreters, only through public entry points: the ``tangled``
executable (``python3 -m repro.cli``, the ``repro.cli:main`` console
script), ``repro.faults.campaign.run_campaign`` / ``render_report`` and
``repro.apps.fig10_program``.  Every launch and every campaign report
is checked; a failed check prints ``"correct": false`` without metrics
and exits 1.  The last stdout line is the JSON result.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the same work untraced and then under the span tracer of
:mod:`spans`: launches for half the seconds each, or one pass over the
first sub-campaigns each.  It reports the per-layer metrics (per launch
or per campaign call) plus the tracing overhead: the traced minus the
untraced value of each end-to-end metric.  Spans are written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from spans import layer_shares, self_times, write_spans
from workloads import WORKLOADS, check_fig10_output, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Sub-campaigns in a traced campaign run.
TRACED_CAMPAIGNS = 2
#: Every child is killed after this many seconds of the whole run.
BUDGET_S = 170.0


class RunFailed(Exception):
    """A check failed: the run reports no numbers."""

    def __init__(self, message: str, attempted: int = 1):
        super().__init__(message)
        self.attempted = attempted


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child_env(ledger: str) -> dict:
    """The caller's environment minus every program knob, plus a ledger
    of the run's own (so ``~/.tangled`` is never touched)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("TANGLED_", "REPRO_"))}
    env["PYTHONPATH"] = SRC
    env["TANGLED_LEDGER"] = ledger
    return env


def _spawn(cmd: list[str], env: dict, deadline: float):
    """Run ``cmd`` to exit; (returncode, stdout, stderr, start, end).

    ``start`` and ``end`` read ``time.perf_counter``, the system-wide
    monotonic clock on Linux, so they compare with a child's readings.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # Timed out, or this run was interrupted: the child's whole
        # session (a fan-out's workers too) goes with it.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RunFailed(f"timed out: {' '.join(cmd)}") from None
        raise
    return proc.returncode, out, err, t0, time.perf_counter()


def _children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _e2e(setups, walls, refs, rss_mb, attempted, failed) -> dict:
    """The end-to-end metrics.  ``op_time_ref`` divides each operation's
    wall time by the reference loop timed just before it."""
    return {
        "setup_s": statistics.median(setups),
        "op_time_ref": statistics.median(w / r for w, r in zip(walls, refs)),
        "peak_rss_mb": rss_mb,
        "ok_rate": (attempted - failed) / attempted,
    }


def _raw(walls, refs, runs_per_call) -> dict:
    """Host-time figures printed beside the metrics, for reading only."""
    return {
        "op_wall_s": statistics.median(walls),
        "runs_per_s": runs_per_call * len(walls) / sum(walls),
        "ref_s": statistics.median(refs),
        "timed_ops": len(walls),
    }


# -- fig10-cli ---------------------------------------------------------------

class _Launcher:
    """Sequential ``tangled fig10`` launches, each checked.

    The launches and the reference loop between them run on one CPU, so
    the loop sees the same contention as the launch it is paired with.
    """

    def __init__(self, tmp: str, deadline: float):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.tmp = tmp
        self.deadline = deadline
        self.stdout: str | None = None
        self.attempted = 0
        self.started = 0.0

    def launch(self, ledger: str, spans: str | None = None) -> float:
        cmd = [sys.executable, "-m", "repro.cli", "fig10"] if spans is None \
            else [sys.executable, os.path.join(HERE, "tracecli.py"), spans,
                  "fig10"]
        code, out, err, self.started, ended = _spawn(cmd, _child_env(
            os.path.join(self.tmp, ledger)), self.deadline)
        self.attempted += 1
        problem = check_fig10_output(code, out, err)
        if problem is None and self.stdout not in (None, out):
            problem = "output differs from the first launch"
        if problem:
            raise RunFailed(f"launch {self.attempted}: {problem}",
                            self.attempted)
        self.stdout = out
        return ended - self.started


def _launches(launcher: _Launcher, seconds: float, ledger: str,
              spans: list | None = None) -> tuple[list, list]:
    """Launch for ``seconds`` (at least three times); the launch walls
    and the reference-loop times taken before each.

    With ``spans`` given, the launches are traced and their spans, plus
    an ``import.interpreter`` span from exec to the tracer's first
    reading, are appended to it with one ident per launch.
    """
    walls, refs = [], []
    stop = time.perf_counter() + seconds
    while len(walls) < 3 or time.perf_counter() < stop:
        ident = f"launch{len(walls)}"
        path = os.path.join(launcher.tmp, f"{ident}.json") if spans is not None \
            else None
        refs.append(reference_seconds())
        walls.append(launcher.launch(ledger, path))
        if path is None:
            continue
        with open(path) as fh:
            doc = json.load(fh)
        base = len(spans)
        spans.append(("import.interpreter", launcher.started, doc["boot"], -1,
                      ident))
        spans.extend((name, t0, t1, parent + base + 1 if parent >= 0 else -1,
                      ident) for name, t0, t1, parent, _ in doc["spans"])
    return walls, refs


def cli_untraced(tmp: str, seconds: float, deadline: float) -> dict:
    launcher = _Launcher(tmp, deadline)
    # Each set-up is a first launch that creates its own ledger; the
    # timed launches then append to the last one.
    setups = [launcher.launch(f"setup{k}.db") for k in range(SETUPS)]
    walls, refs = _launches(launcher, seconds, f"setup{SETUPS - 1}.db")
    return {
        "metrics": _e2e(setups, walls, refs, _children_rss_mb(),
                        launcher.attempted, 0),
        "raw": _raw(walls, refs, 1),
        "attempted": launcher.attempted,
        "digest": hashlib.sha256(launcher.stdout.encode()).hexdigest(),
    }


def cli_traced(tmp: str, seconds: float, deadline: float, seed: int) -> dict:
    launcher = _Launcher(tmp, deadline)
    setup = launcher.launch("plain.db")
    walls, refs = _launches(launcher, seconds / 2, "plain.db")
    plain = _e2e([setup], walls, refs, _children_rss_mb(),
                 launcher.attempted, 0)

    setup = launcher.launch("traced.db", os.path.join(tmp, "setup.spans"))
    spans: list = []
    walls, refs = _launches(launcher, seconds / 2, "traced.db", spans)
    traced = _e2e([setup], walls, refs, _children_rss_mb(),
                  launcher.attempted, 0)
    write_spans(_spans_path("fig10-cli", seed), spans, workload="fig10-cli",
                seed=seed)
    selfs, calls = self_times(spans)
    ops = len(walls)
    return {
        "plain": plain, "traced": traced, "raw": _raw(walls, refs, 1),
        "selfs": {k: v / ops for k, v in selfs.items()},
        "calls": {k: v / ops for k, v in calls.items()},
        "shares": layer_shares(selfs, sum(walls)),
        "extra": {"chunkstore.memo_hit_ratio": 0.0,
                  "fanout.worker_busy_s": 0.0, "fanout.utilization": 0.0,
                  "fanout.retries": 0, "fanout.quarantined": 0},
        "attempted": launcher.attempted,
        "digest": hashlib.sha256(launcher.stdout.encode()).hexdigest(),
    }


# -- campaign workloads --------------------------------------------------------

def _child(tmp: str, workload: str, seed: int, runs: int | None,
           deadline: float, *extra: str) -> dict:
    out = os.path.join(tmp, f"child{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(HERE, "campaign_child.py"),
           "--workload", workload, "--seed", str(seed), "--out", out, *extra]
    if runs:
        cmd += ["--runs", str(runs)]
    code, _, err, spawned, _ = _spawn(
        cmd, _child_env(os.path.join(tmp, "ledger.db")), deadline)
    if code != 0:
        raise RunFailed(f"campaign child exited {code}: {err.strip()[-400:]}")
    with open(out) as fh:
        result = json.load(fh)
    result["setup"] = result["ready"] - spawned
    if result.get("errors"):
        raise RunFailed("; ".join(result["errors"]), result["attempted"])
    if result.get("failed"):
        raise RunFailed(f"{result['failed']} faulted run(s) quarantined as "
                        f"toxic", result["attempted"])
    return result


def _campaign_e2e(result: dict, setups: list[float]) -> dict:
    return _e2e(setups, result["walls"], result["refs"], result["rss_mb"],
                result["attempted"], result["failed"])


def _campaign_raw(result: dict) -> dict:
    return _raw(result["walls"], result["refs"], result["runs"])


def campaign_untraced(tmp, workload, seed, seconds, runs, deadline) -> dict:
    setups = [_child(tmp, workload, seed, runs, deadline, "--setup-only")
              ["setup"] for _ in range(SETUPS - 1)]
    result = _child(tmp, workload, seed, runs, deadline,
                    "--seconds", str(seconds))
    setups.append(result["setup"])
    return {"metrics": _campaign_e2e(result, setups),
            "raw": _campaign_raw(result),
            "attempted": result["attempted"], "digest": result["digest"]}


def campaign_traced(tmp, workload, seed, runs, deadline) -> dict:
    # One pass over the first sub-campaigns, untraced and then traced:
    # fixed work, so the counts repeat exactly and the spans stay few.
    fixed = ("--seconds", "0", "--campaigns", str(TRACED_CAMPAIGNS))
    plain = _child(tmp, workload, seed, runs, deadline, *fixed)
    traced = _child(tmp, workload, seed, runs, deadline, *fixed, "--trace",
                    _spans_path(workload, seed))
    layers = traced["layers"]
    return {
        "plain": _campaign_e2e(plain, [plain["setup"]]),
        "traced": _campaign_e2e(traced, [traced["setup"]]),
        "raw": _campaign_raw(traced),
        "selfs": layers["selfs"], "calls": layers["calls"],
        "shares": layers["shares"],
        "extra": {k: v for k, v in layers.items()
                  if k not in ("selfs", "calls", "shares")},
        "attempted": plain["attempted"] + traced["attempted"],
        "digest": traced["digest"],
    }


# -- reporting -----------------------------------------------------------------

def _spans_path(workload: str, seed: int) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")


def layer_metrics(declared: list[dict], result: dict) -> dict:
    """Every declared per-layer metric from a traced result."""
    values = dict(result["extra"])
    plain, traced = result["plain"], result["traced"]
    for name in plain:
        values[f"overhead.{name}"] = traced[name] - plain[name]
    values["trace.uncovered_share"] = result["shares"]["uncovered"]
    values["trace.op_wall_s"] = result["raw"]["op_wall_s"]
    values["trace.ref_s"] = result["raw"]["ref_s"]
    out = {}
    for metric in declared:
        name = metric["name"]
        if name in values:
            out[name] = values[name]
        elif name.endswith(".calls"):
            out[name] = result["calls"].get(name[:-len(".calls")], 0)
        elif name.endswith(".s"):
            out[name] = result["selfs"].get(name[:-len(".s")], 0.0)
        else:
            raise KeyError(f"no value for per-layer metric {name}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=None,
                        help="faulted runs per campaign call (default: the "
                             "workload's; smaller for smoke tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC, quiet=1):
        print("perfbench: compiling the program source failed",
              file=sys.stderr)
        return 2
    declared = _declared()
    deadline = time.monotonic() + BUDGET_S
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_tmp"))
    kind = WORKLOADS[args.workload]["kind"]
    try:
        if args.trace:
            result = cli_traced(tmp, args.seconds, deadline, args.seed) \
                if kind == "cli" else campaign_traced(
                    tmp, args.workload, args.seed, args.runs, deadline)
            metrics = layer_metrics(declared["per_layer"], result)
            units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        else:
            result = cli_untraced(tmp, args.seconds, deadline) \
                if kind == "cli" else campaign_untraced(
                    tmp, args.workload, args.seed, args.seconds, args.runs,
                    deadline)
            metrics = result["metrics"]
            units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    except RunFailed as exc:
        print(f"perfbench: FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": exc.attempted,
                          "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"digest {args.workload} seed={args.seed} sha256={result['digest']}")
    if args.trace:
        shares = sorted(result["shares"].items(), key=lambda kv: -kv[1])
        print("self time by layer, share of traced wall: " + ", ".join(
            f"{layer} {share:.3f}" for layer, share in shares))
        top = next(layer for layer, _ in shares if layer != "uncovered")
        print(f"largest self time: {top}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    raw = result["raw"]
    print(f"host time ({raw['timed_ops']} timed operations): median "
          f"{raw['op_wall_s']:.6g} s per operation, {raw['runs_per_s']:.6g} "
          f"runs/s; reference loop {raw['ref_s']:.6g} s")
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
