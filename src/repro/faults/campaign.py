"""Seeded soft-error campaigns over the Tangled/Qat simulators.

A campaign runs the same program ``N`` times, each run with its own
simulator and a deterministic per-run :class:`~repro.faults.inject.FaultPlan`
derived from the master seed, and classifies every run the way the
fault-tolerance literature does:

``detected``
    The fault tripped the machinery -- an architectural trap fired
    (illegal opcode, watchdog, Qat fault, ...) or a typed
    :class:`~repro.errors.ReproError` surfaced.
``masked``
    The run completed and the architectural result (GPRs + program
    output) matches the fault-free golden run: the flipped bit was
    dead state.
``silent``
    The run completed *wrong* -- silent data corruption, the case a
    real design must budget hardware against.

The report is a plain dict (JSON-ready, sorted keys, no timestamps), so
two invocations with the same arguments produce byte-identical output --
that determinism is asserted in CI.  When telemetry
(:mod:`repro.obs`) is active the classification counts also land on the
``faults.detected`` / ``faults.masked`` / ``faults.silent`` counters.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.cpu import (
    FunctionalSimulator,
    MultiCycleSimulator,
    PipelinedSimulator,
)
from repro.cpu import fastpath as _fastpath
from repro.cpu.qat_backend import REQatBackend
from repro.errors import ReproError
from repro.faults.inject import FaultPlan, apply_event
from repro.faults.prune import AccessIndex
from repro.faults.traps import TrapPolicy
from repro.obs import flight as _flight
from repro.obs import runtime as _obs
from repro.pattern import ChunkStore
from repro.runtime.supervisor import chaos_hook

#: Run outcome labels.  ``toxic`` is the supervised fan-out's poison
#: shard: a run whose worker crashed or hung on every allowed attempt
#: and was quarantined instead of aborting the campaign.
DETECTED, MASKED, SILENT, TOXIC = "detected", "masked", "silent", "toxic"

#: Watchdog slack: a faulted run may legitimately take longer than the
#: golden run (a corrupted branch can re-execute work) before we call it
#: runaway.
_WATCHDOG_FACTOR = 4
_WATCHDOG_SLACK = 64


@dataclass
class RunResult:
    """Classification of one faulted run."""

    run: int
    seed: int
    outcome: str
    events: list[dict] = field(default_factory=list)
    traps: list[dict] = field(default_factory=list)
    error: str | None = None

    def as_dict(self) -> dict:
        return {
            "run": self.run,
            "seed": self.seed,
            "outcome": self.outcome,
            "events": self.events,
            "traps": self.traps,
            "error": self.error,
        }


def _load_program(name: str):
    """Resolve a campaign program by name (lazy: pulls in repro.apps)."""
    from repro.apps import compile_factor_program, fig10_program

    if name == "fig10":
        return fig10_program()
    if name == "factor":
        return compile_factor_program(15, 4, 4).program
    raise ReproError(f"unknown campaign program {name!r} (try fig10, factor)")


def _new_simulator(sim: str, ways: int, trap_policy: TrapPolicy | None,
                   qat_backend: str = "dense"):
    if sim == "functional":
        return FunctionalSimulator(ways=ways, trap_policy=trap_policy,
                                   qat_backend=qat_backend)
    if sim == "multicycle":
        return MultiCycleSimulator(ways=ways, trap_policy=trap_policy,
                                   qat_backend=qat_backend)
    if sim == "pipelined":
        return PipelinedSimulator(ways=ways, trap_policy=trap_policy,
                                  qat_backend=qat_backend)
    raise ReproError(f"unknown simulator {sim!r}")


def _architectural_result(machine) -> tuple:
    """What a user of the run can observe: GPR file + program output."""
    return (tuple(int(r) for r in machine.regs), tuple(machine.output))


def _segment(sim):
    """The segment drive for ``sim``: :func:`repro.cpu.fastpath.drive`,
    or :func:`~repro.cpu.fastpath.run_stepped` on the pipelined sim,
    whose ``latch`` events hit in-flight stages."""
    if isinstance(sim, PipelinedSimulator):
        return _fastpath.run_stepped
    return _fastpath.drive


def _drive(sim, plan: FaultPlan | None, max_steps: int, step: int = 0) -> int:
    """Run ``sim`` to halt from ``step``, applying each fault event
    before its step.

    The run is cut into segments at the event steps of the (sorted)
    plan.  The functional and multi-cycle sims run each segment through
    :func:`repro.cpu.fastpath.drive` -- the predecoded fast loop unless
    an observer (telemetry, trace, profiler) is attached; the pipelined
    sim always steps (:func:`_segment`).  Both give byte-identical
    reports.

    ``step`` resumes a run forked from the golden cursor there; no event
    of ``plan`` is due before it.  Returns the step count, those before
    ``step`` included (the fan-out progress layer turns it into a
    steps/sec heartbeat)."""
    segment = _segment(sim)
    pipeline = sim if segment is _fastpath.run_stepped else None
    watchdog = f"campaign watchdog: exceeded {max_steps} steps"
    events = plan.events if plan is not None else ()
    due = 0
    while True:
        stop = events[due].step if due < len(events) else None
        step = segment(sim, max_steps, step, stop, watchdog)
        if step != stop or step >= max_steps or sim.machine.halted:
            return step  # halted, watchdog fired, or no events left
        while due < len(events) and events[due].step == step:
            apply_event(sim.machine, events[due], pipeline=pipeline)
            due += 1


def golden_run(program, sim: str = "functional", ways: int = 8,
               qat_backend: str = "dense",
               accesses: AccessIndex | None = None) -> tuple[tuple, int]:
    """Fault-free reference execution: (architectural result, steps).

    Given an :class:`~repro.faults.prune.AccessIndex`, the golden run
    records every location access into it as it executes, stamped with
    the step it happens at -- on the pipelined sim, the cycle: IF for
    fetched words, EX entry for register and memory state.
    """
    reference = _new_simulator(sim, ways, None, qat_backend=qat_backend)
    reference.load(program)
    if accesses is not None:
        steps = accesses.record(reference)
    else:
        steps = _drive(reference, None, sys.maxsize)
    return _architectural_result(reference.machine), steps


#: Per-worker-process program cache: campaign tasks arrive carrying only
#: the program *name*, and loading/assembling it once per worker (not
#: once per run) keeps the fan-out overhead flat.
_WORKER_IMAGES: dict[str, object] = {}

#: Per-process RE templates: the golden run's chunk store, keyed by
#: ``(program, sim, ways)``.  Every faulted RE run -- and every lane
#: batch -- computes on a fork of it (:meth:`ChunkStore.fork`), so the
#: chunks and gate results of the fault-free computation are interned
#: once per campaign instead of once per run.  Dropped by
#: :func:`run_campaign` and :func:`_worker_init`, so no template
#: outlives its campaign.
_RE_TEMPLATES: dict[tuple, ChunkStore] = {}


class _GoldenCursor:
    """The golden run of one campaign, paused at :attr:`step`.

    A faulted run *is* the golden run until its first fault event, so
    :func:`_single_run` forks the cursor there instead of re-simulating
    that prefix.  The cursor only moves forward; a run behind it gets a
    new cursor.  :attr:`flight` is every flight-recorder event the
    cursor produced since load -- the prefix each fork appends to the
    ring.
    """

    def __init__(self, image, sim):
        self.image = image
        self.sim = sim
        self.step = 0
        self.flight: list[tuple] = []

    def advance(self, step: int) -> None:
        """Drive on to ``step`` (not past a halt) on :func:`_drive`'s
        segment drive, recording into :attr:`flight`."""
        if step > self.step:
            with _flight.RECORDER.diverted(self.flight):
                self.step = _segment(self.sim)(self.sim, sys.maxsize,
                                               self.step, step)


#: Per-process golden cursors, keyed by ``(program, sim, ways,
#: qat_backend)``; dropped wherever :data:`_RE_TEMPLATES` is.
_CURSORS: dict[tuple, _GoldenCursor] = {}


class RunTask(NamedTuple):
    """One faulted run as the parent hands it to a drive: everything
    :func:`_single_run` needs, its fault plan included (the parent
    derives every plan once; no drive re-derives one)."""

    run: int
    program: str
    sim: str
    ways: int
    qat_backend: str
    plan: FaultPlan
    golden: tuple
    watchdog: int


def _classify(run: int, plan: FaultPlan, error: str | None,
              traps, result: tuple, golden: tuple) -> dict:
    """RunResult dict of one finished run: an error or a trap record is
    ``detected``, else the architectural result against the golden run
    decides ``masked`` or ``silent``.  The serial, ``--jobs`` and
    ``--batch`` drives and the pruned runs all classify here, so their
    reports match."""
    if error is not None or traps:
        outcome = DETECTED
    elif result == golden:
        outcome = MASKED
    else:
        outcome = SILENT
    return RunResult(
        run=run, seed=plan.seed, outcome=outcome,
        events=[e.as_dict() for e in plan.events],
        traps=[r.as_dict() for r in traps], error=error,
    ).as_dict()


def _worker_image(program: str):
    image = _WORKER_IMAGES.get(program)
    if image is None:
        image = _WORKER_IMAGES[program] = _load_program(program)
    return image


def _re_template(program: str, sim: str, ways: int):
    """The golden run's chunk store for this campaign's RE runs.

    :func:`run_campaign` records it from its own golden run; a
    ``--jobs`` worker starts without one and rebuilds it with one golden
    run of its own -- the same deterministic computation.
    """
    key = (program, sim, ways)
    store = _RE_TEMPLATES.get(key)
    if store is None:
        backend = REQatBackend(ways)
        golden_run(_worker_image(program), sim=sim, ways=ways,
                   qat_backend=backend)
        store = _RE_TEMPLATES[key] = backend.store
    return store


def _run_qat(program: str, sim: str, ways: int, qat_backend: str):
    """The Qat substrate of one faulted run: a dense spec passes through,
    an RE run gets a backend over a fork of the golden store (the
    fork's new symbols die with the run)."""
    if qat_backend != "re":
        return qat_backend
    return REQatBackend(ways, store=_re_template(program, sim, ways).fork())


def _worker_init() -> None:
    """Set up one campaign worker process.

    Workers forked from an instrumented parent must not write into its
    telemetry (the parent replays per-run hooks from the returned
    durations), and each gets pristine process-global pattern stores
    and builds its own RE template.
    """
    from repro.pattern import reset_default_stores

    _obs.install(None)
    reset_default_stores()
    _WORKER_IMAGES.clear()
    _RE_TEMPLATES.clear()
    _CURSORS.clear()


def _first_event(task: RunTask) -> int:
    """Step of the task's first fault event: 0 for a plan without one."""
    events = task.plan.events
    return events[0].step if events else 0


def _forked_golden(task: RunTask, image, step: int):
    """``(simulator, its step)``: a fork of the task's golden cursor at
    ``step`` (at its halt, if that comes first), after the cursor's
    flight events -- the run's golden prefix -- have gone into the ring.
    A cursor past ``step``, or of another image, is rebuilt."""
    _, program, sim, ways, qat_backend, _, _, _ = task
    key = (program, sim, ways, qat_backend)
    cursor = _CURSORS.get(key)
    if cursor is None or cursor.image is not image or cursor.step > step:
        golden = _new_simulator(sim, ways, None, qat_backend=_run_qat(
            program, sim, ways, qat_backend))
        golden.load(image)
        cursor = _CURSORS[key] = _GoldenCursor(image, golden)
    cursor.advance(step)
    if _flight.RECORDER.enabled:
        _flight.RECORDER.extend(cursor.flight)
    return cursor.sim.fork(), cursor.step


def _single_run(task: RunTask,
                attempt: int = 0) -> tuple[int, dict, float, int, int]:
    """Execute one faulted run; pure function of its task.

    The run starts from a fork of the golden run at its first fault
    event (:func:`_forked_golden`): the steps before it are the golden
    run's.  A plan without events, and every run while telemetry is
    captured -- so ``--stats`` counters count every instruction -- start
    from a fresh load at step 0 instead.

    Returns ``(run index, RunResult dict, wall seconds, steps, worker)``
    so results can be merged deterministically regardless of worker
    scheduling; the trailing wall/steps/worker fields feed the progress
    layer and never enter the report.  ``attempt`` is the supervisor's
    retry ordinal (0 on the first execution); the result is attempt-
    independent, but the chaos hook uses it to model faults that heal
    on retry.
    """
    run, program, sim, ways, qat_backend, plan, golden, watchdog = task
    # Flight recorder: a boundary mark per run (the worker's ring spans
    # runs, so a post-mortem can tell whose events the tail belongs to)
    # plus fresh spill context -- recorded *before* the chaos hook so a
    # chaos crash spills a ring already labeled with this run.
    if _flight.RECORDER.enabled:
        _flight.RECORDER.mark(
            "campaign.run", f"run={run} attempt={attempt} sim={sim}"
        )
    _flight.WORKER_CONTEXT.clear()
    _flight.WORKER_CONTEXT.update(
        program=program, sim=sim, ways=ways, qat_backend=qat_backend,
        run=run, attempt=attempt,
    )
    chaos_hook(run, attempt)
    image = _worker_image(program)
    t0 = time.perf_counter()
    start = 0 if _obs.active else _first_event(task)
    if start:
        subject, start = _forked_golden(task, image, start)
    else:
        subject = _new_simulator(sim, ways, None, qat_backend=_run_qat(
            program, sim, ways, qat_backend))
        subject.load(image)
    steps = 0
    error = None
    try:
        steps = _drive(subject, plan, watchdog, start)
    except ReproError as exc:
        error = str(exc)
    machine = subject.machine
    detail = _classify(run, plan, error, machine.traps,
                       _architectural_result(machine), golden)
    from repro.obs.progress import worker_ident

    return (run, detail, time.perf_counter() - t0, steps, worker_ident())


def _batch_pending(pending: list, batch: int, image, settle) -> None:
    """Execute pending campaign tasks in lane batches, in-process.

    Each chunk of up to ``batch`` tasks becomes one
    :class:`~repro.cpu.batch.BatchFunctionalSimulator` (on the RE
    substrate, its lanes share one fork of the golden store): every run
    is a lane with its task's :class:`FaultPlan`, fault events are
    injected on the lane's array slices, and each lane is classified by
    :func:`_classify` (a parked lane's error text is the serial run's
    exception), so the merged report is byte-identical to the serial
    campaign.  Wall seconds are apportioned evenly across the chunk's
    lanes for the progress heartbeats (never part of the report).
    """
    from repro.cpu.batch import BatchFunctionalSimulator, BatchREQat
    from repro.obs.progress import worker_ident

    worker = worker_ident()
    for chunk_start in range(0, len(pending), batch):
        chunk = pending[chunk_start:chunk_start + batch]
        _, program, sim, ways, qat_backend, _, golden, watchdog = chunk[0]
        if _flight.RECORDER.enabled:
            _flight.RECORDER.mark(
                "campaign.batch",
                f"runs={chunk[0].run}..{chunk[-1].run} lanes={len(chunk)} "
                f"sim={sim}",
            )
        _flight.WORKER_CONTEXT.clear()
        _flight.WORKER_CONTEXT.update(
            program=program, sim=sim, ways=ways, qat_backend=qat_backend,
            run=chunk[0].run, batch=len(chunk),
        )
        plans = [task.plan for task in chunk]
        qat = qat_backend
        if qat_backend == "re":
            qat = BatchREQat(len(chunk), ways,
                             store=_re_template(program, sim, ways).fork())
        subject = BatchFunctionalSimulator(len(chunk), ways=ways,
                                           qat_backend=qat)
        subject.load(image)
        t0 = time.perf_counter()
        lane_steps = subject.run(
            watchdog, plans=plans,
            watchdog_detail=f"campaign watchdog: exceeded {watchdog} steps",
        )
        seconds = (time.perf_counter() - t0) / len(chunk)
        machines = subject.machines
        for lane, task in enumerate(chunk):
            run = task.run
            error = machines.errors[lane]
            detail = _classify(
                run, task.plan, error,
                machines.traps[lane],
                (tuple(int(r) for r in machines.regs[lane]),
                 tuple(machines.output[lane])),
                golden,
            )
            # The serial run's exception path never assigns steps.
            steps = 0 if error is not None else int(lane_steps[lane])
            settle(run, detail, seconds, steps, 1, worker)


class CampaignInterrupted(ReproError):
    """A fan-out campaign was interrupted (Ctrl-C) mid-flight.

    Carries the partial ``report`` (completed runs only, marked with
    ``"interrupted": true``) so the CLI can still flush it and record a
    ledger row with the ``interrupted`` exit status instead of losing
    the run to a traceback.  Already-completed shards were journaled,
    so ``tangled faults --resume <run-id>`` finishes the campaign.
    """

    def __init__(self, report: dict, done: int, total: int):
        self.report = report
        self.done = done
        self.total = total
        super().__init__(f"campaign interrupted after {done}/{total} runs")


def _toxic_detail(task: RunTask, outcome) -> dict:
    """RunResult-shaped dict for a quarantined (poison) shard."""
    return {
        "run": task.run,
        "seed": task.plan.seed,
        "outcome": TOXIC,
        "events": [],
        "traps": [],
        "error": outcome.quarantine_message(),
        "failures": outcome.failure_kinds,
        "blackbox": getattr(outcome, "blackbox", None),
    }


def _campaign_report(program, sim, ways, qat_backend, seed, runs,
                     faults_per_run, targets, golden, golden_steps,
                     results: list[dict]) -> dict:
    """Fold run details into the JSON-ready campaign report."""
    counts = {DETECTED: 0, MASKED: 0, SILENT: 0, TOXIC: 0}
    for detail in results:
        counts[detail["outcome"]] += 1
    total = float(max(len(results), 1))
    return {
        "program": program,
        "sim": sim,
        "ways": ways,
        "qat_backend": qat_backend,
        "seed": seed,
        "runs": runs,
        "faults_per_run": faults_per_run,
        "targets": list(targets),
        "golden": {
            "r0": golden[0][0],
            "r1": golden[0][1],
            "output": list(golden[1]),
            "steps": golden_steps,
        },
        "summary": {
            "detected": counts[DETECTED],
            "masked": counts[MASKED],
            "silent": counts[SILENT],
            "toxic": counts[TOXIC],
            "detected_rate": round(counts[DETECTED] / total, 4),
            "masked_rate": round(counts[MASKED] / total, 4),
            "silent_rate": round(counts[SILENT] / total, 4),
            "toxic_rate": round(counts[TOXIC] / total, 4),
        },
        "runs_detail": results,
    }


def _campaign_tasks(program: str, image, golden: tuple, golden_steps: int,
                    runs: int, seed: int, sim: str, ways: int,
                    faults_per_run: int, targets, qat_backend: str
                    ) -> list[RunTask]:
    """Every run's task, its :class:`FaultPlan` seeded from ``seed`` and
    the run index -- the one place a campaign derives its plans."""
    # Concentrate memory faults on the loaded image plus a data margin.
    mem_span = max(64, 2 * len(getattr(image, "words", image)))
    watchdog = golden_steps * _WATCHDOG_FACTOR + _WATCHDOG_SLACK
    return [
        RunTask(run, program, sim, ways, qat_backend,
                FaultPlan.from_seed(seed * 1_000_003 + run, faults_per_run,
                                    max_step=golden_steps, ways=ways,
                                    targets=tuple(targets),
                                    mem_span=mem_span),
                golden, watchdog)
        for run in range(runs)
    ]


def run_campaign(
    program: str = "fig10",
    runs: int = 20,
    seed: int = 7,
    sim: str = "functional",
    ways: int = 8,
    faults_per_run: int = 1,
    targets: tuple[str, ...] = ("gpr", "mem", "qreg"),
    qat_backend: str = "dense",
    jobs: int = 1,
    batch: int = 1,
    tracker=None,
    supervise=None,
    journal=None,
) -> dict:
    """Run a seeded soft-error campaign; returns the JSON-ready report.

    Every run gets its own simulator and a per-run fault plan seeded
    from ``seed`` and the run index, so the whole campaign is a pure
    function of its arguments.  The golden run records an
    :class:`~repro.faults.prune.AccessIndex`; a run whose every flip
    the golden run overwrites unread (or never reads again, outside the
    result GPRs) is settled ``masked`` here, before any fan-out,
    exactly as its simulation would classify it.  The
    process-global pattern stores are reset first so chunk interning
    from earlier work (or an earlier campaign) can never bleed into
    this one's RE-backed runs.  On the
    RE substrate the golden run's chunk store becomes the campaign's
    template: each run (each lane batch, under ``batch``) computes on a
    fork of it, and the template is dropped when the runs are done.

    ``jobs > 1`` shards the runs across a *supervised* worker pool
    (:class:`repro.runtime.supervisor.Supervisor`): a worker that
    crashes or exceeds the shard timeout is killed and replaced and its
    run retried with backoff; a run that fails every allowed attempt is
    quarantined as outcome ``toxic`` instead of aborting the campaign.
    Each run is a pure function of ``(seed, run index)`` with its own
    simulator and stores, so the merged report -- results reordered by
    run index, counts recomputed in run order -- is byte-identical to
    the serial campaign whenever nothing was quarantined.
    ``supervise`` (a :class:`~repro.runtime.supervisor.SupervisorConfig`)
    tunes timeouts, retry budget, and the per-worker memory ceiling.

    ``journal`` (a :class:`repro.obs.ledger.ShardJournal`) records every
    completed run as it lands; a journal opened with ``resume=True``
    replays already-completed runs from the ledger and re-executes only
    the missing and toxic ones -- still byte-identical to a one-shot
    campaign.  A ``KeyboardInterrupt`` during the fan-out terminates the
    workers and raises :class:`CampaignInterrupted` carrying the partial
    report instead of losing the run.

    ``tracker`` (a :class:`repro.obs.progress.ProgressTracker`) receives
    one heartbeat per completed run -- worker id, wall seconds, steps --
    as results arrive, off the report path: the report bytes are
    identical with or without it.

    ``batch > 1`` is the third execution strategy: runs are packed into
    lane batches on the NumPy-batched functional simulator
    (:mod:`repro.cpu.batch`), one process, vectorized across machines.
    Classification is per lane and the merged report is byte-identical
    to the serial and ``--jobs`` paths.  Batch mode requires the
    functional simulator (the timing models have no batched
    counterpart) and is mutually exclusive with ``jobs > 1``.
    """
    if runs <= 0:
        raise ReproError(f"runs must be positive, got {runs}")
    if jobs <= 0:
        raise ReproError(f"jobs must be positive, got {jobs}")
    if batch <= 0:
        raise ReproError(f"batch must be positive, got {batch}")
    if faults_per_run < 0:
        raise ReproError(
            f"faults_per_run must be non-negative, got {faults_per_run}")
    if batch > 1 and sim != "functional":
        raise ReproError(
            f"batch campaigns need the functional simulator, got {sim!r} "
            f"(the timing models have no batched counterpart)"
        )
    if batch > 1 and jobs > 1:
        raise ReproError(
            "batch and jobs are mutually exclusive fan-out strategies; "
            "use --batch N or --jobs N, not both"
        )
    from repro.obs.ledger import SHARD_DONE, SHARD_TOXIC
    from repro.pattern import reset_default_stores

    reset_default_stores()
    _RE_TEMPLATES.clear()
    _CURSORS.clear()
    image = _load_program(program)
    golden_qat = REQatBackend(ways) if qat_backend == "re" else qat_backend
    accesses = AccessIndex()
    golden, golden_steps = golden_run(image, sim=sim, ways=ways,
                                      qat_backend=golden_qat,
                                      accesses=accesses)
    if qat_backend == "re":
        _RE_TEMPLATES[(program, sim, ways)] = golden_qat.store
    tasks = _campaign_tasks(program, image, golden, golden_steps, runs, seed,
                            sim, ways, faults_per_run, targets, qat_backend)
    fingerprint = {
        "program": program, "runs": runs, "seed": seed, "sim": sim,
        "ways": ways, "faults_per_run": faults_per_run,
        "targets": list(targets), "qat_backend": qat_backend,
    }
    done: dict[int, dict] = {}
    if journal is not None:
        done = journal.begin("faults", fingerprint)
    completed: list[dict] = list(done.values())
    pending = [task for task in tasks if task.run not in done]
    if tracker is not None and done:
        # Replayed shards never heartbeat; track only what will run.
        tracker.total = len(pending)
    # Chosen before pruning, so the telemetry a strategy publishes
    # (supervisor.* for a fan-out, faults.injected.* in-process) does not
    # hang on how many runs the golden run settles.
    fanout = jobs > 1 and len(pending) > 1

    def _settle(run_idx: int, detail: dict, seconds: float, steps: int,
                attempts: int, worker: int, pruned: bool = False) -> None:
        payload = {"run": run_idx, "detail": detail,
                   "seconds": seconds, "steps": steps}
        if pruned:
            payload["pruned"] = True
        completed.append(payload)
        if journal is not None:
            status = SHARD_TOXIC if detail["outcome"] == TOXIC \
                else SHARD_DONE
            journal.record(run_idx, status, attempts, payload)
        if tracker is not None:
            if pruned:
                tracker.note_settled()
            else:
                tracker.note(worker, seconds, steps=steps)

    # Runs the golden run proves masked settle here, before fan-out: a
    # masked detail with no traps and no error, as a simulation of the
    # plan would classify it.
    simulate = []
    for task in pending:
        if not accesses.masked(task.plan):
            simulate.append(task)
            continue
        if _obs.active and not fanout:
            # The injections an in-process drive would have counted
            # (telemetry is off in --jobs workers).
            for event in task.plan.events:
                _obs.current().metrics.counter(
                    f"faults.injected.{event.target}").inc()
        _settle(task.run,
                _classify(task.run, task.plan, None, (), golden, golden),
                0.0, 0, 1, 0, pruned=True)
    pending = simulate
    # Serial and --jobs runs fork the golden cursor at their first fault
    # event; in first-event order each process's cursor only moves on.
    in_fork_order = sorted(pending, key=lambda task: (_first_event(task),
                                                      task.run))

    interrupted = None
    if fanout:
        from repro.runtime.supervisor import (
            Supervisor,
            SupervisorConfig,
            SupervisorInterrupted,
        )

        config = supervise if supervise is not None \
            else SupervisorConfig(jobs=jobs)
        _WORKER_IMAGES.setdefault(program, image)

        def _on_result(outcome) -> None:
            if outcome.ok:
                run_idx, detail, seconds, steps, worker = outcome.result
                _settle(run_idx, detail, seconds, steps,
                        outcome.attempts, worker)
            else:
                _settle(outcome.shard,
                        _toxic_detail(tasks[outcome.shard], outcome),
                        0.0, 0, outcome.attempts, 0)

        supervisor = Supervisor(
            _single_run, config, initializer=_worker_init,
            on_event=(tracker.note_supervisor
                      if tracker is not None else None),
        )
        try:
            supervisor.run({task.run: task for task in in_fork_order},
                           on_result=_on_result)
        except SupervisorInterrupted as stop:
            interrupted = stop
        if _obs.active:
            # The recovery tallies are parent-side state, published
            # whether or not anything failed -- a clean fan-out records
            # explicit zeros in the supervisor.* counter taxonomy.
            _obs.current().supervisor_run(supervisor.stats.as_dict())
    elif pending and batch > 1:
        _WORKER_IMAGES[program] = image
        _batch_pending(pending, batch, image, _settle)
    elif pending:
        _WORKER_IMAGES[program] = image
        for task in in_fork_order:
            run_idx, detail, seconds, steps, worker = _single_run(task)
            _settle(run_idx, detail, seconds, steps, 1, worker)
    _RE_TEMPLATES.clear()
    _CURSORS.clear()
    if tracker is not None:
        tracker.finish()

    completed.sort(key=lambda payload: payload["run"])
    results = [payload["detail"] for payload in completed]
    if _obs.active:
        for payload in completed:
            # Per-run hook: outcome counters plus a run-duration
            # histogram, so ``tangled faults --stats`` shows both the
            # classification totals and the campaign's timing profile.
            # Replayed here (not in workers) so parallel campaigns feed
            # the same parent-process telemetry as serial ones.
            _obs.current().fault_run(
                payload["detail"]["outcome"],
                None if payload.get("pruned") else payload["seconds"])

    report = _campaign_report(program, sim, ways, qat_backend, seed, runs,
                              faults_per_run, targets, golden, golden_steps,
                              results)
    # Blackbox spool files collected from quarantined shards.  Only
    # present when something was actually quarantined, so a healed or
    # clean fan-out stays byte-identical to the serial report.
    blackboxes = sorted(
        detail["blackbox"] for detail in results if detail.get("blackbox")
    )
    if blackboxes:
        report["blackbox"] = blackboxes
    if interrupted is not None:
        report["interrupted"] = True
        raise CampaignInterrupted(report, done=len(completed), total=runs)
    return report


def render_report(report: dict) -> str:
    """Canonical JSON rendering (byte-identical for identical campaigns)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
